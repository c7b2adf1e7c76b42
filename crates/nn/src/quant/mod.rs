//! Post-training int8 quantization for frozen inference.
//!
//! The beamforming feedback angles arrive over the air **already
//! quantized** to a handful of bits, yet the f32 serving path widens
//! everything to float immediately. This module closes that loop: a
//! trained [`crate::Network`] can be snapshotted into an int8
//! [`crate::FrozenModel`] that runs the conv/dense hot loops in integer
//! arithmetic and serves behind the exact same [`crate::InferOp`] seam —
//! the engine, the per-worker [`crate::InferCtx`] scratch and the
//! thread-parallel lane split all work unchanged.
//!
//! The scheme is standard post-training quantization:
//!
//! * **Weights** — per-output-channel symmetric int8: each conv filter /
//!   dense row gets its own scale `s_w[o] = max|w| / 127`, computed from
//!   the weights themselves at freeze time.
//! * **Activations** — per-tensor symmetric int8, calibrated by running
//!   a caller-supplied sample batch through the **f32** frozen model and
//!   recording each op boundary's min/max ([`QuantSpec::calibrate`]).
//! * **Kernels** — conv/dense accumulate `i8 × i8 → i32` and requantize
//!   once at layer exit (`quant::ops`); SELU, sigmoid and the attention
//!   block keep their f32 ops, fed through dequantize/quantize hops in
//!   the context's scratch planes. Max-pool and flatten run inside the
//!   int8 domain (max is monotone; flatten is a shape relabel), so a
//!   conv → pool → conv block round-trips through float only for its
//!   activation function.
//!
//! Assembly ([`crate::Network::freeze_int8`]) walks the training layers,
//! inserts the domain-conversion ops where the numeric domain changes,
//! and validates the finished chain with
//! [`crate::FrozenModel::from_ops_checked`] — a mis-assembled pipeline
//! fails at freeze time with a [`crate::ShapeMismatch`], never inside a
//! serving worker.

pub(crate) mod ops;

use crate::frozen::{FrozenModel, ShapeMismatch};
use crate::layer::Layer;
use crate::tensor::Tensor;
use ops::{Dequantize, Quantize};
use std::fmt;

/// How a layer participates in an int8 pipeline (returned by
/// [`Layer::freeze_int8`]).
pub enum Int8Freeze {
    /// An integer-kernel op that consumes the int8 plane at the layer's
    /// input scale and **requantizes** its output to the layer's
    /// calibrated output scale (conv/dense).
    Requantized(Box<dyn crate::InferOp>),
    /// An op that transforms the int8 plane without touching its scale
    /// (max-pool, flatten, dropout). Falls back to the layer's f32 op
    /// when the pipeline is in the f32 domain at this point.
    ScalePreserving(Box<dyn crate::InferOp>),
}

/// Errors from calibration or int8 assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// The calibration sample batch was empty.
    EmptySample,
    /// The spec was calibrated on a model with a different layer count.
    BoundaryCount {
        /// Boundaries the network needs (`layers + 1`).
        expected: usize,
        /// Boundaries the spec recorded.
        got: usize,
    },
    /// The assembled op chain does not shape-check against the
    /// calibration input shape.
    Shape(ShapeMismatch),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::EmptySample => write!(f, "calibration sample batch is empty"),
            QuantError::BoundaryCount { expected, got } => write!(
                f,
                "quant spec records {got} activation boundaries, network needs {expected} \
                 (calibrated against a different model?)"
            ),
            QuantError::Shape(s) => write!(f, "int8 pipeline failed shape validation: {s}"),
        }
    }
}

impl std::error::Error for QuantError {}

impl From<ShapeMismatch> for QuantError {
    fn from(s: ShapeMismatch) -> Self {
        QuantError::Shape(s)
    }
}

/// One observed activation range (per-tensor, at one op boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActRange {
    /// Smallest observed value.
    pub min: f32,
    /// Largest observed value.
    pub max: f32,
}

impl ActRange {
    fn empty() -> ActRange {
        ActRange {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        }
    }

    fn absorb(&mut self, xs: &[f32]) {
        for &v in xs {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// The symmetric int8 scale covering this range
    /// (`max(|min|, |max|) / 127`; `1.0` for a degenerate all-zero
    /// range, where the scale's value cannot matter).
    pub fn scale(&self) -> f32 {
        let amax = self.min.abs().max(self.max.abs());
        if amax > 0.0 && amax.is_finite() {
            amax / 127.0
        } else {
            1.0
        }
    }
}

/// Chunk size for the calibration pass (bounds the ctx plane size; the
/// recorded ranges are chunk-order independent since min/max commute).
const CALIB_CHUNK: usize = 32;

/// A calibrated quantization recipe for one model: the per-tensor
/// activation scale at every op boundary of the f32 pipeline, plus the
/// per-sample input shape it was calibrated with.
///
/// Per-channel **weight** scales are not stored here — they derive from
/// the weights themselves when [`crate::Network::freeze_int8`] quantizes
/// each layer.
///
/// ```
/// use deepcsi_nn::{Dense, Network, QuantSpec, Selu, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, 1));
/// net.push(Selu::new());
/// net.push(Dense::new(8, 2, 2));
/// let sample: Vec<Tensor> = (0..8)
///     .map(|s| Tensor::from_vec(vec![0.1 * s as f32; 4], vec![4]))
///     .collect();
/// let spec = QuantSpec::calibrate(&net.freeze(), &sample).unwrap();
/// let int8 = net.freeze_int8(&spec).unwrap();
/// let y = int8.infer(&sample[3], &mut int8.ctx());
/// assert_eq!(y.shape(), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSpec {
    /// Observed range at each boundary: `ranges[0]` is the model input,
    /// `ranges[i + 1]` the output of f32 op `i`.
    ranges: Vec<ActRange>,
    /// Per-sample shape of the calibration inputs.
    input_shape: Vec<usize>,
    /// Calibration batch size.
    samples: usize,
}

impl QuantSpec {
    /// Calibrates activation scales by running `sample` through the f32
    /// `model` and recording min/max at every op boundary.
    ///
    /// # Errors
    ///
    /// [`QuantError::EmptySample`] when `sample` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape (the same contract as
    /// [`FrozenModel::infer_batch`]).
    pub fn calibrate(model: &FrozenModel, sample: &[Tensor]) -> Result<QuantSpec, QuantError> {
        if sample.is_empty() {
            return Err(QuantError::EmptySample);
        }
        let mut ranges = vec![ActRange::empty(); model.ops.len() + 1];
        let mut ctx = model.ctx();
        for chunk in sample.chunks(CALIB_CHUNK) {
            ctx.load(chunk);
            ranges[0].absorb(ctx.data());
            for (i, op) in model.ops.iter().enumerate() {
                op.apply(&mut ctx);
                ranges[i + 1].absorb(ctx.data());
            }
        }
        Ok(QuantSpec {
            ranges,
            input_shape: sample[0].shape().to_vec(),
            samples: sample.len(),
        })
    }

    /// Number of recorded boundaries (`ops + 1`).
    pub fn boundaries(&self) -> usize {
        self.ranges.len()
    }

    /// The observed range at boundary `i` (`0` = model input, `i + 1` =
    /// output of op `i`).
    pub fn range(&self, i: usize) -> ActRange {
        self.ranges[i]
    }

    /// The symmetric activation scale at boundary `i`.
    pub fn act_scale(&self, i: usize) -> f32 {
        self.ranges[i].scale()
    }

    /// Per-sample shape of the calibration inputs.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Calibration batch size.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// Assembles the int8 op chain for `layers` under `spec` (the body of
/// [`crate::Network::freeze_int8`]).
///
/// Walks the training layers tracking the numeric domain: integer
/// kernels enter the int8 domain (inserting a [`Quantize`] at the
/// calibrated boundary scale when coming from f32), scale-preserving ops
/// ride along inside it, and anything else forces a [`Dequantize`] back
/// to f32 first. The finished chain always ends in the f32 domain and is
/// shape-validated against the calibration input shape before it is
/// handed back.
pub(crate) fn assemble(
    layers: &[Box<dyn Layer>],
    spec: &QuantSpec,
) -> Result<FrozenModel, QuantError> {
    let expected = layers.len() + 1;
    if spec.boundaries() != expected {
        return Err(QuantError::BoundaryCount {
            expected,
            got: spec.boundaries(),
        });
    }
    let mut ops: Vec<Box<dyn crate::InferOp>> = Vec::new();
    let mut int8 = false;
    // The scale actually carried by the int8 plane. Scale-preserving ops
    // (pool) pass it through, so it can lag the per-boundary calibrated
    // scale — integer kernels consume whatever the plane really holds.
    let mut cur_scale = 0.0f32;
    for (i, layer) in layers.iter().enumerate() {
        let in_scale = if int8 { cur_scale } else { spec.act_scale(i) };
        let out_scale = spec.act_scale(i + 1);
        match layer.freeze_int8(in_scale, out_scale) {
            Some(Int8Freeze::Requantized(op)) => {
                if !int8 {
                    ops.push(Box::new(Quantize { scale: in_scale }));
                    int8 = true;
                }
                ops.push(op);
                cur_scale = out_scale;
            }
            Some(Int8Freeze::ScalePreserving(op)) if int8 => ops.push(op),
            Some(Int8Freeze::ScalePreserving(_)) => ops.push(layer.freeze()),
            None => {
                if int8 {
                    ops.push(Box::new(Dequantize));
                    int8 = false;
                }
                ops.push(layer.freeze());
            }
        }
    }
    if int8 {
        ops.push(Box::new(Dequantize));
    }
    Ok(FrozenModel::from_ops_checked(ops, &spec.input_shape)?)
}

/// One layer's quantized operand set, shared by the conv and dense
/// `freeze_int8` implementations: i16-materialized int8-grid weights,
/// per-output requantize multipliers and bias in output-scale units.
pub(crate) struct QuantizedLayerParts {
    pub(crate) weight: Vec<i16>,
    pub(crate) m: Vec<f32>,
    pub(crate) bq: Vec<f32>,
}

/// Quantizes one layer's weights and bias for an integer kernel:
/// per-output-channel symmetric weight scales, the folded requantize
/// multiplier `s_in · s_w[o] / s_out`, and the bias rescaled to
/// output-scale units.
pub(crate) fn quantize_layer(
    weight: &[f32],
    bias: &[f32],
    out_ch: usize,
    in_scale: f32,
    out_scale: f32,
) -> QuantizedLayerParts {
    let (q, wscales) = quantize_weights_per_channel(weight, out_ch);
    QuantizedLayerParts {
        // i16-materialized int8 grid (the kernels' operand width).
        weight: q.iter().map(|&v| i16::from(v)).collect(),
        m: wscales.iter().map(|&s| in_scale * s / out_scale).collect(),
        bq: bias.iter().map(|&b| b / out_scale).collect(),
    }
}

/// Per-output-channel symmetric quantization of one weight tensor:
/// returns `(q, scales)` where row `o` of `q` is `round(w / scales[o])`
/// clamped to `[-127, 127]`.
pub(crate) fn quantize_weights_per_channel(weight: &[f32], out_ch: usize) -> (Vec<i8>, Vec<f32>) {
    assert!(
        out_ch > 0 && weight.len().is_multiple_of(out_ch),
        "ragged weight rows"
    );
    let row = weight.len() / out_ch;
    let mut q = vec![0i8; weight.len()];
    let mut scales = vec![1.0f32; out_ch];
    for o in 0..out_ch {
        let ws = &weight[o * row..(o + 1) * row];
        let amax = ws.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        let s = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        scales[o] = s;
        for (qv, &w) in q[o * row..(o + 1) * row].iter_mut().zip(ws) {
            *qv = (w / s).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Selu};
    use crate::network::Network;

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 6, 1));
        net.push(Selu::new());
        net.push(Dense::new(6, 3, 2));
        net
    }

    fn sample() -> Vec<Tensor> {
        (0..20)
            .map(|s| {
                Tensor::from_vec(
                    (0..4)
                        .map(|e| ((e * 5 + s) % 9) as f32 * 0.3 - 1.2)
                        .collect(),
                    vec![4],
                )
            })
            .collect()
    }

    #[test]
    fn calibrate_records_one_range_per_boundary() {
        let net = tiny_net();
        let spec = QuantSpec::calibrate(&net.freeze(), &sample()).unwrap();
        assert_eq!(spec.boundaries(), net.len() + 1);
        assert_eq!(spec.input_shape(), &[4]);
        assert_eq!(spec.samples(), 20);
        for i in 0..spec.boundaries() {
            let r = spec.range(i);
            assert!(r.min <= r.max, "boundary {i}: {r:?}");
            assert!(spec.act_scale(i) > 0.0);
        }
    }

    #[test]
    fn empty_sample_is_an_error() {
        let net = tiny_net();
        assert_eq!(
            QuantSpec::calibrate(&net.freeze(), &[]).unwrap_err(),
            QuantError::EmptySample
        );
    }

    #[test]
    fn spec_from_another_model_is_rejected() {
        let net = tiny_net();
        let spec = QuantSpec::calibrate(&net.freeze(), &sample()).unwrap();
        let mut longer = tiny_net();
        longer.push(Selu::new());
        match longer.freeze_int8(&spec).unwrap_err() {
            QuantError::BoundaryCount { expected, got } => {
                assert_eq!((expected, got), (5, 4));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn degenerate_range_scale_is_safe() {
        let r = ActRange { min: 0.0, max: 0.0 };
        assert_eq!(r.scale(), 1.0);
    }

    #[test]
    fn per_channel_weight_roundtrip_error_is_within_half_scale() {
        let weight: Vec<f32> = (0..24)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.37)
            .collect();
        let (q, scales) = quantize_weights_per_channel(&weight, 4);
        assert_eq!(q.len(), 24);
        assert_eq!(scales.len(), 4);
        let err_max = weight
            .iter()
            .zip(&q)
            .enumerate()
            .map(|(i, (&w, &qv))| (w - f32::from(qv) * scales[i / 6]).abs())
            .fold(0.0f32, f32::max);
        // Exact-arithmetic bound is scale/2; allow a few float ulps from
        // the `w / s` and `q · s` roundings themselves.
        let bound = scales.iter().fold(0.0f32, |m, &s| m.max(s)) / 2.0 * (1.0 + 1e-5);
        assert!(err_max <= bound, "err {err_max} > scale/2 {bound}");
        // Per-channel: each row's max |w| maps exactly onto ±127.
        for (o, &s) in scales.iter().enumerate() {
            let row = &weight[o * 6..(o + 1) * 6];
            let amax = row.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            assert!((s - amax / 127.0).abs() < 1e-12);
        }
    }
}
