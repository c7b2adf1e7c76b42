//! The deployed observer: sniffed bytes → module identity.

use crate::model::ModelConfig;
use deepcsi_bfi::BeamformingFeedback;
use deepcsi_data::InputSpec;
use deepcsi_frame::{
    BeamformingReportFrame, ByteReader, ByteWriter, DecodeError, Envelope, FrameError, MacAddr,
};
use deepcsi_nn::{FrozenModel, InferCtx, Network, QuantError, QuantSpec, Tensor};
use std::fmt;
use std::path::Path;

/// Numeric backend of a frozen serving snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The f32 path — bit-equal to the `deepcsi-nn-ref` reference's
    /// `forward(x, false)`.
    #[default]
    F32,
    /// Post-training-quantized int8: integer conv/dense kernels,
    /// calibrated activation scales, approximately-equal predictions
    /// (see `deepcsi_nn::quant`).
    Int8,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Precision {
    /// The CLI-facing name (`"f32"` / `"int8"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision {other:?} (expected f32 or int8)"
            )),
        }
    }
}

/// Errors from the authentication pipeline.
#[derive(Debug)]
pub enum AuthError {
    /// The captured bytes did not decode as a beamforming report.
    Frame(FrameError),
    /// Model persistence failed.
    Io(std::io::Error),
    /// The file is not a valid `DCSM` model image: bad magic (as a
    /// model written by an older build has), an unknown version, a
    /// truncated body, a CRC mismatch, a bad tag or trailing bytes.
    Codec(DecodeError),
    /// A saved model decoded but cannot be served: its architecture does
    /// not build, its weights do not fit the architecture, or a weight
    /// is NaN or ±∞.
    InvalidModel(String),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::Frame(e) => write!(f, "frame decode failed: {e}"),
            AuthError::Io(e) => write!(f, "model i/o failed: {e}"),
            AuthError::Codec(e) => write!(f, "model codec failed: {e}"),
            AuthError::InvalidModel(reason) => write!(f, "invalid model: {reason}"),
        }
    }
}

impl std::error::Error for AuthError {}

impl From<FrameError> for AuthError {
    fn from(e: FrameError) -> Self {
        AuthError::Frame(e)
    }
}

impl From<std::io::Error> for AuthError {
    fn from(e: std::io::Error) -> Self {
        AuthError::Io(e)
    }
}

impl From<DecodeError> for AuthError {
    fn from(e: DecodeError) -> Self {
        AuthError::Codec(e)
    }
}

/// "DCSM" (DeepCSI Model), format version 1.
const DCSM: Envelope = Envelope {
    magic: *b"DCSM",
    version: 1,
};

/// A saved trained model: architecture + input spec + input shape +
/// weights, and nothing else.
///
/// Layout (all integers little-endian, every `usize` as a `u64`, every
/// list as a `u32` count and its elements, every option as a `0`/`1`
/// tag and its value):
///
/// ```text
/// "DCSM" | version u16
/// ModelConfig   conv_filters [u64] | conv_kernels [u64] | attention_kernel u64
///               dense_units [u64] | dropout_rates [f32] | num_classes u64 | seed u64
/// InputSpec     streams [u64] | antennas [u64] | subcarrier_positions Option<[u64]>
///               stride u64 | offset_cleaning u8
/// input shape   3 × u64
/// weights       [[f32]]
/// crc32 u32     (IEEE, over every preceding byte)
/// ```
struct SavedModel {
    model: ModelConfig,
    spec: InputSpec,
    input_shape: (usize, usize, usize),
    weights: Vec<Vec<f32>>,
}

fn put_usize(w: &mut ByteWriter, &x: &usize) {
    w.u64(x as u64);
}

/// A `usize` written as a `u64`; one that does not fit this host's
/// `usize` saturates, and the architecture checks refuse it.
fn read_usize(r: &mut ByteReader) -> Result<usize, DecodeError> {
    Ok(usize::try_from(r.u64()?).unwrap_or(usize::MAX))
}

impl SavedModel {
    fn encode(&self) -> Vec<u8> {
        let params: usize = self.weights.iter().map(Vec::len).sum();
        let mut w = DCSM.writer(256 + 4 * params);
        let (m, spec) = (&self.model, &self.spec);
        w.list(&m.conv_filters, put_usize);
        w.list(&m.conv_kernels, put_usize);
        put_usize(&mut w, &m.attention_kernel);
        w.list(&m.dense_units, put_usize);
        w.list(&m.dropout_rates, |w, &x| w.f32(x));
        put_usize(&mut w, &m.num_classes);
        w.u64(m.seed);
        w.list(&spec.streams, put_usize);
        w.list(&spec.antennas, put_usize);
        w.opt(spec.subcarrier_positions.as_deref(), |w, v| {
            w.list(v, put_usize)
        });
        put_usize(&mut w, &spec.stride);
        w.u8(spec.offset_cleaning.into());
        let (c, h, wd) = self.input_shape;
        for x in [c, h, wd] {
            put_usize(&mut w, &x);
        }
        w.list(&self.weights, |w, t| w.list(t, |w, &x| w.f32(x)));
        w.finish()
    }

    fn decode(buf: &[u8]) -> Result<SavedModel, DecodeError> {
        let mut r = DCSM.open(buf)?;
        let usizes = |r: &mut ByteReader| r.list(8, read_usize);
        let model = ModelConfig {
            conv_filters: usizes(&mut r)?,
            conv_kernels: usizes(&mut r)?,
            attention_kernel: read_usize(&mut r)?,
            dense_units: usizes(&mut r)?,
            dropout_rates: r.list(4, ByteReader::f32)?,
            num_classes: read_usize(&mut r)?,
            seed: r.u64()?,
        };
        let spec = InputSpec {
            streams: usizes(&mut r)?,
            antennas: usizes(&mut r)?,
            subcarrier_positions: r.opt(usizes)?,
            stride: read_usize(&mut r)?,
            offset_cleaning: r.bool()?,
        };
        let input_shape = (
            read_usize(&mut r)?,
            read_usize(&mut r)?,
            read_usize(&mut r)?,
        );
        // ≥ 4 bytes per tensor: its own length prefix.
        let weights = r.list(4, |r| r.list(4, ByteReader::f32))?;
        r.finish()?;
        Ok(SavedModel {
            model,
            spec,
            input_shape,
            weights,
        })
    }
}

/// A trained DeepCSI classifier: the network, the input spec it was
/// trained with and, for saving, its architecture.
///
/// It trains, saves and loads; to classify, [`Authenticator::freeze`]
/// it once into the [`FrozenAuthenticator`] that serves (the "DeepCSI
/// Real-Time Inference" box of Fig. 1).
#[derive(Clone)]
pub struct Authenticator {
    net: Network,
    spec: InputSpec,
    model: Option<ModelConfig>,
    input_shape: Option<(usize, usize, usize)>,
}

impl Authenticator {
    /// Wraps a trained network and the input spec it was trained with.
    pub fn new(net: Network, spec: InputSpec) -> Self {
        Authenticator {
            net,
            spec,
            model: None,
            input_shape: None,
        }
    }

    /// Like [`Authenticator::new`], also recording the architecture so
    /// the model can be saved with [`Authenticator::save`].
    pub fn with_config(
        net: Network,
        spec: InputSpec,
        model: ModelConfig,
        input_shape: (usize, usize, usize),
    ) -> Self {
        Authenticator {
            net,
            spec,
            model: Some(model),
            input_shape: Some(input_shape),
        }
    }

    /// The input spec this authenticator tensorises feedback with.
    pub fn spec(&self) -> &InputSpec {
        &self.spec
    }

    /// The recorded input shape `(channels, rows, cols)`, when this
    /// authenticator was built with [`Authenticator::with_config`] or
    /// loaded from disk. The serving engine uses it to pin the accepted
    /// tensor shape up front.
    pub fn input_shape(&self) -> Option<(usize, usize, usize)> {
        self.input_shape
    }

    /// Builds the input tensor for a parsed feedback without classifying
    /// it (the serving engine batches tensors before inference).
    pub fn tensorize(&self, fb: &BeamformingFeedback) -> Tensor {
        self.spec.tensor(fb)
    }

    /// Snapshots this authenticator into an immutable, `Send + Sync`
    /// [`FrozenAuthenticator`] for serving.
    ///
    /// The frozen model's predictions are bit-equal to the
    /// `deepcsi-nn-ref` reference's `forward(x, false)`; the weights are copied exactly once, so any
    /// number of worker threads can share one `Arc<FrozenAuthenticator>`
    /// with no per-worker clone.
    pub fn freeze(&self) -> FrozenAuthenticator {
        FrozenAuthenticator {
            model: self.net.freeze(),
            spec: self.spec.clone(),
            input_shape: self.input_shape,
            precision: Precision::F32,
        }
    }

    /// Saves the trained model as a `DCSM` file (requires construction
    /// via [`Authenticator::with_config`]).
    ///
    /// # Errors
    ///
    /// I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if the authenticator was built without a recorded
    /// architecture.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), AuthError> {
        let model = self.model.clone().expect("architecture not recorded");
        let input_shape = self.input_shape.expect("input shape not recorded");
        let saved = SavedModel {
            model,
            spec: self.spec.clone(),
            input_shape,
            weights: self.net.save_weights(),
        };
        std::fs::write(path, saved.encode())?;
        Ok(())
    }

    /// Loads a model saved by [`Authenticator::save`].
    ///
    /// The file's weight tensors must have the lengths its architecture
    /// needs before anything is built, so a corrupt or crafted
    /// architecture costs no more memory than the file's own weights.
    ///
    /// # Errors
    ///
    /// [`AuthError::Io`] when the file cannot be read,
    /// [`AuthError::Codec`] when it is not an intact `DCSM` image (a
    /// model saved by an older build has no `DCSM` magic and is refused
    /// here), and [`AuthError::InvalidModel`] when the decoded model
    /// cannot be served (see [`ModelConfig::validate`] and
    /// `Network::load_weights`) — a corrupt file is refused here rather
    /// than panicking or serving NaN.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, AuthError> {
        let saved = SavedModel::decode(&std::fs::read(path)?)?;
        let lens = saved
            .model
            .weight_lens(saved.input_shape)
            .map_err(AuthError::InvalidModel)?;
        if !lens.iter().copied().eq(saved.weights.iter().map(Vec::len)) {
            return Err(AuthError::InvalidModel(format!(
                "the weights do not fit the architecture, which needs {} tensors of {lens:?} values",
                lens.len()
            )));
        }
        let mut net = saved.model.build(saved.input_shape);
        net.load_weights(&saved.weights)
            .map_err(AuthError::InvalidModel)?;
        Ok(Authenticator {
            net,
            spec: saved.spec,
            model: Some(saved.model),
            input_shape: Some(saved.input_shape),
        })
    }
}

/// An immutable, `Send + Sync` snapshot of a trained [`Authenticator`]:
/// the frozen classifier weights plus the input spec they were trained
/// with.
///
/// Produced by [`Authenticator::freeze`]. This is the type the serving
/// engine shares across its worker ring — one `Arc<FrozenAuthenticator>`
/// for the whole pool, each worker holding only its own scratch
/// [`InferCtx`]s. All inference is bit-equal to the source
/// authenticator's.
pub struct FrozenAuthenticator {
    model: FrozenModel,
    spec: InputSpec,
    input_shape: Option<(usize, usize, usize)>,
    precision: Precision,
}

impl FrozenAuthenticator {
    /// Builds a post-training-quantized **int8** snapshot of `auth`:
    /// activation scales are calibrated by running `calib` (a
    /// representative batch of input tensors, e.g.
    /// [`Authenticator::tensorize`]d training feedback) through the f32
    /// model, then the conv/dense layers are re-frozen onto integer
    /// kernels (`deepcsi_nn::quant`).
    ///
    /// Predictions are *approximately* equal to the f32 snapshot's —
    /// top-1 agreement is pinned ≥ 99% by the accuracy-parity suite —
    /// and, like f32, **bit-identical at any batch size**, so the
    /// engine's worker- and batch-invariance contract holds at both
    /// precisions.
    ///
    /// # Errors
    ///
    /// [`QuantError::EmptySample`] for an empty calibration batch;
    /// [`QuantError::Shape`] when the assembled pipeline fails shape
    /// validation (mis-matched calibration).
    pub fn quantized(
        auth: &Authenticator,
        calib: &[Tensor],
    ) -> Result<FrozenAuthenticator, QuantError> {
        let spec = QuantSpec::calibrate(&auth.net.freeze(), calib)?;
        Ok(FrozenAuthenticator {
            model: auth.net.freeze_int8(&spec)?,
            spec: auth.spec.clone(),
            input_shape: auth.input_shape,
            precision: Precision::Int8,
        })
    }

    /// The input spec feedback is tensorised with.
    pub fn spec(&self) -> &InputSpec {
        &self.spec
    }

    /// The numeric backend this snapshot serves with.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The recorded input shape `(channels, rows, cols)`, when the
    /// source authenticator recorded one (see
    /// [`Authenticator::input_shape`]).
    pub fn input_shape(&self) -> Option<(usize, usize, usize)> {
        self.input_shape
    }

    /// The frozen classifier.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// A fresh per-worker scratch context.
    pub fn ctx(&self) -> InferCtx {
        self.model.ctx()
    }

    /// Builds the input tensor for a parsed feedback without classifying
    /// it (the serving engine batches tensors before inference).
    pub fn tensorize(&self, fb: &BeamformingFeedback) -> Tensor {
        self.spec.tensor(fb)
    }

    /// Classifies a parsed beamforming feedback, returning the predicted
    /// module id.
    pub fn classify_feedback(&self, fb: &BeamformingFeedback, ctx: &mut InferCtx) -> usize {
        let x = self.spec.tensor(fb);
        self.model.infer(&x, ctx).argmax()
    }

    /// Decodes a captured frame and classifies its feedback, returning
    /// the reporting beamformee's address and the predicted module id.
    ///
    /// # Errors
    ///
    /// [`AuthError::Frame`] when the bytes do not parse.
    pub fn classify_frame(
        &self,
        bytes: &[u8],
        ctx: &mut InferCtx,
    ) -> Result<(MacAddr, usize), AuthError> {
        let frame = BeamformingReportFrame::parse(bytes)?;
        Ok((
            frame.source(),
            self.classify_feedback(frame.feedback(), ctx),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_data::{generate_trace, GenConfig, TraceKind, TraceSpec};
    use deepcsi_impair::DeviceId;

    fn tiny_trace() -> deepcsi_data::Trace {
        generate_trace(
            &GenConfig {
                snapshots_per_trace: 2,
                ..GenConfig::default()
            },
            &TraceSpec {
                module: DeviceId(0),
                beamformee: 1,
                n_rx: 2,
                rx_position: 3,
                kind: TraceKind::D1Static { position: 3 },
            },
        )
    }

    fn tiny_authenticator() -> (Authenticator, ModelConfig, InputSpec) {
        let spec = InputSpec::fast();
        let trace = tiny_trace();
        let probe = spec.tensor(&trace.snapshots[0]);
        let [c, h, w]: [usize; 3] = probe.shape().try_into().unwrap();
        let model = ModelConfig::fast(3, 9);
        let net = model.build((c, h, w));
        (
            Authenticator::with_config(net, spec.clone(), model.clone(), (c, h, w)),
            model,
            spec,
        )
    }

    #[test]
    fn classifies_feedback_and_frames_consistently() {
        let frozen = tiny_authenticator().0.freeze();
        let mut ctx = frozen.ctx();
        let trace = tiny_trace();
        let fb = &trace.snapshots[0];
        let direct = frozen.classify_feedback(fb, &mut ctx);
        assert!(direct < 3);
        // Through the frame path.
        let frame = deepcsi_frame::BeamformingReportFrame::new(
            MacAddr::station(100),
            MacAddr::station(1),
            MacAddr::station(100),
            3,
            fb.clone(),
        );
        let (src, id) = frozen.classify_frame(&frame.encode(), &mut ctx).unwrap();
        assert_eq!(src, MacAddr::station(1));
        assert_eq!(id, direct);
    }

    #[test]
    fn garbage_frame_is_an_error() {
        let frozen = tiny_authenticator().0.freeze();
        let err = frozen
            .classify_frame(&[0u8; 10], &mut frozen.ctx())
            .unwrap_err();
        assert!(matches!(err, AuthError::Frame(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn save_load_preserves_predictions() {
        let (auth, _, _) = tiny_authenticator();
        let trace = tiny_trace();
        let predict = |auth: &Authenticator| -> Vec<usize> {
            let frozen = auth.freeze();
            let mut ctx = frozen.ctx();
            trace
                .snapshots
                .iter()
                .map(|fb| frozen.classify_feedback(fb, &mut ctx))
                .collect()
        };
        let before = predict(&auth);
        let dir = std::env::temp_dir().join("deepcsi-auth-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let loaded = Authenticator::load(&path).unwrap();
        assert_eq!(before, predict(&loaded));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_clone_freezes_to_the_same_predictions() {
        let (auth, _, _) = tiny_authenticator();
        let (frozen, copy) = (auth.freeze(), auth.clone().freeze());
        let (mut ctx, mut copy_ctx) = (frozen.ctx(), copy.ctx());
        let trace = tiny_trace();
        for fb in &trace.snapshots {
            assert_eq!(
                frozen.classify_feedback(fb, &mut ctx),
                copy.classify_feedback(fb, &mut copy_ctx)
            );
        }
        assert_eq!(frozen.input_shape(), auth.input_shape());
    }

    #[test]
    fn load_refuses_a_corrupt_model() {
        let (auth, _, _) = tiny_authenticator();
        let dir = std::env::temp_dir().join("deepcsi-auth-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for what in [
            "truncated weight vector",
            "NaN weight",
            "mismatched config lengths",
        ] {
            let mut bad = SavedModel::decode(&bytes).unwrap();
            match what {
                "truncated weight vector" => drop(bad.weights[0].pop()),
                "NaN weight" => bad.weights[1][0] = f32::NAN,
                _ => bad.model.conv_kernels.push(3),
            }
            std::fs::write(&path, bad.encode()).unwrap();
            assert!(
                matches!(Authenticator::load(&path), Err(AuthError::InvalidModel(_))),
                "{what} must be refused"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_refuses_an_overflowing_architecture_before_building_it() {
        let (auth, _, _) = tiny_authenticator();
        let dir = std::env::temp_dir().join("deepcsi-auth-overflow-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let mut bad = SavedModel::decode(&std::fs::read(&path).unwrap()).unwrap();
        // 2⁶² filters: the first conv's weight count overflows usize.
        bad.model.conv_filters[0] = 1 << 62;
        std::fs::write(&path, bad.encode()).unwrap();
        match Authenticator::load(&path) {
            Err(AuthError::InvalidModel(reason)) => {
                assert!(reason.contains("overflows"), "{reason}")
            }
            other => panic!(
                "an overflowing architecture must be refused, got {:?}",
                other.err()
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_refuses_what_is_not_an_intact_dcsm_image() {
        let (auth, _, _) = tiny_authenticator();
        let dir = std::env::temp_dir().join("deepcsi-auth-envelope-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            Authenticator::load(&path)
        };
        // A model written by an older build starts with the u64 length
        // of `conv_filters`, not with the magic.
        let old = [&4u64.to_le_bytes()[..], &image[4..]].concat();
        assert!(matches!(
            load(&old),
            Err(AuthError::Codec(DecodeError::BadMagic { .. }))
        ));
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            load(&flipped),
            Err(AuthError::Codec(DecodeError::BadCrc { .. }))
        ));
        assert!(load(&image).is_ok());
        // Every strict prefix of a valid image, on a one-filter model
        // small enough to load once per prefix.
        let model = ModelConfig {
            conv_filters: vec![1],
            conv_kernels: vec![1],
            attention_kernel: 1,
            dense_units: vec![2],
            dropout_rates: vec![0.0],
            num_classes: 2,
            seed: 1,
        };
        let image = SavedModel {
            weights: model.build((1, 1, 2)).save_weights(),
            model,
            spec: InputSpec::default(),
            input_shape: (1, 1, 2),
        }
        .encode();
        assert!(load(&image).is_ok());
        for n in 0..image.len() {
            assert!(
                matches!(load(&image[..n]), Err(AuthError::Codec(_))),
                "a {n}-byte prefix must be refused"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_fails() {
        assert!(matches!(
            Authenticator::load("/nonexistent/model.bin"),
            Err(AuthError::Io(_))
        ));
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("fp16".parse::<Precision>().is_err());
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn quantized_snapshot_serves_the_same_interface() {
        let (auth, _, _) = tiny_authenticator();
        let trace = tiny_trace();
        let calib: Vec<Tensor> = trace
            .snapshots
            .iter()
            .map(|fb| auth.tensorize(fb))
            .collect();
        let frozen = auth.freeze();
        let int8 = FrozenAuthenticator::quantized(&auth, &calib).unwrap();
        assert_eq!(frozen.precision(), Precision::F32);
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(int8.input_shape(), auth.input_shape());
        let mut ctx = int8.ctx();
        for fb in &trace.snapshots {
            let id = int8.classify_feedback(fb, &mut ctx);
            assert!(id < 3);
        }
        // Empty calibration is rejected up front.
        assert!(FrozenAuthenticator::quantized(&auth, &[]).is_err());
    }
}
