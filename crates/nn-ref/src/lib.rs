//! A naive per-sample reference for the `deepcsi-nn` layers.
//!
//! `deepcsi-nn` trains and serves through batched kernels over its
//! batch-innermost planes. Each of them must give, lane by lane, exactly
//! the floats these plain loops give one sample at a time: the same
//! terms, added in the same order, from the same starting value. This
//! crate is those loops and nothing else. It does not depend on
//! `deepcsi-nn` and shares no type with it: a network is a list of
//! [`Spec`]s plus the weights the caller copies in (in the order of
//! `Network::save_weights`), and a sample is a plain `&[f32]`.
//!
//! The order each sum is formed in is the contract the batched kernels
//! keep, so it is spelled out at every loop below. Two rules recur:
//!
//! * every accumulator starts at `+0.0` (or at the bias, for dense), so
//!   no sum is ever −0;
//! * a maximum keeps the first of equal values (strict `>`).
//!
//! The activations' `exp` comes from the caller: it is a numeric
//! primitive with its own error bound, and the reference checks
//! everything around it.
//!
//! ```
//! use deepcsi_nn_ref::{Net, Spec};
//!
//! let specs = [Spec::Dense { in_dim: 2, out_dim: 1, seed: 0 }];
//! let mut net = Net::new(&specs, &[2], &[vec![1.0, 2.0], vec![0.5]], f32::exp);
//! assert_eq!(net.forward(&[3.0, 4.0], false), vec![11.5]);
//! assert_eq!(net.backward(&[1.0]), vec![1.0, 2.0]);
//! assert_eq!(net.grads(), vec![&[3.0, 4.0][..], &[1.0][..]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SELU's λ (Klambauer et al.).
pub const SELU_LAMBDA: f32 = 1.050_701;
/// SELU's α (Klambauer et al.).
pub const SELU_ALPHA: f32 = 1.673_263_2;

/// One layer of a network description.
///
/// `seed` is the seed the layer under test is built with. The reference
/// reads only alpha dropout's, which decides its mask stream; it takes
/// every weight from the caller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Spec {
    /// A stride-1 convolution with "same" zero padding and odd kernel
    /// dims. Weights `[out][in][kh][kw]`, then the bias `[out]`.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// `(kh, kw)`.
        kernel: (usize, usize),
        /// Initialisation seed of the layer under test.
        seed: u64,
    },
    /// `y = W x + b` over a rank-1 input. Weights `[out][in]`, then the
    /// bias `[out]`.
    Dense {
        /// Input length.
        in_dim: usize,
        /// Output length.
        out_dim: usize,
        /// Initialisation seed of the layer under test.
        seed: u64,
    },
    /// Max pooling, stride equal to the kernel, ragged edges dropped.
    MaxPool2d {
        /// `(kh, kw)`.
        kernel: (usize, usize),
    },
    /// `λ·x` for `x > 0`, else `λα(eˣ − 1)`.
    Selu,
    /// `1 / (1 + e^−x)`.
    Sigmoid,
    /// Alpha dropout: each unit is kept when a draw `u ∈ [0, 1)` from
    /// `StdRng::seed_from_u64(seed ^ 0xD409)` is `≥ rate`, the draws
    /// running through the units of each sample in order, sample after
    /// sample. Identity outside training.
    AlphaDropout {
        /// Drop probability.
        rate: f32,
        /// The layer's seed, from which its stream is drawn.
        seed: u64,
    },
    /// Spatial attention with a skip: channel max and mean maps, a
    /// `(1, kernel_w)` convolution from 2 maps to 1, a sigmoid, then
    /// `x·a + x`. Weights: the convolution's `[1][2][1][kernel_w]`, then
    /// its bias `[1]`.
    SpatialAttention {
        /// Width of the attention kernel.
        kernel_w: usize,
        /// Initialisation seed of the layer under test.
        seed: u64,
    },
    /// Reshapes to rank 1.
    Flatten,
}

impl Spec {
    /// Weight tensor lengths and the per-sample output shape for an
    /// input of `shape`.
    fn plan(&self, shape: &[usize]) -> (Vec<usize>, Vec<usize>) {
        match *self {
            Spec::Conv2d {
                in_ch,
                out_ch,
                kernel: (kh, kw),
                ..
            } => {
                let (c, h, w) = dims(shape);
                assert_eq!(c, in_ch, "conv input channels");
                (vec![out_ch * in_ch * kh * kw, out_ch], vec![out_ch, h, w])
            }
            Spec::Dense {
                in_dim, out_dim, ..
            } => {
                assert_eq!(shape, [in_dim], "dense input length");
                (vec![out_dim * in_dim, out_dim], vec![out_dim])
            }
            Spec::MaxPool2d { kernel: (kh, kw) } => {
                let (c, h, w) = dims(shape);
                (Vec::new(), vec![c, h / kh, w / kw])
            }
            Spec::SpatialAttention { kernel_w, .. } => {
                dims(shape);
                (vec![2 * kernel_w, 1], shape.to_vec())
            }
            Spec::Flatten => (Vec::new(), vec![shape.iter().product()]),
            Spec::Selu | Spec::Sigmoid | Spec::AlphaDropout { .. } => (Vec::new(), shape.to_vec()),
        }
    }
}

/// `[c, h, w]` as a tuple.
fn dims(shape: &[usize]) -> (usize, usize, usize) {
    match *shape {
        [c, h, w] => (c, h, w),
        _ => panic!("rank-3 input expected, got shape {shape:?}"),
    }
}

/// One layer with its weights, gradient accumulators and the state its
/// forward pass keeps for backward.
#[derive(Clone)]
struct Node {
    spec: Spec,
    in_shape: Vec<usize>,
    w: Vec<Vec<f32>>,
    g: Vec<Vec<f32>>,
    rng: Option<StdRng>,
    /// Inputs or outputs forward keeps for backward.
    saved: Vec<Vec<f32>>,
    /// Pooling's winning input index per output; attention's winning
    /// channel per position.
    argmax: Vec<usize>,
    /// Dropout's keep flags; empty when the last forward dropped nothing.
    mask: Vec<bool>,
}

/// A sequential network run one sample at a time.
///
/// `forward` keeps what `backward` needs; `backward` adds every
/// parameter's gradient into its accumulator and returns the gradient
/// of the input. One `forward` precedes each `backward`.
#[derive(Clone)]
pub struct Net {
    nodes: Vec<Node>,
    exp: fn(f32) -> f32,
}

impl Net {
    /// Builds the network `specs` for samples of `in_shape`, with the
    /// weight tensors `weights` (in layer order, each layer's in the
    /// order its [`Spec`] documents) and `exp` for the activations.
    /// Gradient accumulators start at `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the weight tensors do not fit the description.
    pub fn new(
        specs: &[Spec],
        in_shape: &[usize],
        weights: &[Vec<f32>],
        exp: fn(f32) -> f32,
    ) -> Self {
        let mut shape = in_shape.to_vec();
        let mut left = weights;
        let nodes = specs
            .iter()
            .map(|&spec| {
                let (lens, out) = spec.plan(&shape);
                assert!(left.len() >= lens.len(), "too few weight tensors");
                let (w, rest) = left.split_at(lens.len());
                left = rest;
                for (t, &len) in w.iter().zip(&lens) {
                    assert_eq!(t.len(), len, "{spec:?}: weight tensor length");
                }
                let rng = match spec {
                    Spec::AlphaDropout { seed, .. } => Some(StdRng::seed_from_u64(seed ^ 0xD409)),
                    _ => None,
                };
                Node {
                    spec,
                    in_shape: std::mem::replace(&mut shape, out),
                    w: w.to_vec(),
                    g: lens.iter().map(|&n| vec![0.0; n]).collect(),
                    rng,
                    saved: Vec::new(),
                    argmax: Vec::new(),
                    mask: Vec::new(),
                }
            })
            .collect();
        assert!(left.is_empty(), "more weight tensors than the layers take");
        Net { nodes, exp }
    }

    /// Runs one sample forward. `train` turns dropout on.
    ///
    /// # Panics
    ///
    /// Panics, naming the weight tensor and value index, if a weight is
    /// NaN or ±∞. The batched conv kernels of `deepcsi-nn` read a zero
    /// halo past the row ends, where this reference skips the tap; the
    /// two agree exactly because `w·(+0)` is ±0, which holds for finite
    /// `w` only.
    pub fn forward(&mut self, x: &[f32], train: bool) -> Vec<f32> {
        let weights = self.nodes.iter().flat_map(|n| &n.w);
        for (i, w) in weights.enumerate() {
            if let Some(j) = w.iter().position(|v| !v.is_finite()) {
                panic!(
                    "the reference needs finite weights: weight tensor {i}, value {j} is {}",
                    w[j]
                );
            }
        }
        let exp = self.exp;
        let mut cur = x.to_vec();
        for node in &mut self.nodes {
            assert_eq!(
                cur.len(),
                node.in_shape.iter().product::<usize>(),
                "{:?}: input length",
                node.spec
            );
            cur = node.forward(cur, train, exp);
        }
        cur
    }

    /// Back-propagates `grad` (∂loss/∂output of the last `forward`),
    /// adding the parameter gradients; returns ∂loss/∂input.
    pub fn backward(&mut self, grad: &[f32]) -> Vec<f32> {
        let exp = self.exp;
        let mut cur = grad.to_vec();
        for node in self.nodes.iter_mut().rev() {
            cur = node.backward(cur, exp);
        }
        cur
    }

    /// The weight tensors, in layer order.
    pub fn weights(&self) -> Vec<&[f32]> {
        self.nodes
            .iter()
            .flat_map(|n| &n.w)
            .map(Vec::as_slice)
            .collect()
    }

    /// The gradient accumulators, one per weight tensor.
    pub fn grads(&self) -> Vec<&[f32]> {
        self.nodes
            .iter()
            .flat_map(|n| &n.g)
            .map(Vec::as_slice)
            .collect()
    }

    /// Each weight tensor with its gradient accumulator.
    pub fn params(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        self.nodes
            .iter_mut()
            .flat_map(|n| n.w.iter_mut().zip(n.g.iter_mut()))
            .map(|(w, g)| (w.as_mut_slice(), g.as_mut_slice()))
            .collect()
    }

    /// Sets every gradient accumulator to `+0.0`.
    pub fn zero_grads(&mut self) {
        for (_, g) in self.params() {
            g.fill(0.0);
        }
    }

    /// Adds `other`'s gradient accumulators into these, element by
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if the two networks' weight tensors differ in count or
    /// length.
    pub fn add_grads(&mut self, other: &Net) {
        let theirs = other.grads();
        let mine = self.params();
        assert_eq!(mine.len(), theirs.len(), "architecture mismatch");
        for ((_, m), t) in mine.into_iter().zip(theirs) {
            assert_eq!(m.len(), t.len(), "weight tensor length mismatch");
            for (a, &b) in m.iter_mut().zip(t) {
                *a += b;
            }
        }
    }
}

impl Node {
    fn forward(&mut self, x: Vec<f32>, train: bool, exp: fn(f32) -> f32) -> Vec<f32> {
        match self.spec {
            Spec::Conv2d { kernel, .. } => {
                let y = conv(&x, dims(&self.in_shape), &self.w[0], &self.w[1], kernel);
                self.saved = vec![x];
                y
            }
            Spec::Dense { out_dim, .. } => {
                let (w, b) = (&self.w[0], &self.w[1]);
                let y = (0..out_dim)
                    .map(|o| {
                        // From the bias, inputs in ascending order.
                        let mut acc = b[o];
                        for (wv, xv) in w[o * x.len()..][..x.len()].iter().zip(&x) {
                            acc += wv * xv;
                        }
                        acc
                    })
                    .collect();
                self.saved = vec![x];
                y
            }
            Spec::MaxPool2d { kernel } => {
                let (y, argmax) = max_pool(&x, dims(&self.in_shape), kernel);
                self.argmax = argmax;
                y
            }
            Spec::Selu => {
                let y = x.iter().map(|&v| selu(v, exp)).collect();
                self.saved = vec![x];
                y
            }
            Spec::Sigmoid => {
                let y: Vec<f32> = x.iter().map(|&v| sigmoid(v, exp)).collect();
                self.saved = vec![y.clone()];
                y
            }
            Spec::AlphaDropout { rate, .. } => {
                self.mask.clear();
                if !train || rate == 0.0 {
                    return x;
                }
                let (alpha_p, a, b) = dropout_affine(rate);
                let rng = self.rng.as_mut().expect("dropout stream");
                self.mask = x.iter().map(|_| rng.gen::<f32>() >= rate).collect();
                x.iter()
                    .zip(&self.mask)
                    .map(|(&v, &keep)| {
                        let pre = if keep { v } else { alpha_p };
                        a * pre + b
                    })
                    .collect()
            }
            Spec::SpatialAttention { kernel_w, .. } => self.attention(x, kernel_w, exp),
            Spec::Flatten => x,
        }
    }

    fn backward(&mut self, grad: Vec<f32>, exp: fn(f32) -> f32) -> Vec<f32> {
        match self.spec {
            Spec::Conv2d { kernel, .. } => {
                let x = self.saved.pop().expect("backward without forward");
                let (gw, gb) = grads2(&mut self.g);
                conv_backward(&x, dims(&self.in_shape), &self.w[0], &grad, kernel, gw, gb)
            }
            Spec::Dense { .. } => {
                let x = self.saved.pop().expect("backward without forward");
                let (gw, gb) = grads2(&mut self.g);
                let w = &self.w[0];
                let n = x.len();
                let mut gx = vec![0.0f32; n];
                for (o, &g) in grad.iter().enumerate() {
                    gb[o] += g;
                    // Output by output; each input gradient from +0.0.
                    let (row, grow) = (&w[o * n..][..n], &mut gw[o * n..][..n]);
                    for ((gwv, gxv), (&xv, &wv)) in
                        grow.iter_mut().zip(&mut gx).zip(x.iter().zip(row))
                    {
                        *gwv += g * xv;
                        *gxv += g * wv;
                    }
                }
                gx
            }
            Spec::MaxPool2d { .. } => {
                let mut gx = vec![0.0f32; self.in_shape.iter().product()];
                for (&src, &g) in self.argmax.iter().zip(&grad) {
                    gx[src] += g;
                }
                gx
            }
            Spec::Selu => {
                let x = self.saved.pop().expect("backward without forward");
                grad.iter()
                    .zip(&x)
                    .map(|(&g, &v)| g * selu_deriv(v, exp))
                    .collect()
            }
            Spec::Sigmoid => {
                let y = self.saved.pop().expect("backward without forward");
                grad.iter()
                    .zip(&y)
                    .map(|(&g, &v)| g * (v * (1.0 - v)))
                    .collect()
            }
            Spec::AlphaDropout { rate, .. } => {
                if self.mask.is_empty() {
                    return grad;
                }
                let (_, a, _) = dropout_affine(rate);
                grad.iter()
                    .zip(&self.mask)
                    .map(|(&g, &keep)| if keep { g * a } else { 0.0 })
                    .collect()
            }
            Spec::SpatialAttention { kernel_w, .. } => self.attention_backward(grad, kernel_w),
            Spec::Flatten => grad,
        }
    }
}

impl Node {
    /// Channel max and mean maps, the attention convolution, the sigmoid
    /// and `x·a + x`. Keeps `x`, the pooled maps and `a`.
    fn attention(&mut self, x: Vec<f32>, kernel_w: usize, exp: fn(f32) -> f32) -> Vec<f32> {
        let (c, h, w) = dims(&self.in_shape);
        let hw = h * w;
        let mut pooled = vec![0.0f32; 2 * hw];
        self.argmax = vec![0; hw];
        for p in 0..hw {
            // Channels in ascending order: the first maximum, and the
            // sum from +0.0 divided (not multiplied by 1/c).
            let (mut best, mut best_c, mut sum) = (x[p], 0, 0.0f32);
            for ci in 0..c {
                let v = x[ci * hw + p];
                sum += v;
                if v > best {
                    best = v;
                    best_c = ci;
                }
            }
            pooled[p] = best;
            pooled[hw + p] = sum / c as f32;
            self.argmax[p] = best_c;
        }
        let logits = conv(&pooled, (2, h, w), &self.w[0], &self.w[1], (1, kernel_w));
        let a: Vec<f32> = logits.iter().map(|&v| sigmoid(v, exp)).collect();
        let y = x
            .iter()
            .enumerate()
            .map(|(e, &v)| v * a[e % hw] + v)
            .collect();
        self.saved = vec![x, pooled, a];
        y
    }

    fn attention_backward(&mut self, grad: Vec<f32>, kernel_w: usize) -> Vec<f32> {
        let a = self.saved.pop().expect("backward without forward");
        let pooled = self.saved.pop().expect("backward without forward");
        let x = self.saved.pop().expect("backward without forward");
        let (c, h, w) = dims(&self.in_shape);
        let hw = h * w;
        // Through y = x·a + x: ∂x = g·(a + 1), and ∂a sums g·x over the
        // channels in ascending order from +0.0.
        let mut gx = vec![0.0f32; c * hw];
        let mut g_logits = vec![0.0f32; hw];
        for p in 0..hw {
            let mut gsum = 0.0f32;
            for ci in 0..c {
                let g = grad[ci * hw + p];
                gsum += g * x[ci * hw + p];
                gx[ci * hw + p] = g * (a[p] + 1.0);
            }
            // Through the sigmoid.
            g_logits[p] = gsum * (a[p] * (1.0 - a[p]));
        }
        let (gw, gb) = grads2(&mut self.g);
        let gp = conv_backward(
            &pooled,
            (2, h, w),
            &self.w[0],
            &g_logits,
            (1, kernel_w),
            gw,
            gb,
        );
        // Through the pooling: the max map's gradient to the first
        // maximal channel, then the mean map's to every channel.
        for p in 0..hw {
            let gmean = gp[hw + p] / c as f32;
            gx[self.argmax[p] * hw + p] += gp[p];
            for ci in 0..c {
                gx[ci * hw + p] += gmean;
            }
        }
        gx
    }
}

/// The (weight, bias) gradient accumulators of a conv or dense layer.
fn grads2(g: &mut [Vec<f32>]) -> (&mut [f32], &mut [f32]) {
    match g {
        [gw, gb] => (gw, gb),
        _ => unreachable!("a weight and a bias tensor"),
    }
}

/// "Same" convolution of `x` (`(c, h, w)`) with `weight`
/// (`[out][c][kh][kw]`) and `bias`. Each output is `+0.0` plus its
/// in-bounds taps `w·x` in `(i, dh, dw)` order, then the bias.
fn conv(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    weight: &[f32],
    bias: &[f32],
    (kh, kw): (usize, usize),
) -> Vec<f32> {
    let (ph, pw) = (kh / 2, kw / 2);
    let mut out = vec![0.0f32; bias.len() * h * w];
    for (o, plane) in out.chunks_exact_mut(h * w).enumerate() {
        for i in 0..c {
            for dh in 0..kh {
                for dw in 0..kw {
                    let wv = weight[((o * c + i) * kh + dh) * kw + dw];
                    // Output row oh reads input row oh + dh − ph, output
                    // column ow input column ow + dw − pw.
                    for oh in 0..h {
                        let Some(ih) = (oh + dh).checked_sub(ph).filter(|&ih| ih < h) else {
                            continue;
                        };
                        for ow in pw.saturating_sub(dw)..(w + pw).saturating_sub(dw).min(w) {
                            plane[oh * w + ow] += wv * x[(i * h + ih) * w + ow + dw - pw];
                        }
                    }
                }
            }
        }
        for v in plane {
            *v += bias[o];
        }
    }
    out
}

/// Back-propagates `grad` through [`conv`]: per output channel, the bias
/// gradient (a sum from `+0.0` over the positions in order), then per
/// input channel and tap the weight gradient (a sum from `+0.0` over
/// the in-bounds positions in `(oh, ow)` order), each added into its
/// accumulator once. Each input gradient adds its `g·w` terms in
/// `(o, dh, dw)` order from `+0.0`.
fn conv_backward(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    weight: &[f32],
    grad: &[f32],
    (kh, kw): (usize, usize),
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) -> Vec<f32> {
    let (ph, pw) = (kh / 2, kw / 2);
    let mut gx = vec![0.0f32; c * h * w];
    for (o, gplane) in grad.chunks_exact(h * w).enumerate() {
        let mut gb = 0.0f32;
        for v in gplane {
            gb += v;
        }
        grad_b[o] += gb;
        for i in 0..c {
            for dh in 0..kh {
                for dw in 0..kw {
                    let wi = ((o * c + i) * kh + dh) * kw + dw;
                    let mut gw = 0.0f32;
                    for oh in 0..h {
                        let Some(ih) = (oh + dh).checked_sub(ph).filter(|&ih| ih < h) else {
                            continue;
                        };
                        for ow in pw.saturating_sub(dw)..(w + pw).saturating_sub(dw).min(w) {
                            let g = gplane[oh * w + ow];
                            let xi = (i * h + ih) * w + ow + dw - pw;
                            gw += g * x[xi];
                            gx[xi] += g * weight[wi];
                        }
                    }
                    grad_w[wi] += gw;
                }
            }
        }
    }
    gx
}

/// Max pooling of `x` (`(c, h, w)`) over non-overlapping `(kh, kw)`
/// windows, ragged edges dropped: each output is the first maximum of
/// its window scanned row by row. Returns the outputs and the input
/// index of each.
fn max_pool(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
) -> (Vec<f32>, Vec<usize>) {
    let (oh, ow) = (h / kh, w / kw);
    assert!(oh > 0 && ow > 0, "input smaller than pooling kernel");
    let mut argmax = Vec::with_capacity(c * oh * ow);
    for ci in 0..c {
        for hi in 0..oh {
            for wi in 0..ow {
                let mut best = (ci * h + hi * kh) * w + wi * kw;
                for dh in 0..kh {
                    for dw in 0..kw {
                        let idx = (ci * h + hi * kh + dh) * w + wi * kw + dw;
                        if x[idx] > x[best] {
                            best = idx;
                        }
                    }
                }
                argmax.push(best);
            }
        }
    }
    (argmax.iter().map(|&i| x[i]).collect(), argmax)
}

fn selu(x: f32, exp: fn(f32) -> f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA * x
    } else {
        SELU_LAMBDA * SELU_ALPHA * (exp(x) - 1.0)
    }
}

fn selu_deriv(x: f32, exp: fn(f32) -> f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA
    } else {
        SELU_LAMBDA * SELU_ALPHA * exp(x)
    }
}

fn sigmoid(x: f32, exp: fn(f32) -> f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Alpha dropout's `(α', a, b)`: a dropped unit becomes `α' = −λα`, and
/// every unit then maps to `a·u + b`, which keeps zero mean and unit
/// variance.
fn dropout_affine(rate: f32) -> (f32, f32, f32) {
    let alpha_p = -SELU_LAMBDA * SELU_ALPHA;
    let q = 1.0 - rate;
    let a = (q + alpha_p * alpha_p * q * rate).powf(-0.5);
    (alpha_p, a, -a * alpha_p * rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_is_same_padded_with_the_bias_last() {
        let specs = [Spec::Conv2d {
            in_ch: 1,
            out_ch: 1,
            kernel: (1, 3),
            seed: 0,
        }];
        let mut net = Net::new(&specs, &[1, 1, 3], &[vec![1.0; 3], vec![0.5]], f32::exp);
        // [0+1+2, 1+2+3, 2+3+0] + 0.5.
        assert_eq!(net.forward(&[1.0, 2.0, 3.0], false), vec![3.5, 6.5, 5.5]);
    }

    #[test]
    fn pooling_keeps_the_first_of_tied_signed_zeros() {
        let specs = [Spec::MaxPool2d { kernel: (1, 2) }];
        let mut net = Net::new(&specs, &[1, 1, 4], &[], f32::exp);
        let y = net.forward(&[0.0, -0.0, -0.0, 0.0], false);
        let bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, vec![0.0f32.to_bits(), (-0.0f32).to_bits()]);
        assert_eq!(net.backward(&[1.0, 2.0]), vec![1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weight tensor 1, value 0 is inf")]
    fn refuses_a_non_finite_weight() {
        let specs = [Spec::Dense {
            in_dim: 2,
            out_dim: 1,
            seed: 0,
        }];
        let mut net = Net::new(
            &specs,
            &[2],
            &[vec![1.0, 2.0], vec![f32::INFINITY]],
            f32::exp,
        );
        net.forward(&[1.0, 1.0], false);
    }

    #[test]
    #[should_panic(expected = "weight tensor length")]
    fn refuses_weights_of_another_architecture() {
        let specs = [Spec::Dense {
            in_dim: 2,
            out_dim: 1,
            seed: 0,
        }];
        Net::new(&specs, &[2], &[vec![1.0; 3], vec![0.0]], f32::exp);
    }
}
