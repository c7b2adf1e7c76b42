//! Every batch size, bit for bit: `FrozenModel::infer_batch` against
//! the per-sample reference's `forward(x, false)` for each b in 1..=40.
//!
//! Conv runs every batch along the flat (width × sample) axis through a
//! zero-haloed workspace, so each b moves its 48-wide tiles across
//! different sample, column and row ends. Dense runs the `q` whole lane
//! blocks of `b = 16q + r` on the lane tile and the `r` leftover samples
//! on the per-sample tail kernel, so 1..=40 covers every tail length
//! alone, after one full block and after two. The inputs mix ordinary
//! values with exact `+0.0`/`−0.0`, subnormals and ±1e30, the values on
//! which a halo term that is not an exact ±0 would show. A pool that
//! breaks the first-maximum rule shows only on a net that pools raw
//! input, fed windows whose maximum is a `+0`/`−0` tie: the other nets
//! pool SELU output, which is never −0. Likewise the attention block's
//! channel max meets cross-channel ties only on raw input.

mod common;

use common::{
    bits, channel_tie_samples, model_specs, network, odd_specs, raw_attention_specs,
    raw_pool_specs, reference, samples, signed_zero_samples,
};
use deepcsi_core::ModelConfig;
use deepcsi_nn::{Network, Tensor};
use deepcsi_nn_ref::Spec;

fn assert_every_batch_size_is_bit_exact(
    name: &str,
    net: Network,
    specs: &[Spec],
    shape: (usize, usize, usize),
    xs: &[Tensor],
) {
    let mut oracle = reference(&net, specs, shape);
    let want: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| bits(&oracle.forward(x.as_slice(), false)))
        .collect();
    let frozen = net.freeze();
    // One warm context across every size, as a serving worker holds it.
    let mut ctx = frozen.ctx();
    for b in 1..=xs.len() {
        let got = frozen.infer_batch(&xs[..b], &mut ctx);
        assert_eq!(got.len(), b);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(&bits(g.as_slice()), w, "{name}: batch {b}, sample {s}");
        }
    }
}

fn assert_model_is_bit_exact(name: &str, cfg: ModelConfig, shape: (usize, usize, usize)) {
    let specs = model_specs(&cfg, shape);
    assert_every_batch_size_is_bit_exact(name, cfg.build(shape), &specs, shape, &samples(shape));
}

#[test]
fn demo_model_is_bit_exact_at_every_batch_size() {
    assert_model_is_bit_exact("demo", ModelConfig::demo(4), (5, 1, 59));
}

#[test]
fn paper_model_is_bit_exact_at_every_batch_size() {
    assert_model_is_bit_exact("paper", ModelConfig::paper(4, 7), (5, 1, 52));
}

#[test]
fn odd_shaped_net_is_bit_exact_at_every_batch_size() {
    let specs = odd_specs();
    let shape = (3, 1, 24);
    assert_every_batch_size_is_bit_exact("odd", network(&specs), &specs, shape, &samples(shape));
}

#[test]
fn raw_input_pool_keeps_the_first_zero_at_every_batch_size() {
    let (specs, shape) = (raw_pool_specs(), (2, 1, 12));
    let xs = signed_zero_samples(shape);
    assert_every_batch_size_is_bit_exact("raw pool", network(&specs), &specs, shape, &xs);
}

#[test]
fn raw_input_attention_is_bit_exact_at_every_batch_size() {
    let (specs, shape) = (raw_attention_specs(), (3, 1, 8));
    let xs = channel_tie_samples(shape);
    assert_every_batch_size_is_bit_exact("raw attention", network(&specs), &specs, shape, &xs);
}
