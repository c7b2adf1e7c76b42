//! Every batch size, bit for bit: `FrozenModel::infer_batch` against
//! `Network::forward(x, false)` for each b in 1..=40.
//!
//! Conv runs every batch along the flat (width × sample) axis through a
//! zero-haloed workspace, so each b moves its 48-wide tiles across
//! different sample, column and row ends. Dense runs the `q` whole lane
//! blocks of `b = 16q + r` on the lane tile and the `r` leftover samples
//! on the per-sample tail kernel, so 1..=40 covers every tail length
//! alone, after one full block and after two. The inputs mix ordinary
//! values with exact `+0.0`/`−0.0`, subnormals and ±1e30, the values on
//! which a halo term that is not an exact ±0, or a fold that breaks the
//! first-maximum rule, would show.

use deepcsi_core::ModelConfig;
use deepcsi_nn::{
    AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Network, Selu, SpatialAttention, Tensor,
};

/// The odd-shaped net of `deepcsi-nn`'s `tests/proptests.rs`: 6 and 1
/// (attention) output channels, so both full and leftover channel
/// blocks, and kernel widths 3 and 5.
fn odd_net() -> Network {
    let mut net = Network::new();
    net.push(Conv2d::new(3, 6, (1, 5), 41));
    net.push(Selu::new());
    net.push(MaxPool2d::new((1, 2)));
    net.push(Conv2d::new(6, 4, (1, 3), 42));
    net.push(Selu::new());
    net.push(Conv2d::new(4, 8, (1, 5), 47));
    net.push(Selu::new());
    net.push(SpatialAttention::new(3, 43));
    net.push(Flatten::new());
    net.push(Dense::new(8 * 12, 10, 44));
    net.push(Selu::new());
    net.push(AlphaDropout::new(0.4, 45));
    net.push(Dense::new(10, 5, 46));
    net
}

/// Exact zeros of both signs and subnormals of both signs.
const TINY: [f32; 5] = [0.0, -0.0, 1e-40, -3e-39, f32::MIN_POSITIVE / 2.0];

/// 40 deterministic samples of `shape`: uniform values in [−2, 2) with
/// every 11th element (offset per sample) replaced by a [`TINY`] value,
/// and in every third sample (from the third on) every 13th element by
/// ±1e30. The other samples, the first among them so that b = 1 checks
/// a finite output, stay free of huge values, so their outputs still
/// show a small error anywhere upstream.
fn samples((c, h, w): (usize, usize, usize)) -> Vec<Tensor> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..40)
        .map(|s| {
            let data = (0..c * h * w)
                .map(|e| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    if s % 3 == 2 && (e * 5 + s) % 13 == 0 {
                        if e % 2 == 0 {
                            1e30
                        } else {
                            -1e30
                        }
                    } else if (e * 7 + s * 3) % 11 == 0 {
                        TINY[(e + s) % TINY.len()]
                    } else {
                        (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
                    }
                })
                .collect();
            Tensor::from_vec(data, vec![c, h, w])
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_every_batch_size_is_bit_exact(
    name: &str,
    mut net: Network,
    shape: (usize, usize, usize),
) {
    let xs = samples(shape);
    let want: Vec<Vec<u32>> = xs.iter().map(|x| bits(&net.forward(x, false))).collect();
    let frozen = net.freeze();
    // One warm context across every size, as a serving worker holds it.
    let mut ctx = frozen.ctx();
    for b in 1..=xs.len() {
        let got = frozen.infer_batch(&xs[..b], &mut ctx);
        assert_eq!(got.len(), b);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(&bits(g), w, "{name}: batch {b}, sample {s}");
        }
    }
}

#[test]
fn demo_model_is_bit_exact_at_every_batch_size() {
    assert_every_batch_size_is_bit_exact(
        "demo",
        ModelConfig::demo(4).build((5, 1, 59)),
        (5, 1, 59),
    );
}

#[test]
fn paper_model_is_bit_exact_at_every_batch_size() {
    assert_every_batch_size_is_bit_exact(
        "paper",
        ModelConfig::paper(4, 7).build((5, 1, 52)),
        (5, 1, 52),
    );
}

#[test]
fn odd_shaped_net_is_bit_exact_at_every_batch_size() {
    assert_every_batch_size_is_bit_exact("odd", odd_net(), (3, 1, 24));
}
