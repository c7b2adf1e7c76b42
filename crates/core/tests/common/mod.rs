//! Inputs, nets and the per-sample reference shared by the
//! bit-identity tests.

use deepcsi_core::ModelConfig;
use deepcsi_nn::{
    poly_exp, AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Network, Selu, Sigmoid,
    SpatialAttention, Tensor,
};
use deepcsi_nn_ref::{Net, Spec};

/// The network `specs` describes.
pub fn network(specs: &[Spec]) -> Network {
    let mut net = Network::new();
    for &spec in specs {
        match spec {
            Spec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                seed,
            } => net.push(Conv2d::new(in_ch, out_ch, kernel, seed)),
            Spec::Dense {
                in_dim,
                out_dim,
                seed,
            } => net.push(Dense::new(in_dim, out_dim, seed)),
            Spec::MaxPool2d { kernel } => net.push(MaxPool2d::new(kernel)),
            Spec::Selu => net.push(Selu::new()),
            Spec::Sigmoid => net.push(Sigmoid::new()),
            Spec::AlphaDropout { rate, seed } => net.push(AlphaDropout::new(rate, seed)),
            Spec::SpatialAttention { kernel_w, seed } => {
                net.push(SpatialAttention::new(kernel_w, seed))
            }
            Spec::Flatten => net.push(Flatten::new()),
        }
    }
    net
}

/// The per-sample reference of `net`, described by `specs`, with
/// `net`'s weights.
pub fn reference(net: &Network, specs: &[Spec], (c, h, w): (usize, usize, usize)) -> Net {
    Net::new(specs, &[c, h, w], &net.save_weights(), poly_exp)
}

/// The layers [`ModelConfig::build`] assembles for `input_shape`, with
/// the seeds it gives them.
pub fn model_specs(
    cfg: &ModelConfig,
    (mut ch, rows, mut cols): (usize, usize, usize),
) -> Vec<Spec> {
    let mut specs = Vec::new();
    for (li, (&filters, &kernel)) in cfg.conv_filters.iter().zip(&cfg.conv_kernels).enumerate() {
        specs.push(Spec::Conv2d {
            in_ch: ch,
            out_ch: filters,
            kernel: (1, kernel),
            seed: cfg.seed.wrapping_add(li as u64 * 101),
        });
        specs.push(Spec::Selu);
        specs.push(Spec::MaxPool2d { kernel: (1, 2) });
        ch = filters;
        cols /= 2;
    }
    specs.push(Spec::SpatialAttention {
        kernel_w: cfg.attention_kernel,
        seed: cfg.seed.wrapping_add(7777),
    });
    specs.push(Spec::Flatten);
    let mut dim = ch * rows * cols;
    for (li, (&units, &rate)) in cfg.dense_units.iter().zip(&cfg.dropout_rates).enumerate() {
        specs.push(Spec::Dense {
            in_dim: dim,
            out_dim: units,
            seed: cfg.seed.wrapping_add(900 + li as u64),
        });
        specs.push(Spec::Selu);
        specs.push(Spec::AlphaDropout {
            rate,
            seed: cfg.seed.wrapping_add(950 + li as u64),
        });
        dim = units;
    }
    specs.push(Spec::Dense {
        in_dim: dim,
        out_dim: cfg.num_classes,
        seed: cfg.seed.wrapping_add(999),
    });
    specs
}

/// The odd-shaped net of `deepcsi-nn`'s `tests/proptests.rs`: 6 and 1
/// (attention) output channels, so both full and leftover channel
/// blocks, and kernel widths 3 and 5. Input `(3, 1, 24)`, 5 classes.
pub fn odd_specs() -> Vec<Spec> {
    vec![
        Spec::Conv2d {
            in_ch: 3,
            out_ch: 6,
            kernel: (1, 5),
            seed: 41,
        },
        Spec::Selu,
        Spec::MaxPool2d { kernel: (1, 2) },
        Spec::Conv2d {
            in_ch: 6,
            out_ch: 4,
            kernel: (1, 3),
            seed: 42,
        },
        Spec::Selu,
        Spec::Conv2d {
            in_ch: 4,
            out_ch: 8,
            kernel: (1, 5),
            seed: 47,
        },
        Spec::Selu,
        Spec::SpatialAttention {
            kernel_w: 3,
            seed: 43,
        },
        Spec::Flatten,
        Spec::Dense {
            in_dim: 8 * 12,
            out_dim: 10,
            seed: 44,
        },
        Spec::Selu,
        Spec::AlphaDropout {
            rate: 0.4,
            seed: 45,
        },
        Spec::Dense {
            in_dim: 10,
            out_dim: 5,
            seed: 46,
        },
    ]
}

/// A net whose first layer max-pools the raw input and whose output is
/// the pooled values themselves. Every other net pools SELU output,
/// which is never −0, so only here can a fold that breaks the
/// first-maximum rule on a `+0`/`−0` tie show in the output bits. The
/// 3-wide windows reach both the first two-tap fold and the later taps.
/// Input `(2, 1, 12)`, 8 outputs; feed it [`signed_zero_samples`].
pub fn raw_pool_specs() -> Vec<Spec> {
    vec![Spec::MaxPool2d { kernel: (1, 3) }, Spec::Flatten]
}

/// Pool windows whose maximum is a zero of either sign, with the other
/// zero placed before it, after it or in the third tap.
const ZERO_TIES: [[f32; 3]; 6] = [
    [0.0, -0.0, -1.0],
    [-0.0, 0.0, -1.0],
    [-1.0, 0.0, -0.0],
    [-1.0, -0.0, 0.0],
    [0.0, -2.0, -0.0],
    [-0.0, -2.0, 0.0],
];

/// 40 samples of `(c, 1, w)`, `w` a multiple of 3: window `i` of
/// sample `s` is tie `(i + s) % 6` of [`ZERO_TIES`], except every fourth
/// window, which holds ordinary values, so each sample mixes ties with
/// a plain maximum.
pub fn signed_zero_samples((c, h, w): (usize, usize, usize)) -> Vec<Tensor> {
    assert!(h == 1 && w % 3 == 0, "3-wide windows over one row");
    (0..40)
        .map(|s| {
            let data = (0..c * w / 3)
                .flat_map(|i| match (i + s) % 4 {
                    3 => [0.5 + i as f32, -0.25 * s as f32, 1.5],
                    _ => ZERO_TIES[(i + s) % ZERO_TIES.len()],
                })
                .collect();
            Tensor::from_vec(data, vec![c, h, w])
        })
        .collect()
}

/// A net whose first layer is the spatial attention block on the raw
/// input. Every other attention block follows a SELU, whose outputs
/// rarely tie across channels and are never −0, so only here can a
/// backward that sends the channel max's gradient to any but the first
/// maximal channel show in the input gradients. Input `(3, 1, 8)`, 24
/// outputs; feed it [`channel_tie_samples`].
pub fn raw_attention_specs() -> Vec<Spec> {
    vec![
        Spec::SpatialAttention {
            kernel_w: 3,
            seed: 48,
        },
        Spec::Flatten,
    ]
}

/// Positions whose three channels tie at their maximum: positive and
/// negative pairs, a `+0`/`−0` pair on each pair of channels, and a
/// three-way tie.
const CHANNEL_TIES: [[f32; 3]; 7] = [
    [1.5, 1.5, -1.0],
    [-1.0, 0.75, 0.75],
    [-0.5, -2.0, -0.5],
    [0.0, -0.0, -1.0],
    [-0.0, -1.0, 0.0],
    [-1.0, -0.0, 0.0],
    [-0.25, -0.25, -0.25],
];

/// 40 samples of `(3, 1, w)`: at position `p` of sample `s` the
/// channels hold tie `(p + s) % 7` of [`CHANNEL_TIES`], except every
/// fourth position, which holds three distinct values, so each sample
/// mixes ties with a plain maximum.
pub fn channel_tie_samples((c, h, w): (usize, usize, usize)) -> Vec<Tensor> {
    assert!(c == 3 && h == 1, "three channels over one row");
    (0..40)
        .map(|s| {
            let column = |p: usize| match (p + s) % 4 {
                3 => [0.5 + p as f32, -0.25 * s as f32, 1.25],
                _ => CHANNEL_TIES[(p + s) % CHANNEL_TIES.len()],
            };
            let data = (0..c)
                .flat_map(|ci| (0..w).map(move |p| column(p)[ci]))
                .collect();
            Tensor::from_vec(data, vec![c, h, w])
        })
        .collect()
}

/// Exact zeros of both signs and subnormals of both signs.
const TINY: [f32; 5] = [0.0, -0.0, 1e-40, -3e-39, f32::MIN_POSITIVE / 2.0];

/// 40 deterministic samples of `shape`: uniform values in [−2, 2) with
/// every 11th element (offset per sample) replaced by a [`TINY`] value,
/// and in every third sample (from the third on) every 13th element by
/// ±1e30. The other samples, the first among them so that b = 1 checks
/// a finite output, stay free of huge values, so their outputs still
/// show a small error anywhere upstream.
pub fn samples((c, h, w): (usize, usize, usize)) -> Vec<Tensor> {
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

pub fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}
