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
