//! Inputs and nets shared by the bit-identity tests.

use deepcsi_nn::{
    AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Network, Selu, SpatialAttention, Tensor,
};

/// The odd-shaped net of `deepcsi-nn`'s `tests/proptests.rs`: 6 and 1
/// (attention) output channels, so both full and leftover channel
/// blocks, and kernel widths 3 and 5.
pub fn odd_net() -> Network {
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

pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}
