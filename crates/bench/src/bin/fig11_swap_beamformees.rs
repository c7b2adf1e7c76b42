//! **Fig. 11** — training on one beamformee and testing on the other.
//!
//! Paper: accuracy collapses to ≈25 % because Ṽ carries the hardware
//! signature of *both* link ends: the learned fingerprint entangles the
//! beamformee's own RX-chain response.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_cross_beamformee, generate_d1};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    println!("Fig. 11 — cross-beamformee transfer (set S1 configuration)\n");
    for (train_bf, test_bf) in [(1u8, 2u8), (2u8, 1u8)] {
        let split = d1_cross_beamformee(&ds, train_bf, test_bf, &scale.spec);
        run_labeled(
            &scale,
            &split,
            "fig11",
            &format!("train-bf{train_bf}-test-bf{test_bf}"),
            true,
        );
    }
}
