//! **Fig. 15** — classifying from the *second* spatial stream's Ṽ column
//! instead of the first.
//!
//! Paper: S1 stays high (97.03 %) but S2/S3 collapse (13.32 % / 5.63 %):
//! quantization error propagates into the higher-order column (Fig. 13),
//! and under low training diversity the degraded fingerprint no longer
//! transfers across positions.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split, generate_d1, D1Set, InputSpec};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    let spec = InputSpec {
        streams: vec![1],
        ..scale.spec.clone()
    };
    println!("Fig. 15 — beamformee 1, 3 TX antennas, spatial stream 1\n");
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        let split = d1_split(&ds, set, &[1], &spec);
        run_labeled(&scale, &split, "fig15", &format!("{set:?}-stream1"), true);
    }
}
