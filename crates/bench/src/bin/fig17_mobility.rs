//! **Fig. 17** — beamformer identification under mobility (dataset D2,
//! Table II sets).
//!
//! Paper: (a) train/test on the full path: 82.56 %; (b) disjoint
//! sub-paths: 41.15 %; (c) S5 static→mobility: 20.50 %; (d) S6
//! mobility→static: 88.12 %. Training-set variability is what buys
//! robustness.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d2_split, generate_d2, D2Set};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d2(&scale.gen);
    println!("Fig. 17 — mobility (D2), beamformee 1, stream 0\n");
    let cases = [
        (D2Set::S4, "S4-full-path"),
        (D2Set::S4SubPath, "S4-subpaths"),
        (D2Set::S5, "S5-static-to-mobile"),
        (D2Set::S6, "S6-mobile-to-static"),
    ];
    for (set, label) in cases {
        let split = d2_split(&ds, set, &[1], &scale.spec);
        run_labeled(&scale, &split, "fig17", label, true);
    }
}
