//! **Fig. 16** — DeepCSI vs learning from the offset-corrected input
//! (the \[36\] phase sanitizer).
//!
//! Paper: cleaning costs accuracy on every set (S1: 98.02 % → 83.10 %) —
//! the removed phase intercepts/slopes carry the transmitter's per-chain
//! hardware signature, so "offset cleaning may result in their partial
//! removal, affecting the fingerprinting quality".

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_core::baseline;
use deepcsi_data::{d1_split, generate_d1, D1Set};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    let cleaned = baseline::cleaned_spec(&scale.spec);
    println!("Fig. 16 — DeepCSI vs offset-corrected input, beamformee 1, stream 0\n");
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        let raw_split = d1_split(&ds, set, &[1], &scale.spec);
        let raw = run_labeled(
            &scale,
            &raw_split,
            "fig16",
            &format!("{set:?}-deepcsi"),
            false,
        );
        let clean_split = d1_split(&ds, set, &[1], &cleaned);
        let clean = run_labeled(
            &scale,
            &clean_split,
            "fig16",
            &format!("{set:?}-offs-corr"),
            set == D1Set::S1, // Fig. 16b shows the S1 cleaned confusion
        );
        println!(
            "  {set:?}: cleaning changes accuracy by {:+.2} points\n",
            (clean - raw) * 100.0
        );
    }
}
