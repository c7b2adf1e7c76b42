//! **Ablation** (not a paper figure) — accuracy vs fingerprint strength and
//! feedback codebook.
//!
//! Two controls the paper cannot run on physical radios but a simulator
//! can:
//!
//! 1. Scale all device-distinguishing impairment magnitudes by a factor
//!    `s`. At `s = 0` every module is hardware-identical, so accuracy
//!    must collapse to chance — proving the classifier keys on the
//!    *hardware fingerprint*, not on channel artefacts (every module sees
//!    the same room).
//! 2. Swap the (bψ=7, bφ=9) codebook for the coarser (bψ=5, bφ=7): the
//!    quantization-error study of Fig. 13 predicts a measurable accuracy
//!    cost, mostly on the harder sets.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split, generate_d1, D1Set};
use deepcsi_phy::Codebook;

fn main() {
    let mut scale = FigureScale::from_args();
    scale.gen.num_modules = 6;
    scale.gen.snapshots_per_trace = 60;

    println!("Ablation 1 — accuracy vs fingerprint strength (set S3, beamformee 1)\n");
    for strength in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let mut gen = scale.gen.clone();
        gen.profile = gen.profile.scaled(strength);
        let ds = generate_d1(&gen);
        let split = d1_split(&ds, D1Set::S3, &[1], &scale.spec);
        run_labeled(
            &scale,
            &split,
            "ablation",
            &format!("strength{strength}"),
            false,
        );
    }
    println!(
        "(chance level: {:.1}%)\n",
        100.0 / scale.gen.num_modules as f64
    );

    println!("Ablation 2 — accuracy vs feedback codebook (set S3, beamformee 1)\n");
    for cb in [Codebook::MU_HIGH, Codebook::MU_LOW] {
        let mut gen = scale.gen.clone();
        gen.codebook = cb;
        let ds = generate_d1(&gen);
        let split = d1_split(&ds, D1Set::S3, &[1], &scale.spec);
        run_labeled(
            &scale,
            &split,
            "ablation",
            &format!("codebook-bphi{}", cb.b_phi),
            false,
        );
    }
}
