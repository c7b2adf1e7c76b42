//! Calibration probe: checks the qualitative orderings every figure
//! depends on at reduced scale, printing a compact report.
//!
//! Not a paper figure — a development tool for tuning
//! `ImpairmentProfile` and `GenConfig` defaults.

use deepcsi_bench::{pct, FigureScale};
use deepcsi_core::{baseline, run_experiment};
use deepcsi_data::{
    d1_cross_beamformee, d1_split, d2_split, generate_d1, generate_d2, D1Set, D2Set, InputSpec,
};
use std::time::Instant;

fn main() {
    let mut scale = FigureScale::from_args();
    scale.gen.num_modules = 6;
    scale.gen.snapshots_per_trace = 60;
    scale.epochs = 8;

    let t0 = Instant::now();
    let d1 = generate_d1(&scale.gen);
    println!(
        "D1 generated in {:.1?} ({} traces)",
        t0.elapsed(),
        d1.traces.len()
    );
    let t0 = Instant::now();
    let d2 = generate_d2(&scale.gen);
    println!(
        "D2 generated in {:.1?} ({} traces)",
        t0.elapsed(),
        d2.traces.len()
    );

    let spec = scale.spec.clone();
    let run = |name: &str, split: &deepcsi_data::Split| {
        let t = Instant::now();
        let r = run_experiment(&scale.experiment(7), split);
        println!(
            "{name:<24} acc {:>8}   (train {:>5}, test {:>5}, {:.1?})",
            pct(r.accuracy),
            split.train.len(),
            split.test.len(),
            t.elapsed()
        );
        r.accuracy
    };

    let s1 = run("S1 bf1 stream0", &d1_split(&d1, D1Set::S1, &[1], &spec));
    let s2 = run("S2 bf1 stream0", &d1_split(&d1, D1Set::S2, &[1], &spec));
    let s3 = run("S3 bf1 stream0", &d1_split(&d1, D1Set::S3, &[1], &spec));

    let swap = run(
        "S1 train bf1 test bf2",
        &d1_cross_beamformee(&d1, 1, 2, &spec),
    );

    let cleaned = baseline::cleaned_spec(&spec);
    let s1_clean = run(
        "S1 offset-cleaned",
        &d1_split(&d1, D1Set::S1, &[1], &cleaned),
    );

    let stream1 = InputSpec {
        streams: vec![1],
        ..spec.clone()
    };
    let s1_str1 = run("S1 stream1", &d1_split(&d1, D1Set::S1, &[1], &stream1));
    let s3_str1 = run("S3 stream1", &d1_split(&d1, D1Set::S3, &[1], &stream1));

    let s4 = run("S4 mobility bf2", &d2_split(&d2, D2Set::S4, &[2], &spec));
    let s5 = run(
        "S5 static→mobile bf2",
        &d2_split(&d2, D2Set::S5, &[2], &spec),
    );
    let s6 = run(
        "S6 mobile→static bf2",
        &d2_split(&d2, D2Set::S6, &[2], &spec),
    );

    println!("\n=== ordering checks (paper-shape expectations) ===");
    let check =
        |name: &str, ok: bool| println!("{:<44} {}", name, if ok { "OK" } else { "VIOLATED" });
    check("S1 > S2 > S3", s1 > s2 && s2 > s3);
    check("S1 high (>0.9)", s1 > 0.9);
    check("S3 well below S1", s3 < s1 - 0.2);
    check("cross-beamformee collapses (< S3)", swap < s3);
    check("offset cleaning hurts (< S1)", s1_clean < s1 - 0.05);
    check("cleaning keeps signal (> chance)", s1_clean > 2.0 / 6.0);
    check("stream1 S1 still high", s1_str1 > 0.8);
    check("stream1 S3 collapses (< stream0 S3)", s3_str1 < s3);
    check("S4 mobility works (>0.6)", s4 > 0.6);
    check("S5 static→mobile fails (< S4)", s5 < s4 - 0.2);
    check("S6 mobile→static works (> S5)", s6 > s5);
}
