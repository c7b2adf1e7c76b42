//! Parallel-serving scaling sweep: engine throughput against the worker
//! count, the `InferPool` lane-split scaling of one batch, and the
//! SELU/sigmoid polynomial-exp before/after numbers — as
//! machine-readable `RESULT parallel …` lines (collected by `run_all`
//! into `BENCH_parallel.json`; keys documented in
//! `crates/bench/README.md`).
//!
//! On a single-core container the pool rows sit at or below 1x (a
//! helper lane costs a thread spawn and buys no parallelism). The
//! interesting scaling numbers come from multi-core hosts.

use deepcsi_bench::result_line;
use deepcsi_bench::serve_bench::{
    engine_reports_per_sec_threads, fast_cnn, measure_pool_batch_s, paper_cnn, serve_dataset,
};
use deepcsi_nn::poly_exp;
use std::time::Instant;

const BATCH: usize = 64;

/// Times one SELU pass (`λx` / `λα(eˣ−1)`) mapping a large buffer in
/// place — the same memory access pattern as the real activation layer,
/// so the compiler gets the same vectorization opportunity.
fn time_selu_pass(xs: &[f32], reps: usize, exp: impl Fn(f32) -> f32) -> f64 {
    let mut buf = xs.to_vec();
    // Best of 5 windows: the minimum is robust against preemption on
    // shared hosts, where a mean can absorb a whole descheduling.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            for (v, &x) in buf.iter_mut().zip(xs) {
                // Same select form as `Selu`'s shared scalar map.
                let neg = 1.050_701 * 1.673_263_2 * (exp(x) - 1.0);
                let pos = 1.050_701 * x;
                *v = if x > 0.0 { pos } else { neg };
            }
            std::hint::black_box(&mut buf);
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--tiny" | "--quick" => quick = true,
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    // A cache-resident activation plane (the real layers' working set),
    // so the exp comparison measures compute, not DRAM bandwidth.
    let (exp_elems, exp_reps, cnn_reps, snapshots, repeat) = if quick {
        (16_384usize, 200usize, 8usize, 10usize, 1usize)
    } else {
        (32_768, 1_000, 16, 30, 2)
    };

    // --- SELU exp: libm before vs polynomial after -------------------
    println!("== SELU exp: f32::exp (before) vs poly_exp (after), {exp_elems} elems ==");
    let xs: Vec<f32> = (0..exp_elems)
        .map(|i| ((i * 37 % 400) as f32) * 0.02 - 6.0) // [-6, 2): mostly the exp branch
        .collect();
    let std_s = time_selu_pass(&xs, exp_reps, f32::exp);
    let poly_s = time_selu_pass(&xs, exp_reps, poly_exp);
    let ns_per = |s: f64| s * 1e9 / exp_elems as f64;
    println!(
        "f32::exp {:>7.2} ns/elem   poly_exp {:>7.2} ns/elem   speedup {:.2}x",
        ns_per(std_s),
        ns_per(poly_s),
        std_s / poly_s
    );
    result_line("parallel", "selu_exp_std_ns_per_elem", ns_per(std_s));
    result_line("parallel", "selu_exp_poly_ns_per_elem", ns_per(poly_s));
    result_line("parallel", "poly_exp_speedup", std_s / poly_s);

    // --- Frozen model: pool lane-split scaling ------------------------
    println!("\n== InferPool lane scaling (batch {BATCH}) ==");
    let mut workloads = vec![fast_cnn()];
    if !quick {
        workloads.push(paper_cnn());
    }
    for w in workloads {
        let base_s = measure_pool_batch_s(&w, BATCH, 1, cnn_reps);
        for lanes in [1usize, 2, 4] {
            // t=1 *is* the baseline: reuse the measurement so its row
            // reads exactly 1.0 instead of run-to-run noise.
            let s = if lanes == 1 {
                base_s
            } else {
                measure_pool_batch_s(&w, BATCH, lanes, cnn_reps)
            };
            println!(
                "{:<10} t={lanes}: pool {:>9.3} ms/batch ({:.2}x vs t=1)",
                w.name,
                s * 1e3,
                base_s / s
            );
            result_line(
                "parallel",
                &format!("infer_batch_{}_t{lanes}_pool_speedup", w.name),
                base_s / s,
            );
        }
    }

    // --- End-to-end engine: workers ----------------------------------
    println!("\n== engine scaling: workers ==");
    let ds = serve_dataset(2, snapshots);
    for workers in [1usize, 2, 4] {
        let rps = engine_reports_per_sec_threads(&ds, workers, repeat);
        println!("workers {workers}: {rps:>8.0} reports/s");
        result_line("parallel", &format!("reports_per_sec_w{workers}"), rps);
    }
}
