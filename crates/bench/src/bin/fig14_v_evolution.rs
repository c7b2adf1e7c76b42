//! **Fig. 14** — time evolution of Ṽ in static conditions.
//!
//! Paper: plots `[Ṽ]_{m,s}` over (subcarrier, time) for the first 75
//! sounded sub-channels; the second-stream columns are visibly noisier
//! because of quantization-error propagation. We print a decimated
//! magnitude grid per element plus temporal-stability summaries.

use deepcsi_bench::result_line;
use deepcsi_data::{generate_trace, GenConfig, TraceKind, TraceSpec};
use deepcsi_impair::DeviceId;
use deepcsi_obs::Flags;

#[allow(clippy::needless_range_loop)] // stream index addresses parallel arrays
fn main() {
    // No flags: the parse only serves `--help` and rejects the rest.
    Flags::from_env(&[]);
    let cfg = GenConfig {
        snapshots_per_trace: 32,
        ..GenConfig::default()
    };
    let trace = generate_trace(
        &cfg,
        &TraceSpec {
            module: DeviceId(0),
            beamformee: 1,
            n_rx: 2,
            rx_position: 3,
            kind: TraceKind::D1Static { position: 3 },
        },
    );
    let series: Vec<_> = trace.snapshots.iter().map(|fb| fb.reconstruct()).collect();

    println!("Fig. 14 — |Ṽ| over (subcarrier, time), static trace, module 0\n");
    for m in 0..3 {
        for s in 0..2 {
            println!(
                "[Ṽ]_{},{} (rows = every 8th of the first 75 tones, cols = time):",
                m + 1,
                s + 1
            );
            for tone in (0..75).step_by(8) {
                let row: Vec<String> = series
                    .iter()
                    .step_by(2)
                    .map(|v| format!("{:.2}", v.v[tone][(m, s)].abs()))
                    .collect();
                println!("  k{:>4}: {}", v_tone(&trace, tone), row.join(" "));
            }
        }
    }

    // Temporal stability: std over time of each element, averaged over
    // tones — stream 2 should be noisier (the visible effect in Fig. 14).
    println!("\ntemporal std (mean over first 75 tones):");
    let mut per_stream = [0.0f64; 2];
    for s in 0..2 {
        let mut total = 0.0;
        for m in 0..3 {
            let mut acc = 0.0;
            for tone in 0..75 {
                let vals: Vec<f64> = series.iter().map(|v| v.v[tone][(m, s)].abs()).collect();
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                let var =
                    vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
                acc += var.sqrt();
            }
            let std = acc / 75.0;
            println!("  [Ṽ]_{},{}: {:.4}", m + 1, s + 1, std);
            total += std;
        }
        per_stream[s] = total / 3.0;
        result_line(
            "fig14",
            &format!("temporal-std-stream{}", s + 1),
            per_stream[s],
        );
    }
    println!(
        "\nstream2/stream1 temporal-noise ratio: {:.2} (paper: column 2 visibly noisier)",
        per_stream[1] / per_stream[0]
    );
    result_line(
        "fig14",
        "stream2-over-stream1",
        per_stream[1] / per_stream[0],
    );
}

/// Sounded tone index at a position (labels the rows like the paper's
/// −122…−47 axis).
fn v_tone(trace: &deepcsi_data::Trace, pos: usize) -> i32 {
    trace.snapshots[0].subcarriers[pos]
}
