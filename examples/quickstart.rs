//! Quickstart: the full DeepCSI loop on a small synthetic testbed.
//!
//! 1. Simulate a data-collection campaign (4 AP modules, Fig. 6 room).
//! 2. Train the classifier on the S1 split.
//! 3. Deploy it as an [`Authenticator`] and identify the transmitter from
//!    raw captured frame bytes — the Fig. 1 "real-time inference" box.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use deepcsi::core::{run_experiment, Authenticator, ExperimentConfig};
use deepcsi::data::{d1_split, generate_trace, D1Set, GenConfig, TraceKind, TraceSpec};
use deepcsi::frame::{BeamformingReportFrame, MacAddr};
use deepcsi::impair::DeviceId;

fn main() {
    // --- 1. Collect a dataset ------------------------------------------------
    let gen = GenConfig {
        num_modules: 4,
        snapshots_per_trace: 60,
        ..GenConfig::default()
    };
    println!(
        "generating D1 ({} modules × 9 positions × 2 beamformees)…",
        gen.num_modules
    );
    let dataset = deepcsi::data::generate_d1(&gen);
    println!(
        "  {} traces, {} soundings",
        dataset.traces.len(),
        dataset.num_snapshots()
    );

    // --- 2. Train ------------------------------------------------------------
    let spec = deepcsi::data::InputSpec::fast();
    let split = d1_split(&dataset, D1Set::S1, &[1], &spec);
    println!(
        "training on {} samples (validation {}, test {})…",
        split.train.len(),
        split.val.len(),
        split.test.len()
    );
    let cfg = ExperimentConfig::fast(gen.num_modules as usize, 42);
    let result = run_experiment(&cfg, &split);
    println!("test accuracy: {:.2}%", result.accuracy * 100.0);
    println!("{}", result.confusion);

    // --- 3. Deploy and authenticate raw captures ------------------------------
    let auth = Authenticator::new(result.network, spec).freeze();
    let mut ctx = auth.ctx();
    println!("\nauthenticating fresh over-the-air captures:");
    for module in 0..gen.num_modules {
        // A fresh trace from this module, captured as raw frame bytes.
        let trace = generate_trace(
            &gen,
            &TraceSpec {
                module: DeviceId(module),
                beamformee: 1,
                n_rx: 2,
                rx_position: 5,
                kind: TraceKind::D1Static { position: 5 },
            },
        );
        let frame = BeamformingReportFrame::new(
            MacAddr::station(1000),
            MacAddr::station(1),
            MacAddr::station(1000),
            1,
            trace.snapshots[0].clone(),
        );
        let bytes = frame.encode(); // what the monitor sniffs
        match auth.classify_frame(&bytes, &mut ctx) {
            Ok((source, id)) => println!(
                "  frame from beamformee {source}: actual module {module}, identified as module {id} {}",
                if id == module as usize { "✓" } else { "✗" }
            ),
            Err(e) => println!("  capture failed to decode: {e}"),
        }
    }
}
