//! Spectrum-monitor scenario: the DSA enforcement use case that motivates
//! the paper's introduction.
//!
//! A spectrum administrator must verify *which unlicensed device is using
//! the band* without holding any cryptographic material. The monitor
//! passively captures VHT Compressed Beamforming frames from the
//! beamformees of several APs, identifies each AP at the PHY layer, and
//! flags transmitters whose claimed MAC address does not match their
//! radio fingerprint (MAC spoofing).
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example spectrum_monitor
//! ```

use deepcsi::core::{run_experiment, Authenticator, ExperimentConfig};
use deepcsi::data::{
    d1_split, generate_d1, generate_trace, D1Set, GenConfig, InputSpec, TraceKind, TraceSpec,
};
use deepcsi::frame::{BeamformingReportFrame, MacAddr, Monitor};
use deepcsi::impair::DeviceId;

/// The MAC each legitimate AP module is expected to use.
fn registered_mac(module: u32) -> MacAddr {
    MacAddr::station(0x5000 + module as u64)
}

fn main() {
    // Enrollment: the administrator fingerprints the registered devices.
    let gen = GenConfig {
        num_modules: 5,
        snapshots_per_trace: 60,
        ..GenConfig::default()
    };
    println!("enrolling {} registered APs…", gen.num_modules);
    let dataset = generate_d1(&gen);
    let spec = InputSpec::fast();
    let split = d1_split(&dataset, D1Set::S1, &[1], &spec);
    let result = run_experiment(&ExperimentConfig::fast(gen.num_modules as usize, 3), &split);
    println!(
        "enrollment model accuracy: {:.2}%\n",
        result.accuracy * 100.0
    );
    let auth = Authenticator::new(result.network, spec).freeze();
    let mut ctx = auth.ctx();

    // Live monitoring: frames arrive with *claimed* beamformer MACs.
    let mut monitor = Monitor::new();
    // Module 2 behaves; module 4 spoofs module 1's registered MAC.
    let observed: &[(u32, MacAddr)] = &[
        (2, registered_mac(2)),
        (4, registered_mac(1)), // spoofer!
        (0, registered_mac(0)),
    ];
    println!("monitoring live captures:");
    for (seq, &(module, claimed)) in observed.iter().enumerate() {
        let trace = generate_trace(
            &gen,
            &TraceSpec {
                module: DeviceId(module),
                beamformee: 1,
                n_rx: 2,
                rx_position: 4,
                kind: TraceKind::D1Static { position: 4 },
            },
        );
        let bytes = BeamformingReportFrame::new(
            claimed, // Addr1: the beamformer the feedback is destined to
            MacAddr::station(1),
            claimed,
            seq as u16,
            trace.snapshots[0].clone(),
        )
        .encode();
        let report = monitor.observe(&bytes).expect("valid frame").clone();
        let identified = auth.classify_feedback(&report.feedback, &mut ctx);
        let expected = registered_mac(identified as u32);
        let verdict = if expected == report.destination {
            "authentic"
        } else {
            "SPOOFING SUSPECTED"
        };
        println!(
            "  frame → claimed AP {}, RF fingerprint says module {} ({}): {}",
            report.destination, identified, expected, verdict
        );
    }
    println!(
        "\nmonitor stats: {} reports captured, {} undecodable frames",
        monitor.reports().len(),
        monitor.decode_errors()
    );
}
