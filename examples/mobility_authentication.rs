//! Mobility scenario: authenticate an AP that is being carried through
//! the room (the paper's D2 / Fig. 17 story).
//!
//! Trains once on the mobility traces (group mob1) and then authenticates
//! the device continuously as it re-walks the A-B-C-D-B-A path,
//! reporting a running majority vote — the way a deployed verifier would
//! smooth per-sounding decisions.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example mobility_authentication
//! ```

use deepcsi::core::{run_experiment, Authenticator, ExperimentConfig};
use deepcsi::data::{
    d2_split, generate_d2, generate_trace, D2Set, GenConfig, InputSpec, TraceKind, TraceSpec,
};
use deepcsi::impair::DeviceId;

fn main() {
    let gen = GenConfig {
        num_modules: 5,
        snapshots_per_trace: 80,
        ..GenConfig::default()
    };
    println!("generating D2 mobility dataset…");
    let dataset = generate_d2(&gen);

    let spec = InputSpec::fast();
    let split = d2_split(&dataset, D2Set::S4, &[1], &spec);
    println!(
        "training on mob1 ({} samples), testing on mob2 ({} samples)…",
        split.train.len() + split.val.len(),
        split.test.len()
    );
    let result = run_experiment(
        &ExperimentConfig::fast(gen.num_modules as usize, 11),
        &split,
    );
    println!(
        "mobility accuracy (Fig. 17a analogue): {:.2}%\n",
        result.accuracy * 100.0
    );

    // Continuous authentication of a *new* walk of module 3.
    let auth = Authenticator::new(result.network, spec).freeze();
    let mut ctx = auth.ctx();
    let target = DeviceId(3);
    let walk = generate_trace(
        &gen,
        &TraceSpec {
            module: target,
            beamformee: 1,
            n_rx: 1,
            rx_position: 3,
            kind: TraceKind::D2Mobility { group: 2, idx: 9 }, // unseen trace
        },
    );
    println!("authenticating module {target} along a fresh walk:");
    let mut votes = vec![0usize; gen.num_modules as usize];
    let mut correct_so_far = 0usize;
    for (i, fb) in walk.snapshots.iter().enumerate() {
        let id = auth.classify_feedback(fb, &mut ctx);
        votes[id] += 1;
        if id == target.0 as usize {
            correct_so_far += 1;
        }
        if (i + 1) % 16 == 0 {
            let leader = votes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(c, _)| c)
                .expect("votes");
            println!(
                "  t={:>5.1}s  soundings {:>3}  per-sounding acc {:>5.1}%  majority → module {leader} {}",
                walk.timestamps[i],
                i + 1,
                100.0 * correct_so_far as f64 / (i + 1) as f64,
                if leader == target.0 as usize { "✓" } else { "✗" }
            );
        }
    }
}
