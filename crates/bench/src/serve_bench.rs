//! Shared measurement helpers for the serving benchmarks
//! (`parallel_bench` and `obs_bench`).

use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{generate_d1, Dataset, GenConfig, InputSpec};
use deepcsi_nn::{Network, Tensor};
use deepcsi_serve::{Backpressure, Engine, EngineConfig, ReplaySource};
use std::time::Instant;

/// A named inference workload: network + one representative input.
pub struct Workload {
    /// Display name (used in RESULT keys).
    pub name: &'static str,
    /// The network under test.
    pub net: Network,
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
}

/// The paper-architecture CNN at full input width.
pub fn paper_cnn() -> Workload {
    Workload {
        name: "paper_cnn",
        net: ModelConfig::paper(10, 1).build((5, 1, 234)),
        input_shape: vec![5, 1, 234],
    }
}

/// The fast sweep-profile CNN.
pub fn fast_cnn() -> Workload {
    Workload {
        name: "fast_cnn",
        net: ModelConfig::fast(10, 1).build((5, 1, 117)),
        input_shape: vec![5, 1, 117],
    }
}

/// Deterministic pseudo-random inputs for a workload.
pub fn inputs(w: &Workload, batch: usize) -> Vec<Tensor> {
    let len: usize = w.input_shape.iter().product();
    (0..batch)
        .map(|s| {
            Tensor::from_vec(
                (0..len)
                    .map(|e| ((e * 31 + s * 7) % 13) as f32 * 0.1 - 0.6)
                    .collect(),
                w.input_shape.clone(),
            )
        })
        .collect()
}

/// Times one batch through an [`deepcsi_nn::InferPool`] at a given lane
/// count, seconds per batch. The pool is built once outside the timed
/// loop, so its contexts' buffers are warm and each timed call pays
/// only the scoped helper spawn/join on top of the inference.
pub fn measure_pool_batch_s(w: &Workload, batch: usize, lanes: usize, min_reps: usize) -> f64 {
    let xs = inputs(w, batch);
    let frozen = w.net.freeze();
    let mut pool = deepcsi_nn::InferPool::new(lanes);
    let _ = pool.infer_batch(&frozen, &xs); // warm-up (grows lane buffers)
    let reps = min_reps.max(1);
    // Best of 5 windows: the minimum is robust against preemption on
    // shared hosts.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(pool.infer_batch(&frozen, &xs));
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// A small synthetic capture for end-to-end engine throughput runs.
pub fn serve_dataset(modules: u32, snapshots: usize) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    })
}

/// An untrained fast classifier over the dataset's input shape
/// (throughput does not depend on trained weights).
pub fn serve_authenticator(ds: &Dataset, classes: usize) -> Authenticator {
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    Authenticator::new(ModelConfig::fast(classes, 0).build_for(&probe), spec)
}

/// End-to-end engine throughput for `repeat` replay passes at a given
/// worker count, reports/second (the `parallel_bench` scaling sweep).
pub fn engine_reports_per_sec_threads(ds: &Dataset, workers: usize, repeat: usize) -> f64 {
    engine_reports_per_sec_cfg(
        ds,
        EngineConfig {
            workers,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        repeat,
    )
}

/// End-to-end engine throughput under an arbitrary [`EngineConfig`] —
/// the `obs_bench` overhead sweep varies only the observability fields
/// (`trace`, `profile`) against a fixed serving setup.
pub fn engine_reports_per_sec_cfg(ds: &Dataset, cfg: EngineConfig, repeat: usize) -> f64 {
    engine_reports_per_sec_observed(ds, cfg, repeat, |_| (), |()| ())
}

/// [`engine_reports_per_sec_cfg`] with observer hooks: `attach` runs
/// once the engine is up (bind a scrape plane, launch scraper threads)
/// and `detach` runs after the replay has drained and the clock has
/// stopped (tear the observers down before engine shutdown) — the
/// `obs_bench` live-plane overhead rows.
pub fn engine_reports_per_sec_observed<T>(
    ds: &Dataset,
    cfg: EngineConfig,
    repeat: usize,
    attach: impl FnOnce(&Engine) -> T,
    detach: impl FnOnce(T),
) -> f64 {
    let replay = ReplaySource::from_dataset(ds);
    let engine = Engine::start_frozen(
        cfg,
        serve_authenticator(ds, ds.modules().len().max(2)).freeze(),
        ReplaySource::registry(ds),
    );
    let observers = attach(&engine);
    let t = Instant::now();
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let elapsed = t.elapsed().as_secs_f64();
    detach(observers);
    let report = engine.shutdown();
    report.stats.classified as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_throughput_is_positive() {
        let ds = serve_dataset(1, 3);
        assert!(engine_reports_per_sec_threads(&ds, 1, 1) > 0.0);
    }
}
