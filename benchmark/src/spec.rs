//! The benchmark's declared contract, read from the files that declare
//! it: metric names, units, directions and bounds from
//! `../BENCHMARK.json`, expected verdict metrics from `baseline.json`.
//! Both are embedded at build time, so a binary and its contract cannot
//! drift apart.

use crate::workloads::{Quality, Workload};
use deepcsi_obs::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const BASELINE_JSON: &str = include_str!("../baseline.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
}

fn metrics(doc: &JsonValue, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing list {key:?}"))
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name").to_string(),
            unit: text(m, "unit").to_string(),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

/// The verdict metrics `baseline.json` records for `workload`.
pub fn expected_quality(workload: Workload) -> Quality {
    let doc = JsonValue::parse(BASELINE_JSON).expect("baseline.json parses");
    let row = doc
        .get("expected")
        .and_then(|e| e.get(workload.name()))
        .unwrap_or_else(|| panic!("baseline.json: no expected row for {}", workload.name()));
    let number = |key: &str| {
        row.get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("baseline.json: {} lacks {key}", workload.name()))
    };
    Quality {
        reports_to_verdict_p50: number("reports_to_verdict_p50"),
        accept_share: number("accept_share"),
        impostor_reject_share: number("impostor_reject_share"),
    }
}

/// The verdict metrics must equal the recorded ones exactly: the check
/// pass is counted, not timed, so nothing but a behaviour change moves
/// them.
pub fn check_quality(workload: Workload, got: &Quality, expected: &Quality) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    if close(got.reports_to_verdict_p50, expected.reports_to_verdict_p50)
        && close(got.accept_share, expected.accept_share)
        && close(got.impostor_reject_share, expected.impostor_reject_share)
    {
        Ok(())
    } else {
        Err(format!(
            "{}: verdicts moved: got {got:?}, baseline.json records {expected:?}",
            workload.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_file_lists_what_the_binary_needs() {
        let spec = Spec::load();
        assert!(spec.run_seconds >= 1.0);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for w in Workload::ALL {
            expected_quality(w);
        }
    }

    #[test]
    fn a_corrupted_expected_verdict_fails_the_check() {
        let recorded = expected_quality(Workload::ReplayDemo);
        assert!(check_quality(Workload::ReplayDemo, &recorded, &recorded).is_ok());
        // One impostor accepted that the baseline says is rejected.
        let corrupted = Quality {
            impostor_reject_share: recorded.impostor_reject_share - 0.5,
            ..recorded.clone()
        };
        let err = check_quality(Workload::ReplayDemo, &recorded, &corrupted).unwrap_err();
        assert!(err.contains("verdicts moved"), "{err}");
    }
}
