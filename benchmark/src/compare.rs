//! `compare <a.json> <b.json>`: holds run set `b` against run set `a`,
//! one row per workload and end-to-end metric, each judged by its own
//! bound and direction. There is deliberately no combined score.

use crate::spec::{MetricSpec, Spec};
use deepcsi_obs::JsonValue;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The runs themselves spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// One side's median and run spread (IQR as a share of the median).
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(m: &MetricSpec, a: Side, b: Side) -> Outcome {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if a.spread.max(b.spread) > bound {
        Outcome::Unresolved
    } else if worsening(m, a.value, b.value) > bound {
        Outcome::Regressed
    } else {
        Outcome::Ok
    }
}

fn side(doc: &JsonValue, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread")?.as_f64()?,
    })
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(spec: &Spec, a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    if a.get("host") != b.get("host") {
        eprintln!("the two result files come from different hosts or toolchains; their numbers do not compare");
        return ExitCode::from(2);
    }
    let mut clean = true;
    let JsonValue::Object(workloads) = a.get("workloads").unwrap_or(&JsonValue::Null) else {
        eprintln!("no workloads in the first file");
        return ExitCode::from(2);
    };
    println!(
        "{:<14}{:<26}{:>14}{:>14}{:>9}{:>8}  outcome",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for workload in workloads.keys() {
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) = (side(&a, workload, &m.name), side(&b, workload, &m.name))
            else {
                println!("{workload:<14}{:<26} missing on one side", m.name);
                clean = false;
                continue;
            };
            let outcome = judge(m, x, y);
            clean &= outcome == Outcome::Ok;
            println!(
                "{workload:<14}{:<26}{:>14.5}{:>14.5}{:>8.2}%{:>7.2}%  {}",
                m.name,
                x.value,
                y.value,
                100.0 * worsening(m, x.value, y.value),
                100.0 * m.bound.unwrap_or(0.0),
                match outcome {
                    Outcome::Ok => "ok",
                    Outcome::Regressed => "regressed",
                    Outcome::Unresolved => "unresolved",
                }
            );
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "1/s".to_string(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn at(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn rows_are_judged_by_direction_bound_and_spread() {
        let throughput = metric(true, 0.05);
        assert_eq!(
            judge(&throughput, at(1000.0, 0.01), at(960.0, 0.01)),
            Outcome::Ok
        );
        assert_eq!(
            judge(&throughput, at(1000.0, 0.01), at(940.0, 0.01)),
            Outcome::Regressed
        );
        assert_eq!(
            judge(&throughput, at(1000.0, 0.01), at(2000.0, 0.01)),
            Outcome::Ok
        );
        // Noisier than the bound on either side: no verdict either way.
        assert_eq!(
            judge(&throughput, at(1000.0, 0.08), at(940.0, 0.01)),
            Outcome::Unresolved
        );
        assert_eq!(
            judge(&throughput, at(1000.0, 0.01), at(1000.0, 0.06)),
            Outcome::Unresolved
        );

        let latency = metric(false, 0.10);
        assert_eq!(judge(&latency, at(2.0, 0.02), at(2.19, 0.02)), Outcome::Ok);
        assert_eq!(
            judge(&latency, at(2.0, 0.02), at(2.21, 0.02)),
            Outcome::Regressed
        );
        assert_eq!(judge(&latency, at(2.0, 0.02), at(1.0, 0.02)), Outcome::Ok);

        // An exact metric: any move the wrong way is a regression.
        let share = metric(true, 0.001);
        assert_eq!(judge(&share, at(1.0, 0.0), at(1.0, 0.0)), Outcome::Ok);
        assert_eq!(
            judge(&share, at(1.0, 0.0), at(5.0 / 6.0, 0.0)),
            Outcome::Regressed
        );
    }
}
