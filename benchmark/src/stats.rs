//! Order statistics, the completion tracker and the `/proc` readers.

use std::collections::VecDeque;
use std::time::Instant;

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread printed beside every metric. Uses the same
/// exclusive method as Python's `statistics.quantiles(values, n=4)`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(0.75) - at(0.25)) / m.abs()
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still
/// has at least ten samples beyond it in a sample of `n`.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [(0.999, 10_000), (0.99, 1_000), (0.9, 100)]
        .into_iter()
        .find(|&(_, needed)| n >= needed)
        .map_or(0.5, |(p, _)| p)
}

/// Matches completions to submissions by rank: the system exposes one
/// growing "reports finished" count, so the k-th finish is paired with
/// the k-th submission. With one worker FIFO (`paced_demo`) that is the
/// report's own latency; with several FIFOs it preserves the backlog and
/// the mean, not per-report identity.
#[derive(Debug)]
pub struct Tracker {
    pending: VecDeque<Instant>,
    matched: u64,
    latencies_ms: Vec<f64>,
}

impl Tracker {
    /// A tracker for up to `n` reports per [`Tracker::take`], on a
    /// system whose finished count already reads `finished`.
    pub fn new(n: usize, finished: u64) -> Tracker {
        Tracker {
            pending: VecDeque::with_capacity(n),
            matched: finished,
            latencies_ms: Vec::with_capacity(n),
        }
    }

    /// One report handed to the system, timed from `at`.
    pub fn sent(&mut self, at: Instant) {
        self.pending.push_back(at);
    }

    /// The system's finished count reads `finished` at `now`.
    pub fn observe(&mut self, finished: u64, now: Instant) {
        while self.matched < finished {
            let Some(at) = self.pending.pop_front() else {
                break;
            };
            self.matched += 1;
            self.latencies_ms
                .push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
        }
    }

    /// The closed-loop send: waits (sleep-polling `finished`) until fewer
    /// than `window` reports are outstanding, then counts one more as
    /// sent now.
    pub fn send_when_below(&mut self, window: usize, finished: impl Fn() -> u64) {
        loop {
            let now = Instant::now();
            self.observe(finished(), now);
            if self.pending.len() < window {
                return self.sent(now);
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    }

    /// Submissions not yet matched to a completion.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Takes the latencies matched since the last call.
    pub fn take(&mut self) -> Vec<f64> {
        let cap = self.latencies_ms.capacity();
        std::mem::replace(&mut self.latencies_ms, Vec::with_capacity(cap))
    }
}

/// Process CPU time (user + system, every thread) in milliseconds.
pub fn process_cpu_ms() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name; clock ticks are 10 ms on Linux.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().expect("utime").parse().expect("utime ticks");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime ticks");
    (utime + stime) * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM KiB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(3600), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }

    #[test]
    fn quantiles_and_spread_match_the_reference_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn tracker_pairs_finishes_with_submissions_in_order() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The system had already finished 7 reports nobody tracked.
        let mut tr = Tracker::new(8, 7);
        tr.sent(at(0));
        tr.sent(at(1));
        tr.observe(7, at(2));
        assert_eq!(tr.backlog(), 2);
        tr.observe(9, at(5));
        assert_eq!(tr.take(), vec![5.0, 4.0]);
        // Counter trace: 3 sent, the count steps 9 → 10 → 12.
        tr.sent(at(10));
        tr.sent(at(11));
        tr.sent(at(12));
        tr.observe(9, at(13));
        assert_eq!(tr.backlog(), 3);
        tr.observe(10, at(14));
        tr.observe(12, at(20));
        assert_eq!(tr.take(), vec![4.0, 9.0, 8.0]);
        assert_eq!(tr.backlog(), 0);
    }
}
