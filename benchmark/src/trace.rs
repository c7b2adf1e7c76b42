//! The benchmark's own spans: recorded around calls into each layer,
//! kept in a preallocated buffer, written as a Chrome trace and folded
//! into a self-time table when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `bfi.reconstruct`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer.
    pub parent: Option<u32>,
    /// The report this span worked on — the id its spans share. A batch
    /// span carries its first report.
    pub report: u32,
}

/// Span recorder. Disabled, every call is a branch and nothing else, so
/// the same walk runs with spans on and off.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl SpanBuf {
    pub fn new(capacity: usize, enabled: bool) -> SpanBuf {
        SpanBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            enabled,
        }
    }

    /// Runs `f` inside a span named `name` for `report`; spans opened
    /// by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        report: u32,
        f: impl FnOnce(&mut SpanBuf) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            report,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: a span's duration minus what its direct
/// children cover. Sorted by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut table = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *table.entry(s.name).or_insert(0) += ns;
    }
    table
}

/// Self time per layer (the part of a span name before the dot).
pub fn layer_times(by_name: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (name, ns) in by_name {
        let layer = name.split('.').next().expect("non-empty name");
        *layers.entry(layer).or_insert(0) += ns;
    }
    layers
}

/// Chrome trace (`chrome://tracing`, Perfetto): one complete event per
/// span, microsecond timestamps, report and parent in `args`.
pub fn write_chrome_trace<W: Write>(mut w: W, spans: &[Span]) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"report\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.report
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            report: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("data.tensor", 0, 100, None),
            span("bfi.reconstruct", 10, 70, Some(0)),
            span("bfi.inner", 20, 30, Some(1)),
            span("data.tensor", 200, 260, None),
            span("bfi.reconstruct", 210, 250, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["data.tensor"], (100 - 60) + (60 - 40));
        assert_eq!(t["bfi.reconstruct"], (60 - 10) + 40);
        assert_eq!(t["bfi.inner"], 10);
        let layers = layer_times(&t);
        assert_eq!(layers["data"], 60);
        assert_eq!(layers["bfi"], 100);
        // Self times add up to the top-level spans' durations.
        assert_eq!(t.values().sum::<u64>(), 100 + 60);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut buf = SpanBuf::new(4, true);
        let v = buf.span("a.outer", 7, |b| b.span("b.inner", 7, |_| 42));
        assert_eq!(v, 42);
        let s = buf.spans();
        assert_eq!((s[0].name, s[0].parent), ("a.outer", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].report),
            ("b.inner", Some(0), 7)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = SpanBuf::new(4, false);
        assert_eq!(off.span("a.outer", 0, |_| 1), 1);
        assert!(off.spans().is_empty());

        let mut out = Vec::new();
        write_chrome_trace(&mut out, s).unwrap();
        let parsed = deepcsi_obs::JsonValue::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            2
        );
    }
}
