//! In-memory span recorder for the traced replay.
//!
//! Every call the replay makes into a layer is one [`Span`]: layer, name,
//! start, end, parent and read. Spans stay in memory while the replay runs;
//! afterwards [`self_times`] attributes time to layers (a span's duration
//! minus the part of it its child spans cover), [`covered_ns`] measures how
//! much of the replay's wall time the layer spans account for, and
//! [`write_chrome_json`] writes a Chrome trace-event file
//! (`{"traceEvents":[…]}`) for a timeline view.

use std::io::{self, Write};
use std::time::Instant;

/// Layer name of the per-read root span; every other span is a layer span.
pub const ROOT: &str = "read";

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Owning layer (the module the call belongs to), e.g. `mapping.seed`.
    pub layer: &'static str,
    /// The call within the layer, e.g. `sketch_and_seed_into`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The read the call worked on (its pull ordinal).
    pub read: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled tracer records nothing and reads no clock,
/// so the same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, read: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            read,
        });
        let n = self.open.len();
        if n > 1 {
            let me = self.open[n - 1];
            self.spans[me].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Re-tags the innermost open span and its ancestors with `read` — for
    /// the root span, whose read is known only after the pull inside it.
    pub fn tag_open(&mut self, read: u32) {
        for &idx in &self.open {
            self.spans[idx].read = read;
        }
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans[p];
            children[p].push((
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - union_ns(kids))
        .collect()
}

/// Self time summed over the spans `keep` selects, in ns.
pub fn self_ns(spans: &[Span], keep: impl Fn(&Span) -> bool) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| keep(s))
        .map(|(_, t)| t)
        .sum()
}

/// Wall time covered by at least one layer span (any span but the roots).
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer != ROOT)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_ns(&mut intervals)
}

/// Writes `spans` as Chrome trace-event JSON: one complete (`"ph":"X"`)
/// event per span, timestamps in µs, the layer as the category, and the
/// read, span index and parent index as arguments. Layer and call names are
/// identifiers from this crate's source, so they need no escaping.
pub fn write_chrome_json(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"read\":{},\"span\":{i}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.read
        )?;
        if let Some(p) = s.parent {
            write!(w, ",\"parent\":{p}")?;
        }
        w.write_all(b"}}")?;
    }
    w.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "call",
            start_ns,
            end_ns,
            parent,
            read: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // read [0,100) ⊃ basecall [10,40) ⊃ inner [20,30); seed [50,70).
        let spans = [
            span(ROOT, 0, 100, None),
            span("basecall", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("mapping.seed", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        assert_eq!(self_ns(&spans, |s| s.layer == "basecall"), 20);
        assert_eq!(self_ns(&spans, |s| s.layer == ROOT), 50);
        // Every layer's self time plus the roots' adds back up to the wall.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(ROOT, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)), // clamped to the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        assert_eq!(covered_ns(&spans), 50 + 30);
    }

    #[test]
    fn recorder_nests_and_tags_reads() {
        let mut t = Tracer::new(true);
        t.enter(ROOT, "read", u32::MAX);
        t.enter("io", "gsc_read", u32::MAX);
        t.tag_open(7);
        t.exit();
        t.enter("basecall", "call_next", 7);
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.read == 7));
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false);
        off.enter(ROOT, "read", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let spans = [span(ROOT, 0, 2_000, None), span("io", 500, 1_500, Some(0))];
        let mut out = Vec::new();
        write_chrome_json(&spans, &mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("{\"traceEvents\":[{\"name\":\"call\",\"cat\":\"read\""));
        assert!(text.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(text.contains("\"parent\":0}"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
