//! Outside-in tracing: spans the benchmark records around its own calls
//! into the program's layers. Nothing in the program is instrumented.
//!
//! A span carries its name (the layer it entered), start and end on the
//! process clock, the span that caused it, and the repetition it belongs
//! to. Per-entry calls are not recorded one by one: the caller sums their
//! time over an interval and records one *aggregated* span whose `busy_ns`
//! is that sum and whose `calls` is the call count. A layer's self time is
//! its span's busy time minus the busy time of its children.

use serde::content::Content;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rep: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent inside the span: `end − start` for a plain span, the sum
    /// over the calls for an aggregated one.
    pub busy_ns: u64,
    pub calls: u64,
}

/// In-memory span store. A disabled tracer records nothing and never reads
/// the clock, so the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between repetitions (the traced run
    /// alternates, to measure what tracing costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle inside a span");
        self.enabled = enabled;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin");
        assert_eq!(index, id.0, "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Records `calls` calls that together took `busy_ns`, all since
    /// `since_ns` on this tracer's clock, as one child of the innermost open
    /// span.
    pub fn aggregate(&mut self, name: &'static str, since_ns: u64, busy_ns: u64, calls: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns: since_ns,
            end_ns: now,
            busy_ns,
            calls,
        });
    }

    /// The tracer's clock, for [`Tracer::aggregate`]'s `since_ns`.
    pub fn clock_ns(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time per span minus the busy time of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Sum of calls over the spans called `name`, all repetitions.
    pub fn calls(&self, name: &str) -> u64 {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(|s| s.calls).sum()
    }

    pub fn to_content(&self) -> Content {
        let selfs = self.self_times();
        Content::Seq(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (span, self_ns))| {
                    Content::Map(vec![
                        ("id".into(), Content::U64(id as u64)),
                        ("name".into(), Content::Str(span.name.into())),
                        ("rep".into(), Content::U64(u64::from(span.rep))),
                        (
                            "parent".into(),
                            span.parent
                                .map_or(Content::Null, |p| Content::U64(p as u64)),
                        ),
                        ("start_ns".into(), Content::U64(span.start_ns)),
                        ("end_ns".into(), Content::U64(span.end_ns)),
                        ("busy_ns".into(), Content::U64(span.busy_ns)),
                        ("self_ns".into(), Content::U64(self_ns)),
                        ("calls".into(), Content::U64(span.calls)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its busy time minus its direct children's busy
/// time (saturating, because an aggregated child's clock reads are taken
/// inside the calls it sums and can overshoot a very short parent by the
/// clock's resolution).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.busy_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64, busy: u64, calls: u64) -> Span {
        Span {
            name: "x",
            rep: 0,
            parent,
            start_ns: start,
            end_ns: end,
            busy_ns: busy,
            calls,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ── a 10..60 ── b 20..30
        //            └─ c 70..90
        let spans = vec![
            span(None, 0, 100, 100, 1),
            span(Some(0), 10, 60, 50, 1),
            span(Some(1), 20, 30, 10, 1),
            span(Some(0), 70, 90, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn aggregated_children_count_their_busy_time_not_their_extent() {
        // A run of 100 ns whose 16 384 callbacks took 35 ns in total: the
        // aggregated child spans the whole interval but covers only 35 ns.
        let spans = vec![
            span(None, 0, 100, 100, 1),
            span(Some(0), 0, 100, 35, 16_384),
            span(Some(0), 40, 50, 10, 1),
        ];
        assert_eq!(self_times(&spans), vec![55, 35, 10]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut tracer = Tracer::new(true);
        tracer.set_rep(2);
        let rep = tracer.begin("rep");
        let run = tracer.begin("run");
        let since = tracer.clock_ns();
        tracer.aggregate("callback", since, 0, 5);
        tracer.aggregate("callback", since, 0, 0); // no calls: not recorded
        tracer.end(run);
        tracer.end(rep);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].calls, 5);
        assert!(spans.iter().all(|s| s.rep == 2));
        assert_eq!(tracer.calls("callback"), 5);
        let total: u64 = tracer.self_times().iter().sum();
        assert_eq!(total, spans[0].busy_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("rep");
        tracer.aggregate("callback", 0, 10, 3);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }
}
