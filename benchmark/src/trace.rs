//! The harness's own span recorder: one span around each call into a layer.
//!
//! Spans are recorded from outside the crates under test (spans inside them are a
//! later change), kept in memory, and written as `trace-<workload>.json` when the
//! run ends. A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span; `pass` groups the
/// spans of one workload pass (the "request" identifier of this harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited has no end"]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Turns recording on or off between passes (the trace-overhead measurement
    /// alternates). No span may be open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Starts the next workload pass: spans entered from now on carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total_ns, self_ns)`, self time being a span's
    /// duration minus the part of it its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let self_ns = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let row = totals.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.end_ns - span.start_ns;
            row.2 += own;
        }
        totals
    }

    /// The whole recording as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|span| {
                Json::Arr(vec![
                    Json::Str(span.name.to_string()),
                    Json::from_u64(span.start_ns),
                    Json::from_u64(span.end_ns),
                    span.parent
                        .map_or(Json::Null, |parent| Json::from_u64(parent as u64)),
                    Json::from_u64(u64::from(span.pass)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::from_u64(count)),
                        ("total_ns".into(), Json::from_u64(total)),
                        ("self_ns".into(), Json::from_u64(own)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("seed".into(), Json::from_u64(seed)),
            (
                "columns".into(),
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "pass"]
                        .iter()
                        .map(|c| Json::Str((*c).to_string()))
                        .collect(),
                ),
            ),
            ("spans".into(), Json::Arr(spans)),
            ("totals".into(), Json::Obj(totals)),
        ])
    }
}

/// Self time of every span: its duration minus its direct children's durations.
/// Children of one parent never overlap (one thread, strict nesting), so the sum of
/// their durations is exactly the part of the parent they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.end_ns - span.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100] > batch [10,60] > wal [20,30]; pass > flush [70,90].
        let spans = vec![
            span("pass", 0, 100, None),
            span("batch", 10, 60, Some(0)),
            span("wal", 20, 30, Some(1)),
            span("flush", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn recorder_nests_by_entry_order_and_tags_passes() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer");
        let inner = tracer.enter("inner");
        tracer.exit(inner);
        tracer.exit(outer);
        tracer.next_pass();
        let later = tracer.enter("outer");
        tracer.exit(later);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].pass, spans[2].pass), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = tracer.totals();
        assert_eq!(totals["outer"].0, 2);
        assert_eq!(totals["inner"].0, 1);
        let rendered = tracer.to_json("unit", 7).render();
        assert!(Json::parse(&rendered).is_ok());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("ignored");
        tracer.exit(id);
        assert!(tracer.spans().is_empty());
    }
}
