//! In-memory spans recorded from outside the program: the benchmark wraps
//! each call into a layer, and the Paillier `KeyOp` events the library
//! already emits become child spans of whichever call was open.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use gridmine::obs::{Event, KeyOpKind, Recorder};

/// One timed interval. `parent` is the span that was open when this one
/// started, which is the span that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced run, in the order they were entered (for a span
/// recorded after the fact, the order it completed).
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Busy time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Busy {
    pub count: u64,
    /// Time inside these spans and not inside any child span.
    pub self_ns: u64,
    /// Time inside these spans, children included.
    pub total_ns: u64,
}

impl Busy {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanLog {
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn exit_at(&mut self, id: usize, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the reverse of the order they opened");
        self.spans[id].end_ns = end_ns;
    }

    /// Records an interval that already ended, as a child of the open
    /// span. Nested operations report inner-first (each reports when it
    /// completes), so the children of the open span that started inside
    /// this interval are this interval's own children: re-parent them.
    pub fn closed(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        let first_candidate = parent.map_or(0, |p| p + 1);
        // Direct children run one after another on the driving thread,
        // so walking back stops at the first one that started earlier.
        for s in self.spans[first_candidate..].iter_mut().rev() {
            if s.parent == parent {
                if s.start_ns < start_ns {
                    break;
                }
                s.parent = Some(id);
            }
        }
        self.spans.push(Span { name, start_ns, end_ns, parent });
    }

    /// Self and total time per span name. Self time is the span's
    /// duration minus its direct children's.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let b = out.entry(s.name).or_default();
            b.count += 1;
            b.self_ns += s.nanos().saturating_sub(kids);
            b.total_ns += s.nanos();
        }
        out
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`
    /// (the line number of the causing span, or null).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent
            ));
        }
        out
    }
}

/// A span log the driving thread and the recorder both write to.
#[derive(Clone, Debug, Default)]
pub struct Tracer(Arc<Mutex<SpanLog>>);

impl Tracer {
    pub fn lock(&self) -> MutexGuard<'_, SpanLog> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span. The log is not held while `f` runs, so the
    /// recorder can add the `KeyOp` spans `f` causes.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut log = self.lock();
            let now = log.now_ns();
            log.enter_at(name, now)
        };
        let out = f();
        let mut log = self.lock();
        let now = log.now_ns();
        log.exit_at(id, now);
        out
    }
}

fn key_op_span(op: KeyOpKind) -> &'static str {
    match op {
        KeyOpKind::Encrypt => "paillier.encrypt",
        KeyOpKind::Decrypt => "paillier.decrypt",
        KeyOpKind::Rerandomize => "paillier.rerandomize",
        KeyOpKind::Modpow => "paillier.modpow",
        KeyOpKind::BatchDecrypt => "paillier.batch_decrypt",
        KeyOpKind::MultiExp => "paillier.multi_exp",
    }
}

/// Turns the library's `KeyOp` events into spans. An event carries only a
/// duration and arrives when the operation ends, so the span is
/// `[now − nanos, now]`. Only operations that end on the driving thread
/// become spans: the ones on pool threads run inside a batch operation
/// the driving thread is blocked in, and that one is the outermost.
pub struct SpanRecorder {
    tracer: Tracer,
    driver: ThreadId,
}

impl SpanRecorder {
    /// A recorder for spans driven from the calling thread.
    pub fn new(tracer: Tracer) -> Self {
        SpanRecorder { tracer, driver: std::thread::current().id() }
    }
}

impl Recorder for SpanRecorder {
    fn record(&self, event: &Event) {
        if let Event::KeyOp { op, nanos } = event {
            if std::thread::current().id() == self.driver {
                let mut log = self.tracer.lock();
                let end = log.now_ns();
                log.closed(key_op_span(*op), end.saturating_sub(*nanos), end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span { name, start_ns, end_ns, parent })
            .collect();
        SpanLog { spans, ..SpanLog::default() }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // session [0,100] ⊃ step [10,60] ⊃ encrypt [20,50] ⊃ modpow [25,45]
        //                 ⊃ receive [60,90]
        let log = log_of(&[
            ("session", 0, 100, None),
            ("core.step", 10, 60, Some(0)),
            ("paillier.encrypt", 20, 50, Some(1)),
            ("paillier.modpow", 25, 45, Some(2)),
            ("core.on_receive", 60, 90, Some(0)),
        ]);
        let busy = log.busy();
        assert_eq!(busy["session"].self_ns, 100 - 50 - 30);
        assert_eq!(busy["core.step"].self_ns, 50 - 30);
        assert_eq!(busy["paillier.encrypt"].self_ns, 30 - 20);
        assert_eq!(busy["paillier.modpow"].self_ns, 20);
        assert_eq!(busy["core.on_receive"], Busy { count: 1, self_ns: 30, total_ns: 30 });
        // Self times partition the root: nothing is counted twice.
        let total: u64 = busy.values().map(|b| b.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn a_late_reported_outer_operation_adopts_the_inner_ones() {
        // The library reports modpow [25,45] when it ends, then the
        // encrypt [20,50] that contained it, both while core.step is open.
        let mut log = SpanLog::default();
        let step = log.enter_at("core.step", 10);
        log.closed("paillier.decrypt", 12, 18);
        log.closed("paillier.modpow", 25, 45);
        log.closed("paillier.encrypt", 20, 50);
        log.exit_at(step, 60);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(step), "an earlier sibling is left alone");
        assert_eq!(spans[2].parent, Some(3), "modpow now hangs under encrypt");
        assert_eq!(spans[3].parent, Some(step));
        let busy = log.busy();
        assert_eq!(busy["core.step"].self_ns, 50 - 6 - 30);
        assert_eq!(busy["paillier.encrypt"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_spans_and_recorder_spans_land_inside() {
        let tracer = Tracer::default();
        let rec = SpanRecorder::new(tracer.clone());
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                rec.record(&Event::KeyOp { op: KeyOpKind::Decrypt, nanos: 1_000_000 });
            });
            // An operation that ends on a pool thread leaves no span.
            std::thread::scope(|s| {
                s.spawn(|| rec.record(&Event::KeyOp { op: KeyOpKind::Modpow, nanos: 5 }));
            });
        });
        let log = tracer.lock();
        let names: Vec<_> = log.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0)), ("paillier.decrypt", Some(1))]);
        let busy = log.busy();
        assert!(busy["inner"].self_ns < busy["inner"].total_ns);
        assert_eq!(busy["paillier.decrypt"].total_ns, 1_000_000);
        assert!(log.to_jsonl().lines().count() == 3);
    }
}
