//! The [`Recorder`] trait and the three in-tree sinks.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{Event, EventKind};

/// Locks with poison recovery: recorders are shared across worker
/// threads, and a panic in one observer must not cascade into every
/// later `record` call. The guarded state (an event buffer, a line
/// writer) is valid between operations, so the guard is safe to take.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sink for protocol events.
///
/// Recorders are shared across resources and worker threads, so `record`
/// takes `&self` and implementations synchronize internally. Emission
/// sites are expected to guard on [`Recorder::enabled`] (see
/// [`crate::emit`]) so that constructing the event — including rule
/// display strings — costs nothing when recording is off.
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants events at all. Defaults to `true`;
    /// [`NullRecorder`] overrides it to `false` so emission sites skip
    /// event construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event);

    /// Flush any buffered output (meaningful for [`JsonlRecorder`]).
    fn flush(&self) {}
}

/// The canonical shared handle threaded through the stack.
pub type SharedRecorder = Arc<dyn Recorder>;

/// A fresh [`NullRecorder`] handle — the default everywhere.
pub fn null() -> SharedRecorder {
    Arc::new(NullRecorder)
}

/// Discards everything; `enabled()` is `false` so emission sites skip
/// event construction. This is the zero-cost default for every driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Buffers events in memory for test assertions.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A ready-to-share handle (the common test spelling).
    pub fn shared() -> Arc<MemoryRecorder> {
        Arc::new(Self::new())
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// How many events of `kind` have been recorded.
    pub fn count_of(&self, kind: EventKind) -> usize {
        lock(&self.events).iter().filter(|e| e.kind() == kind).count()
    }

    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        lock(&self.events).clear();
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        lock(&self.events).push(event.clone());
    }
}

/// Writes one JSON object per line — the CI-artifact format. Lines are
/// produced by [`Event::to_json`] and parse back with
/// [`Event::from_json`].
pub struct JsonlRecorder {
    out: Mutex<BufWriter<File>>,
}

impl JsonlRecorder {
    /// Create (truncate) `path`, creating parent directories as needed.
    #[expect(
        clippy::disallowed_methods,
        reason = "trace sink, not protocol state: obs cannot depend on the store crate (store \
                  depends on obs), and every JSONL reader tolerates a torn trailing line"
    )]
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlRecorder { out: Mutex::new(BufWriter::new(file)) })
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let mut out = lock(&self.out);
        // Tracing must not abort the protocol: I/O errors are dropped.
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = lock(&self.out).flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Broadcasts every event to several sinks; enabled iff any sink is.
/// The drivers use this to pair the caller's recorder with the
/// [`crate::Metrics`] registry that fills outcome snapshots.
pub struct FanoutRecorder {
    sinks: Vec<SharedRecorder>,
}

impl FanoutRecorder {
    pub fn new(sinks: Vec<SharedRecorder>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &Event) {
        for s in &self.sinks {
            if s.enabled() {
                s.record(event);
            }
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_reports_disabled() {
        let rec = null();
        assert!(!rec.enabled());
        crate::emit(&rec, || unreachable!("emit must not build events for NullRecorder"));
    }

    #[test]
    fn memory_recorder_counts_by_kind() {
        let mem = MemoryRecorder::shared();
        let rec: SharedRecorder = mem.clone();
        crate::emit(&rec, || Event::RoundAdvanced { tick: 1 });
        crate::emit(&rec, || Event::RoundAdvanced { tick: 2 });
        crate::emit(&rec, || Event::MessageDropped { from: 0, to: 1 });
        assert_eq!(mem.len(), 3);
        assert_eq!(mem.count_of(EventKind::RoundAdvanced), 2);
        assert_eq!(mem.count_of(EventKind::MessageDropped), 1);
        assert_eq!(mem.count_of(EventKind::VerdictIssued), 0);
    }

    #[test]
    fn fanout_broadcasts_and_ors_enabled() {
        let a = MemoryRecorder::shared();
        let b = MemoryRecorder::shared();
        let fan: SharedRecorder = Arc::new(FanoutRecorder::new(vec![a.clone(), null(), b.clone()]));
        assert!(fan.enabled());
        crate::emit(&fan, || Event::RoundAdvanced { tick: 0 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);

        let silent: SharedRecorder = Arc::new(FanoutRecorder::new(vec![null(), null()]));
        assert!(!silent.enabled());
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines() {
        let path = std::env::temp_dir().join("gridmine-obs-test-recorder.jsonl");
        {
            let rec = JsonlRecorder::create(&path).unwrap();
            rec.record(&Event::RoundAdvanced { tick: 3 });
            rec.record(&Event::MessageDropped { from: 1, to: 2 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
        assert_eq!(
            events,
            vec![Event::RoundAdvanced { tick: 3 }, Event::MessageDropped { from: 1, to: 2 }]
        );
        let _ = std::fs::remove_file(&path);
    }
}
