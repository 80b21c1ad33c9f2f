//! The fault router: one seeded [`FaultPlan`] applied to protocol
//! messages in flight, identically under every driver.
//!
//! Every counter a driver forwards passes through a [`ChaosProxy`] —
//! one per worker in the threaded driver (each sender owns its
//! out-edges), one in the hub of the socket deployment. Decisions come
//! from [`FaultyLink`], a pure function of `(seed, directed edge,
//! per-edge sequence number)`, so the same plan produces the same
//! drop/duplicate/delay schedule wherever it runs, and every decision is
//! mirrored as an event so a log's per-type counts equal
//! [`FaultStats`].
//!
//! A delayed copy is parked until the driver's next flush, and while an
//! edge has parked traffic every later copy on that edge parks too: links
//! are FIFO streams, and an overtaking message would present the
//! receiver with a Lamport-timestamp regression and be (correctly)
//! flagged as a replay. Flushed messages are delivered **without**
//! re-rolling chaos.

use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_topology::{Delivery, FaultPlan, FaultStats, FaultyLink};

/// Mirrors one fault decision on edge `from → to` as events, by the same
/// rule [`FaultStats`] counts it: a drop is a drop and nothing else; a
/// surviving message reports its extra copies and its extra delay. Every
/// driver that rolls a [`Delivery`] reports it through here, so a log's
/// per-type counts equal the stats whichever driver produced them.
pub fn mirror_delivery(delivery: &Delivery, from: usize, to: usize, rec: &SharedRecorder) {
    let (from, to) = (from as u64, to as u64);
    if delivery.is_dropped() {
        emit(rec, || Event::MessageDropped { from, to });
        return;
    }
    if delivery.copies > 1 {
        emit(rec, || Event::MessageDuplicated { from, to, copies: u64::from(delivery.copies) });
    }
    if delivery.extra_delay > 0 {
        emit(rec, || Event::MessageDelayed { from, to, ticks: delivery.extra_delay });
    }
}

/// A chaos layer for in-flight protocol messages of payload type `T`.
pub struct ChaosProxy<T> {
    link: FaultyLink,
    held: Vec<(usize, usize, T)>,
}

impl<T: Clone> ChaosProxy<T> {
    /// A proxy executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosProxy { link: FaultyLink::new(plan), held: Vec::new() }
    }

    /// Fault counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.link.stats()
    }

    /// Re-parks a message (a held flush whose sender is down this tick
    /// keeps its traffic parked).
    pub fn park(&mut self, from: usize, to: usize, msg: T) {
        self.held.push((from, to, msg));
    }

    /// True while some edge has parked traffic awaiting a flush.
    pub fn has_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// Routes one message from `from` to `to`: rolls the link's fault
    /// decision, emits the matching observability events, parks delayed
    /// (and FIFO-blocked) copies, and hands the copies due now to
    /// `deliver`. The message itself is the last copy, so a clean link
    /// costs one `on_send` and no clone.
    pub fn route(
        &mut self,
        from: usize,
        to: usize,
        msg: T,
        rec: &SharedRecorder,
        mut deliver: impl FnMut(T),
    ) {
        let delivery = self.link.on_send(from, to);
        mirror_delivery(&delivery, from, to, rec);
        if delivery.is_dropped() {
            return;
        }
        let park =
            delivery.extra_delay > 0 || self.held.iter().any(|(f, t, _)| *f == from && *t == to);
        let mut pass = |m: T| if park { self.held.push((from, to, m)) } else { deliver(m) };
        for _ in 1..delivery.copies {
            pass(msg.clone());
        }
        pass(msg);
    }

    /// Releases every parked message for delivery, in arrival order,
    /// without re-rolling chaos.
    pub fn flush(&mut self) -> Vec<(usize, usize, T)> {
        std::mem::take(&mut self.held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_obs::{EventKind, MemoryRecorder};
    use gridmine_topology::faults::EdgeFaults;

    fn recorder() -> (SharedRecorder, std::sync::Arc<MemoryRecorder>) {
        let mem = MemoryRecorder::shared();
        (mem.clone() as SharedRecorder, mem)
    }

    /// The copies `route` delivers immediately.
    fn routed<T: Clone>(
        proxy: &mut ChaosProxy<T>,
        from: usize,
        to: usize,
        msg: T,
        rec: &SharedRecorder,
    ) -> Vec<T> {
        let mut now = Vec::new();
        proxy.route(from, to, msg, rec, |m| now.push(m));
        now
    }

    #[test]
    fn clean_plan_routes_one_copy_immediately() {
        let (rec, mem) = recorder();
        let mut proxy: ChaosProxy<u8> = ChaosProxy::new(FaultPlan::none());
        for i in 0..32 {
            assert_eq!(routed(&mut proxy, 0, 1, i, &rec), vec![i]);
        }
        assert!(!proxy.has_held());
        assert_eq!(mem.count_of(EventKind::MessageDropped), 0);
        assert_eq!(proxy.stats().total(), 0);
    }

    #[test]
    fn always_drop_edge_drops_everything_and_counts() {
        let (rec, mem) = recorder();
        let plan = FaultPlan::new(11).with_default_edge(EdgeFaults::dropping(1.0));
        let mut proxy: ChaosProxy<u8> = ChaosProxy::new(plan);
        for i in 0..16 {
            assert!(routed(&mut proxy, 0, 1, i, &rec).is_empty());
        }
        assert_eq!(proxy.stats().dropped, 16);
        assert_eq!(mem.count_of(EventKind::MessageDropped), 16);
    }

    #[test]
    fn delayed_copies_park_and_keep_fifo_order() {
        let (rec, _) = recorder();
        let plan = FaultPlan::new(5).with_default_edge(EdgeFaults {
            drop: 0.0,
            duplicate: 0.0,
            jitter: 2,
        });
        let mut proxy: ChaosProxy<u32> = ChaosProxy::new(plan);
        let mut now = Vec::new();
        for i in 0..24u32 {
            now.extend(routed(&mut proxy, 2, 3, i, &rec));
        }
        assert!(proxy.has_held(), "jitter must park at least one copy");
        let flushed = proxy.flush();
        let parked: Vec<u32> = flushed.iter().map(|(_, _, m)| *m).collect();
        assert_eq!(now.len() + parked.len(), 24, "no copy may vanish under pure jitter");
        let sorted = {
            let mut s = parked.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(parked, sorted, "flush must preserve per-edge FIFO order");
        // Once an edge has parked traffic, everything after it parks too:
        // the immediately-delivered set must be a strict prefix.
        let first_parked = parked.first().copied().unwrap_or(24);
        assert!(now.iter().all(|m| *m < first_parked), "delivery reordered across a parked copy");
        assert!(!proxy.has_held());
    }

    #[test]
    fn decisions_match_a_threaded_style_link_on_the_same_plan() {
        let (rec, _) = recorder();
        let plan = FaultPlan::new(0xC0FFEE).with_default_edge(EdgeFaults::dropping(0.5));
        let mut proxy: ChaosProxy<u8> = ChaosProxy::new(plan.clone());
        let mut reference = FaultyLink::new(plan);
        for i in 0..64 {
            let got = !routed(&mut proxy, 1, 4, i, &rec).is_empty();
            let want = !reference.on_send(1, 4).is_dropped();
            assert_eq!(got, want, "decision {i} diverged from the reference link");
        }
    }
}
