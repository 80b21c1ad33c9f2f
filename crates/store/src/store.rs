//! The store proper: keyed trees over a snapshot + WAL segment pair.
//!
//! On disk (or in a [`MemBackend`]) a store of generation `g` is two
//! files:
//!
//! * `snap-<g>.seg` — a full dump of every tree, one digest-chained
//!   `Put` record per key, published by tmp + fsync + atomic rename.
//! * `wal-<g>.log` — the append-only tail: an `Anchor` record binding
//!   it to the snapshot's chain head, then one record per mutation.
//!
//! [`Store::open`] replays snapshot + WAL tail — never the full
//! history — truncates a torn WAL tail back to its last whole record,
//! finishes an interrupted rotation (a missing or anchor-less WAL is
//! recreated), retires stray generations, and surfaces every other
//! defect as a typed [`StoreError::Corrupt`]. [`Store::compact`] folds
//! the WAL into the next generation's snapshot.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::backend::{Backend, MemBackend};
use crate::error::{CorruptKind, StoreError};
use crate::wal::{
    append_record, encode_put, encode_record, scan_segment, seg_seed, Op, SegKind, HEADER,
    MAX_PAYLOAD,
};

/// Largest accepted tree-name length (the record format's `u16`).
pub const MAX_TREE_NAME: usize = u16::MAX as usize;

/// What [`Store::open`] found and did — the receipts for "snapshot +
/// tail replay, not full history" and for torn-tail repair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Generation the store resumed at.
    pub generation: u64,
    /// Records loaded from the snapshot.
    pub snapshot_records: u64,
    /// Mutation records replayed from the WAL tail (anchor excluded).
    pub wal_replayed: u64,
    /// Bytes of torn WAL tail dropped (0 on a clean open).
    pub truncated_bytes: u64,
    /// True when an interrupted rotation left no usable WAL and open
    /// recreated it (fresh stores bootstrap this way too).
    pub recreated_wal: bool,
}

fn snap_name(generation: u64) -> String {
    format!("snap-{generation:016x}.seg")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:016x}.log")
}

/// Parses `prefix-<hex16>.<suffix>` back to its generation.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let hex = rest.strip_suffix(suffix)?;
    if hex.len() == 16 {
        u64::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

/// One named tree: byte keys to byte values, in key order.
pub type Tree = BTreeMap<Vec<u8>, Vec<u8>>;

/// A store's live trees by name. Each is shared, so a clone of a store
/// copies no tree: a write copies the one tree it lands in, and only
/// while another store still shares it.
type Trees = BTreeMap<String, Arc<Tree>>;

fn shared(trees: BTreeMap<String, Tree>) -> Trees {
    trees.into_iter().map(|(name, tree)| (name, Arc::new(tree))).collect()
}

/// Generation `generation`'s snapshot of `trees` — one chained `Put`
/// record per key, trees in name order, keys in order — encoded from the
/// trees in place. Returns the bytes and the chain head.
fn encode_snapshot(trees: &Trees, generation: u64) -> Result<(Vec<u8>, u64), StoreError> {
    let framed = |(name, tree): (&String, &Arc<Tree>)| {
        tree.iter().map(|(k, v)| HEADER + 11 + name.len() + k.len() + v.len()).sum::<usize>()
    };
    let mut buf = Vec::with_capacity(trees.iter().map(framed).sum());
    let mut payload = Vec::new();
    let mut head = seg_seed(SegKind::Snapshot, generation);
    let mut seq = 0u64;
    for (tree, entries) in trees {
        if tree.len() > MAX_TREE_NAME {
            return Err(StoreError::TooLarge("tree name over u16"));
        }
        for (key, value) in entries.iter() {
            payload.clear();
            encode_put(&mut payload, tree, key, value);
            if payload.len() > MAX_PAYLOAD {
                return Err(StoreError::TooLarge("record payload over segment cap"));
            }
            head = append_record(&mut buf, head, seq, &payload);
            seq += 1;
        }
    }
    Ok((buf, head))
}

/// Bytes of a WAL that holds only its anchor.
fn anchored_wal_len() -> u64 {
    (HEADER + Op::Anchor { snap_head: 0, generation: 0 }.encode().len()) as u64
}

/// An embedded log-structured store over any [`Backend`].
#[derive(Clone)]
pub struct Store<B: Backend> {
    backend: B,
    trees: Trees,
    generation: u64,
    head: u64,
    next_seq: u64,
    wal: String,
    wal_bytes: u64,
    report: OpenReport,
    /// First backend failure; the store refuses further writes after
    /// one, so the in-memory view can never drift from a half-applied
    /// log (a crashed backend stays crashed).
    wedged: Option<StoreError>,
}

impl<B: Backend> std::fmt::Debug for Store<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("generation", &self.generation)
            .field("trees", &self.trees.len())
            .field("wal_records", &self.wal_records())
            .field("wedged", &self.wedged)
            .finish()
    }
}

impl Store<MemBackend> {
    /// A fresh in-memory store (tests, fixtures).
    pub fn in_memory() -> Result<Self, StoreError> {
        Store::open(MemBackend::new())
    }

    /// A fresh in-memory store whose first snapshot holds `trees`: the
    /// `snap-1`/`wal-1` files, chain head and trees that
    /// [`Store::in_memory`], a `put` of every entry and a
    /// [`Store::compact`] leave — byte for byte — with each record encoded
    /// and digested once, straight into the snapshot.
    pub fn from_trees(trees: BTreeMap<String, Tree>) -> Result<Self, StoreError> {
        let generation = 1;
        let trees = shared(trees);
        let (snapshot, snap_head) = encode_snapshot(&trees, generation)?;
        let mut backend = MemBackend::new();
        let (head, next_seq) =
            Self::publish_generation(&mut backend, generation, &snapshot, snap_head)?;
        Ok(Store {
            backend,
            trees,
            generation,
            head,
            next_seq,
            wal: wal_name(generation),
            wal_bytes: anchored_wal_len(),
            report: OpenReport::default(),
            wedged: None,
        })
    }
}

impl<B: Backend> Store<B> {
    /// Opens (recovering if needed) the store in `backend`.
    pub fn open(backend: B) -> Result<Self, StoreError> {
        Self::open_salvage(backend).map_err(|(e, _)| e)
    }

    /// [`Store::open`], but hands the backend back on failure — the
    /// crash harness needs the post-mortem bytes even when the kill
    /// point fires during recovery itself.
    pub fn open_salvage(mut backend: B) -> Result<Self, (StoreError, B)> {
        match Self::open_parts(&mut backend) {
            Ok((trees, generation, head, next_seq, wal, wal_bytes, report)) => Ok(Store {
                backend,
                trees: shared(trees),
                generation,
                head,
                next_seq,
                wal,
                wal_bytes,
                report,
                wedged: None,
            }),
            Err(e) => Err((e, backend)),
        }
    }

    #[allow(clippy::type_complexity, reason = "internal constructor hand-off")]
    fn open_parts(
        backend: &mut B,
    ) -> Result<(BTreeMap<String, Tree>, u64, u64, u64, String, u64, OpenReport), StoreError> {
        let mut report = OpenReport::default();
        let names = backend.list()?;
        // A `.tmp` is an unpublished snapshot from an interrupted
        // rotation: invisible to readers by contract, deleted here.
        for name in names.iter().filter(|n| n.ends_with(".tmp")) {
            backend.remove(name)?;
        }
        let generation = names.iter().filter_map(|n| parse_gen(n, "snap-", ".seg")).max();
        let generation = match generation {
            Some(g) => g,
            None => {
                // A WAL with no snapshot anywhere cannot be an
                // interrupted rotation (the snapshot is published
                // before its WAL exists): someone deleted it.
                if let Some(orphan) = names.iter().find(|n| parse_gen(n, "wal-", ".log").is_some())
                {
                    return Err(StoreError::Corrupt {
                        segment: orphan.clone(),
                        offset: 0,
                        kind: CorruptKind::MissingSnapshot,
                    });
                }
                Self::bootstrap(backend)?;
                report.recreated_wal = true;
                0
            }
        };
        report.generation = generation;

        // Snapshot: strict scan, puts only.
        let snap = snap_name(generation);
        let snap_bytes = backend.read(&snap)?.ok_or_else(|| {
            StoreError::Io(format!("snapshot {snap} vanished between list and read"))
        })?;
        let snap_scan = scan_segment(
            &snap,
            SegKind::Snapshot,
            seg_seed(SegKind::Snapshot, generation),
            &snap_bytes,
        )?;
        let mut trees: BTreeMap<String, Tree> = BTreeMap::new();
        for op in snap_scan.ops {
            match op {
                Op::Put { tree, key, value } => {
                    trees.entry(tree).or_default().insert(key, value);
                }
                Op::Anchor { .. } | Op::Delete { .. } => {
                    return Err(StoreError::Corrupt {
                        segment: snap.clone(),
                        offset: 0,
                        kind: CorruptKind::BadOp,
                    });
                }
            }
        }
        report.snapshot_records = snap_scan.next_seq;
        let snap_head = snap_scan.head;

        // WAL: torn-tolerant scan, anchor-bound to the snapshot.
        let wal = wal_name(generation);
        let wal_seed = seg_seed(SegKind::Wal, generation);
        let (head, next_seq) = match backend.read(&wal)? {
            Some(wal_bytes) => {
                let scan = scan_segment(&wal, SegKind::Wal, wal_seed, &wal_bytes)?;
                if let Some(total) = scan.torn {
                    backend.truncate(&wal, scan.valid_len)?;
                    report.truncated_bytes = total - scan.valid_len;
                }
                let mut ops = scan.ops.into_iter();
                match ops.next() {
                    Some(Op::Anchor { snap_head: bound, generation: g })
                        if bound == snap_head && g == generation =>
                    {
                        for op in ops {
                            match op {
                                Op::Put { tree, key, value } => {
                                    trees.entry(tree).or_default().insert(key, value);
                                }
                                Op::Delete { tree, key } => {
                                    if let Some(t) = trees.get_mut(&tree) {
                                        t.remove(&key);
                                    }
                                }
                                Op::Anchor { .. } => {
                                    return Err(StoreError::Corrupt {
                                        segment: wal.clone(),
                                        offset: 0,
                                        kind: CorruptKind::BadOp,
                                    });
                                }
                            }
                        }
                        report.wal_replayed = scan.next_seq.saturating_sub(1);
                        (scan.head, scan.next_seq)
                    }
                    Some(_) => {
                        return Err(StoreError::Corrupt {
                            segment: wal.clone(),
                            offset: 0,
                            kind: CorruptKind::AnchorMismatch,
                        });
                    }
                    None => {
                        // The anchor itself was cut by a crash (the
                        // torn tail was the whole file). Rewriting it
                        // completes the interrupted rotation.
                        let anchor =
                            Self::write_anchor(backend, &wal, wal_seed, snap_head, generation)?;
                        report.recreated_wal = true;
                        anchor
                    }
                }
            }
            None => {
                // Crash between snapshot rename and WAL creation.
                let anchor = Self::write_anchor(backend, &wal, wal_seed, snap_head, generation)?;
                report.recreated_wal = true;
                anchor
            }
        };

        // Retire every other generation (interrupted rotations and
        // pre-rotation stragglers).
        for name in backend.list()? {
            let stale = parse_gen(&name, "snap-", ".seg")
                .or_else(|| parse_gen(&name, "wal-", ".log"))
                .is_some_and(|g| g != generation);
            if stale {
                backend.remove(&name)?;
            }
        }

        let wal_bytes = backend.read(&wal)?.map(|b| b.len() as u64).unwrap_or(0);
        Ok((trees, generation, head, next_seq, wal, wal_bytes, report))
    }

    /// Publishes an empty generation-0 snapshot + anchored WAL.
    fn bootstrap(backend: &mut B) -> Result<(), StoreError> {
        let snap = snap_name(0);
        let tmp = format!("{snap}.tmp");
        backend.append(&tmp, &[])?;
        backend.sync(&tmp)?;
        backend.rename(&tmp, &snap)?;
        let seed = seg_seed(SegKind::Snapshot, 0);
        Self::write_anchor(backend, &wal_name(0), seg_seed(SegKind::Wal, 0), seed, 0)?;
        Ok(())
    }

    /// Appends + syncs a fresh anchor record; returns `(head, next_seq)`.
    fn write_anchor(
        backend: &mut B,
        wal: &str,
        wal_seed: u64,
        snap_head: u64,
        generation: u64,
    ) -> Result<(u64, u64), StoreError> {
        let payload = Op::Anchor { snap_head, generation }.encode();
        let (rec, head) = encode_record(wal_seed, 0, &payload);
        backend.append(wal, &rec)?;
        backend.sync(wal)?;
        Ok((head, 1))
    }

    fn check_wedged(&self) -> Result<(), StoreError> {
        match &self.wedged {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn wedge<T>(&mut self, r: Result<T, StoreError>) -> Result<T, StoreError> {
        if let Err(e) = &r {
            self.wedged = Some(e.clone());
        }
        r
    }

    /// Appends one mutation record — its op's `payload` — to the WAL; the
    /// caller applies the op in memory once this succeeds.
    fn log_payload(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.check_wedged()?;
        if payload.len() > MAX_PAYLOAD {
            return Err(StoreError::TooLarge("record payload over segment cap"));
        }
        let (rec, digest) = encode_record(self.head, self.next_seq, payload);
        let append = self.backend.append(&self.wal, &rec);
        self.wedge(append)?;
        self.head = digest;
        self.next_seq += 1;
        self.wal_bytes += rec.len() as u64;
        Ok(())
    }

    /// Inserts (or overwrites) `key` in `tree`. Durable after the next
    /// [`Store::flush`].
    pub fn put(&mut self, tree: &str, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if tree.len() > MAX_TREE_NAME {
            return Err(StoreError::TooLarge("tree name over u16"));
        }
        let mut payload = Vec::with_capacity(11 + tree.len() + key.len() + value.len());
        encode_put(&mut payload, tree, key, value);
        self.log_payload(&payload)?;
        let (key, value) = (key.to_vec(), value.to_vec());
        match self.trees.get_mut(tree) {
            Some(t) => {
                Arc::make_mut(t).insert(key, value);
            }
            None => {
                self.trees.insert(tree.to_string(), Arc::new(Tree::from([(key, value)])));
            }
        }
        Ok(())
    }

    /// Removes `key` from `tree` (logged even when absent, so replicas
    /// of the log converge).
    pub fn delete(&mut self, tree: &str, key: &[u8]) -> Result<(), StoreError> {
        if tree.len() > MAX_TREE_NAME {
            return Err(StoreError::TooLarge("tree name over u16"));
        }
        self.log_payload(&Op::Delete { tree: tree.to_string(), key: key.to_vec() }.encode())?;
        if let Some(t) = self.trees.get_mut(tree) {
            Arc::make_mut(t).remove(key);
        }
        Ok(())
    }

    /// The value under `key` in `tree`, if any.
    pub fn get(&self, tree: &str, key: &[u8]) -> Option<&[u8]> {
        self.trees.get(tree)?.get(key).map(Vec::as_slice)
    }

    /// All `(key, value)` pairs of `tree`, in key order.
    pub fn scan_tree(&self, tree: &str) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.trees
            .get(tree)
            .into_iter()
            .flat_map(|t| t.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    /// Number of live keys in `tree`.
    pub fn tree_len(&self, tree: &str) -> usize {
        self.trees.get(tree).map_or(0, |t| t.len())
    }

    /// Every tree with at least one live key.
    pub fn tree_names(&self) -> impl Iterator<Item = &str> {
        self.trees.iter().filter(|(_, t)| !t.is_empty()).map(|(n, _)| n.as_str())
    }

    /// Makes every logged mutation durable.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.check_wedged()?;
        let wal = self.wal.clone();
        let sync = self.backend.sync(&wal);
        self.wedge(sync)
    }

    /// Folds the WAL into a next-generation snapshot: tmp + fsync +
    /// atomic rename, fresh anchored WAL, old segments retired. A crash
    /// at any byte of this sequence leaves either the old generation or
    /// the new one — [`Store::open`] finishes the rotation.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.check_wedged()?;
        let next = self.generation + 1;
        let (snapshot, snap_head) = encode_snapshot(&self.trees, next)?;
        let published = Self::publish_generation(&mut self.backend, next, &snapshot, snap_head);
        let (new_head, next_seq) = self.wedge(published)?;
        let old_wal = wal_name(self.generation);
        let old_snap = snap_name(self.generation);
        let retire = (|b: &mut B| {
            b.remove(&old_wal)?;
            b.remove(&old_snap)
        })(&mut self.backend);
        self.wedge(retire)?;
        self.generation = next;
        self.head = new_head;
        self.next_seq = next_seq;
        self.wal = wal_name(next);
        self.wal_bytes = anchored_wal_len();
        Ok(())
    }

    /// Publishes generation `generation`: its `snapshot` bytes by tmp +
    /// fsync + atomic rename, then a fresh WAL anchored to `snap_head`.
    /// Returns the WAL's `(head, next_seq)`.
    fn publish_generation(
        backend: &mut B,
        generation: u64,
        snapshot: &[u8],
        snap_head: u64,
    ) -> Result<(u64, u64), StoreError> {
        let snap = snap_name(generation);
        let tmp = format!("{snap}.tmp");
        backend.append(&tmp, snapshot)?;
        backend.sync(&tmp)?;
        backend.rename(&tmp, &snap)?;
        let wal_seed = seg_seed(SegKind::Wal, generation);
        Self::write_anchor(backend, &wal_name(generation), wal_seed, snap_head, generation)
    }

    /// Current segment generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mutation records in the current WAL (anchor excluded) — what a
    /// restart would replay on top of the snapshot.
    pub fn wal_records(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// The chain head after the last logged record: where a reader of
    /// these segments must arrive. Whoever takes the segments elsewhere
    /// pins it beside them, because [`Store::open`] repairs a short WAL
    /// as a torn tail and only the pin tells a cut from a crash.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Bytes in the current WAL (compaction-policy input).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// What the last [`Store::open`] found and repaired.
    pub fn open_report(&self) -> OpenReport {
        self.report
    }

    /// The backend, read-only: its files are the store's durable form.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Consumes the store, returning its backend (crash harnesses).
    pub fn into_backend(self) -> B {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_bootstraps_and_round_trips() {
        let mut s = Store::in_memory().expect("open");
        assert_eq!(s.generation(), 0);
        assert!(s.open_report().recreated_wal);
        s.put("a", b"k1", b"v1").expect("put");
        s.put("a", b"k2", b"v2").expect("put");
        s.put("b", b"k1", b"other").expect("put");
        s.delete("a", b"k1").expect("delete");
        s.flush().expect("flush");
        assert_eq!(s.get("a", b"k1"), None);
        assert_eq!(s.get("a", b"k2"), Some(&b"v2"[..]));
        assert_eq!(s.tree_len("a"), 1);
        assert_eq!(s.wal_records(), 4);
        let names: Vec<&str> = s.tree_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn reopen_replays_snapshot_plus_tail_only() {
        let mut s = Store::in_memory().expect("open");
        for i in 0..20u8 {
            s.put("t", &[i], &[i; 3]).expect("put");
        }
        s.flush().expect("flush");
        let mut s = Store::open(s.into_backend()).expect("reopen");
        assert_eq!(s.open_report().wal_replayed, 20, "before a snapshot the whole WAL replays");
        s.compact().expect("compact");
        s.put("t", &[99], b"tail").expect("put");
        s.flush().expect("flush");
        let s2 = Store::open(s.into_backend()).expect("reopen");
        let r = s2.open_report();
        assert_eq!(r.generation, 1);
        assert_eq!(r.snapshot_records, 20, "history folded into the snapshot");
        assert_eq!(r.wal_replayed, 1, "only the tail replays");
        assert_eq!(r.truncated_bytes, 0);
        assert_eq!(s2.get("t", &[99]), Some(&b"tail"[..]));
        assert_eq!(s2.tree_len("t"), 21);
    }

    #[test]
    fn from_trees_leaves_what_put_then_compact_leaves() {
        let mut s = Store::in_memory().expect("open");
        let mut trees: BTreeMap<String, Tree> = BTreeMap::new();
        for (tree, i) in [("b", 2u8), ("a", 3), ("a", 1), ("b", 2)] {
            s.put(tree, &[i], &[i; 3]).expect("put");
            trees.entry(tree.to_string()).or_default().insert(vec![i], vec![i; 3]);
        }
        s.compact().expect("compact");
        let bulk = Store::from_trees(trees).expect("bulk load");
        assert_eq!(bulk.backend().to_bytes(), s.backend().to_bytes());
        assert_eq!(
            (bulk.generation(), bulk.head(), bulk.wal_records(), bulk.wal_bytes()),
            (s.generation(), s.head(), s.wal_records(), s.wal_bytes())
        );
        assert_eq!(bulk.get("a", &[3]), Some(&[3u8; 3][..]));
    }

    #[test]
    fn compaction_retires_old_segments() {
        let mut s = Store::in_memory().expect("open");
        s.put("t", b"k", b"v").expect("put");
        s.flush().expect("flush");
        s.compact().expect("compact");
        s.compact().expect("compact again");
        let mut names = {
            let mut b = s.into_backend();
            b.list().expect("list")
        };
        names.sort();
        assert_eq!(names, vec![snap_name(2), wal_name(2)]);
    }

    #[test]
    fn deleting_the_snapshot_is_typed_missing_snapshot() {
        let mut s = Store::in_memory().expect("open");
        s.put("t", b"k", b"v").expect("put");
        s.flush().expect("flush");
        let mut b = s.into_backend();
        b.remove(&snap_name(0)).expect("sabotage");
        let err = Store::open(b).expect_err("must refuse");
        assert!(matches!(err, StoreError::Corrupt { kind: CorruptKind::MissingSnapshot, .. }));
    }

    /// Two stores at the same generation (same chain seeds) but with
    /// different snapshot contents: only the anchor's snapshot-head
    /// binding can catch a WAL transplanted between them.
    fn gen1_backend(val: &[u8]) -> MemBackend {
        let mut s = Store::in_memory().expect("open");
        s.put("t", b"k", val).expect("put");
        s.flush().expect("flush");
        s.compact().expect("compact");
        s.into_backend()
    }

    #[test]
    fn foreign_wal_is_anchor_mismatch() {
        let a = gen1_backend(b"va");
        let mut b = gen1_backend(b"vb");
        let stolen = a.bytes(&wal_name(1)).expect("a's wal").to_vec();
        let wal1 = wal_name(1);
        b.bytes_mut(&wal1).clear();
        b.bytes_mut(&wal1).extend_from_slice(&stolen);
        let err = Store::open(b).expect_err("transplant must be refused");
        assert!(
            matches!(err, StoreError::Corrupt { kind: CorruptKind::AnchorMismatch, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let mut s = Store::in_memory().expect("open");
        s.put("t", b"k1", b"v1").expect("put");
        s.flush().expect("flush");
        s.put("t", b"k2", b"v2").expect("put");
        let mut b = s.into_backend();
        // Cut 3 bytes off the last (unflushed) record: a torn append.
        let wal = wal_name(0);
        let len = b.bytes(&wal).map(|x| x.len()).unwrap_or(0);
        b.bytes_mut(&wal).truncate(len - 3);
        let s2 = Store::open(b).expect("reopen");
        assert!(s2.open_report().truncated_bytes > 0, "torn tail measured and dropped");
        assert_eq!(s2.get("t", b"k1"), Some(&b"v1"[..]), "flushed write survives");
        assert_eq!(s2.get("t", b"k2"), None, "torn write rolls back whole");
    }

    #[test]
    fn wedged_store_refuses_further_writes() {
        let mut s = Store::in_memory().expect("open");
        s.put("t", b"k", b"v").expect("put");
        s.wedged = Some(StoreError::Crashed);
        assert_eq!(s.put("t", b"k2", b"v2"), Err(StoreError::Crashed));
        assert_eq!(s.flush(), Err(StoreError::Crashed));
        assert_eq!(s.compact(), Err(StoreError::Crashed));
    }
}
