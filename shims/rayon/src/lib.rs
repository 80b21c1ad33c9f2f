//! Offline stand-in for `rayon`: the parallel-iterator API surface the
//! workspace uses, executed on a real bounded work-stealing thread pool.
//! The adapter type mirrors rayon's combinator signatures — notably
//! `fold(identity, f)` and `reduce(identity, op)` take an identity
//! *closure*, unlike std — so call sites compile unchanged and the real
//! crate can be swapped back in.
//!
//! # Determinism contract
//!
//! Every combinator is *eager* and *order-preserving*: `map`/`filter`
//! fan work across the pool but reassemble results in input order, and
//! `sum`/`reduce` run as a sequential left fold over those in-order
//! results. `fold` produces one accumulator per chunk, combined in chunk
//! order. Chunk boundaries are a pure function of the input length —
//! never the worker count or the schedule — so a run's results are
//! byte-identical whether it executes on one core or sixteen, and
//! identical to the old sequential shim. This is what keeps
//! solutions/verdicts pinned under a fixed seed (the determinism lints
//! audit the callers; the pool holds up its end here).
//!
//! # Pool shape
//!
//! One process-global pool, spawned lazily: per-worker FIFO deques plus
//! a shared injector, with idle workers stealing from the *back* of
//! sibling deques. Submissions round-robin across the deques (overflow
//! to the injector) under a single pool lock — tasks are coarse chunks,
//! so the lock is cold. The submitting thread participates: it helps
//! drain the queues until its own job's chunks are all done, so forward
//! progress never depends on a free worker (nested parallelism included).
//! A chunk that panics is caught, siblings finish, and the payload is
//! rethrown on the submitting thread.
//!
//! Worker count is bounded: `min(available_parallelism, 16)` threads
//! total (including the caller), overridable with `GRIDMINE_POOL_THREADS`.

// No unwrap or expect, so a poisoned lock cannot cascade (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard upper bound on pool threads (caller included).
const MAX_POOL_THREADS: usize = 16;

/// Target number of chunks a job is split into. Chunk boundaries depend
/// only on the input length (see the module docs), so this is a fixed
/// constant rather than anything schedule- or machine-derived.
const TARGET_CHUNKS: usize = 64;

/// Total threads executing parallel work (workers + the caller).
pub fn current_num_threads() -> usize {
    Pool::global().workers + 1
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking chunk is caught before any pool lock is released
    // poisoned, but recover anyway: the queues are plain data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted parallel job: an erased chunk closure plus completion
/// bookkeeping. The closure pointer is only dereferenced while `pending`
/// is nonzero, and the submitter blocks until `pending` reaches zero
/// before the referent can leave scope — that blocking is the entire
/// safety argument for the `Send`/`Sync` impls below.
struct Job {
    /// Erased `&(dyn Fn(usize) + Sync)` borrowed from the submitter's
    /// stack; see the struct docs for the validity argument.
    run: *const (dyn Fn(usize) + Sync),
    /// Chunks not yet finished; guarded by its mutex, signalled by `done`.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload out of any chunk, rethrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the raw closure pointer is valid for the job's whole lifetime
// because `Pool::scope_run` does not return until `pending == 0`, and no
// worker dereferences `run` after decrementing `pending` for its chunk.
// The referent itself is `Sync`, so shared calls from many threads are
// fine.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn run_chunk(&self, chunk: usize) {
        // SAFETY: pending > 0 for this chunk, so the submitter is still
        // blocked in `scope_run` and the closure is alive (see struct docs).
        let f = unsafe { &*self.run };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(chunk))) {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

struct Task {
    job: Arc<Job>,
    chunk: usize,
}

struct PoolState {
    /// Overflow queue shared by everyone.
    injector: VecDeque<Task>,
    /// Per-worker deques: the owner pops the front, thieves the back.
    locals: Vec<VecDeque<Task>>,
    /// Round-robin cursor for spreading a job's chunks across deques.
    rr: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    /// Worker thread count (the submitting thread is an extra executor).
    workers: usize,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::env::var("GRIDMINE_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
                })
                .min(MAX_POOL_THREADS);
            let workers = threads.saturating_sub(1);
            let pool = Pool {
                state: Mutex::new(PoolState {
                    injector: VecDeque::new(),
                    locals: (0..workers).map(|_| VecDeque::new()).collect(),
                    rr: 0,
                }),
                work: Condvar::new(),
                workers,
            };
            for idx in 0..workers {
                let _ = std::thread::Builder::new()
                    .name(format!("gridmine-pool-{idx}"))
                    .spawn(move || Pool::global().worker_loop(idx));
            }
            pool
        })
    }

    /// Owner-first pop for worker `idx`: own deque front, then the
    /// injector, then steal from siblings' backs.
    fn pop_for(st: &mut PoolState, idx: usize) -> Option<Task> {
        if let Some(t) = st.locals[idx].pop_front() {
            return Some(t);
        }
        if let Some(t) = st.injector.pop_front() {
            return Some(t);
        }
        let n = st.locals.len();
        for off in 1..n {
            if let Some(t) = st.locals[(idx + off) % n].pop_back() {
                return Some(t);
            }
        }
        None
    }

    /// Pop for a submitting (non-worker) thread: injector first, then
    /// steal from any deque.
    fn pop_any(st: &mut PoolState) -> Option<Task> {
        if let Some(t) = st.injector.pop_front() {
            return Some(t);
        }
        for local in st.locals.iter_mut() {
            if let Some(t) = local.pop_back() {
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(&self, idx: usize) {
        let mut st = lock(&self.state);
        loop {
            match Self::pop_for(&mut st, idx) {
                Some(t) => {
                    drop(st);
                    t.job.run_chunk(t.chunk);
                    st = lock(&self.state);
                }
                None => {
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs `run(0..chunks)` across the pool, the calling thread
    /// included, returning once every chunk finished. Rethrows the first
    /// chunk panic after all siblings complete.
    fn scope_run(&self, run: &(dyn Fn(usize) + Sync), chunks: usize) {
        // SAFETY: lifetime erasure only — the pointer is dereferenced
        // exclusively while `pending > 0`, and this function does not
        // return (so `run`'s referent stays alive) until `pending == 0`.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        let job = Arc::new(Job {
            run: run as *const (dyn Fn(usize) + Sync),
            pending: Mutex::new(chunks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut st = lock(&self.state);
            for chunk in 0..chunks {
                let task = Task { job: Arc::clone(&job), chunk };
                // First `workers` chunks get deque affinity, the rest
                // overflow into the injector; thieves rebalance either way.
                if st.rr < self.workers && !st.locals.is_empty() {
                    let w = st.rr % st.locals.len();
                    st.locals[w].push_back(task);
                } else {
                    st.injector.push_back(task);
                }
                st.rr = (st.rr + 1) % self.workers.max(1).saturating_mul(2);
            }
        }
        self.work.notify_all();
        // Participate until this job's chunks are all accounted for. When
        // nothing is poppable anywhere, the remaining chunks are running
        // on other threads — block on the completion signal.
        loop {
            if *lock(&job.pending) == 0 {
                break;
            }
            let popped = Self::pop_any(&mut lock(&self.state));
            match popped {
                Some(t) => t.job.run_chunk(t.chunk),
                None => {
                    let mut pending = lock(&job.pending);
                    while *pending > 0 {
                        pending = job.done.wait(pending).unwrap_or_else(PoisonError::into_inner);
                    }
                    break;
                }
            }
        }
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Deterministic chunk boundaries: a pure function of `len` (module
/// docs) — `TARGET_CHUNKS` ceiling-divided chunks, last one partial.
fn chunk_sizes(len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let size = len.div_ceil(TARGET_CHUNKS).max(1);
    let full = len / size;
    let rem = len % size;
    let mut sizes = vec![size; full];
    if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

/// Splits `items` into chunks of the given sizes (one O(n) pass of tail
/// splits, no per-element shifting).
fn split_chunks<T>(mut items: Vec<T>, sizes: &[usize]) -> Vec<Vec<T>> {
    let mut chunks = Vec::with_capacity(sizes.len());
    for &s in sizes.iter().rev() {
        let at = items.len() - s;
        chunks.push(items.split_off(at));
    }
    chunks.reverse();
    chunks
}

/// The parallel primitive everything builds on: split `items` into
/// deterministic chunks, run `work` on each chunk across the pool, and
/// return the per-chunk results **in chunk order**.
#[expect(clippy::expect_used, reason = "scope_run returns only once every chunk has run")]
fn par_chunks<T, R>(items: Vec<T>, work: impl Fn(Vec<T>) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let sizes = chunk_sizes(items.len());
    let chunks = split_chunks(items, &sizes);
    let pool = Pool::global();
    if chunks.len() < 2 || pool.workers == 0 {
        return chunks.into_iter().map(work).collect();
    }
    let slots: Vec<Mutex<Option<Vec<T>>>> =
        chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<R>>> = sizes.iter().map(|_| Mutex::new(None)).collect();
    let run = |ci: usize| {
        if let Some(chunk) = lock(&slots[ci]).take() {
            let r = work(chunk);
            *lock(&results[ci]) = Some(r);
        }
    };
    pool.scope_run(&run, sizes.len());
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("scope_run returned with a chunk unfinished")
        })
        .collect()
}

/// Parallel-iterator adapter: materialized items plus eager,
/// order-preserving combinators (module docs).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each element (in parallel, preserving order).
    pub fn map<F, R>(self, f: F) -> ParIter<R>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        let mapped = par_chunks(self.items, |chunk| chunk.into_iter().map(&f).collect::<Vec<R>>());
        ParIter { items: mapped.into_iter().flatten().collect() }
    }

    /// Keeps elements matching the predicate (parallel, order-preserving).
    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let kept =
            par_chunks(self.items, |chunk| chunk.into_iter().filter(|t| f(t)).collect::<Vec<T>>());
        ParIter { items: kept.into_iter().flatten().collect() }
    }

    /// Pairs each element with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Zips with anything convertible to a parallel iterator.
    pub fn zip<J: IntoParallelIterator>(self, other: J) -> ParIter<(T, J::Item)> {
        ParIter { items: self.items.into_iter().zip(other.into_par_iter().items).collect() }
    }

    /// Rayon-style fold: `identity` builds one accumulator per chunk
    /// (chunk boundaries are a pure function of the length), yielding the
    /// per-chunk accumulators **in chunk order** for `reduce`.
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParIter<A>
    where
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
        A: Send,
    {
        let accs = par_chunks(self.items, |chunk| chunk.into_iter().fold(identity(), &fold_op));
        ParIter { items: accs }
    }

    /// Rayon-style reduce with an identity closure: a sequential left
    /// fold over the in-order items, so non-associative ops (floats)
    /// give schedule-independent results.
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> T
    where
        ID: Fn() -> T,
        F: FnMut(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Sums the elements (sequential over in-order items; the parallel
    /// work happened in the combinators that produced them).
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Counts the elements.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Runs `f` on each element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_chunks(self.items, |chunk| chunk.into_iter().for_each(&f));
    }

    /// Collects into any `FromIterator` collection, preserving order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a pool-backed parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;

    /// Consumes `self` into the adapter.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;

    fn into_par_iter(self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;

    fn into_par_iter(self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

/// `par_iter()` by shared reference.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: Send + 'a;

    /// Borrows `self` into the adapter.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// `par_iter_mut()` by exclusive reference.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item: Send + 'a;

    /// Mutably borrows `self` into the adapter.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

/// The traits call sites import with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_filter_collect() {
        let v = vec![1u64, 2, 3, 4, 5];
        let out: Vec<u64> = v.par_iter().map(|x| x * 2).filter(|x| *x > 4).collect();
        assert_eq!(out, vec![6, 8, 10]);
    }

    #[test]
    fn fold_then_reduce_rayon_shape() {
        let v = vec![(1i64, 10i64), (2, 20), (3, 30)];
        let (a, b) = v
            .par_iter()
            .fold(|| (0i64, 0i64), |acc, t| (acc.0 + t.0, acc.1 + t.1))
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!((a, b), (6, 60));
    }

    #[test]
    fn par_iter_mut_zip_enumerate() {
        let mut v = vec![0u32; 4];
        let adds = vec![10u32, 20, 30, 40];
        let outs: Vec<u32> = v
            .par_iter_mut()
            .zip(adds)
            .enumerate()
            .map(|(i, (slot, add))| {
                *slot = add + i as u32;
                *slot
            })
            .collect();
        assert_eq!(outs, vec![10, 21, 32, 43]);
        assert_eq!(v, vec![10, 21, 32, 43]);
    }

    #[test]
    fn sum_and_count() {
        let v = vec![1i64, -2, 3];
        let s: i64 = v.par_iter().map(|x| *x).sum();
        assert_eq!(s, 2);
        assert_eq!(v.par_iter().filter(|x| **x > 0).count(), 2);
    }

    #[test]
    fn into_par_iter_owned() {
        let v = vec![1u8, 2, 3];
        let out: Vec<u8> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_preserves_order_at_scale() {
        let v: Vec<u64> = (0..50_000).collect();
        let out: Vec<u64> = v.par_iter().map(|x| x * 3).collect();
        let expect: Vec<u64> = (0..50_000).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fold_reduce_reassembles_input_order() {
        // Non-commutative combine (concatenation): per-chunk accumulators
        // reduced in chunk order must reproduce the input sequence
        // exactly — the determinism contract made observable.
        let v: Vec<u32> = (0..10_000).collect();
        let out: Vec<u32> = v
            .into_par_iter()
            .fold(Vec::new, |mut acc, x| {
                acc.push(x);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        let expect: Vec<u32> = (0..10_000).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn filter_is_order_preserving_at_scale() {
        let v: Vec<u64> = (0..30_000).collect();
        let out: Vec<&u64> = v.par_iter().filter(|x| **x % 7 == 0).collect();
        let expect: Vec<u64> = (0..30_000).filter(|x| x % 7 == 0).collect();
        assert_eq!(out.len(), expect.len());
        assert!(out.iter().zip(&expect).all(|(a, b)| **a == *b));
    }

    #[test]
    fn chunk_panics_propagate_after_siblings_finish() {
        let v: Vec<u64> = (0..10_000).collect();
        let hit = std::sync::atomic::AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.par_iter().for_each(|x| {
                hit.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if *x == 4_321 {
                    panic!("chunk exploded");
                }
            });
        }));
        let payload = result.expect_err("the chunk panic must reach the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk exploded");
        // Sibling chunks were not abandoned: far more items ran than the
        // panicking chunk alone could account for (with zero workers the
        // inline path still runs every chunk up to the panic).
        assert!(hit.load(std::sync::atomic::Ordering::Relaxed) > 4_000);
    }

    #[test]
    fn combinators_match_plain_iterators_around_the_chunk_split() {
        // No chunk, one chunk, one item per chunk on either side of the
        // 64-chunk split, and many items per chunk with a partial tail.
        for len in [0u64, 1, 63, 64, 65, 4_097] {
            let v: Vec<u64> = (0..len).collect();
            let map: Vec<u64> = v.par_iter().map(|x| x * x % 997).collect();
            assert_eq!(map, v.iter().map(|x| x * x % 997).collect::<Vec<_>>(), "map, len {len}");
            let filter: Vec<&u64> = v.par_iter().filter(|x| **x % 3 == 0).collect();
            assert_eq!(filter, v.iter().filter(|x| **x % 3 == 0).collect::<Vec<_>>(), "len {len}");
            // A non-commutative fold: one accumulator per chunk, joined
            // in chunk order, must read as one left fold over the input.
            let push = |mut acc: Vec<u64>, x: &u64| {
                acc.push(*x);
                acc
            };
            let fold = v.par_iter().fold(Vec::new, push).reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            assert_eq!(fold, v.iter().fold(Vec::new(), push), "fold, len {len}");
            let sum: u64 = v.par_iter().map(|x| x * 7).sum();
            assert_eq!(sum, v.iter().map(|x| x * 7).sum::<u64>(), "sum, len {len}");
        }
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let outer: Vec<u64> = (0..200).collect();
        let total: u64 = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..500).collect();
                let s: u64 = inner.par_iter().map(|&i| i + o).sum();
                s
            })
            .sum();
        let expect: u64 = (0..200u64).map(|o| (0..500u64).map(|i| i + o).sum::<u64>()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn pool_reports_a_bounded_thread_count() {
        let n = super::current_num_threads();
        assert!((1..=super::MAX_POOL_THREADS).contains(&n), "{n}");
    }
}
