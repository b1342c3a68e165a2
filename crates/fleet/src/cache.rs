//! Sharded memo cache with in-flight deduplication.
//!
//! Values are stored behind `Arc`, so a hit hands every caller the *same*
//! allocation — repeated queries are bit-identical by construction. A
//! second caller arriving while the first is still computing joins the
//! in-flight entry (waits on the shard's condvar) instead of recomputing:
//! identical work never runs twice.
//!
//! Two stores share the machinery:
//!
//! * the **answer store** (`answer_key -> Arc<Answer>`): one answer per
//!   request and pin ([`crate::hash::answer_key`]), holding the device
//!   that ran it and the shared [`RunResult`]. The key names no device,
//!   so an auto-placed repeat is one lookup and keeps its first device
//!   whatever placement would choose now, and a pinned run never
//!   answers an auto one (or a run pinned elsewhere);
//! * the **unit store** (`unit_key -> Arc<Unit>`): one canonical group
//!   member's work for one seed index, from a single operand walk
//!   ([`wm_predict::walk_unit`]). Units are device-independent, and a
//!   member's seed-`s` operands depend on `(dims, ordinal, s)` alone, so
//!   plain requests and groups share units, as do requests that differ
//!   only in seed or iteration counts — and so does every answer of one
//!   request, whichever device or pin it names.
//!
//! Answer hits, misses and joins count straight into the registry's
//! `fleet_cache_*_total` counters, their only book; units count nothing.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use wm_core::RunResult;
use wm_kernels::ActivityRecord;
use wm_obs::{Counter, Registry};
use wm_predict::FeatureAccumulator;

enum Slot<T> {
    /// A worker is computing this entry; waiters sleep on the shard condvar.
    Pending,
    /// The finished value.
    Ready(Arc<T>),
}

struct Shard<T> {
    slots: Mutex<HashMap<u64, Slot<T>>>,
    ready: Condvar,
}

/// Removes a stranded `Pending` slot if the owning computation fails or
/// unwinds, so waiters wake up and retry instead of blocking forever.
struct PendingGuard<'a, T> {
    shard: &'a Shard<T>,
    key: u64,
    armed: bool,
}

impl<T> Drop for PendingGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut slots = self
                .shard
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slots.remove(&self.key);
            drop(slots);
            self.shard.ready.notify_all();
        }
    }
}

/// How a [`ShardSet::get_or_compute`] call was served.
enum Fetch {
    /// The entry was ready on arrival.
    Hit,
    /// The caller waited on an in-flight computation, then took its result.
    Joined,
    /// The caller ran the computation itself.
    Computed,
}

/// One keyed store: power-of-two shards of `key -> Pending | Ready(Arc<T>)`.
struct ShardSet<T> {
    shards: Vec<Shard<T>>,
}

impl<T> ShardSet<T> {
    fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| Shard {
                    slots: Mutex::new(HashMap::new()),
                    ready: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Shard<T> {
        // Fold the high half into the low bits so shard choice mixes the
        // whole key and works for any power-of-two shard count.
        let mixed = key ^ (key >> 32);
        let idx = mixed as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    fn contains(&self, key: u64) -> bool {
        let shard = self.shard(key);
        let slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
        matches!(slots.get(&key), Some(Slot::Ready(_)))
    }

    /// Non-blocking, uncounted read of a ready entry.
    fn peek(&self, key: u64) -> Option<Arc<T>> {
        let shard = self.shard(key);
        let slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.get(&key) {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// The entry under `key`: ready, joined while in flight, or computed
    /// here by `compute` (without holding the shard lock) and published.
    /// If `compute` fails or unwinds, the pending slot is removed and
    /// waiters wake to retry, so nothing is published and the key is not
    /// wedged.
    fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Fetch), E> {
        let shard = self.shard(key);
        {
            let mut slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let mut joined = false;
            loop {
                match slots.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let fetch = if joined { Fetch::Joined } else { Fetch::Hit };
                        return Ok((Arc::clone(v), fetch));
                    }
                    Some(Slot::Pending) => {
                        joined = true;
                        slots = shard
                            .ready
                            .wait(slots)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        slots.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        // From here on the Pending slot is ours: if `compute` fails or
        // unwinds, the guard removes it and wakes waiters.
        let mut guard = PendingGuard {
            shard,
            key,
            armed: true,
        };
        let value = Arc::new(compute()?);
        {
            let mut slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.insert(key, Slot::Ready(Arc::clone(&value)));
        }
        guard.armed = false;
        shard.ready.notify_all();
        Ok((value, Fetch::Computed))
    }

    fn ready_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.slots
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }
}

/// One canonical group member's work for one seed index: the two
/// products of its one operand walk ([`wm_predict::walk_unit`]), stamped
/// with the request that paid for it.
#[derive(Debug)]
pub struct Unit {
    /// The seed's simulated switching activity.
    pub activity: ActivityRecord,
    /// The member's input-feature chunk: present on seed 0 only, the seed
    /// features are read from.
    pub chunk: Option<FeatureAccumulator>,
    /// Id of the request whose job computed the unit. A member counts as
    /// cached only when a *different* request computed its units.
    pub computed_by: u64,
}

/// One request's answer: the device that ran it and the measurement
/// every repeat shares.
#[derive(Debug)]
pub struct Answer {
    /// Device index the answer ran on.
    pub device: usize,
    /// The measurement; every hit hands back this allocation.
    pub result: Arc<RunResult>,
}

/// Sharded memo cache: one answer per request and pin, plus the
/// `(member, seed)` unit store every stage below them reads from.
pub struct MemoCache {
    answers: ShardSet<Answer>,
    units: ShardSet<Unit>,
    hits: Counter,
    misses: Counter,
    joins: Counter,
}

impl MemoCache {
    /// A cache with `shards` shards (rounded up to a power of two) in each
    /// of the answer and unit stores, counting answers in `registry`.
    pub fn new(shards: usize, registry: &Registry) -> Self {
        Self {
            answers: ShardSet::new(shards),
            units: ShardSet::new(shards),
            hits: registry.counter("fleet_cache_hits_total", &[]),
            misses: registry.counter("fleet_cache_misses_total", &[]),
            joins: registry.counter("fleet_cache_dedup_joins_total", &[]),
        }
    }

    /// Whether `key` holds a *ready* answer. A probe, not a read: it
    /// counts nothing, so callers can classify (e.g. the batch packer
    /// sifting cached repeats out of the rounds) without inflating the
    /// hit statistics.
    pub fn contains(&self, key: u64) -> bool {
        self.answers.contains(key)
    }

    /// The answer under `key`: ready (a hit), joined while a twin computes
    /// it (a hit and a join), or computed here by `compute` and published
    /// (a miss). `compute` runs without the shard lock, and a caller knows
    /// it missed by its `compute` having run. If `compute` fails or
    /// panics, nothing is published and nothing is counted: the pending
    /// entry is removed, waiters wake and one of them computes in turn,
    /// and the error or panic reaches this caller.
    pub fn answer<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Answer, E>,
    ) -> Result<Arc<Answer>, E> {
        let (answer, fetch) = self.answers.get_or_compute(key, compute)?;
        match fetch {
            Fetch::Computed => self.misses.inc(),
            Fetch::Hit => self.hits.inc(),
            Fetch::Joined => {
                self.joins.inc();
                self.hits.inc();
            }
        }
        Ok(answer)
    }

    /// Non-blocking, uncounted read of a ready unit.
    pub fn peek_unit(&self, key: u64) -> Option<Arc<Unit>> {
        self.units.peek(key)
    }

    /// The unit under `key`: ready, joined while in flight, or computed
    /// here and published. Concurrent callers — one request's stages, or
    /// overlapping requests sharing a member — run `compute` once, and an
    /// unwinding `compute` frees the key exactly like an answer's.
    /// Uncounted: who computed a unit is recorded in
    /// [`Unit::computed_by`].
    pub fn unit<F>(&self, key: u64, compute: F) -> Arc<Unit>
    where
        F: FnOnce() -> Unit,
    {
        let Ok((unit, _)) = self
            .units
            .get_or_compute(key, || Ok::<_, Infallible>(compute()));
        unit
    }

    /// Number of *ready* answers across all shards.
    pub fn len(&self) -> usize {
        self.answers.ready_len()
    }

    /// Whether the cache holds no ready answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of *ready* units across all shards.
    pub fn unit_len(&self) -> usize {
        self.units.ready_len()
    }

    /// Answers served from cache (including in-flight joins).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Answers computed (and published) by their caller.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hits that waited on an in-flight computation instead of recomputing.
    pub fn joins(&self) -> u64 {
        self.joins.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wm_core::{PowerLab, RunRequest};
    use wm_gpu::spec::a100_pcie;
    use wm_kernels::Sampling;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};
    use wm_predict::walk_unit;

    fn quick_request() -> RunRequest {
        RunRequest::new(DType::Int8, 64, PatternSpec::new(PatternKind::Zeros))
            .with_seeds(1)
            .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    }

    fn quick_answer() -> Answer {
        Answer {
            device: 0,
            result: Arc::new(PowerLab::new(a100_pcie()).run(&quick_request())),
        }
    }

    fn quick_unit() -> Unit {
        let req = quick_request();
        let (activity, chunk) = walk_unit(&req, req.dims(), 0, 0);
        Unit {
            activity,
            chunk,
            computed_by: 1,
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_allocation() {
        let cache = MemoCache::new(16, &Registry::new());
        let computed = AtomicUsize::new(0);
        let make = || {
            computed.fetch_add(1, Ordering::Relaxed);
            Ok(quick_answer())
        };
        let a = cache.answer::<Infallible>(42, make).unwrap();
        let b = cache.answer::<Infallible>(42, make).unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached allocation");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = MemoCache::new(4, &Registry::new());
        cache
            .answer::<Infallible>(1, || Ok(quick_answer()))
            .unwrap();
        cache
            .answer::<Infallible>(2, || Ok(quick_answer()))
            .unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = Arc::new(MemoCache::new(8, &Registry::new()));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let answer = cache
                    .answer::<Infallible>(7, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so joiners actually wait.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(quick_answer())
                    })
                    .unwrap();
                answer.result.power.mean
            }));
        }
        let means: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1, "dedup failed");
        assert!(means.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn a_failed_answer_publishes_nothing_and_a_waiting_twin_computes_it() {
        let cache = Arc::new(MemoCache::new(4, &Registry::new()));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let owner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.answer(9, || {
                    started_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err("rejected")
                })
            })
        };
        // The owner's pending entry exists now: the twin joins it, wakes
        // when the failure removes it, and computes the answer itself.
        started_rx.recv().unwrap();
        let twin = cache.answer::<&str>(9, || Ok(quick_answer())).unwrap();
        assert_eq!(owner.join().unwrap().unwrap_err(), "rejected");
        assert_eq!(twin.device, 0);
        assert!(cache.contains(9));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 1),
            "a failure counts nothing"
        );
    }

    #[test]
    fn unit_store_shares_one_allocation_and_counts_nothing() {
        let cache = MemoCache::new(8, &Registry::new());
        let computed = AtomicUsize::new(0);
        let make = || {
            computed.fetch_add(1, Ordering::Relaxed);
            quick_unit()
        };
        assert!(cache.peek_unit(11).is_none());
        let a = cache.unit(11, make);
        let b = cache.unit(11, make);
        assert_eq!(computed.load(Ordering::Relaxed), 1, "one walk per unit");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &cache.peek_unit(11).unwrap()));
        assert!(cache.peek_unit(12).is_none());
        assert_eq!(cache.unit_len(), 1);
        // Units never touch the answer-store counters.
        assert_eq!((cache.hits(), cache.misses(), cache.joins()), (0, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_unit_lookups_compute_once() {
        let cache = Arc::new(MemoCache::new(8, &Registry::new()));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                cache
                    .unit(3, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        quick_unit()
                    })
                    .computed_by
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 1, "every caller sees the one unit");
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1, "unit dedup failed");
        assert_eq!(cache.unit_len(), 1);
    }
}
