//! Per-place runtime state of the threaded engine.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use dpx10_sync::SegQueue;
use dpx10_sync::{Mutex, MutexGuard};

use dpx10_dag::{AggSpec, DagPattern, VertexId};
use dpx10_distarray::{AggTable, Dist, DistArray};

use crate::app::VertexValue;
use crate::cache::FifoCache;
use crate::config::InitOverride;

/// One dependency slot of a [`Parked`] vertex.
#[derive(Debug)]
pub enum Fill<V> {
    /// No value yet; a pull round-trip is (or is about to be) in flight.
    Missing,
    /// Filled by a `PullVal` reply (or read straight from the cache on a
    /// re-gather).
    Pulled(V),
    /// Filled by a producer-side `PushVal` before the consumer ever
    /// asked — consuming it on re-gather counts as an avoided pull
    /// round-trip.
    Pushed(V),
}

impl<V> Fill<V> {
    /// The slot's value, if any mode delivered one.
    pub fn value(&self) -> Option<&V> {
        match self {
            Fill::Missing => None,
            Fill::Pulled(v) | Fill::Pushed(v) => Some(v),
        }
    }
}

/// A vertex parked because some remote dependency values were missing
/// from the cache; pull replies (or eager pushes) fill the slots and
/// re-ready the vertex.
#[derive(Debug)]
pub struct Parked<V> {
    /// Missing dependency (packed id) -> its fill slot.
    pub fills: HashMap<u64, Fill<V>>,
    /// Number of still-[`Fill::Missing`] entries.
    pub remaining: usize,
}

/// Pull bookkeeping of one place; a single lock guards both maps so the
/// fill/park transitions are atomic.
#[derive(Debug)]
pub struct Pending<V> {
    /// Parked vertices by local index.
    pub parked: HashMap<u32, Parked<V>>,
    /// Outstanding pulls: packed dep id -> parked local indices waiting.
    pub waiters: HashMap<u64, Vec<u32>>,
}

impl<V> Default for Pending<V> {
    fn default() -> Self {
        Pending {
            parked: HashMap::new(),
            waiters: HashMap::new(),
        }
    }
}

/// The runtime state of one place (one distribution slot) during an
/// epoch: the paper's per-place vertex partition, ready list and cache
/// (§VI-C).
pub struct Shard<V> {
    /// Local index -> global coordinates, in chunk order.
    pub points: Vec<(u32, u32)>,
    /// Whether the cell is a DAG vertex (masked patterns leave holes).
    pub in_pattern: Vec<bool>,
    /// Unfinished-dependency counters.
    pub indegree: Vec<AtomicU32>,
    /// Completion flags ("a finish flag is kept for each vertex").
    pub finished: Vec<AtomicBool>,
    /// Results, published once.
    pub values: Vec<OnceLock<V>>,
    /// Ready list: "contains the schedulable and uncompleted vertices".
    pub ready: SegQueue<u32>,
    /// Remote-value FIFO cache.
    pub cache: Mutex<FifoCache<V>>,
    /// Parked vertices and outstanding pulls; reached only through
    /// [`Shard::lock_pending`], which keeps `parked_len` in step.
    pending: Mutex<Pending<V>>,
    /// Mirror of `pending.parked.len()`, stored as every
    /// [`PendingGuard`] drops, so still under the lock.
    parked_len: AtomicUsize,
    /// Local finished counter ("a finished vertices counter is used to
    /// determine the termination of the worker").
    pub finished_local: AtomicU64,
    /// Number of DAG vertices owned by this shard.
    pub total_local: u64,
    /// Nanoseconds this shard's workers spent executing vertices —
    /// gather, compute and publish, timed per ready batch and summed
    /// across threads; feeds `RunReport::place_busy` on the real
    /// backends.
    pub busy_ns: AtomicU64,
    /// Prefix-aggregation lanes for interval dependencies (`Some` only
    /// on nested-dataflow runs). Lanes are residents, not cache entries:
    /// the FIFO cache may evict the raw values whose keys they folded.
    pub aggs: Option<AggTable>,
}

impl<V: VertexValue> Shard<V> {
    /// Reads the published value of a finished local vertex.
    #[inline]
    pub fn value(&self, li: u32) -> &V {
        self.values[li as usize]
            .get()
            .expect("value read before publication")
    }
}

impl<V> Shard<V> {
    /// Locks the shard's pull bookkeeping.
    pub fn lock_pending(&self) -> PendingGuard<'_, V> {
        PendingGuard {
            guard: self.pending.lock(),
            parked_len: &self.parked_len,
        }
    }

    /// Number of parked vertices, read without the lock. While it is 0
    /// no vertex holds fills or has a parked entry to drop, so a gather
    /// that found every value may skip the `pending` lock.
    #[inline]
    pub fn parked_len(&self) -> usize {
        self.parked_len.load(Ordering::Acquire)
    }
}

/// The locked [`Pending`] of a shard. Dropping it publishes
/// `parked.len()` to [`Shard::parked_len`] before the lock is released.
pub struct PendingGuard<'a, V> {
    guard: MutexGuard<'a, Pending<V>>,
    parked_len: &'a AtomicUsize,
}

impl<V> std::ops::Deref for PendingGuard<'_, V> {
    type Target = Pending<V>;
    fn deref(&self) -> &Pending<V> {
        &self.guard
    }
}

impl<V> std::ops::DerefMut for PendingGuard<'_, V> {
    fn deref_mut(&mut self) -> &mut Pending<V> {
        &mut self.guard
    }
}

impl<V> Drop for PendingGuard<'_, V> {
    fn drop(&mut self) {
        self.parked_len
            .store(self.guard.parked.len(), Ordering::Release);
    }
}

/// Builds the shards of an epoch.
///
/// A cell starts *finished* when `prior` (the recovered array of the
/// previous epoch) has it, or when the user's init override pre-finishes
/// it (§VI-E). Indegrees count only unfinished dependencies, and
/// zero-indegree unfinished vertices seed the ready lists — stage 1 of
/// the execution overview (§VI-A).
///
/// `prior_meta` supports the socket engine's Resume *scatter*: a place
/// that received only its own subtree's restored values still needs the
/// global finished-set to compute indegrees deterministically, so the
/// scatter frame carries every finished cell's packed id as metadata.
/// Cells in `prior_meta` that `prior`/`init` have no value for are
/// marked finished *without* a value — legal only for cells this place
/// never serves (pulls go to the owner, which always holds its own
/// chunk's values). In-process engines pass `None`: they always hold the
/// full prior array.
pub fn build_shards<V: VertexValue>(
    pattern: &dyn DagPattern,
    dist: &Arc<Dist>,
    prior: Option<&DistArray<V>>,
    prior_meta: Option<&HashSet<u64>>,
    init: Option<&InitOverride<V>>,
    cache_capacity: usize,
    agg: Option<AggSpec>,
) -> (Vec<Shard<V>>, u64) {
    // A dependency is pre-finished iff the same predicate that marks local
    // cells finished holds for it; this keeps cross-shard indegree
    // computation local and deterministic.
    let is_prefinished = |i: u32, j: u32| -> Option<V> {
        if let Some(arr) = prior {
            if let Some(v) = arr.get_finished(i, j) {
                return Some(v.clone());
            }
        }
        if let Some(f) = init {
            return f(i, j);
        }
        None
    };
    let meta_finished = |i: u32, j: u32| -> bool {
        prior_meta.is_some_and(|m| m.contains(&VertexId::new(i, j).pack()))
    };

    // A fresh build (nothing prefinished anywhere) can take the
    // pattern's closed-form indegree instead of enumerating edges —
    // O(1) per cell where an interval pattern's edge list is O(n).
    let fresh = prior.is_none() && prior_meta.is_none() && init.is_none();

    let mut prefinished_total = 0u64;
    let mut deps_buf = Vec::new();
    let shards = (0..dist.num_slots())
        .map(|slot| {
            let len = dist.chunk_len(slot);
            let mut shard = Shard {
                points: Vec::with_capacity(len),
                in_pattern: vec![false; len],
                indegree: (0..len).map(|_| AtomicU32::new(0)).collect(),
                finished: (0..len).map(|_| AtomicBool::new(false)).collect(),
                values: (0..len).map(|_| OnceLock::new()).collect(),
                ready: SegQueue::new(),
                cache: Mutex::new(FifoCache::new(cache_capacity)),
                pending: Mutex::new(Pending::default()),
                parked_len: AtomicUsize::new(0),
                finished_local: AtomicU64::new(0),
                total_local: 0,
                busy_ns: AtomicU64::new(0),
                aggs: agg.map(|spec| AggTable::new(pattern.height(), pattern.width(), spec)),
            };
            for (li, (i, j)) in dist.iter_slot(slot).enumerate() {
                shard.points.push((i, j));
                if !pattern.contains(i, j) {
                    continue;
                }
                shard.in_pattern[li] = true;
                shard.total_local += 1;
                if let Some(v) = is_prefinished(i, j) {
                    shard.values[li].set(v).ok();
                    shard.finished[li].store(true, Ordering::Relaxed);
                    shard.finished_local.fetch_add(1, Ordering::Relaxed);
                    prefinished_total += 1;
                    continue;
                }
                if meta_finished(i, j) {
                    // Finished elsewhere; the value lives with the owner.
                    shard.finished[li].store(true, Ordering::Relaxed);
                    shard.finished_local.fetch_add(1, Ordering::Relaxed);
                    prefinished_total += 1;
                    continue;
                }
                let open = if fresh {
                    pattern.indegree(i, j)
                } else {
                    deps_buf.clear();
                    pattern.dependencies(i, j, &mut deps_buf);
                    deps_buf
                        .iter()
                        .filter(|d| is_prefinished(d.i, d.j).is_none() && !meta_finished(d.i, d.j))
                        .count() as u32
                };
                shard.indegree[li].store(open, Ordering::Relaxed);
                if open == 0 {
                    shard.ready.push(li as u32);
                }
            }
            shard
        })
        .collect();
    (shards, prefinished_total)
}

/// Collects the current engine state into a [`DistArray`] (used on fault
/// to hand the paper's recovery routine the surviving finished values).
pub fn collect_array<V: VertexValue>(shards: &[Shard<V>], dist: &Arc<Dist>) -> DistArray<V> {
    let mut arr: DistArray<V> = DistArray::new(dist.clone());
    for (slot, shard) in shards.iter().enumerate() {
        for (li, &(i, j)) in shard.points.iter().enumerate() {
            if shard.in_pattern[li] && shard.finished[li].load(Ordering::Acquire) {
                arr.set(
                    i,
                    j,
                    shard.values[li].get().expect("finished => set").clone(),
                );
            }
        }
        debug_assert_eq!(dist.chunk_len(slot), shard.points.len());
    }
    arr
}

/// Looks up the local index of `id` inside its owning shard.
#[inline]
pub fn local_index(dist: &Dist, id: VertexId) -> u32 {
    dist.local_index(id.i, id.j) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::PlaceId;
    use dpx10_dag::builtin::Grid2;
    use dpx10_distarray::{DistKind, Region2D};

    fn dist(h: u32, w: u32, places: u16) -> Arc<Dist> {
        Arc::new(Dist::new(
            Region2D::new(h, w),
            DistKind::BlockCol,
            (0..places).map(PlaceId).collect(),
        ))
    }

    #[test]
    fn fresh_shards_seed_sources() {
        let pattern = Grid2::new(3, 4);
        let d = dist(3, 4, 2);
        let (shards, pre) = build_shards::<i64>(&pattern, &d, None, None, None, 16, None);
        assert_eq!(pre, 0);
        // Grid2 has a single source (0,0), owned by slot 0.
        assert_eq!(shards[0].ready.len(), 1);
        assert_eq!(shards[1].ready.len(), 0);
        assert_eq!(shards.iter().map(|s| s.total_local).sum::<u64>(), 12);
    }

    #[test]
    fn init_override_prefinishes_and_unblocks() {
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 1);
        // Pre-finish the whole first row.
        let init: InitOverride<i64> = Arc::new(|i, _j| (i == 0).then_some(0));
        let (shards, pre) = build_shards::<i64>(&pattern, &d, None, None, Some(&init), 16, None);
        assert_eq!(pre, 2);
        // (1,0) now has zero open deps; (1,1) depends on unfinished (1,0).
        let ready: Vec<u32> = std::iter::from_fn(|| shards[0].ready.pop()).collect();
        let pts: Vec<_> = ready
            .iter()
            .map(|&li| shards[0].points[li as usize])
            .collect();
        assert_eq!(pts, vec![(1, 0)]);
    }

    #[test]
    fn prior_array_restores_progress() {
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 1);
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 5);
        let (shards, pre) = build_shards::<i64>(&pattern, &d, Some(&prior), None, None, 16, None);
        assert_eq!(pre, 1);
        let li = d.local_index(0, 0) as u32;
        assert_eq!(shards[0].value(li), &5);
        // (0,1) and (1,0) are unblocked.
        assert_eq!(shards[0].ready.len(), 2);
    }

    #[test]
    fn meta_finished_cells_unblock_without_values() {
        // A worker after a Resume scatter: it holds values only for its
        // own chunk, but the finished-set metadata covers everything.
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 2); // BlockCol: slot 0 owns column 0
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 5); // own chunk value
        let meta: HashSet<u64> = [VertexId::new(0, 0).pack(), VertexId::new(0, 1).pack()]
            .into_iter()
            .collect();
        let (shards, pre) = build_shards(&pattern, &d, Some(&prior), Some(&meta), None, 16, None);
        assert_eq!(pre, 2, "value-backed and meta-only cells both count");
        let li01 = d.local_index(0, 1) as u32;
        assert!(shards[1].finished[li01 as usize].load(Ordering::Relaxed));
        assert!(
            shards[1].values[li01 as usize].get().is_none(),
            "meta-only cells carry no value; pulls go to the owner"
        );
        // (1,0) depends only on the finished (0,0): ready. (1,1) depends
        // on the meta-finished (0,1) plus the unfinished (1,0): parked.
        assert_eq!(shards[0].ready.len(), 1);
        assert_eq!(shards[1].ready.len(), 0);
        let li11 = d.local_index(1, 1) as u32;
        assert_eq!(shards[1].indegree[li11 as usize].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn collect_round_trips() {
        let pattern = Grid2::new(2, 3);
        let d = dist(2, 3, 2);
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 1);
        prior.set(1, 2, 9);
        let (shards, _) = build_shards::<i64>(&pattern, &d, Some(&prior), None, None, 16, None);
        let collected = collect_array(&shards, &d);
        assert_eq!(collected.get_finished(0, 0), Some(&1));
        assert_eq!(collected.get_finished(1, 2), Some(&9));
        assert_eq!(collected.finished_count(), 2);
    }
}
