//! The wire-level collective communication plane.
//!
//! Global phases of a distributed run — releasing every place from an
//! epoch, folding per-place progress into one decision, distributing
//! restored chunks after a recovery — fan out O(P) point-to-point frames
//! from place 0 when done naively. This module gives those phases a
//! *tree*: a [`CollectiveSchedule`] derives binomial parent/child edges
//! from the live roster view (rank order), and the verb drivers
//! ([`broadcast`], [`scatter`], [`reduce`], [`allreduce`]) move
//! [`CollFrame`]s along those edges over any [`Transport`], repairing the
//! tree around dead places by adopting their subtrees.
//!
//! Two integrations exist:
//!
//! * the in-process [`crate::Runtime`] keeps its local shared-memory
//!   collectives (`crate::collective`) — no wire exists there, so the
//!   tree would only add hops;
//! * the socket engine in `dpx10-core` carries the same schedule on its
//!   control protocol: `Stop`/`Abort` broadcast hops, a folded progress
//!   reduce (the epoch barrier), and the `Resume` scatter that
//!   distributes restored chunks by subtree.
//!
//! The binomial shape is the classic one: relative to the root, rank `r`
//! parents to `r` with its highest set bit cleared, and its children are
//! `r + 2^k` for every `2^k` past `r`'s highest bit. Depth is
//! `⌈log2 P⌉`, and every rank is reached exactly once (property-tested
//! in `tests/collective_properties.rs`, including arbitrary dead-place
//! subsets).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::codec::Codec;
use crate::place::PlaceId;
use crate::transport::Transport;

/// Binomial-tree parent/child edges over `n` ranks, rooted anywhere.
///
/// Ranks are indices into the caller's live-roster view (slot order), so
/// a schedule built from the survivors of an epoch automatically excludes
/// places that died *before* the epoch; places that die *during* a
/// collective are handled by the repair path of the verbs (dead children
/// are skipped and their subtrees adopted by the sender).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveSchedule {
    n: usize,
    root: usize,
}

impl CollectiveSchedule {
    /// Builds the schedule for `n` ranks rooted at `root`.
    ///
    /// # Panics
    /// When `n == 0` or `root >= n`.
    pub fn new(n: usize, root: usize) -> Self {
        assert!(n > 0, "a schedule needs at least one rank");
        assert!(root < n, "root {root} out of range for {n} ranks");
        CollectiveSchedule { n, root }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// The root rank.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Rank rotated so the root becomes 0.
    #[inline]
    fn rel(&self, rank: usize) -> usize {
        (rank + self.n - self.root) % self.n
    }

    /// Inverse of [`rel`](Self::rel).
    #[inline]
    fn abs(&self, rel: usize) -> usize {
        (rel + self.root) % self.n
    }

    /// The parent edge of `rank`; `None` for the root.
    pub fn parent(&self, rank: usize) -> Option<usize> {
        let r = self.rel(rank);
        if r == 0 {
            return None;
        }
        let msb = usize::BITS - 1 - r.leading_zeros();
        Some(self.abs(r ^ (1 << msb)))
    }

    /// The child edges of `rank`, in ascending relative order.
    pub fn children(&self, rank: usize) -> Vec<usize> {
        let r = self.rel(rank);
        let mut out = Vec::new();
        // The smallest power of two strictly above r (1 when r == 0).
        let mut k = 1usize;
        while k <= r {
            k <<= 1;
        }
        while r + k < self.n {
            out.push(self.abs(r + k));
            k <<= 1;
        }
        out
    }

    /// Tree depth bound: `⌈log2 n⌉`.
    pub fn depth(&self) -> u32 {
        usize::BITS - (self.n - 1).leading_zeros()
    }

    /// `rank` plus all its descendants (the ranks a scatter hop to
    /// `rank` must carry payloads for).
    pub fn subtree(&self, rank: usize) -> Vec<usize> {
        let mut out = vec![rank];
        let mut k = 0;
        while k < out.len() {
            let r = out[k];
            out.extend(self.children(r));
            k += 1;
        }
        out
    }

    /// The ranks a broadcast hop from `rank` must send to when the ranks
    /// for which `is_dead` holds cannot receive: dead children are
    /// skipped and their own children adopted, recursively — the tree
    /// repair that lets a collective complete mid-recovery.
    pub fn relay_targets(&self, rank: usize, is_dead: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut out = Vec::new();
        let mut work = self.children(rank);
        while let Some(c) = work.pop() {
            if is_dead(c) {
                work.extend(self.children(c));
            } else {
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// The nearest live ancestor of `rank` — where a reduce contribution
    /// goes when the direct parent died. Falls back to the root (whose
    /// death ends the run anyway, mirroring Resilient X10's place-0
    /// limitation). `None` for the root itself.
    pub fn live_parent(&self, rank: usize, is_dead: impl Fn(usize) -> bool) -> Option<usize> {
        let mut p = self.parent(rank)?;
        while p != self.root && is_dead(p) {
            p = self.parent(p).unwrap_or(self.root);
        }
        Some(p)
    }
}

/// Max-merges monotone per-place counters — the fold of the progress
/// reduce. Commutative, associative and idempotent, so the folded result
/// is independent of arrival order and tolerant of re-sent frames.
pub fn fold_counts(into: &mut HashMap<u16, u64>, counts: &[(u16, u64)]) {
    for &(p, n) in counts {
        let e = into.entry(p).or_insert(0);
        *e = (*e).max(n);
    }
}

/// One hop of a collective, as it travels the wire.
///
/// Payload vectors go through the [`Codec`] `Vec` path, which rejects
/// hostile length claims, and an unknown tag decodes to `None` (the
/// transport marks the sender dead — same policy as every other frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollFrame<T> {
    /// Root → subtree: the broadcast value, relayed hop by hop.
    Bcast(T),
    /// Parent → child: the `(rank, part)` payloads of the receiving
    /// subtree; the receiver keeps its own part and splits the rest
    /// among its children.
    Scatter(Vec<(u16, T)>),
    /// Child → parent: the `(rank, contribution)` entries collected from
    /// the sender's subtree. Entry sets union order-independently.
    Reduce(Vec<(u16, T)>),
}

impl<T: Codec> Codec for CollFrame<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CollFrame::Bcast(v) => {
                buf.push(0);
                v.encode(buf);
            }
            CollFrame::Scatter(parts) => {
                buf.push(1);
                parts.encode(buf);
            }
            CollFrame::Reduce(entries) => {
                buf.push(2);
                entries.encode(buf);
            }
        }
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        match u8::decode(src)? {
            0 => Some(CollFrame::Bcast(T::decode(src)?)),
            1 => Some(CollFrame::Scatter(Vec::decode(src)?)),
            2 => Some(CollFrame::Reduce(Vec::decode(src)?)),
            _ => None,
        }
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            CollFrame::Bcast(v) => v.wire_size(),
            CollFrame::Scatter(parts) => parts.wire_size(),
            CollFrame::Reduce(entries) => entries.wire_size(),
        }
    }
}

/// A value collectives can move: encodable, clonable for multi-child
/// relays, and sendable across the transport.
pub trait CollValue: Codec + Clone + Send {}
impl<T: Codec + Clone + Send> CollValue for T {}

fn send_frame<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    ranks: &[PlaceId],
    from: usize,
    to: usize,
    frame: CollFrame<T>,
) -> bool {
    if !tr.liveness().is_alive(ranks[to]) {
        return false;
    }
    let bytes = frame.wire_size();
    tr.send(ranks[from], ranks[to], frame, bytes).is_ok()
}

/// Relays a broadcast value to this rank's children, adopting the
/// subtrees of children that are dead or unreachable.
fn relay_bcast<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    value: &T,
) {
    let mut work = sched.children(me);
    while let Some(c) = work.pop() {
        if !send_frame(tr, ranks, me, c, CollFrame::Bcast(value.clone())) {
            work.extend(sched.children(c)); // repair: adopt the subtree
        }
    }
}

/// One place's participation in a tree broadcast from the schedule root.
///
/// The root passes `Some(value)`; every other rank passes `None` and
/// blocks up to `timeout` for the hop from its (effective) parent.
/// Returns the broadcast value, or `None` when it never arrived — the
/// sender repaired around us, or the run is tearing down.
pub fn broadcast<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    value: Option<T>,
    timeout: Duration,
) -> Option<T> {
    let v = match value {
        Some(v) => v,
        None => {
            let deadline = Instant::now() + timeout;
            loop {
                let left = deadline.checked_duration_since(Instant::now())?;
                match tr.recv_timeout(ranks[me], left)?.msg {
                    CollFrame::Bcast(v) => break v,
                    _ => continue, // a straggler from another verb
                }
            }
        }
    };
    relay_bcast(tr, sched, ranks, me, &v);
    Some(v)
}

/// Relays scatter parts: each child receives exactly the payloads of its
/// subtree; dead children's subtrees are adopted (their parts re-split
/// among the adopter's remaining live descendants' hops).
fn relay_scatter<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    parts: &[(u16, T)],
) {
    let mut work = sched.children(me);
    while let Some(c) = work.pop() {
        let sub: Vec<(u16, T)> = sched
            .subtree(c)
            .into_iter()
            .filter_map(|r| {
                parts
                    .iter()
                    .find(|(k, _)| *k as usize == r)
                    .map(|(k, v)| (*k, v.clone()))
            })
            .collect();
        if !send_frame(tr, ranks, me, c, CollFrame::Scatter(sub)) {
            work.extend(sched.children(c));
        }
    }
}

/// One place's participation in a tree scatter from the schedule root.
///
/// The root passes every rank's `(rank, part)` payload; each rank
/// returns its own part (or `None` on timeout / no part addressed to
/// it). Hops carry only the receiving subtree's payloads, so no link
/// ever moves the full payload set except the root's own edges.
pub fn scatter<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    parts: Option<Vec<(u16, T)>>,
    timeout: Duration,
) -> Option<T> {
    let parts = match parts {
        Some(p) => p,
        None => {
            let deadline = Instant::now() + timeout;
            loop {
                let left = deadline.checked_duration_since(Instant::now())?;
                match tr.recv_timeout(ranks[me], left)?.msg {
                    CollFrame::Scatter(p) => break p,
                    _ => continue,
                }
            }
        }
    };
    relay_scatter(tr, sched, ranks, me, &parts);
    parts
        .into_iter()
        .find(|(k, _)| *k as usize == me)
        .map(|(_, v)| v)
}

/// One place's contribution to a tree reduce toward the schedule root.
///
/// Every live rank calls with its own contribution. Non-root ranks
/// collect their live subtree's entries (descendants whose parent died
/// re-route to their nearest live ancestor, which may be us or someone
/// above us), forward the union to their own nearest live ancestor, and
/// return `None`. The root returns every `(rank, contribution)` entry
/// that reached it before `timeout` — fold them however the caller
/// likes; the entry set is independent of arrival order.
pub fn reduce<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    mine: T,
    timeout: Duration,
) -> Option<Vec<(u16, T)>> {
    let entries = collect_subtree(tr, sched, ranks, me, mine, timeout, &mut None);
    conclude_reduce(tr, sched, ranks, me, entries)
}

/// The shared collection loop of [`reduce`] and [`allreduce`]: gathers
/// this rank's subtree entries until covered or timed out. A `Bcast`
/// frame arriving early (allreduce's second phase overtaking a slow
/// subtree) is stashed in `early` instead of dropped.
fn collect_subtree<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    mine: T,
    timeout: Duration,
    early: &mut Option<T>,
) -> Vec<(u16, T)> {
    let mut have: HashMap<u16, T> = HashMap::new();
    have.insert(me as u16, mine);
    let deadline = Instant::now() + timeout;
    loop {
        // Expect the currently-live members of our subtree; ranks that
        // die mid-collective stop being waited for on the next pass.
        let covered = sched
            .subtree(me)
            .into_iter()
            .all(|r| have.contains_key(&(r as u16)) || !tr.liveness().is_alive(ranks[r]));
        if covered {
            break;
        }
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        let Some(env) = tr.recv_timeout(ranks[me], left) else {
            break;
        };
        match env.msg {
            CollFrame::Reduce(es) => {
                for (k, v) in es {
                    have.entry(k).or_insert(v);
                }
            }
            CollFrame::Bcast(v) => *early = Some(v),
            CollFrame::Scatter(_) => {}
        }
    }
    let mut out: Vec<(u16, T)> = have.into_iter().collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Sends collected entries to the nearest live ancestor (non-root) or
/// returns them (root).
fn conclude_reduce<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    entries: Vec<(u16, T)>,
) -> Option<Vec<(u16, T)>> {
    let is_dead = |r: usize| !tr.liveness().is_alive(ranks[r]);
    match sched.live_parent(me, is_dead) {
        None => Some(entries),
        Some(p) => {
            send_frame(tr, ranks, me, p, CollFrame::Reduce(entries));
            None
        }
    }
}

/// A reduce whose folded result is broadcast back to every rank: each
/// live rank contributes `mine` and receives `fold` applied over the
/// contributions that reached the root (in rank order, so the fold need
/// not be commutative — only the *collection* is order-free).
pub fn allreduce<T: CollValue>(
    tr: &dyn Transport<CollFrame<T>>,
    sched: &CollectiveSchedule,
    ranks: &[PlaceId],
    me: usize,
    mine: T,
    fold: impl Fn(T, T) -> T,
    timeout: Duration,
) -> Option<T> {
    let mut early = None;
    let entries = collect_subtree(tr, sched, ranks, me, mine, timeout, &mut early);
    match conclude_reduce(tr, sched, ranks, me, entries) {
        Some(entries) => {
            // Root: fold in rank order and broadcast the result.
            let folded = entries.into_iter().map(|(_, v)| v).reduce(&fold)?;
            relay_bcast(tr, sched, ranks, me, &folded);
            Some(folded)
        }
        None => match early {
            Some(v) => {
                relay_bcast(tr, sched, ranks, me, &v);
                Some(v)
            }
            None => broadcast(tr, sched, ranks, me, None, timeout),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_exact, encode_to_vec};
    use crate::fault::LivenessBoard;
    use crate::network::NetworkModel;
    use crate::place::Topology;
    use crate::stats::StatsBoard;
    use crate::transport::LocalTransport;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_secs(5);

    #[test]
    fn binomial_shape_of_six() {
        let s = CollectiveSchedule::new(6, 0);
        assert_eq!(s.children(0), vec![1, 2, 4]);
        assert_eq!(s.children(1), vec![3, 5]);
        assert_eq!(s.children(2), Vec::<usize>::new());
        assert_eq!(s.parent(0), None);
        assert_eq!(s.parent(5), Some(1));
        assert_eq!(s.parent(4), Some(0));
        assert_eq!(s.depth(), 3);
        let mut sub = s.subtree(1);
        sub.sort_unstable();
        assert_eq!(sub, vec![1, 3, 5]);
    }

    #[test]
    fn rotation_moves_the_root() {
        let s = CollectiveSchedule::new(4, 2);
        assert_eq!(s.parent(2), None);
        // Relative ranks: 2→0, 3→1, 0→2, 1→3.
        assert_eq!(s.children(2), vec![3, 0]);
        assert_eq!(s.children(3), vec![1]);
        assert_eq!(s.parent(1), Some(3));
    }

    #[test]
    fn repair_adopts_dead_subtrees() {
        let s = CollectiveSchedule::new(8, 0);
        // With children 2 and 4 of the root dead, the root's hop list
        // must swap them for their own children.
        let dead = |r: usize| r == 2 || r == 4;
        let targets = s.relay_targets(0, dead);
        let mut expect = s.children(2);
        expect.extend(s.children(4));
        expect.push(1);
        expect.sort_unstable();
        assert_eq!(targets, expect);
        // A dead parent re-routes contributions to the live ancestor.
        assert_eq!(s.live_parent(6, dead), Some(0));
        assert_eq!(s.live_parent(0, dead), None);
    }

    #[test]
    fn fold_counts_is_idempotent_max_merge() {
        let mut m = HashMap::new();
        fold_counts(&mut m, &[(0, 5), (1, 7)]);
        fold_counts(&mut m, &[(0, 3), (1, 9), (2, 1)]);
        fold_counts(&mut m, &[(1, 9)]);
        assert_eq!(m[&0], 5);
        assert_eq!(m[&1], 9);
        assert_eq!(m[&2], 1);
    }

    #[test]
    fn coll_frame_codec_round_trips_and_guards() {
        let frames: Vec<CollFrame<u64>> = vec![
            CollFrame::Bcast(42),
            CollFrame::Scatter(vec![(0, 1), (3, 9)]),
            CollFrame::Reduce(vec![(1, 100)]),
        ];
        for f in frames {
            let buf = encode_to_vec(&f);
            assert_eq!(buf.len(), f.wire_size());
            assert_eq!(decode_exact::<CollFrame<u64>>(&buf), Some(f));
        }
        // Unknown tag and hostile length claims are rejected, never
        // panicked on.
        assert!(decode_exact::<CollFrame<u64>>(&[9]).is_none());
        let mut hostile = vec![1u8]; // Scatter
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_exact::<CollFrame<u64>>(&hostile).is_none());
    }

    fn mesh(places: u16) -> (Arc<LocalTransport<CollFrame<u64>>>, Vec<PlaceId>) {
        let tr = Arc::new(LocalTransport::new(
            Topology::flat(places),
            NetworkModel::tianhe_like(),
            LivenessBoard::new(places),
            StatsBoard::new(places),
        ));
        (tr, (0..places).map(PlaceId).collect())
    }

    fn run_all<F>(places: u16, f: F) -> Vec<Option<u64>>
    where
        F: Fn(Arc<LocalTransport<CollFrame<u64>>>, Vec<PlaceId>, usize) -> Option<u64>
            + Send
            + Sync
            + 'static,
    {
        let (tr, ranks) = mesh(places);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..places as usize)
            .map(|me| {
                let (tr, ranks, f) = (tr.clone(), ranks.clone(), f.clone());
                std::thread::spawn(move || f(tr, ranks, me))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn broadcast_reaches_every_place() {
        let got = run_all(7, |tr, ranks, me| {
            let s = CollectiveSchedule::new(ranks.len(), 0);
            broadcast(tr.as_ref(), &s, &ranks, me, (me == 0).then_some(99), TICK)
        });
        assert_eq!(got, vec![Some(99); 7]);
    }

    #[test]
    fn scatter_delivers_each_rank_its_part() {
        let got = run_all(6, |tr, ranks, me| {
            let s = CollectiveSchedule::new(ranks.len(), 0);
            let parts = (me == 0).then(|| (0..6u16).map(|r| (r, u64::from(r) * 10)).collect());
            scatter(tr.as_ref(), &s, &ranks, me, parts, TICK)
        });
        let expect: Vec<Option<u64>> = (0..6).map(|r| Some(r * 10)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn reduce_collects_all_contributions_at_root() {
        let got = run_all(5, |tr, ranks, me| {
            let s = CollectiveSchedule::new(ranks.len(), 0);
            reduce(tr.as_ref(), &s, &ranks, me, me as u64 + 1, TICK)
                .map(|entries| entries.into_iter().map(|(_, v)| v).sum())
        });
        assert_eq!(got[0], Some(1 + 2 + 3 + 4 + 5));
        assert!(got[1..].iter().all(Option::is_none));
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let got = run_all(6, |tr, ranks, me| {
            let s = CollectiveSchedule::new(ranks.len(), 0);
            allreduce(tr.as_ref(), &s, &ranks, me, me as u64, |a, b| a + b, TICK)
        });
        assert_eq!(got, vec![Some(1 + 2 + 3 + 4 + 5); 6]);
    }

    #[test]
    fn broadcast_repairs_around_a_dead_child() {
        // Kill rank 1 (a mid-tree node with children 3 and 5 at n=6)
        // before the collective starts: the root must adopt its subtree.
        let got = run_all(6, |tr, ranks, me| {
            if me == 1 {
                return None; // the corpse does not participate
            }
            if me == 0 {
                tr.liveness().kill(ranks[1]);
            }
            let s = CollectiveSchedule::new(ranks.len(), 0);
            broadcast(tr.as_ref(), &s, &ranks, me, (me == 0).then_some(7), TICK)
        });
        assert_eq!(got[0], Some(7));
        for r in [2usize, 3, 4, 5] {
            assert_eq!(got[r], Some(7), "rank {r} missed the repaired hop");
        }
    }

    #[test]
    fn reduce_routes_around_a_dead_parent() {
        // Rank 1 is dead; ranks 3 and 5 (its children) must re-route
        // their contributions to the live ancestor, the root. Every rank
        // marks the death before reducing, so none can hand its count
        // to rank 1 before the kill lands.
        let got = run_all(6, |tr, ranks, me| {
            if me == 1 {
                return None;
            }
            tr.liveness().kill(ranks[1]);
            let s = CollectiveSchedule::new(ranks.len(), 0);
            reduce(tr.as_ref(), &s, &ranks, me, 1u64, TICK)
                .map(|entries| entries.into_iter().map(|(_, v)| v).sum())
        });
        assert_eq!(got[0], Some(5), "five live contributions reach the root");
    }
}
