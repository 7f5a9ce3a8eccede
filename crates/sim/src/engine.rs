//! The simulated DPX10 engine.
//!
//! Semantics are identical to `dpx10_core::ThreadedEngine` — same shard
//! state, same push/pull message protocol, same scheduling strategies,
//! same recovery — but execution advances a virtual clock: each place has
//! `W` worker slots, a dispatched vertex occupies one for
//! `framework_overhead + compute`, and messages arrive after the network
//! model's transfer time. Runs are bit-for-bit deterministic.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::{Codec, PlaceId};
use dpx10_core::state::{build_shards, collect_array, local_index, Fill, Parked, Shard};
use dpx10_core::{
    msg::Msg, schedule::min_comm_choice, schedule::random_choice, CommsMode, DagResult, DepView,
    DpApp, EngineError, InitOverride, RunReport, ScheduleStrategy,
};
use dpx10_dag::{validate_pattern, DagPattern, VertexId};
use dpx10_distarray::{recover, Dist, DistArray, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::cost::SimConfig;
use crate::event::{EventQueue, SimTime};
use crate::ready::ReadyQueue;
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};

/// The simulator engine for one application run.
pub struct SimEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: SimConfig,
    init: Option<InitOverride<A::Value>>,
    recorder: Recorder,
}

enum Ev<V> {
    /// A locally dispatched vertex finishes computing on worker `tid`.
    Done {
        slot: usize,
        li: u32,
        value: V,
        tid: u16,
    },
    /// A remotely shipped vertex finishes computing at `slot`, worker
    /// `tid`.
    ExecDone {
        slot: usize,
        owner: PlaceId,
        id: VertexId,
        value: V,
        tid: u16,
    },
    /// A message arrives at `dst`.
    Arrive {
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<V>,
    },
}

/// Mutable per-epoch simulation state.
/// A remotely shipped vertex waiting for a worker: `(id, dep ids,
/// dep values)`.
type ExecTask<V> = (VertexId, Vec<VertexId>, Vec<V>);

struct Epoch<V> {
    dist: Arc<Dist>,
    shards: Vec<Shard<V>>,
    /// Policy-ordered ready lists (supersede the shards' FIFO queues).
    ready: Vec<ReadyQueue>,
    /// Remotely shipped vertices waiting for a worker, per slot.
    exec_queue: Vec<std::collections::VecDeque<ExecTask<V>>>,
    busy: Vec<u16>,
    queue: EventQueue<Ev<V>>,
    finished: u64,
    computed: u64,
    /// Index of the dead slot once the fault fires.
    fault_at: Option<(PlaceId, SimTime)>,
    /// Accumulated communication counters.
    msgs: u64,
    bytes: u64,
    net_time: Duration,
    cache_hits: u64,
    cache_misses: u64,
    pulls_sent: u64,
    pulls_deduped: u64,
    pushes_sent: u64,
    pull_roundtrips_avoided: u64,
    /// Latest publish time seen.
    last_publish: SimTime,
    /// Accumulated busy nanoseconds per slot.
    busy_ns: Vec<u64>,
    /// Optional event trace.
    trace: Option<TraceBuffer>,
    /// Flight recorder (virtual-clock timestamps, shared schema with the
    /// real backends).
    rec: Recorder,
    /// Free worker ids per slot, so concurrent virtual workers land on
    /// distinct timeline tracks. Leased at dispatch, returned on `Done`.
    free_tids: Vec<Vec<u16>>,
}

impl<A: DpApp + 'static> SimEngine<A> {
    /// Creates a simulator for `app` over `pattern` with `config`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: SimConfig) -> Self {
        SimEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a §VI-E initialisation override.
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Attaches a flight recorder. Simulated runs stamp events with the
    /// *virtual* clock, so exported timelines show simulated time.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the simulation to completion and returns the results with
    /// `report().sim_time` holding the virtual makespan.
    pub fn run(&self) -> Result<DagResult<A::Value>, EngineError> {
        self.run_impl(0).map(|(r, _)| r)
    }

    /// Like [`SimEngine::run`], but also records up to `trace_capacity`
    /// [`TraceEvent`]s (dispatches, finishes, sends, recoveries) for
    /// timeline analysis.
    pub fn run_traced(
        &self,
        trace_capacity: usize,
    ) -> Result<(DagResult<A::Value>, TraceBuffer), EngineError> {
        let (result, trace) = self.run_impl(trace_capacity)?;
        Ok((result, trace.expect("tracing was requested")))
    }

    fn run_impl(
        &self,
        trace_capacity: usize,
    ) -> Result<(DagResult<A::Value>, Option<TraceBuffer>), EngineError> {
        let pattern = self.pattern.as_ref();
        let total = pattern.vertex_count();
        if total <= 10_000 && cfg!(debug_assertions) {
            validate_pattern(pattern)?;
        }
        if let Some(plan) = &self.config.fault {
            if plan.place == PlaceId::ZERO
                || plan.place.index() >= self.config.topology.num_places() as usize
            {
                return Err(EngineError::BadFaultPlan(format!(
                    "{} is not a killable place",
                    plan.place
                )));
            }
        }

        let wall_start = Instant::now();
        let region = Region2D::new(pattern.height(), pattern.width());
        let mut alive: Vec<PlaceId> = self.config.topology.places().collect();
        let mut prior: Option<DistArray<A::Value>> = None;
        let mut base: SimTime = 0;
        let mut report = RunReport {
            vertices_total: total,
            ..RunReport::default()
        };
        let mut fault_pending = self.config.fault;
        let mut makespan_ns: SimTime = 0;
        let mut full_trace = (trace_capacity > 0).then(|| TraceBuffer::new(trace_capacity));

        let final_array = loop {
            report.epochs += 1;
            let dist = Arc::new(Dist::new(
                region,
                self.config.dist_kind.clone(),
                alive.clone(),
            ));
            // The simulator always executes through the enumerated
            // adapter view (no aggregation lanes): it is the differential
            // oracle the prefix-aggregated real backends are compared
            // against.
            let (shards, prefinished) = build_shards(
                pattern,
                &dist,
                prior.as_ref(),
                None,
                self.init.as_ref(),
                self.config.cache_capacity,
                None,
            );
            let nslots = dist.num_slots();
            // Move the seeded FIFO ready lists into policy queues.
            let ready: Vec<ReadyQueue> = shards
                .iter()
                .map(|shard| {
                    let mut q = ReadyQueue::new(self.config.ready_policy);
                    while let Some(li) = shard.ready.pop() {
                        let (i, j) = shard.points[li as usize];
                        q.push(li, i as u64 + j as u64);
                    }
                    q
                })
                .collect();
            let mut ep = Epoch {
                dist: dist.clone(),
                shards,
                ready,
                exec_queue: (0..nslots).map(|_| Default::default()).collect(),
                busy: vec![0; nslots],
                queue: EventQueue::new(),
                finished: prefinished,
                computed: 0,
                fault_at: None,
                msgs: 0,
                bytes: 0,
                net_time: Duration::ZERO,
                cache_hits: 0,
                cache_misses: 0,
                pulls_sent: 0,
                pulls_deduped: 0,
                pushes_sent: 0,
                pull_roundtrips_avoided: 0,
                last_publish: base,
                busy_ns: vec![0; nslots],
                trace: full_trace.take(),
                rec: self.recorder.clone(),
                free_tids: (0..nslots)
                    .map(|_| (0..self.config.topology.threads_per_place).rev().collect())
                    .collect(),
            };
            self.recorder.instant(
                0,
                RUNTIME_WORKER,
                EventKind::EpochStart,
                base,
                u64::from(report.epochs - 1),
            );

            if prefinished == total {
                full_trace = ep.trace.take();
                break collect_array(&ep.shards, &dist);
            }

            let threshold = fault_pending.map(|p| {
                (
                    p.place,
                    ((p.after_fraction * total as f64).ceil() as u64).clamp(1, total),
                )
            });

            // Seed: dispatch every slot at the epoch base time.
            for slot in 0..nslots {
                self.dispatch(&mut ep, slot, base, threshold);
            }

            // Main event loop.
            let outcome = loop {
                if ep.finished >= total {
                    break EpochEnd::Complete;
                }
                if let Some((victim, _)) = ep.fault_at {
                    break EpochEnd::Fault(victim);
                }
                let Some((t, ev)) = ep.queue.pop() else {
                    break EpochEnd::Stalled;
                };
                match ev {
                    Ev::Done {
                        slot,
                        li,
                        value,
                        tid,
                    } => {
                        ep.busy[slot] -= 1;
                        ep.free_tids[slot].push(tid);
                        let (i, j) = ep.shards[slot].points[li as usize];
                        self.publish(&mut ep, slot, li, VertexId::new(i, j), value, t, threshold);
                        self.dispatch(&mut ep, slot, t, threshold);
                    }
                    Ev::ExecDone {
                        slot,
                        owner,
                        id,
                        value,
                        tid,
                    } => {
                        ep.busy[slot] -= 1;
                        ep.free_tids[slot].push(tid);
                        let src = ep.dist.places()[slot];
                        self.send(&mut ep, t, src, owner, Msg::ExecResult { id, value });
                        self.dispatch(&mut ep, slot, t, threshold);
                    }
                    Ev::Arrive { src, dst, msg } => {
                        let Some(slot) = slot_of_place(&ep.dist, dst) else {
                            continue;
                        };
                        self.handle_msg(&mut ep, slot, src, msg, t, threshold);
                        self.dispatch(&mut ep, slot, t, threshold);
                    }
                }
            };

            makespan_ns = makespan_ns.max(ep.last_publish);
            full_trace = ep.trace.take();
            if report.place_busy.len() < ep.busy_ns.len() {
                report.place_busy.resize(ep.busy_ns.len(), Duration::ZERO);
            }
            for (slot, &ns) in ep.busy_ns.iter().enumerate() {
                report.place_busy[slot] += Duration::from_nanos(ns);
            }
            report.vertices_computed += ep.computed;
            report.comm.messages_sent += ep.msgs;
            report.comm.bytes_sent += ep.bytes;
            report.comm.net_time += ep.net_time;
            report.comm.cache_hits += ep.cache_hits;
            report.comm.cache_misses += ep.cache_misses;
            report.comm.pulls_sent += ep.pulls_sent;
            report.comm.pulls_deduped += ep.pulls_deduped;
            report.comm.pushes_sent += ep.pushes_sent;
            report.comm.pull_roundtrips_avoided += ep.pull_roundtrips_avoided;
            report.comm.tasks_run += ep.computed;

            match outcome {
                EpochEnd::Complete => break collect_array(&ep.shards, &dist),
                EpochEnd::Stalled => {
                    return Err(EngineError::Stalled {
                        finished: ep.finished,
                        total,
                    })
                }
                EpochEnd::Fault(victim) => {
                    let fault_time = ep.fault_at.expect("fault recorded").1;
                    let snapshot = collect_array(&ep.shards, &dist);
                    let (restored, rec) = recover(
                        &snapshot,
                        &[victim],
                        self.config.restore_manner,
                        &self.config.topology,
                        &self.config.network,
                        &self.config.cost.recovery,
                    );
                    base = fault_time + rec.sim_time.as_nanos() as SimTime;
                    self.recorder.instant(
                        victim.0,
                        RUNTIME_WORKER,
                        EventKind::Fault,
                        fault_time,
                        u64::from(report.epochs - 1),
                    );
                    self.recorder.span(
                        0,
                        RUNTIME_WORKER,
                        EventKind::Recovery,
                        fault_time,
                        base,
                        u64::from(report.epochs - 1),
                    );
                    if let Some(buf) = &mut full_trace {
                        buf.record(TraceEvent {
                            at: Duration::from_nanos(fault_time),
                            place: victim,
                            vertex: None,
                            kind: TraceKind::Recovery,
                        });
                    }
                    report.recovery_time += rec.sim_time;
                    report.recoveries.push(rec);
                    prior = Some(restored);
                    alive.retain(|&p| p != victim);
                    fault_pending = None;
                }
            }
        };

        report.sim_time = Duration::from_nanos(makespan_ns.max(base));
        report.wall_time = wall_start.elapsed();
        let result = DagResult::new(final_array, report);
        self.app.app_finished(&result);
        Ok((result, full_trace))
    }
}

enum EpochEnd {
    Complete,
    Fault(PlaceId),
    Stalled,
}

/// Records a trace event when tracing is on.
fn trace_event<V>(
    ep: &mut Epoch<V>,
    t: SimTime,
    place: PlaceId,
    vertex: Option<VertexId>,
    kind: TraceKind,
) {
    if let Some(buf) = &mut ep.trace {
        buf.record(TraceEvent {
            at: Duration::from_nanos(t),
            place,
            vertex,
            kind,
        });
    }
}

#[inline]
fn slot_of_place(dist: &Dist, place: PlaceId) -> Option<usize> {
    dist.places().iter().position(|&p| p == place)
}

impl<A: DpApp + 'static> SimEngine<A> {
    /// Prices and enqueues a message; local sends are free.
    fn send(
        &self,
        ep: &mut Epoch<A::Value>,
        t: SimTime,
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<A::Value>,
    ) {
        let bytes = msg.wire_size();
        let arrive = if src == dst {
            t
        } else {
            let cost = self
                .config
                .network
                .transfer_time(&self.config.topology, src, dst, bytes);
            ep.msgs += 1;
            ep.bytes += bytes as u64;
            ep.net_time += cost;
            ep.rec
                .instant(src.0, RUNTIME_WORKER, EventKind::MsgSend, t, bytes as u64);
            trace_event(
                ep,
                t,
                src,
                None,
                TraceKind::Send {
                    dst,
                    bytes: bytes.min(u32::MAX as usize) as u32,
                },
            );
            t + cost.as_nanos() as SimTime
        };
        ep.queue.push(arrive, Ev::Arrive { src, dst, msg });
    }

    /// Fills the free worker slots of `slot` with ready work at time `t`.
    fn dispatch(
        &self,
        ep: &mut Epoch<A::Value>,
        slot: usize,
        t: SimTime,
        threshold: Option<(PlaceId, u64)>,
    ) {
        let capacity = self.config.topology.threads_per_place;
        let me = ep.dist.places()[slot];
        if let Some((victim, _)) = ep.fault_at {
            if victim == me {
                return; // dead place dispatches nothing
            }
        }
        let step =
            (self.config.cost.framework_overhead + self.config.cost.compute).as_nanos() as SimTime;
        while ep.busy[slot] < capacity {
            // Remotely shipped work first (it already consumed scheduling
            // effort at its owner), then the local ready list.
            if let Some((id, dep_ids, dep_values)) = ep.exec_queue[slot].pop_front() {
                let view = DepView::new(&dep_ids, &dep_values);
                let value = self.app.compute(id, &view);
                let owner = ep.dist.place_of(id.i, id.j);
                ep.busy[slot] += 1;
                ep.busy_ns[slot] += step;
                let tid = ep.free_tids[slot].pop().unwrap_or(0);
                ep.rec
                    .span(me.0, tid, EventKind::VertexCompute, t, t + step, id.pack());
                ep.queue.push(
                    t + step,
                    Ev::ExecDone {
                        slot,
                        owner,
                        id,
                        value,
                        tid,
                    },
                );
                continue;
            }
            let Some(li) = ep.ready[slot].pop() else {
                break;
            };
            let (i, j) = ep.shards[slot].points[li as usize];
            let id = VertexId::new(i, j);
            if ep.shards[slot].finished[li as usize].load(Ordering::Relaxed) {
                continue;
            }
            let mut dep_ids = Vec::new();
            self.pattern.dependencies(i, j, &mut dep_ids);
            let Some(values) = self.gather(ep, slot, li, &dep_ids, t) else {
                continue; // parked on pulls; no worker consumed
            };

            let target = match self.config.schedule {
                ScheduleStrategy::Local | ScheduleStrategy::WorkStealing => me,
                ScheduleStrategy::Random => random_choice(id, ep.dist.places()),
                ScheduleStrategy::MinComm => {
                    let homes: Vec<PlaceId> =
                        dep_ids.iter().map(|d| ep.dist.place_of(d.i, d.j)).collect();
                    let bytes: Vec<usize> = values.iter().map(Codec::wire_size).collect();
                    let result_bytes = values.first().map_or(8, |v| v.wire_size());
                    min_comm_choice(
                        me,
                        ep.dist.places(),
                        &homes,
                        &bytes,
                        result_bytes,
                        &self.config.topology,
                        &self.config.network,
                    )
                }
            };
            if target != me {
                let msg = Msg::Exec {
                    id,
                    dep_ids,
                    dep_values: values,
                };
                // Shipping costs the owner its scheduling overhead only.
                let at = t + self.config.cost.framework_overhead.as_nanos() as SimTime;
                self.send(ep, at, me, target, msg);
                continue;
            }
            let view = DepView::new(&dep_ids, &values);
            let value = self.app.compute(id, &view);
            ep.busy[slot] += 1;
            ep.busy_ns[slot] += step;
            let tid = ep.free_tids[slot].pop().unwrap_or(0);
            ep.rec
                .span(me.0, tid, EventKind::VertexCompute, t, t + step, id.pack());
            trace_event(ep, t, me, Some(id), TraceKind::Dispatch);
            ep.queue.push(
                t + step,
                Ev::Done {
                    slot,
                    li,
                    value,
                    tid,
                },
            );
        }
        let _ = threshold;
    }

    /// Gathers dependency values at time `t`; parks the vertex and issues
    /// pulls on cache misses (same protocol as the threaded engine).
    fn gather(
        &self,
        ep: &mut Epoch<A::Value>,
        slot: usize,
        li: u32,
        deps: &[VertexId],
        t: SimTime,
    ) -> Option<Vec<A::Value>> {
        if deps.is_empty() {
            return Some(Vec::new());
        }
        let me = ep.dist.places()[slot];
        let mut vals: Vec<Option<A::Value>> = Vec::with_capacity(deps.len());
        {
            let shard = &ep.shards[slot];
            let cache = shard.cache.lock();
            for d in deps {
                if ep.dist.slot_of(d.i, d.j) == slot {
                    let dli = local_index(&ep.dist, *d);
                    vals.push(Some(shard.value(dli).clone()));
                } else if let Some(v) = cache.get(d.pack()) {
                    ep.cache_hits += 1;
                    ep.rec
                        .instant(me.0, RUNTIME_WORKER, EventKind::CacheHit, t, d.pack());
                    vals.push(Some(v.clone()));
                } else {
                    vals.push(None);
                }
            }
        }
        if vals.iter().all(Option::is_some) {
            ep.shards[slot].lock_pending().parked.remove(&li);
            return Some(vals.into_iter().map(Option::unwrap).collect());
        }

        let mut to_pull: Vec<VertexId> = Vec::new();
        let mut avoided = 0u64;
        let mut deduped = 0u64;
        let mut complete = false;
        {
            let shard = &ep.shards[slot];
            let mut pending = shard.lock_pending();
            // Previously pulled (or eagerly pushed) fills; consuming a
            // pushed fill demotes it to Pulled so a re-gather of a
            // still-parked vertex doesn't count the saving twice.
            if let Some(p) = pending.parked.get_mut(&li) {
                for (k, d) in deps.iter().enumerate() {
                    if vals[k].is_none() {
                        if let Some(fill) = p.fills.get_mut(&d.pack()) {
                            if let Fill::Pushed(v) = fill {
                                let v = v.clone();
                                avoided += 1;
                                vals[k] = Some(v.clone());
                                *fill = Fill::Pulled(v);
                            } else if let Some(v) = fill.value() {
                                vals[k] = Some(v.clone());
                            }
                        }
                    }
                }
            }
            if vals.iter().all(Option::is_some) {
                pending.parked.remove(&li);
                complete = true;
            }
            let mut newly_missing = Vec::new();
            if !complete {
                let entry = pending.parked.entry(li).or_insert_with(|| Parked {
                    fills: HashMap::new(),
                    remaining: 0,
                });
                for (k, d) in deps.iter().enumerate() {
                    if vals[k].is_none() && !entry.fills.contains_key(&d.pack()) {
                        entry.fills.insert(d.pack(), Fill::Missing);
                        entry.remaining += 1;
                        newly_missing.push(*d);
                    }
                }
            }
            for d in newly_missing {
                let waiters = pending.waiters.entry(d.pack()).or_default();
                if waiters.is_empty() {
                    to_pull.push(d);
                } else {
                    // Dedup hub: ride the outstanding pull.
                    deduped += 1;
                }
                waiters.push(li);
            }
        }
        ep.pull_roundtrips_avoided += avoided;
        ep.pulls_deduped += deduped;
        if complete {
            return Some(vals.into_iter().map(Option::unwrap).collect());
        }
        for d in &to_pull {
            ep.cache_misses += 1;
            ep.pulls_sent += 1;
            ep.rec
                .instant(me.0, RUNTIME_WORKER, EventKind::CacheMiss, t, d.pack());
            ep.rec
                .instant(me.0, RUNTIME_WORKER, EventKind::PullIssue, t, d.pack());
            let owner = ep.dist.place_of(d.i, d.j);
            self.send(ep, t, me, owner, Msg::Pull { id: *d });
        }
        None
    }

    /// Publishes a computed value at time `t`: store, decrement, message
    /// remote dependents, advance termination/fault triggers.
    #[allow(clippy::too_many_arguments)]
    fn publish(
        &self,
        ep: &mut Epoch<A::Value>,
        slot: usize,
        li: u32,
        id: VertexId,
        value: A::Value,
        t: SimTime,
        threshold: Option<(PlaceId, u64)>,
    ) {
        {
            let shard = &ep.shards[slot];
            shard.values[li as usize].set(value.clone()).ok();
            if shard.finished[li as usize].swap(true, Ordering::Relaxed) {
                return;
            }
        }
        // Computation is counted at publish, not dispatch: work stranded
        // in flight by an epoch abort was never visible to anyone, so it
        // must not inflate the recomputation count recovery is judged by.
        ep.computed += 1;
        ep.finished += 1;
        ep.last_publish = t;
        let me_place = ep.dist.places()[slot];
        trace_event(ep, t, me_place, Some(id), TraceKind::Finish);

        let mut anti = Vec::new();
        self.pattern.anti_dependencies(id.i, id.j, &mut anti);
        let me = ep.dist.places()[slot];
        let mut groups: BTreeMap<u16, Vec<VertexId>> = BTreeMap::new();
        for tgt in anti {
            let ts = ep.dist.slot_of(tgt.i, tgt.j);
            if ts == slot {
                decrement(&ep.shards[ts], &mut ep.ready[ts], &ep.dist, tgt);
            } else {
                groups.entry(ep.dist.places()[ts].0).or_default().push(tgt);
            }
        }
        for (q, targets) in groups {
            let msg = match self.config.comms {
                CommsMode::Pull => Msg::Done {
                    from: id,
                    value: value.clone(),
                    targets,
                },
                CommsMode::Push => {
                    ep.pushes_sent += 1;
                    Msg::PushVal {
                        from: id,
                        value: value.clone(),
                        targets,
                    }
                }
            };
            self.send(ep, t, me, PlaceId(q), msg);
        }

        if let Some((victim, thr)) = threshold {
            if ep.finished >= thr && ep.fault_at.is_none() && ep.finished < ep_total(ep) {
                ep.fault_at = Some((victim, t));
            }
        }
    }

    /// Handles one arrived message at `slot` (mirrors the threaded
    /// engine's `handle_msg`).
    fn handle_msg(
        &self,
        ep: &mut Epoch<A::Value>,
        slot: usize,
        src: PlaceId,
        msg: Msg<A::Value>,
        t: SimTime,
        threshold: Option<(PlaceId, u64)>,
    ) {
        let me = ep.dist.places()[slot];
        match msg {
            Msg::Done {
                from,
                value,
                targets,
            } => {
                ep.shards[slot].cache.lock().insert(from.pack(), value);
                for tgt in targets {
                    decrement(&ep.shards[slot], &mut ep.ready[slot], &ep.dist, tgt);
                }
            }
            Msg::Pull { id } => {
                let li = local_index(&ep.dist, id);
                let value = ep.shards[slot].value(li).clone();
                self.send(ep, t, me, src, Msg::PullVal { id, value });
            }
            Msg::PullVal { id, value } => {
                ep.rec
                    .instant(me.0, RUNTIME_WORKER, EventKind::PullFill, t, id.pack());
                let mut refill: Vec<u32> = Vec::new();
                let shard = &ep.shards[slot];
                shard.cache.lock().insert(id.pack(), value.clone());
                let mut pending = shard.lock_pending();
                if let Some(waiters) = pending.waiters.remove(&id.pack()) {
                    for wli in waiters {
                        if let Some(p) = pending.parked.get_mut(&wli) {
                            if let Some(fill @ Fill::Missing) = p.fills.get_mut(&id.pack()) {
                                *fill = Fill::Pulled(value.clone());
                                p.remaining -= 1;
                                if p.remaining == 0 {
                                    refill.push(wli);
                                }
                            }
                        }
                    }
                }
                drop(pending);
                for wli in refill {
                    let (i, j) = ep.shards[slot].points[wli as usize];
                    ep.ready[slot].push(wli, i as u64 + j as u64);
                }
            }
            Msg::Exec {
                id,
                dep_ids,
                dep_values,
            } => {
                ep.exec_queue[slot].push_back((id, dep_ids, dep_values));
            }
            Msg::ExecResult { id, value } => {
                let li = local_index(&ep.dist, id);
                self.publish(ep, slot, li, id, value, t, threshold);
            }
            // The simulator never coalesces (it models each event's
            // latency individually), but batches share the wire enum:
            // replay the carried messages through the same handlers.
            Msg::DoneBatch { entries } => {
                for (from, value, targets) in entries {
                    let unbatched = Msg::Done {
                        from,
                        value,
                        targets,
                    };
                    self.handle_msg(ep, slot, src, unbatched, t, threshold);
                }
            }
            Msg::PullBatch { ids } => {
                for id in ids {
                    self.handle_msg(ep, slot, src, Msg::Pull { id }, t, threshold);
                }
            }
            Msg::PullValBatch { entries } => {
                for (id, value) in entries {
                    self.handle_msg(ep, slot, src, Msg::PullVal { id, value }, t, threshold);
                }
            }
            // Push mode: same decrements as `Done`, but the value is
            // additionally pinned for every unfinished target so the
            // gather finds it past cache eviction (mirrors the threaded
            // engine's `handle_push`).
            Msg::PushVal {
                from,
                value,
                targets,
            } => {
                let shard = &ep.shards[slot];
                shard.cache.lock().insert(from.pack(), value.clone());
                let mut refill: Vec<u32> = Vec::new();
                {
                    let mut pending = shard.lock_pending();
                    for tgt in &targets {
                        let tli = local_index(&ep.dist, *tgt);
                        if shard.finished[tli as usize].load(Ordering::Relaxed) {
                            continue;
                        }
                        let entry = pending.parked.entry(tli).or_insert_with(|| Parked {
                            fills: HashMap::new(),
                            remaining: 0,
                        });
                        match entry.fills.get_mut(&from.pack()) {
                            Some(fill @ Fill::Missing) => {
                                *fill = Fill::Pushed(value.clone());
                                entry.remaining -= 1;
                                if entry.remaining == 0 {
                                    refill.push(tli);
                                }
                            }
                            Some(_) => {}
                            None => {
                                entry.fills.insert(from.pack(), Fill::Pushed(value.clone()));
                            }
                        }
                    }
                }
                for wli in refill {
                    let (i, j) = ep.shards[slot].points[wli as usize];
                    ep.ready[slot].push(wli, i as u64 + j as u64);
                }
                for tgt in targets {
                    decrement(&ep.shards[slot], &mut ep.ready[slot], &ep.dist, tgt);
                }
            }
            Msg::PushValBatch { entries } => {
                for (from, value, targets) in entries {
                    let unbatched = Msg::PushVal {
                        from,
                        value,
                        targets,
                    };
                    self.handle_msg(ep, slot, src, unbatched, t, threshold);
                }
            }
            // Relocation traffic belongs to the elastic mesh engine;
            // the simulator's place set is fixed for a whole run.
            Msg::ChunkOffer { .. } | Msg::ChunkData { .. } | Msg::ChunkAck { .. } => {}
        }
    }
}

/// Total vertex count cached on the epoch (all shards).
fn ep_total<V>(ep: &Epoch<V>) -> u64 {
    ep.shards.iter().map(|s| s.total_local).sum()
}

/// Single-threaded indegree decrement with the same skip-if-finished rule
/// as the threaded engine; readies the vertex on the policy queue.
fn decrement<V: dpx10_core::VertexValue>(
    shard: &Shard<V>,
    ready: &mut ReadyQueue,
    dist: &Dist,
    t: VertexId,
) {
    let li = local_index(dist, t);
    if shard.finished[li as usize].load(Ordering::Relaxed) {
        return;
    }
    let old = shard.indegree[li as usize].fetch_sub(1, Ordering::Relaxed);
    debug_assert!(old >= 1, "indegree underflow at {t}");
    if old == 1 {
        ready.push(li, t.i as u64 + t.j as u64);
    }
}
