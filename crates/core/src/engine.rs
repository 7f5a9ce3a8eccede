//! The threaded DPX10 engine.
//!
//! Reproduces the execution overview of paper §VI-A on the APGAS
//! substrate: distribute + initialise the DAG over places, seed the ready
//! lists with zero-indegree vertices, run one worker (of
//! `threads_per_place` threads) per place until every vertex is finished,
//! then invoke `appFinished`. Fault tolerance follows §VI-D: a
//! `DeadPlaceError` ends the epoch, the paper's recovery rebuilds the
//! distributed array over the survivors, and a fresh epoch resumes from
//! the restored state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::{
    mailbox::Envelope, ChaosRng, ChaosTransport, CoalesceConfig, CoalescingTransport, Codec,
    FinishScope, KillTrigger, LocalTransport, NetworkModel, PlaceId, Runtime, RuntimeConfig,
    Topology, Transport,
};
use dpx10_dag::{validate_pattern, AggSpec, DagPattern, DepInterval, VertexId};
use dpx10_distarray::{recover, Dist, DistArray, RecoveryCostModel, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::app::{AggView, DagResult, DepView, DpApp};
use crate::checkpoint::CheckpointWriters;
use crate::config::{CommsMode, EngineConfig, InitOverride};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::schedule::{min_comm_choice, random_choice, ScheduleStrategy};
use crate::state::{build_shards, collect_array, local_index, Fill, Shard};
use crate::stats::RunReport;

/// The threaded engine: one instance runs one application to completion.
pub struct ThreadedEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: EngineConfig,
    init: Option<InitOverride<A::Value>>,
    recorder: Recorder,
}

impl<A: DpApp + 'static> ThreadedEngine<A> {
    /// Creates an engine for `app` over `pattern` with `config`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: EngineConfig) -> Self {
        ThreadedEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a §VI-E initialisation override (pre-finish cells).
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Attaches a flight recorder; compute spans, cache traffic, pull
    /// round-trips and epoch/recovery events are recorded into it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the computation to completion (surviving any planned fault)
    /// and returns the full result set.
    pub fn run(&self) -> Result<DagResult<A::Value>, EngineError> {
        let pattern = &self.pattern;
        let total = pattern.vertex_count();
        if self.config.validate_pattern && total <= self.config.validate_limit {
            validate_pattern(pattern.as_ref())?;
        }
        let chaos_kills: Vec<dpx10_apgas::KillSpec> = self
            .config
            .chaos
            .as_ref()
            .map(|p| p.kills.clone())
            .unwrap_or_default();
        for victim in self
            .config
            .fault
            .iter()
            .map(|p| p.place)
            .chain(chaos_kills.iter().map(|k| k.place))
        {
            if victim == PlaceId::ZERO
                || victim.index() >= self.config.topology.num_places() as usize
            {
                return Err(EngineError::BadFaultPlan(format!(
                    "{victim} is not a killable place"
                )));
            }
        }

        let topo = self.config.topology;
        let rt = Runtime::new(RuntimeConfig {
            topology: topo,
            network: self.config.network,
        });
        let region = Region2D::new(pattern.height(), pattern.width());

        let checkpoint = match &self.config.checkpoint {
            Some(cfg) => Some(Arc::new(
                CheckpointWriters::create(cfg, topo.num_places())
                    .map_err(|e| EngineError::BadFaultPlan(format!("checkpoint: {e}")))?,
            )),
            None => None,
        };
        let started = Instant::now();
        let mut report = RunReport {
            vertices_total: total,
            ..RunReport::default()
        };
        let mut prior: Option<DistArray<A::Value>> = None;
        let mut alive: Vec<PlaceId> = rt.places().collect();
        let mut busy_by_place = vec![0u64; topo.num_places() as usize];

        let final_array = loop {
            report.epochs += 1;
            self.recorder.instant_now(
                0,
                RUNTIME_WORKER,
                EventKind::EpochStart,
                u64::from(report.epochs),
            );
            let dist = Arc::new(Dist::new(
                region,
                self.config.dist_kind.clone(),
                alive.clone(),
            ));
            let agg = agg_mode(&self.config, self.app.as_ref(), pattern.as_ref());
            let (shards, prefinished) = build_shards(
                pattern.as_ref(),
                &dist,
                prior.as_ref(),
                None,
                self.init.as_ref(),
                self.config.cache_capacity,
                agg,
            );
            if agg.is_some() {
                // Recovery/init epochs: prefinished cells never publish
                // again, so their keys must be reseeded into every
                // place's lanes (the in-process engine holds the full
                // prior array, so no place is left with gaps).
                seed_aggs(self.app.as_ref(), &shards);
            }

            if prefinished == total {
                break collect_array(&shards, &dist);
            }

            let mut transport: Arc<dyn Transport<Msg<A::Value>>> = Arc::new(LocalTransport::new(
                topo,
                self.config.network,
                rt.liveness().clone(),
                rt.stats().clone(),
            ));
            if let Some(plan) = &self.config.chaos {
                if !plan.net.is_off() {
                    // `Done` and `PushVal` carry indegree decrements,
                    // which are not idempotent — everything else on this
                    // plane is.
                    let dup_safe: dpx10_apgas::chaos::DupSafe<Msg<A::Value>> = Arc::new(|m| {
                        !matches!(
                            m,
                            Msg::Done { .. }
                                | Msg::DoneBatch { .. }
                                | Msg::PushVal { .. }
                                | Msg::PushValBatch { .. }
                        )
                    });
                    transport = Arc::new(ChaosTransport::new(
                        transport, plan.net, plan.seed, dup_safe,
                    ));
                }
            }
            if let Some(max_bytes) = self.config.coalesce {
                // Built fresh each epoch (outside the chaos layer so
                // flushed batches still face injected delay/dup):
                // buffered traffic of an abandoned epoch dies here.
                transport = Arc::new(CoalescingTransport::new(
                    transport,
                    CoalesceConfig::bytes(max_bytes),
                    rt.stats().clone(),
                    self.recorder.clone(),
                ));
            }

            // Progress-triggered kills, one-shot across epochs: don't
            // re-kill after recovery. The legacy single-fault plan and
            // the chaos plan's kills arm side by side.
            let to_threshold = |frac: f64| ((frac * total as f64).ceil() as u64).clamp(1, total);
            let mut fault_plan: Vec<FaultTrigger> = Vec::new();
            let mut time_kills: Vec<(PlaceId, Duration)> = Vec::new();
            for (victim, frac) in self
                .config
                .fault
                .iter()
                .map(|p| (p.place, p.after_fraction))
                .chain(chaos_kills.iter().filter_map(|k| match k.trigger {
                    KillTrigger::Progress(f) => Some((k.place, f)),
                    KillTrigger::After(_) => None,
                }))
            {
                if rt.liveness().is_alive(victim) {
                    fault_plan.push(FaultTrigger {
                        victim,
                        threshold: to_threshold(frac),
                        fired: AtomicBool::new(false),
                    });
                }
            }
            for k in &chaos_kills {
                if let KillTrigger::After(t) = k.trigger {
                    if rt.liveness().is_alive(k.place) {
                        time_kills.push((k.place, t));
                    }
                }
            }

            let shared = Arc::new(Shared {
                app: self.app.clone(),
                stall_limit: self.config.stall_limit,
                pattern: pattern.clone(),
                dist: dist.clone(),
                shards,
                transport,
                topo,
                net: self.config.network,
                schedule: self.config.schedule,
                liveness: rt.liveness().clone(),
                stats: rt.stats().clone(),
                total,
                prefinished,
                done: AtomicBool::new(false),
                fault: AtomicBool::new(false),
                stalled: AtomicBool::new(false),
                fault_plan,
                time_kills,
                run_started: started,
                shake: self
                    .config
                    .chaos
                    .as_ref()
                    .filter(|p| p.shake)
                    .map(|p| p.seed),
                worker_seq: AtomicU64::new(0),
                checkpoint: checkpoint.clone(),
                recorder: self.recorder.clone(),
                comms: self.config.comms,
                agg,
            });

            run_epoch(&rt, &shared);

            report.vertices_computed += shared.computed();
            for (slot, shard) in shared.shards.iter().enumerate() {
                busy_by_place[shared.dist.places()[slot].index()] +=
                    shard.busy_ns.load(Ordering::Relaxed);
            }

            if shared.stalled.load(Ordering::Acquire) {
                return Err(EngineError::Stalled {
                    finished: shared.finished(),
                    total,
                });
            }

            // A fault outranks completion: a kill that fires while the
            // last cells finish still loses the dead place's chunk.
            let fault = shared.fault.load(Ordering::Acquire);
            if !fault && shared.done.load(Ordering::Acquire) {
                break collect_array(&shared.shards, &dist);
            }

            // Fault: run the paper's recovery and start a new epoch.
            debug_assert!(fault);
            let dead: Vec<PlaceId> = alive
                .iter()
                .copied()
                .filter(|&p| !rt.liveness().is_alive(p))
                .collect();
            let snapshot = collect_array(&shared.shards, &dist);
            let rec_start = self.recorder.now_ns();
            let (restored, rec) = recover(
                &snapshot,
                &dead,
                self.config.restore_manner,
                &topo,
                &self.config.network,
                &RecoveryCostModel::default(),
            );
            self.recorder.span(
                0,
                RUNTIME_WORKER,
                EventKind::Recovery,
                rec_start,
                self.recorder.now_ns(),
                u64::from(report.epochs),
            );
            report.recovery_time += rec.sim_time;
            report.recoveries.push(rec);
            prior = Some(restored);
            alive.retain(|p| rt.liveness().is_alive(*p));
        };

        report.wall_time = started.elapsed();
        // Per-place busy time from the measured compute intervals, in
        // the final epoch's slot order (matching the simulator).
        report.place_busy = alive
            .iter()
            .map(|p| Duration::from_nanos(busy_by_place[p.index()]))
            .collect();
        report.comm = rt.stats_snapshot();
        let result = DagResult::new(final_array, report);
        self.app.app_finished(&result);
        Ok(result)
    }
}

/// Everything an epoch's workers share. `pub(crate)` because the socket
/// job pool drives the same worker rounds over its own transport.
pub(crate) struct Shared<A: DpApp> {
    pub(crate) app: Arc<A>,
    pub(crate) stall_limit: Duration,
    pub(crate) pattern: Arc<dyn DagPattern>,
    pub(crate) dist: Arc<Dist>,
    pub(crate) shards: Vec<Shard<A::Value>>,
    pub(crate) transport: Arc<dyn Transport<Msg<A::Value>>>,
    pub(crate) topo: Topology,
    pub(crate) net: NetworkModel,
    pub(crate) schedule: ScheduleStrategy,
    pub(crate) liveness: dpx10_apgas::LivenessBoard,
    pub(crate) stats: dpx10_apgas::StatsBoard,
    pub(crate) total: u64,
    /// Vertices finished before the epoch started (restored or init):
    /// the shards' `finished_local` counters start out summing to it.
    pub(crate) prefinished: u64,
    pub(crate) done: AtomicBool,
    pub(crate) fault: AtomicBool,
    pub(crate) stalled: AtomicBool,
    pub(crate) fault_plan: Vec<FaultTrigger>,
    /// Wall-clock-triggered kills, fired by the epoch watchdog.
    pub(crate) time_kills: Vec<(PlaceId, Duration)>,
    /// When the whole run started (time kills are relative to it).
    pub(crate) run_started: Instant,
    /// Schedule-shaker seed; `Some` randomizes the worker loops.
    pub(crate) shake: Option<u64>,
    /// Hands each worker a distinct id (trace track + shaker substream).
    pub(crate) worker_seq: AtomicU64,
    pub(crate) checkpoint: Option<Arc<CheckpointWriters<A::Value>>>,
    pub(crate) recorder: Recorder,
    /// How remote values travel: pull round-trips or eager pushes.
    pub(crate) comms: CommsMode,
    /// `Some(spec)` iff this run executes interval dependencies through
    /// the prefix-aggregation lanes (app declares a spec, pattern has an
    /// interval view, and the config knob is on).
    pub(crate) agg: Option<AggSpec>,
}

/// Whether a run executes through the prefix-aggregation lanes: the
/// config knob is on, the app declares a spec, and the pattern exposes
/// an interval view. All three must hold — any classic app or pattern
/// silently takes the enumerated path.
pub(crate) fn agg_mode<A: DpApp>(
    config: &EngineConfig,
    app: &A,
    pattern: &dyn DagPattern,
) -> Option<AggSpec> {
    if !config.aggregation || pattern.as_range().is_none() {
        return None;
    }
    app.agg_spec()
}

/// Reseeds every shard's aggregation lanes from the values already
/// published in (any) shard — the prefinished cells of a recovery or
/// init epoch, which will never flow through a delivery path again.
/// Cells finished without a value (the socket engine's meta-only
/// restores) stay out; the consumer-side pull fallback covers them.
pub(crate) fn seed_aggs<A: DpApp>(app: &A, shards: &[Shard<A::Value>]) {
    for src in shards {
        for (li, &(i, j)) in src.points.iter().enumerate() {
            if !src.in_pattern[li] {
                continue;
            }
            let Some(v) = src.values[li].get() else {
                continue;
            };
            let id = VertexId::new(i, j);
            for dst in shards {
                if let Some(table) = &dst.aggs {
                    table.record(id, |axis| app.agg_key(axis, id, v));
                }
            }
        }
    }
}

/// Folds a finished cell's aggregation keys into the receiving place's
/// lanes. Called from every value-delivery path (local publish, `Done`,
/// `PushVal`, `PullVal`); the lanes are idempotent per cell, so
/// overlapping deliveries are harmless.
#[inline]
pub(crate) fn agg_record<A: DpApp>(
    shared: &Shared<A>,
    slot: usize,
    id: VertexId,
    value: &A::Value,
) {
    if shared.agg.is_some() {
        if let Some(table) = &shared.shards[slot].aggs {
            table.record(id, |axis| shared.app.agg_key(axis, id, value));
        }
    }
}

/// One armed progress-triggered kill.
pub(crate) struct FaultTrigger {
    pub(crate) victim: PlaceId,
    pub(crate) threshold: u64,
    pub(crate) fired: AtomicBool,
}

impl<A: DpApp> Shared<A> {
    /// Finished vertices, prefinished ones included: the sum of the
    /// shards' own per-publish counters, so the hot path shares no
    /// progress counter between places.
    pub(crate) fn finished(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.finished_local.load(Ordering::Relaxed))
            .sum()
    }

    /// Vertices this epoch computed so far.
    pub(crate) fn computed(&self) -> u64 {
        self.finished() - self.prefinished
    }

    #[inline]
    pub(crate) fn should_stop(&self) -> bool {
        self.done.load(Ordering::Acquire) || self.fault.load(Ordering::Acquire)
    }

    pub(crate) fn send(&self, src: PlaceId, dst: PlaceId, msg: Msg<A::Value>) {
        let bytes = msg.wire_size();
        self.recorder
            .instant_now(src.0, RUNTIME_WORKER, EventKind::MsgSend, bytes as u64);
        if self.transport.send(src, dst, msg, bytes).is_err() {
            self.fault.store(true, Ordering::Release);
        }
    }
}

/// Runs one epoch: spawns the workers, babysits progress, joins them.
fn run_epoch<A: DpApp + 'static>(rt: &Runtime, shared: &Arc<Shared<A>>) {
    let scope = FinishScope::new();
    let threads = shared.topo.threads_per_place;
    for (slot, place) in shared.dist.places().iter().enumerate() {
        for _ in 0..threads {
            let shared = shared.clone();
            // A dead place fails the spawn; the epoch then ends through
            // the fault flag set by the first blocked sender.
            let _ = rt.spawn_at(*place, &scope, move || worker_loop(shared, slot));
        }
    }

    // Watchdog: workers park briefly when idle, so they notice the flags
    // quickly; if global progress freezes without done/fault, flag a
    // stall so `run` can fail instead of hanging.
    let mut last = shared.finished();
    let mut last_change = Instant::now();
    while !shared.should_stop() {
        std::thread::sleep(Duration::from_millis(2));
        // Wall-clock chaos kills fire from here, not from publish:
        // "kill after T" must work even while no vertex is finishing.
        for &(victim, after) in &shared.time_kills {
            if shared.run_started.elapsed() >= after && shared.liveness.is_alive(victim) {
                shared.liveness.kill(victim);
                shared.fault.store(true, Ordering::Release);
            }
        }
        let now = shared.finished();
        if now != last {
            last = now;
            last_change = Instant::now();
        } else if last_change.elapsed() > shared.stall_limit {
            shared.stalled.store(true, Ordering::Release);
            shared.done.store(true, Ordering::Release); // unblock workers
            break;
        }
    }
    scope.wait();
}

/// The per-thread worker: drain messages, execute ready vertices, steal
/// if configured, park briefly when idle (paper §VI-C's worker loop).
///
/// The inbox is `shared.transport`'s. The threaded engine runs one loop
/// per worker thread; the socket job pool runs the same rounds and the
/// same idle step ([`idle_wait`]) across all of a place's jobs.
pub(crate) fn worker_loop<A: DpApp>(shared: Arc<Shared<A>>, slot: usize) {
    let me = shared.dist.places()[slot];
    let mut bufs = WorkerBufs::default();
    let mut idle_rounds = 0u32;
    // The epoch-wide worker id doubles as the trace track.
    let (wid, mut shaker) = next_worker(&shared);
    let wid = wid as u16;
    loop {
        if shared.should_stop() || !shared.liveness.is_alive(me) {
            break;
        }
        let progress = worker_rounds(&shared, slot, wid, &mut bufs, &mut shaker);
        if progress {
            idle_rounds = 0;
            continue;
        }
        idle_rounds += 1;
        if idle_rounds == 1 {
            // Idle drain of the coalescing layer (no-op otherwise):
            // buffered decrements must flow once we run out of local
            // work, or the cluster deadlocks waiting on a batch that
            // never fills its byte budget.
            shared.transport.flush(me);
        }
        if idle_wait(&shared, slot, wid, idle_rounds, &mut bufs) {
            idle_rounds = 0;
        }
    }
}

/// Takes the next epoch-wide worker id and derives that worker's
/// schedule shaker: a substream of the chaos seed that randomizes drain
/// budgets, ready-pop order and yield points. Any interleaving it
/// produces is one the engine must tolerate anyway — the shaker just
/// reaches them on purpose. The shaker is `None` unless the epoch
/// shakes.
pub(crate) fn next_worker<A: DpApp>(shared: &Shared<A>) -> (u64, Option<ChaosRng>) {
    let wid = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
    let shaker = shared
        .shake
        .map(|seed| ChaosRng::new(seed).fork(0x5748_4B52).fork(wid)); // "WHKR"
    (wid, shaker)
}

/// One idle step of a worker that has made no progress for `rounds`
/// rounds in a row: yield for the first few, then drain the coalescing
/// layer and block up to 500 µs for the next inbound message, handling
/// it at once. Returns whether a message was handled (the idle run is
/// over). Shared by [`worker_loop`] and the socket job pool, so both
/// idle alike.
pub(crate) fn idle_wait<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    rounds: u32,
    bufs: &mut WorkerBufs,
) -> bool {
    if rounds < 8 {
        std::thread::yield_now();
        return false;
    }
    let me = shared.dist.places()[slot];
    shared.transport.flush(me);
    match shared
        .transport
        .recv_timeout(me, Duration::from_micros(500))
    {
        Some(env) => {
            handle_msg(shared, slot, wid, env, bufs);
            true
        }
        None => false,
    }
}

/// One budgeted round of a worker's duty cycle: drain up to a budget of
/// inbound messages, execute up to a budget of ready vertices, and (when
/// configured) steal once from the most loaded shard. Returns whether
/// anything at all got done, so the caller can decide how to idle.
///
/// Progress is checked once at the end of the round, and its ready
/// batch is timed once for `busy_ns`: a per-cell atomic on a cache line
/// shared by every place and two clock reads per cell would otherwise
/// dominate a trivial kernel.
///
/// Extracted from [`worker_loop`] so it can also drive the socket job
/// pool in [`crate::jobs`], where one thread services every job of a
/// place and must never block on any single one of them.
pub(crate) fn worker_rounds<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    bufs: &mut WorkerBufs,
    shaker: &mut Option<ChaosRng>,
) -> bool {
    let me = shared.dist.places()[slot];
    let (drain_budget, ready_budget) = match shaker.as_mut() {
        Some(rng) => {
            if rng.chance(0.05) {
                std::thread::yield_now();
            }
            (1 + rng.below(128), 1 + rng.below(32))
        }
        None => (128, 32),
    };
    let mut progress = false;
    // Started at the first pop: an idle round reads no clock.
    let mut batch_start: Option<Instant> = None;
    for _ in 0..drain_budget {
        match shared.transport.try_recv(me) {
            Some(env) => {
                handle_msg(shared, slot, wid, env, bufs);
                progress = true;
            }
            None => break,
        }
    }
    match shaker.as_mut() {
        Some(rng) => {
            // Shaken pop: grab a small batch, start it at a random
            // offset — adjacent ready vertices execute in an order a
            // plain FIFO/LIFO queue would never produce.
            let mut popped = 0;
            while popped < ready_budget {
                let mut batch: Vec<u32> = Vec::with_capacity(4);
                for _ in 0..1 + rng.below(3) {
                    match shared.shards[slot].ready.pop() {
                        Some(li) => {
                            batch_start.get_or_insert_with(Instant::now);
                            shared.recorder.instant_now(
                                me.0,
                                wid,
                                EventKind::ReadyPop,
                                u64::from(li),
                            );
                            batch.push(li);
                        }
                        None => break,
                    }
                }
                if batch.is_empty() {
                    break;
                }
                let r = rng.below(batch.len() as u64) as usize;
                batch.rotate_left(r);
                for li in batch {
                    execute(shared, slot, wid, li, bufs);
                    popped += 1;
                    progress = true;
                }
            }
        }
        None => {
            for _ in 0..ready_budget {
                match shared.shards[slot].ready.pop() {
                    Some(li) => {
                        batch_start.get_or_insert_with(Instant::now);
                        shared
                            .recorder
                            .instant_now(me.0, wid, EventKind::ReadyPop, u64::from(li));
                        execute(shared, slot, wid, li, bufs);
                        progress = true;
                    }
                    None => break,
                }
            }
        }
    }
    if let Some(t0) = batch_start {
        charge_busy(&shared.shards[slot], t0);
    }
    if !progress && shared.schedule == ScheduleStrategy::WorkStealing {
        progress = try_steal(shared, slot, wid, bufs);
    }
    check_progress(shared);
    progress
}

/// Adds the time since `t0` to `shard`'s busy counter.
#[inline]
fn charge_busy<V>(shard: &Shard<V>, t0: Instant) {
    shard
        .busy_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Sets `done` once every vertex is finished and fires any
/// progress-triggered kill whose threshold the finished count has
/// reached. Called at the end of every [`worker_rounds`], and after
/// every publish while a kill is still armed.
fn check_progress<A: DpApp>(shared: &Shared<A>) {
    let g = shared.finished();
    if g >= shared.total {
        shared.done.store(true, Ordering::Release);
    }
    for trig in &shared.fault_plan {
        if g >= trig.threshold && !trig.fired.swap(true, Ordering::AcqRel) {
            shared.liveness.kill(trig.victim);
            shared.fault.store(true, Ordering::Release);
        }
    }
}

/// Reusable per-worker scratch buffers (hot path: no fresh allocations
/// per vertex).
pub(crate) struct WorkerBufs {
    deps: Vec<VertexId>,
    anti: Vec<VertexId>,
    groups: HashMap<u16, Vec<VertexId>>,
}

impl Default for WorkerBufs {
    fn default() -> Self {
        WorkerBufs {
            deps: Vec::with_capacity(8),
            anti: Vec::with_capacity(8),
            groups: HashMap::new(),
        }
    }
}

/// Work stealing (extension strategy): pop a ready vertex from the most
/// loaded other shard and run its full owner-side path here, charging a
/// task-ship round-trip to the network stats.
fn try_steal<A: DpApp>(
    shared: &Arc<Shared<A>>,
    thief_slot: usize,
    wid: u16,
    bufs: &mut WorkerBufs,
) -> bool {
    let victim = (0..shared.shards.len())
        .filter(|&s| s != thief_slot)
        .max_by_key(|&s| shared.shards[s].ready.len());
    let Some(victim) = victim else { return false };
    if shared.shards[victim].ready.is_empty() {
        return false;
    }
    let Some(li) = shared.shards[victim].ready.pop() else {
        return false;
    };
    let thief = shared.dist.places()[thief_slot];
    let owner = shared.dist.places()[victim];
    // Task descriptor over, result back: two small control messages.
    let over = shared.net.transfer_time(&shared.topo, owner, thief, 16);
    shared.stats.place(owner).on_send(16, over);
    let back = shared.net.transfer_time(&shared.topo, thief, owner, 16);
    shared.stats.place(thief).on_send(16, back);
    let t0 = Instant::now();
    execute(shared, victim, wid, li, bufs);
    charge_busy(&shared.shards[victim], t0);
    true
}

/// Handles one inbound message.
fn handle_msg<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    env: Envelope<Msg<A::Value>>,
    bufs: &mut WorkerBufs,
) {
    let me = shared.dist.places()[slot];
    match env.msg {
        Msg::Done {
            from,
            value,
            targets,
        } => handle_done(shared, slot, from, value, targets),
        Msg::Pull { id } => handle_pull(shared, slot, me, env.src, id),
        Msg::PullVal { id, value } => handle_pull_val(shared, slot, wid, me, id, value),
        Msg::Exec {
            id,
            dep_ids,
            dep_values,
        } => {
            let t0 = Instant::now();
            let view = DepView::new(&dep_ids, &dep_values);
            let value = compute_recorded(shared, slot, wid, id, || shared.app.compute(id, &view));
            charge_busy(&shared.shards[slot], t0);
            shared.send(me, env.src, Msg::ExecResult { id, value });
        }
        Msg::ExecResult { id, value } => {
            let li = local_index(&shared.dist, id);
            publish(shared, slot, li, id, value, bufs);
        }
        // The batch variants replay the per-message handlers in send
        // order, so a coalesced run takes exactly the uncoalesced code
        // paths (the equivalence the differential oracle checks).
        Msg::DoneBatch { entries } => {
            for (from, value, targets) in entries {
                handle_done(shared, slot, from, value, targets);
            }
        }
        Msg::PullBatch { ids } => {
            for id in ids {
                handle_pull(shared, slot, me, env.src, id);
            }
        }
        Msg::PullValBatch { entries } => {
            for (id, value) in entries {
                handle_pull_val(shared, slot, wid, me, id, value);
            }
        }
        Msg::PushVal {
            from,
            value,
            targets,
        } => handle_push(shared, slot, from, value, targets),
        Msg::PushValBatch { entries } => {
            for (from, value, targets) in entries {
                handle_push(shared, slot, from, value, targets);
            }
        }
        // Relocation traffic belongs to the elastic engine; the static
        // in-process engine never changes chunk ownership mid-run.
        Msg::ChunkOffer { .. } | Msg::ChunkData { .. } | Msg::ChunkAck { .. } => {}
    }
}

/// [`Msg::Done`]: land the value in the consumer cache, decrement the
/// receiver-owned dependents.
fn handle_done<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    from: VertexId,
    value: A::Value,
    targets: Vec<VertexId>,
) {
    let shard = &shared.shards[slot];
    // Fold before decrementing: when a target's indegree hits zero its
    // interval lanes must already cover this cell.
    agg_record(shared, slot, from, &value);
    shard.cache.lock().insert(from.pack(), value);
    for t in targets {
        decrement(shared, slot, t);
    }
}

/// [`Msg::PushVal`]: a `Done` whose value is additionally *pinned* for
/// every unfinished target, so the target's later gather finds it even
/// after cache eviction — the pull round-trip never happens. A target
/// whose parked slot already has a pull in flight (the consumer raced
/// ahead) is filled right here; the eventual `PullVal` reply then finds
/// the slot occupied and is a no-op for it.
fn handle_push<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    from: VertexId,
    value: A::Value,
    targets: Vec<VertexId>,
) {
    let shard = &shared.shards[slot];
    agg_record(shared, slot, from, &value);
    shard.cache.lock().insert(from.pack(), value.clone());
    {
        let mut pending = shard.lock_pending();
        for t in &targets {
            let tli = local_index(&shared.dist, *t);
            if shard.finished[tli as usize].load(Ordering::Acquire) {
                continue;
            }
            let entry = pending
                .parked
                .entry(tli)
                .or_insert_with(|| crate::state::Parked {
                    fills: HashMap::new(),
                    remaining: 0,
                });
            match entry.fills.get_mut(&from.pack()) {
                // Already parked with a pull outstanding: fill the slot
                // now; re-ready when it was the last missing dep (the
                // decrement below is a no-op then — the vertex parked
                // *after* its indegree hit zero).
                Some(fill @ Fill::Missing) => {
                    *fill = Fill::Pushed(value.clone());
                    entry.remaining -= 1;
                    if entry.remaining == 0 {
                        shard.ready.push(tli);
                    }
                }
                // A pull or an earlier push beat us; keep the first.
                Some(_) => {}
                // Not yet gathered: pin for the upcoming gather.
                None => {
                    entry.fills.insert(from.pack(), Fill::Pushed(value.clone()));
                }
            }
        }
    }
    for t in targets {
        decrement(shared, slot, t);
    }
}

/// [`Msg::Pull`]: reply with the finished value of `id`.
fn handle_pull<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    me: PlaceId,
    src: PlaceId,
    id: VertexId,
) {
    let shard = &shared.shards[slot];
    let li = local_index(&shared.dist, id);
    debug_assert!(
        shard.finished[li as usize].load(Ordering::Acquire),
        "pull of unfinished vertex {id}"
    );
    let value = shard.value(li).clone();
    shared.send(me, src, Msg::PullVal { id, value });
}

/// [`Msg::PullVal`]: cache the value and fill every parked waiter.
fn handle_pull_val<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    me: PlaceId,
    id: VertexId,
    value: A::Value,
) {
    let shard = &shared.shards[slot];
    shared
        .recorder
        .instant_now(me.0, wid, EventKind::PullFill, id.pack());
    agg_record(shared, slot, id, &value);
    shard.cache.lock().insert(id.pack(), value.clone());
    let mut pending = shard.lock_pending();
    if let Some(waiters) = pending.waiters.remove(&id.pack()) {
        for wli in waiters {
            if let Some(p) = pending.parked.get_mut(&wli) {
                // A slot already filled (e.g. by a racing push) keeps
                // its value; the reply only lands on Missing slots.
                if let Some(fill @ Fill::Missing) = p.fills.get_mut(&id.pack()) {
                    *fill = Fill::Pulled(value.clone());
                    p.remaining -= 1;
                    if p.remaining == 0 {
                        shard.ready.push(wli);
                    }
                }
            }
        }
    }
}

/// Decrements the indegree of locally-owned `t`; readies it at zero.
///
/// Targets already finished are skipped: after a recovery, a recomputed
/// vertex publishes again and would otherwise decrement dependents that
/// were restored as finished (whose epoch-start indegree is zero).
#[inline]
fn decrement<A: DpApp>(shared: &Shared<A>, slot: usize, t: VertexId) {
    let shard = &shared.shards[slot];
    let li = local_index(&shared.dist, t);
    if shard.finished[li as usize].load(Ordering::Acquire) {
        return;
    }
    let old = shard.indegree[li as usize].fetch_sub(1, Ordering::AcqRel);
    debug_assert!(old >= 1, "indegree underflow at {t}");
    if old == 1 {
        shard.ready.push(li);
    }
}

/// Runs `compute` and, when recording, emits its vertex-compute span.
/// Busy time is charged by the caller per ready batch, not here.
#[inline]
fn compute_recorded<A: DpApp>(
    shared: &Shared<A>,
    slot: usize,
    wid: u16,
    id: VertexId,
    compute: impl FnOnce() -> A::Value,
) -> A::Value {
    if !shared.recorder.enabled() {
        return compute();
    }
    let start_ns = shared.recorder.now_ns();
    let value = compute();
    // End on the recorder clock, not an extrapolated `start + elapsed`
    // from a second clock: that can overshoot past the next span's start
    // on the same worker, breaking the nesting oracle.
    shared.recorder.span(
        shared.dist.places()[slot].0,
        wid,
        EventKind::VertexCompute,
        start_ns,
        shared.recorder.now_ns(),
        id.pack(),
    );
    value
}

/// Executes one owned ready vertex: gather → (maybe ship) → compute →
/// publish.
fn execute<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    li: u32,
    bufs: &mut WorkerBufs,
) {
    let shard = &shared.shards[slot];
    let (i, j) = shard.points[li as usize];
    let id = VertexId::new(i, j);
    debug_assert!(shard.in_pattern[li as usize]);
    if shard.finished[li as usize].load(Ordering::Acquire) {
        return;
    }

    if shared.agg.is_some() {
        execute_ranged(shared, slot, wid, li, id, bufs);
        return;
    }

    bufs.deps.clear();
    shared.pattern.dependencies(i, j, &mut bufs.deps);

    let Some(values) = gather(shared, slot, wid, li, &bufs.deps) else {
        return; // parked awaiting pulls
    };

    let me = shared.dist.places()[slot];
    let target = match shared.schedule {
        ScheduleStrategy::Local | ScheduleStrategy::WorkStealing => me,
        ScheduleStrategy::Random => random_choice(id, shared.dist.places()),
        ScheduleStrategy::MinComm => {
            let homes: Vec<PlaceId> = bufs
                .deps
                .iter()
                .map(|d| shared.dist.place_of(d.i, d.j))
                .collect();
            let bytes: Vec<usize> = values.iter().map(Codec::wire_size).collect();
            let result_bytes = values.first().map_or(8, |v| v.wire_size());
            min_comm_choice(
                me,
                shared.dist.places(),
                &homes,
                &bytes,
                result_bytes,
                &shared.topo,
                &shared.net,
            )
        }
    };

    if target != me && shared.liveness.is_alive(target) {
        let msg = Msg::Exec {
            id,
            dep_ids: bufs.deps.clone(),
            dep_values: values,
        };
        shared.send(me, target, msg);
        return;
    }

    let view = DepView::new(&bufs.deps, &values);
    let value = compute_recorded(shared, slot, wid, id, || shared.app.compute(id, &view));
    publish(shared, slot, li, id, value, bufs);
}

/// The nested-dataflow execute path: point dependencies gather like any
/// classic edge, while interval dependencies are answered by the place's
/// prefix lanes in O(1).
///
/// By the indegree-zero guarantee, every interval cell's value has
/// already been delivered to this place (local publish, `Done` or
/// `PushVal`) and folded into the lanes — *except* cells prefinished in
/// an earlier epoch whose values live on another place (the socket
/// engine's meta-only restores). Those show up in `interval_missing`,
/// ride the classic park-and-pull machinery alongside the point deps,
/// and are folded when the `PullVal` replies land, after which the
/// re-readied vertex finds its lanes complete.
///
/// Always computes locally: the lanes are place-resident state, so the
/// remote-execution schedules (`Random`/`MinComm`) and their `Msg::Exec`
/// shipping don't apply here.
fn execute_ranged<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    li: u32,
    id: VertexId,
    bufs: &mut WorkerBufs,
) {
    let shard = &shared.shards[slot];
    let range = shared
        .pattern
        .as_range()
        .expect("agg mode implies an interval view");
    let table = shard.aggs.as_ref().expect("agg mode implies lanes");

    bufs.deps.clear();
    range.point_deps(id.i, id.j, &mut bufs.deps);
    let n_points = bufs.deps.len();
    let mut ivs: Vec<DepInterval> = Vec::with_capacity(2);
    range.dep_intervals(id.i, id.j, &mut ivs);
    for &iv in &ivs {
        table.interval_missing(iv, &mut bufs.deps);
    }

    let Some(values) = gather(shared, slot, wid, li, &bufs.deps) else {
        return; // parked awaiting pulls (points and/or lane gaps)
    };
    // Fold everything gathered: the lane-gap cells need it, the point
    // cells are harmless thanks to per-cell idempotence.
    for (k, d) in bufs.deps.iter().enumerate() {
        agg_record(shared, slot, *d, &values[k]);
    }

    let view = DepView::new(&bufs.deps[..n_points], &values[..n_points]);
    debug_assert!(
        ivs.iter().all(|iv| table.interval_prefix(*iv).is_some()),
        "lanes incomplete at zero indegree for {id}"
    );
    let aggs = AggView::new(table);
    let value = compute_recorded(shared, slot, wid, id, || {
        shared.app.compute_ranged(id, &view, &aggs)
    });
    publish(shared, slot, li, id, value, bufs);
}

/// Gathers dependency values: local reads, then cache, then previously
/// pulled fills; parks the vertex and issues pulls for anything missing.
///
/// Local values are read with no lock, the cache lock is taken at the
/// first remote dependency only, and a gather that finds every value
/// takes the `pending` lock only while some vertex of the shard is
/// parked (otherwise this one has no parked entry to drop).
fn gather<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
    li: u32,
    deps: &[VertexId],
) -> Option<Vec<A::Value>> {
    let shard = &shared.shards[slot];
    if deps.is_empty() {
        return Some(Vec::new());
    }
    let me = shared.dist.places()[slot];

    let mut vals: Vec<Option<A::Value>> = Vec::with_capacity(deps.len());
    {
        let mut cache = None;
        for d in deps {
            if shared.dist.slot_of(d.i, d.j) == slot {
                let dli = local_index(&shared.dist, *d);
                vals.push(Some(shard.value(dli).clone()));
            } else if let Some(v) = cache
                .get_or_insert_with(|| shard.cache.lock())
                .get(d.pack())
            {
                shared.stats.place(me).on_cache_hit();
                shared
                    .recorder
                    .instant_now(me.0, wid, EventKind::CacheHit, d.pack());
                vals.push(Some(v.clone()));
            } else {
                vals.push(None);
            }
        }
    }

    if vals.iter().all(Option::is_some) {
        if shard.parked_len() != 0 {
            shard.lock_pending().parked.remove(&li);
        }
        return Some(vals.into_iter().map(Option::unwrap).collect());
    }

    // Try previously pulled (or eagerly pushed) fills, then park for the
    // rest. Consuming a pushed fill is the round-trip the push saved; it
    // demotes to Pulled so a later re-gather of a still-parked vertex
    // doesn't count it twice.
    let mut pending = shard.lock_pending();
    if let Some(p) = pending.parked.get_mut(&li) {
        for (k, d) in deps.iter().enumerate() {
            if vals[k].is_none() {
                if let Some(fill) = p.fills.get_mut(&d.pack()) {
                    if let Fill::Pushed(v) = fill {
                        let v = v.clone();
                        shared.stats.place(me).on_pull_roundtrip_avoided();
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
        return Some(vals.into_iter().map(Option::unwrap).collect());
    }

    let mut newly_missing: Vec<VertexId> = Vec::new();
    {
        let entry = pending
            .parked
            .entry(li)
            .or_insert_with(|| crate::state::Parked {
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
    let mut to_pull: Vec<VertexId> = Vec::new();
    for d in newly_missing {
        let waiters = pending.waiters.entry(d.pack()).or_default();
        if waiters.is_empty() {
            to_pull.push(d);
        } else {
            // The dedup hub: an identical pull is already in flight, so
            // this waiter rides it instead of re-asking the owner.
            shared.stats.place(me).on_pull_deduped();
        }
        waiters.push(li);
    }
    drop(pending);

    for d in &to_pull {
        shared.stats.place(me).on_cache_miss();
        shared.stats.place(me).on_pull_sent();
        shared
            .recorder
            .instant_now(me.0, wid, EventKind::CacheMiss, d.pack());
        shared
            .recorder
            .instant_now(me.0, wid, EventKind::PullIssue, d.pack());
        let owner = shared.dist.place_of(d.i, d.j);
        shared.send(me, owner, Msg::Pull { id: *d });
    }
    None
}

/// Publishes a computed value: store, flag, count, and decrement
/// anti-dependencies (locally or by message). Termination and planned
/// faults follow from the count in [`check_progress`].
fn publish<A: DpApp>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    li: u32,
    id: VertexId,
    value: A::Value,
    bufs: &mut WorkerBufs,
) {
    let shard = &shared.shards[slot];
    shard.values[li as usize].set(value.clone()).ok();
    if shard.finished[li as usize].swap(true, Ordering::AcqRel) {
        return; // double publication guard
    }
    // Fold the local cell before any dependent can become ready.
    agg_record(shared, slot, id, &value);
    shard.finished_local.fetch_add(1, Ordering::Relaxed);
    if let Some(ckpt) = &shared.checkpoint {
        ckpt.on_publish(shared.dist.places()[slot], id, &value);
    }

    bufs.anti.clear();
    shared.pattern.anti_dependencies(id.i, id.j, &mut bufs.anti);

    let me = shared.dist.places()[slot];
    for t in &bufs.anti {
        let tslot = shared.dist.slot_of(t.i, t.j);
        if tslot == slot {
            decrement(shared.as_ref(), slot, *t);
        } else {
            bufs.groups
                .entry(shared.dist.places()[tslot].0)
                .or_default()
                .push(*t);
        }
    }
    for (q, targets) in bufs.groups.drain() {
        let msg = match shared.comms {
            CommsMode::Pull => Msg::Done {
                from: id,
                value: value.clone(),
                targets,
            },
            // Push mode: same decrements, but the receiver pins the
            // value for its parked dependents instead of hoping the
            // cache keeps it.
            CommsMode::Push => {
                shared.stats.place(me).on_push_sent();
                Msg::PushVal {
                    from: id,
                    value: value.clone(),
                    targets,
                }
            }
        };
        shared.send(me, PlaceId(q), msg);
    }

    // An armed kill must fire at exactly its finished count, so while
    // one is pending every publish checks on its own.
    if shared
        .fault_plan
        .iter()
        .any(|t| !t.fired.load(Ordering::Relaxed))
    {
        check_progress(shared);
    }
}
