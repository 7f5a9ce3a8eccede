//! The multi-job scheduler: serve many independent DP jobs over one
//! shared socket mesh.
//!
//! The one-shot engines tear the world down after a single DAG. A
//! service cannot: the ROADMAP's "heavy traffic" north-star needs many
//! jobs admitted, scheduled and recovered concurrently over a mesh that
//! outlives all of them. [`JobServer`] provides that layer:
//!
//! * **Namespacing** — every frame of a served job travels wrapped in
//!   [`Wire::Job`]`(job_id, …)`, so one demux thread per place routes
//!   traffic to per-job channels and one job's abort or park can never
//!   destroy another job's frames. Bare (unwrapped) legacy frames are
//!   treated as job 0, keeping a serve demux tolerant of pre-job peers.
//! * **Admission** — jobs run in a deterministic (priority descending,
//!   submission order ascending) sequence with at most
//!   [`JobServer::with_max_in_flight`] drivers live per place, and
//!   [`JobServer::submit`] applies backpressure once the queue holds
//!   [`JobServer::with_max_queue`] jobs. Every place computes the same
//!   order from the same specs, so no cross-place negotiation is needed:
//!   the globally least unfinished job is admitted at every participant,
//!   which makes the cap deadlock-free.
//! * **Shared worker pool** — one small pool of threads per place
//!   services *all* admitted jobs round-robin via
//!   [`crate::engine`]'s budgeted `worker_rounds`, so a wide job cannot
//!   starve a narrow one of compute threads.
//! * **Fault isolation** — liveness is mesh-level, recovery is per-job:
//!   a place death triggers the §VI-D recovery protocol only for jobs
//!   whose placement contains the dead place; everything else keeps
//!   running undisturbed on its own epoch chain.
//!
//! Place 0 coordinates every job (placements must include it) and is
//! the only place that returns a [`ServeReport`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::mailbox::Envelope;
use dpx10_apgas::{
    ChaosRng, CoalesceConfig, CoalescingTransport, DeadPlaceError, PlaceId, SocketConfig,
    SocketNode, Transport,
};
use dpx10_dag::{validate_pattern, DagPattern, VertexId};
use dpx10_distarray::{recover, Dist, DistArray, RecoveryCostModel, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::{unbounded, Receiver, Sender};

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::EngineConfig;
use crate::engine::{worker_rounds, Shared, WorkerBufs};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::socket_engine::{downgrade_schedule, AppPlane, Wire};
use crate::state::{build_shards, collect_array};
use crate::stats::{RunReport, ScheduleDowngrade};

/// A job's control-frame receiver: `(src, unwrapped frame)`.
type CtlReceiver<V> = Receiver<(PlaceId, Wire<V>)>;

/// What a job's driver thread hands back: `Ok(Some)` only on place 0.
type JobResult<V> = Result<Option<DagResult<V>>, EngineError>;

/// How long a worker place waits for its per-job release after sending a
/// snapshot (mirrors the single-job engine's deadline).
const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(60);

/// How often a worker place re-sends unchanged per-job progress.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(50);

/// One job of a serve: a DP application over a pattern, with its own
/// engine configuration, an admission priority and an optional placement
/// restricted to a subset of the mesh.
pub struct JobSpec<A: DpApp> {
    /// Human-readable label, echoed in the [`ServeReport`].
    pub name: String,
    /// The application computing each vertex.
    pub app: Arc<A>,
    /// The dependency pattern the job solves.
    pub pattern: Arc<dyn DagPattern>,
    /// Per-job engine configuration. Its topology must have exactly as
    /// many places as the job's placement; checkpointing and fault plans
    /// are serve-level concerns and get cleared at admission.
    pub config: EngineConfig,
    /// Admission priority: higher runs earlier. Ties break by
    /// submission order.
    pub priority: u8,
    /// `Some` pins the job to a subset of the mesh (must include place
    /// 0, the per-job coordinator); `None` uses every place.
    pub places: Option<Vec<PlaceId>>,
}

impl<A: DpApp> JobSpec<A> {
    /// A job named `name` running `app` over `pattern` with `config`,
    /// at priority 0, on every place of the mesh.
    pub fn new(
        name: impl Into<String>,
        app: A,
        pattern: impl DagPattern + 'static,
        config: EngineConfig,
    ) -> Self {
        JobSpec {
            name: name.into(),
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            priority: 0,
            places: None,
        }
    }

    /// Sets the admission priority (higher runs earlier).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Pins the job to `places` (must include place 0).
    pub fn pinned_to(mut self, places: Vec<PlaceId>) -> Self {
        self.places = Some(places);
        self
    }
}

/// A serve-level planned fault: the victim place crashes once it has
/// published `after_vertices` vertices across *all* jobs it hosts —
/// chaos for the multi-job recovery path, analogous to the single-job
/// [`crate::config::FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct ServeKill {
    /// The place that dies (never place 0).
    pub place: PlaceId,
    /// Vertices the victim publishes (summed over jobs) before dying.
    pub after_vertices: u64,
}

/// One job's fate in a finished serve.
pub struct JobOutcome<V: VertexValue> {
    /// The job's id (its submission index).
    pub job_id: u32,
    /// The spec's name.
    pub name: String,
    /// The spec's priority.
    pub priority: u8,
    /// Time the job spent queued between serve start and admission.
    pub wait: Duration,
    /// The job's result, exactly as a solo run would report it (per-job
    /// epochs and recoveries included). Communication counters are
    /// mesh-level and not attributed per job, so `report().comm` stays
    /// at its default here.
    pub result: Result<DagResult<V>, EngineError>,
}

/// What [`JobServer::serve`] returns on place 0: every job's outcome in
/// submission order, plus scheduler-level counters.
pub struct ServeReport<V: VertexValue> {
    /// Per-job outcomes, indexed by job id.
    pub jobs: Vec<JobOutcome<V>>,
    /// The largest number of jobs that were in flight at once on
    /// place 0 (which participates in every job).
    pub peak_in_flight: usize,
}

impl<V: VertexValue> ServeReport<V> {
    /// Number of jobs that finished with a result.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_ok()).count()
    }
}

/// Serves a batch of DP jobs over one socket mesh. Construct and submit
/// identically on every place process, then call
/// [`serve`](JobServer::serve) with that process's [`SocketConfig`] —
/// the same calling convention as [`crate::SocketEngine::run`].
pub struct JobServer<A: DpApp> {
    jobs: Vec<JobSpec<A>>,
    max_in_flight: usize,
    max_queue: usize,
    pool_threads: Option<usize>,
    soft_die: bool,
    kill: Option<ServeKill>,
    recorder: Recorder,
}

impl<A: DpApp + 'static> Default for JobServer<A> {
    fn default() -> Self {
        JobServer::new()
    }
}

impl<A: DpApp + 'static> JobServer<A> {
    /// An empty server: up to 4 jobs in flight, a 64-job queue.
    pub fn new() -> Self {
        JobServer {
            jobs: Vec::new(),
            max_in_flight: 4,
            max_queue: 64,
            pool_threads: None,
            soft_die: false,
            kill: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Caps how many jobs run concurrently on each place (min 1).
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Caps the admission queue; [`submit`](JobServer::submit) rejects
    /// past it (backpressure).
    pub fn with_max_queue(mut self, n: usize) -> Self {
        self.max_queue = n.max(1);
        self
    }

    /// Overrides the shared worker-pool size per place (default: the
    /// largest `threads_per_place` among the submitted jobs' topologies).
    pub fn with_pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = Some(n.max(1));
        self
    }

    /// Makes a planned kill crash the victim's *sockets* instead of the
    /// process — required when places are threads of one test process
    /// (see [`crate::SocketEngine::with_soft_die`]).
    pub fn with_soft_die(mut self) -> Self {
        self.soft_die = true;
        self
    }

    /// Arms a serve-level planned fault (see [`ServeKill`]).
    pub fn with_kill(mut self, kill: ServeKill) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Attaches a flight recorder; admissions, completions and every
    /// job's engine events land in this place's ring, with each job's
    /// pool work on its own track.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues a job and returns its id (the submission index), or
    /// rejects it when the queue is full — the submitter must retry
    /// later rather than pile up unbounded work.
    pub fn submit(&mut self, spec: JobSpec<A>) -> Result<u32, EngineError> {
        if self.jobs.len() >= self.max_queue {
            return Err(EngineError::Job(format!(
                "admission queue is full ({} jobs); retry after a serve",
                self.jobs.len()
            )));
        }
        self.jobs.push(spec);
        Ok((self.jobs.len() - 1) as u32)
    }

    /// Joins the mesh and serves every queued job to completion.
    ///
    /// Returns `Ok(Some(report))` on place 0 and `Ok(None)` elsewhere.
    /// Every place must call `serve` with an identically-built server
    /// (same jobs, same order) — admission order is derived
    /// deterministically from the specs on each place independently.
    pub fn serve(
        &self,
        socket: SocketConfig,
    ) -> Result<Option<ServeReport<A::Value>>, EngineError> {
        if self.jobs.is_empty() {
            return Err(EngineError::Job("no jobs submitted".into()));
        }
        let recorder = self.recorder.clone();
        let mut socket = socket;
        if !socket.recorder.enabled() {
            socket.recorder = recorder.clone();
        }
        let node = Arc::new(
            SocketNode::connect(socket)
                .map_err(|e| EngineError::Socket(format!("mesh formation failed: {e}")))?,
        );
        let me = node.me();
        let places = node.places();
        // Every place validates the same specs the same way; an invalid
        // serve fails identically everywhere, tearing the mesh down
        // symmetrically. Validation runs against the live roster, not
        // the founding count — slots drained out of an elastic mesh are
        // not schedulable.
        let members = node.roster().members();
        let placements = match self.resolve_placements(&members) {
            Ok(p) => p,
            Err(e) => {
                node.shutdown();
                return Err(e);
            }
        };
        if let Some(kill) = self.kill {
            if kill.place == PlaceId::ZERO || kill.place.index() >= places as usize {
                node.shutdown();
                return Err(EngineError::BadFaultPlan(format!(
                    "{} is not a killable place",
                    kill.place
                )));
            }
        }

        // Per-job channels and planes exist before any job is admitted,
        // so traffic from a place that admitted a job earlier than us
        // buffers in the job's own channel instead of being lost (or
        // worse, read by another job).
        let njobs = self.jobs.len();
        let mut app_txs = Vec::with_capacity(njobs);
        let mut ctl_txs = Vec::with_capacity(njobs);
        let mut planes = Vec::with_capacity(njobs);
        let mut ctl_rxs: Vec<Option<CtlReceiver<A::Value>>> = Vec::with_capacity(njobs);
        for j in 0..njobs {
            let (app_tx, app_rx) = unbounded();
            let (ctl_tx, ctl_rx) = unbounded();
            app_txs.push(app_tx);
            ctl_txs.push(ctl_tx);
            planes.push(Arc::new(AppPlane::new(
                node.clone(),
                app_rx,
                Some(j as u32),
            )));
            ctl_rxs.push(Some(ctl_rx));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let dying = Arc::new(AtomicBool::new(false));
        let served_done = Arc::new(AtomicBool::new(false));
        let demux = {
            let node = node.clone();
            let routes = JobRoutes {
                app: app_txs,
                ctl: ctl_txs,
            };
            let (stop, dying, served_done) = (stop.clone(), dying.clone(), served_done.clone());
            let soft_die = self.soft_die;
            std::thread::Builder::new()
                .name(format!("dpx10-serve-demux{}", me.index()))
                .spawn(move || serve_demux(node, routes, stop, dying, served_done, soft_die))
                .map_err(|e| EngineError::Socket(format!("spawn demux: {e}")))?
        };

        let pool = Arc::new(JobPool::new(njobs));
        let threads = self
            .pool_threads
            .unwrap_or_else(|| {
                self.jobs
                    .iter()
                    .map(|s| s.config.topology.threads_per_place as usize)
                    .max()
                    .unwrap_or(1)
            })
            .max(1);
        let mut pool_handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let (pool, dying) = (pool.clone(), dying.clone());
            // A thread-spawn failure past this point would strand peers
            // mid-protocol; dying loudly lets the mesh detect us.
            let handle = std::thread::Builder::new()
                .name(format!("dpx10-pool-p{}w{t}", me.index()))
                .spawn(move || pool_loop(pool, me, t, dying))
                .expect("spawn pool worker");
            pool_handles.push(handle);
        }

        let watchdog = self.kill.filter(|k| k.place == me).map(|kill| {
            let (pool, node, dying, stop) =
                (pool.clone(), node.clone(), dying.clone(), stop.clone());
            let (soft_die, recorder) = (self.soft_die, recorder.clone());
            std::thread::Builder::new()
                .name(format!("dpx10-kill-p{}", me.index()))
                .spawn(move || {
                    kill_watchdog(
                        pool,
                        node,
                        dying,
                        stop,
                        kill.after_vertices,
                        soft_die,
                        recorder,
                    )
                })
                .expect("spawn kill watchdog")
        });

        // Deterministic admission order: priority descending, submission
        // id ascending — identical on every place by construction.
        let mut order: Vec<usize> = (0..njobs).collect();
        order.sort_by_key(|&j| (std::cmp::Reverse(self.jobs[j].priority), j));
        let my_jobs: Vec<usize> = order
            .into_iter()
            .filter(|&j| placements[j].contains(&me))
            .collect();

        let serve_start = Instant::now();
        let (done_tx, done_rx) = unbounded();
        let mut next = 0usize;
        let mut running = 0usize;
        let mut peak = 0usize;
        let mut waits: Vec<Duration> = vec![Duration::ZERO; njobs];
        let mut results: Vec<Option<JobResult<A::Value>>> = (0..njobs).map(|_| None).collect();
        let mut driver_handles = Vec::with_capacity(my_jobs.len());

        while next < my_jobs.len() || running > 0 {
            while next < my_jobs.len() && running < self.max_in_flight {
                let j = my_jobs[next];
                next += 1;
                waits[j] = serve_start.elapsed();
                recorder.instant_now(me.0, RUNTIME_WORKER, EventKind::JobAdmit, j as u64);
                let spec = &self.jobs[j];
                let mut config = spec.config.clone();
                let downgrade = downgrade_schedule(&mut config);
                // Serve-level concerns: checkpoint writers assume one
                // process owns all places' files, and faults are injected
                // by `ServeKill`, not per job.
                config.checkpoint = None;
                config.fault = None;
                config.chaos = None;
                let runner = JobRunner {
                    job_id: j as u32,
                    app: spec.app.clone(),
                    pattern: spec.pattern.clone(),
                    config,
                    placement: placements[j].clone(),
                    node: node.clone(),
                    plane: planes[j].clone(),
                    ctl_rx: ctl_rxs[j].take().expect("each job is admitted once"),
                    me,
                    pool: pool.clone(),
                    dying: dying.clone(),
                    recorder: recorder.clone(),
                    downgrade,
                };
                let tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("dpx10-job{j}p{}", me.index()))
                    .spawn(move || {
                        let result = runner.run();
                        runner.release();
                        let _ = tx.send((runner.job_id, result));
                    })
                    .expect("spawn job driver");
                driver_handles.push(handle);
                running += 1;
                peak = peak.max(running);
            }
            if let Ok((jid, result)) = done_rx.recv_timeout(Duration::from_millis(5)) {
                running -= 1;
                recorder.instant_now(me.0, RUNTIME_WORKER, EventKind::JobDone, u64::from(jid));
                results[jid as usize] = Some(result);
            }
        }

        if me == PlaceId::ZERO {
            // Place 0 coordinates every job, so all jobs are over: the
            // serve-level goodbye releases the worker places — the live
            // roster, not `1..places`, which would address drained slots.
            for p in node.roster().members() {
                if p != me {
                    let _ = node.send_bytes(p, encode_to_vec(&Wire::<A::Value>::Done));
                }
            }
        } else {
            // Other places' connections must outlive the jobs they are
            // *not* in: tearing down early would read as a crash to any
            // peer still mid-epoch. Wait for the goodbye — with an
            // orphan deadline, because a place the coordinator falsely
            // wrote off can no longer be addressed and would wait
            // forever (same escape as the single-job snapshot wait).
            let orphan_deadline = Instant::now() + SNAPSHOT_DEADLINE;
            while !served_done.load(Ordering::Acquire)
                && !dying.load(Ordering::Acquire)
                && node.liveness().is_alive(PlaceId::ZERO)
                && Instant::now() < orphan_deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        stop.store(true, Ordering::Release);
        pool.shutdown.store(true, Ordering::Release);
        for h in driver_handles {
            let _ = h.join();
        }
        for h in pool_handles {
            let _ = h.join();
        }
        node.shutdown();
        let _ = demux.join();
        if let Some(w) = watchdog {
            let _ = w.join();
        }

        if me != PlaceId::ZERO {
            return Ok(None);
        }
        let jobs = results
            .into_iter()
            .enumerate()
            .map(|(j, r)| JobOutcome {
                job_id: j as u32,
                name: self.jobs[j].name.clone(),
                priority: self.jobs[j].priority,
                wait: waits[j],
                result: match r {
                    Some(Ok(Some(result))) => Ok(result),
                    Some(Ok(None)) => Err(EngineError::Job("job ended without a result".into())),
                    Some(Err(e)) => Err(e),
                    None => Err(EngineError::Job("job was never admitted".into())),
                },
            })
            .collect();
        Ok(Some(ServeReport {
            jobs,
            peak_in_flight: peak,
        }))
    }

    /// Resolves, sorts and checks every job's placement against the
    /// mesh's *live roster* — an elastic mesh may have drained or dead
    /// slots below its capacity, and a pin to one of those must be
    /// rejected, not discovered as a hang.
    fn resolve_placements(&self, members: &[PlaceId]) -> Result<Vec<Vec<PlaceId>>, EngineError> {
        let mut placements = Vec::with_capacity(self.jobs.len());
        for (j, spec) in self.jobs.iter().enumerate() {
            let mut placement = spec.places.clone().unwrap_or_else(|| members.to_vec());
            placement.sort_unstable();
            placement.dedup();
            if placement.first() != Some(&PlaceId::ZERO) {
                return Err(EngineError::Job(format!(
                    "job {j} ({}) must include place 0, its coordinator",
                    spec.name
                )));
            }
            if let Some(p) = placement.iter().find(|p| !members.contains(p)) {
                return Err(EngineError::Job(format!(
                    "job {j} ({}) is pinned to {p}, not a live member of the mesh",
                    spec.name
                )));
            }
            if spec.config.topology.num_places() as usize != placement.len() {
                return Err(EngineError::Job(format!(
                    "job {j} ({}): topology has {} places but the placement has {}",
                    spec.name,
                    spec.config.topology.num_places(),
                    placement.len()
                )));
            }
            let total = spec.pattern.vertex_count();
            if spec.config.validate_pattern && total <= spec.config.validate_limit {
                validate_pattern(spec.pattern.as_ref())?;
            }
            placements.push(placement);
        }
        Ok(placements)
    }
}

/// Per-job routing table of the serve demux.
struct JobRoutes<V> {
    app: Vec<Sender<(u32, Envelope<Msg<V>>)>>,
    ctl: Vec<Sender<(PlaceId, Wire<V>)>>,
}

/// Reads raw frames off the mesh and routes them to the owning job's
/// channels. Bare `Die`/`Done` frames are mesh-level (planned fault /
/// serve shutdown); any other bare frame is legacy single-job traffic
/// and lands on job 0. Unknown job ids and undecodable payloads follow
/// the single-job policy: the former are dropped, the latter mark the
/// sender dead.
fn serve_demux<V: VertexValue>(
    node: Arc<SocketNode>,
    routes: JobRoutes<V>,
    stop: Arc<AtomicBool>,
    dying: Arc<AtomicBool>,
    served_done: Arc<AtomicBool>,
    soft_die: bool,
) {
    while !stop.load(Ordering::Acquire) {
        let Some((src, bytes)) = node.recv_bytes_timeout(Duration::from_millis(5)) else {
            continue;
        };
        let routed = match decode_exact::<Wire<V>>(&bytes) {
            Some(Wire::Job(job, inner)) => Some((job as usize, *inner)),
            Some(Wire::Die) => {
                dying.store(true, Ordering::Release);
                if soft_die {
                    node.crash();
                } else {
                    std::process::abort();
                }
                None
            }
            Some(Wire::Done) => {
                served_done.store(true, Ordering::Release);
                None
            }
            Some(legacy) => Some((0, legacy)),
            None => {
                node.liveness().mark_dead(src);
                None
            }
        };
        let Some((job, wire)) = routed else { continue };
        if job >= routes.app.len() {
            continue;
        }
        match wire {
            Wire::App(epoch, msg) => {
                let _ = routes.app[job].send((epoch, Envelope { src, msg }));
            }
            other => {
                let _ = routes.ctl[job].send((src, other));
            }
        }
    }
}

/// The shared worker pool of one place: one slot per job, each holding
/// the job's current epoch state while an epoch is live. Pool threads
/// sweep the slots round-robin so every live job advances.
struct JobPool<A: DpApp> {
    slots: Vec<PoolSlot<A>>,
    /// Vertices this place published in *finished* epochs, all jobs
    /// (live epochs add their `computed` on top; see
    /// [`published`](JobPool::published)).
    published_base: AtomicU64,
    shutdown: AtomicBool,
}

struct PoolSlot<A: DpApp> {
    work: dpx10_sync::Mutex<Option<(Arc<Shared<A>>, usize)>>,
    /// Pool threads currently inside this slot's `worker_rounds`; the
    /// detach barrier spins on it reaching zero.
    busy: AtomicUsize,
}

impl<A: DpApp> JobPool<A> {
    fn new(jobs: usize) -> Self {
        JobPool {
            slots: (0..jobs)
                .map(|_| PoolSlot {
                    work: dpx10_sync::Mutex::new(None),
                    busy: AtomicUsize::new(0),
                })
                .collect(),
            published_base: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Hands an epoch's shared state to the pool.
    fn attach(&self, job: u32, shared: Arc<Shared<A>>, slot: usize) {
        *self.slots[job as usize].work.lock() = Some((shared, slot));
    }

    /// Withdraws a job's epoch from the pool and waits until no pool
    /// thread still works on it — the quiescence barrier that replaces
    /// the single-job engine's thread join between epochs.
    fn detach(&self, job: u32) {
        let slot = &self.slots[job as usize];
        *slot.work.lock() = None;
        while slot.busy.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Vertices this place has published across all jobs so far.
    fn published(&self) -> u64 {
        let mut sum = self.published_base.load(Ordering::Relaxed);
        for slot in &self.slots {
            if let Some((shared, _)) = &*slot.work.lock() {
                sum += shared.computed();
            }
        }
        sum
    }
}

/// The trace track a pool thread records a job's vertex events onto:
/// high-numbered and keyed by `(job, thread)`, so each job's compute
/// shows up as its own track and never collides with the single-job
/// engines' sequential worker ids.
fn job_track(job: usize, tid: usize) -> u16 {
    0x4A00 | (((job as u16) & 0x3F) << 3) | ((tid as u16) & 0x7)
}

/// One pool thread: sweep every job slot, run one budgeted
/// `worker_rounds` per live slot, idle briefly when nothing anywhere
/// made progress. Per-slot idle counters drive the coalescing layer's
/// idle flush exactly as the single-job worker loop does.
fn pool_loop<A: DpApp>(pool: Arc<JobPool<A>>, me: PlaceId, tid: usize, dying: Arc<AtomicBool>) {
    let mut bufs = WorkerBufs::default();
    let mut no_shake: Option<ChaosRng> = None;
    let mut idle: Vec<u32> = vec![0; pool.slots.len()];
    while !pool.shutdown.load(Ordering::Acquire) && !dying.load(Ordering::Acquire) {
        let mut any = false;
        for (j, slot) in pool.slots.iter().enumerate() {
            // Lease under the lock *and* bump `busy` before releasing it,
            // so the detach barrier can never observe zero while a clone
            // of the epoch state is about to be worked on.
            let leased = {
                let guard = slot.work.lock();
                match &*guard {
                    Some((shared, s)) => {
                        slot.busy.fetch_add(1, Ordering::AcqRel);
                        Some((shared.clone(), *s))
                    }
                    None => None,
                }
            };
            let Some((shared, s)) = leased else {
                idle[j] = 0;
                continue;
            };
            let mut progress = false;
            if !shared.should_stop() {
                progress = worker_rounds(&shared, s, job_track(j, tid), &mut bufs, &mut no_shake);
            }
            if progress {
                any = true;
                idle[j] = 0;
            } else {
                idle[j] = idle[j].saturating_add(1);
                if idle[j] == 1 || idle[j] % 8 == 0 {
                    shared.transport.flush(me);
                }
            }
            slot.busy.fetch_sub(1, Ordering::AcqRel);
        }
        if !any {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The victim place's self-inflicted planned fault: once this place has
/// published the armed number of vertices across all jobs, crash —
/// peers *detect* the death (heartbeats), exactly like a SIGKILL.
#[allow(clippy::too_many_arguments)]
fn kill_watchdog<A: DpApp>(
    pool: Arc<JobPool<A>>,
    node: Arc<SocketNode>,
    dying: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    after_vertices: u64,
    soft_die: bool,
    recorder: Recorder,
) {
    while !stop.load(Ordering::Acquire) && !dying.load(Ordering::Acquire) {
        if pool.published() >= after_vertices {
            recorder.instant_now(
                node.me().0,
                RUNTIME_WORKER,
                EventKind::CtlDie,
                after_vertices,
            );
            dying.store(true, Ordering::Release);
            if soft_die {
                node.crash();
            } else {
                std::process::abort();
            }
            return;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// What a per-job control loop decided the epoch's fate is — the
/// multi-job twin of the socket engine's flow states.
enum JobFlow<V> {
    Finished,
    Fault,
    Stalled {
        finished: u64,
    },
    WorkerExit,
    WorkerResume {
        alive: Vec<u16>,
        cells: Vec<(u64, V)>,
    },
    Died,
}

/// Drives one job on one place: the per-job epoch loop, isomorphic to
/// the single-job socket engine's driver but with every control frame
/// wrapped in [`Wire::Job`] and the compute delegated to the shared
/// pool instead of private worker threads.
struct JobRunner<A: DpApp> {
    job_id: u32,
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: EngineConfig,
    placement: Vec<PlaceId>,
    node: Arc<SocketNode>,
    plane: Arc<AppPlane<A::Value>>,
    ctl_rx: Receiver<(PlaceId, Wire<A::Value>)>,
    me: PlaceId,
    pool: Arc<JobPool<A>>,
    dying: Arc<AtomicBool>,
    recorder: Recorder,
    downgrade: Option<ScheduleDowngrade>,
}

impl<A: DpApp + 'static> JobRunner<A> {
    /// Sends a job-wrapped control frame.
    fn send_ctl(&self, dst: PlaceId, wire: Wire<A::Value>) -> Result<(), DeadPlaceError> {
        let framed = Wire::Job(self.job_id, Box::new(wire));
        self.node
            .send_bytes(dst, encode_to_vec(&framed))
            .map(|_| ())
    }

    /// Place 0: releases this job's surviving workers, whatever the
    /// outcome was — mirrors the single-job engine's
    /// release-before-goodbye.
    fn release(&self) {
        if self.me != PlaceId::ZERO {
            return;
        }
        for p in self
            .placement
            .iter()
            .filter(|p| **p != self.me && self.node.liveness().is_alive(**p))
        {
            let _ = self.send_ctl(*p, Wire::Done);
        }
    }

    fn run(&self) -> Result<Option<DagResult<A::Value>>, EngineError> {
        if self.dying.load(Ordering::Acquire) {
            return Ok(None);
        }
        let total = self.pattern.vertex_count();
        let region = Region2D::new(self.pattern.height(), self.pattern.width());
        let started = Instant::now();
        let mut report = RunReport {
            vertices_total: total,
            schedule_downgrade: self.downgrade.clone(),
            ..RunReport::default()
        };
        let mut alive: Vec<PlaceId> = self.placement.clone();
        let mut prior: Option<DistArray<A::Value>> = None;
        let mut pending_cells: Option<Vec<(u64, A::Value)>> = None;
        let mut epoch: u32 = 0;

        let final_array = loop {
            report.epochs += 1;
            self.plane.set_epoch(epoch);
            let dist = Arc::new(Dist::new(
                region,
                self.config.dist_kind.clone(),
                alive.clone(),
            ));
            if let Some(cells) = pending_cells.take() {
                let mut arr = DistArray::new(dist.clone());
                for (packed, v) in cells {
                    let id = VertexId::unpack(packed);
                    arr.set(id.i, id.j, v);
                }
                prior = Some(arr);
            }
            let Some(my_slot) = alive.iter().position(|p| *p == self.me) else {
                // The coordinator counted us among this job's dead.
                return Ok(None);
            };
            let agg =
                crate::engine::agg_mode(&self.config, self.app.as_ref(), self.pattern.as_ref());
            let (shards, prefinished) = build_shards(
                self.pattern.as_ref(),
                &dist,
                prior.as_ref(),
                None,
                None,
                self.config.cache_capacity,
                agg,
            );
            if agg.is_some() {
                crate::engine::seed_aggs(self.app.as_ref(), &shards);
            }
            self.recorder.instant_now(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::EpochStart,
                u64::from(epoch),
            );
            if prefinished == total {
                // Deterministic on every participant: all exit silently.
                break collect_array(&shards, &dist);
            }

            let shared = Arc::new(Shared {
                app: self.app.clone(),
                stall_limit: self.config.stall_limit,
                pattern: self.pattern.clone(),
                dist: dist.clone(),
                shards,
                transport: {
                    let base = self.plane.clone() as Arc<dyn Transport<Msg<A::Value>>>;
                    match self.config.coalesce {
                        // A per-job, per-epoch wrapper: coalescing lanes
                        // are keyed by job for free, and an abandoned
                        // epoch's buffered traffic dies with its wrapper.
                        Some(bytes) => Arc::new(CoalescingTransport::new(
                            base,
                            CoalesceConfig::bytes(bytes),
                            self.node.stats().clone(),
                            self.recorder.clone(),
                        )),
                        None => base,
                    }
                },
                topo: self.config.topology,
                net: self.config.network,
                schedule: self.config.schedule,
                liveness: self.node.liveness().clone(),
                stats: self.node.stats().clone(),
                total,
                prefinished,
                done: AtomicBool::new(false),
                fault: AtomicBool::new(false),
                stalled: AtomicBool::new(false),
                // Serve-level faults go through `ServeKill`, never here.
                fault_plan: Vec::new(),
                time_kills: Vec::new(),
                run_started: started,
                shake: None,
                worker_seq: AtomicU64::new(0),
                checkpoint: None,
                recorder: self.recorder.clone(),
                comms: self.config.comms,
                agg,
            });
            self.pool.attach(self.job_id, shared.clone(), my_slot);

            let outcome = if self.me == PlaceId::ZERO {
                self.coordinate(&shared, epoch, &alive, my_slot, total)
            } else {
                self.follow(&shared, epoch, my_slot)
            };
            shared.done.store(true, Ordering::Release); // belt and braces
            self.pool.detach(self.job_id);
            let computed = shared.computed();
            report.vertices_computed += computed;
            self.pool
                .published_base
                .fetch_add(computed, Ordering::Relaxed);

            match outcome? {
                JobFlow::Finished => {
                    let survivors = self.survivors(&alive);
                    for p in &survivors {
                        let _ = self.send_ctl(*p, Wire::Stop { epoch });
                    }
                    let mut arr = collect_array(&shared.shards, &dist);
                    let lost = self.collect_snapshots(epoch, &alive, &mut arr, &mut report);
                    if lost.is_empty() {
                        break arr;
                    }
                    // A place died between the last vertex and its
                    // snapshot: recover and re-run.
                    let restored = self.recover_from(&arr, &lost, &mut report);
                    self.resume_epoch(epoch, &mut alive, &restored);
                    prior = Some(restored);
                    epoch += 1;
                }
                JobFlow::Fault => {
                    let dead: Vec<PlaceId> = alive
                        .iter()
                        .copied()
                        .filter(|p| !self.node.liveness().is_alive(*p))
                        .collect();
                    let dead_u16: Vec<u16> = dead.iter().map(|p| p.0).collect();
                    for p in self.survivors(&alive) {
                        let _ = self.send_ctl(
                            p,
                            Wire::Abort {
                                epoch,
                                dead: dead_u16.clone(),
                            },
                        );
                    }
                    let mut arr = collect_array(&shared.shards, &dist);
                    let lost = self.collect_snapshots(epoch, &alive, &mut arr, &mut report);
                    let mut all_dead = dead;
                    all_dead.extend(lost);
                    all_dead.sort_unstable();
                    all_dead.dedup();
                    let restored = self.recover_from(&arr, &all_dead, &mut report);
                    self.resume_epoch(epoch, &mut alive, &restored);
                    prior = Some(restored);
                    epoch += 1;
                }
                JobFlow::Stalled { finished } => {
                    return Err(EngineError::Stalled { finished, total });
                }
                JobFlow::WorkerExit => return Ok(None),
                JobFlow::Died => return Ok(None),
                JobFlow::WorkerResume {
                    alive: new_alive,
                    cells,
                } => {
                    alive = new_alive.into_iter().map(PlaceId).collect();
                    pending_cells = Some(cells);
                    prior = None;
                    epoch += 1;
                }
            }
        };

        if self.me != PlaceId::ZERO {
            // Worker that left through the all-prefinished short-circuit.
            return Ok(None);
        }
        report.wall_time = started.elapsed();
        let result = DagResult::new(final_array, report);
        self.app.app_finished(&result);
        Ok(Some(result))
    }

    /// Alive peers of this job other than this place.
    fn survivors(&self, alive: &[PlaceId]) -> Vec<PlaceId> {
        alive
            .iter()
            .copied()
            .filter(|p| *p != self.me && self.node.liveness().is_alive(*p))
            .collect()
    }

    /// Place 0's per-job mid-epoch loop: fold progress into the finished
    /// table and decide the epoch's fate. Liveness is consulted only for
    /// this job's places — the fault-isolation pivot: a death elsewhere
    /// in the mesh is not this job's problem.
    fn coordinate(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        alive: &[PlaceId],
        my_slot: usize,
        total: u64,
    ) -> Result<JobFlow<A::Value>, EngineError> {
        let mut table: Vec<u64> = (0..alive.len())
            .map(|s| shared.shards[s].finished_local.load(Ordering::Relaxed))
            .collect();
        let mut last_sum = u64::MAX;
        let mut last_change = Instant::now();
        loop {
            match self.ctl_rx.recv_timeout(Duration::from_millis(2)) {
                Ok((src, Wire::Progress { epoch: e, finished })) if e == epoch => {
                    if let Some(s) = alive.iter().position(|p| *p == src) {
                        table[s] = table[s].max(finished);
                    }
                }
                Ok(_) | Err(_) => {} // stale traffic / timeout tick
            }
            table[my_slot] = shared.shards[my_slot]
                .finished_local
                .load(Ordering::Relaxed);
            let sum: u64 = table.iter().sum();

            let someone_died = alive.iter().any(|p| !self.node.liveness().is_alive(*p));
            if someone_died || shared.fault.load(Ordering::Acquire) {
                shared.fault.store(true, Ordering::Release);
                self.recorder.instant_now(
                    self.me.0,
                    RUNTIME_WORKER,
                    EventKind::Fault,
                    u64::from(epoch),
                );
                return Ok(JobFlow::Fault);
            }
            if sum >= total {
                shared.done.store(true, Ordering::Release);
                self.recorder.instant_now(
                    self.me.0,
                    RUNTIME_WORKER,
                    EventKind::CtlStop,
                    u64::from(epoch),
                );
                return Ok(JobFlow::Finished);
            }

            if sum != last_sum {
                last_sum = sum;
                last_change = Instant::now();
            } else if last_change.elapsed() > shared.stall_limit {
                self.recorder
                    .instant_now(self.me.0, RUNTIME_WORKER, EventKind::Stalled, sum);
                shared.stalled.store(true, Ordering::Release);
                shared.done.store(true, Ordering::Release);
                return Ok(JobFlow::Stalled { finished: sum });
            }
        }
    }

    /// A worker place's per-job mid-epoch loop: stream progress to the
    /// job's coordinator and obey its wrapped control frames. Unlike the
    /// single-job engine there is no `Die` arm — planned deaths are
    /// mesh-level (handled by the demux and the kill watchdog) and show
    /// up here as the `dying` flag.
    fn follow(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        my_slot: usize,
    ) -> Result<JobFlow<A::Value>, EngineError> {
        let mut last_reported = u64::MAX;
        let mut last_progress = Instant::now();
        let mut awaiting_release: Option<Instant> = None;
        loop {
            if self.dying.load(Ordering::Acquire) {
                shared.fault.store(true, Ordering::Release);
                return Ok(JobFlow::Died);
            }
            if !self.node.liveness().is_alive(PlaceId::ZERO) {
                return Err(EngineError::Socket(
                    "place 0 was lost; a job cannot continue without its coordinator".into(),
                ));
            }
            if let Some(since) = awaiting_release {
                if since.elapsed() > SNAPSHOT_DEADLINE {
                    return Err(EngineError::Socket(
                        "no release from the coordinator after snapshot".into(),
                    ));
                }
            }

            match self.ctl_rx.recv_timeout(Duration::from_millis(5)) {
                Ok((_, Wire::Stop { epoch: e })) if e == epoch => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlStop,
                        u64::from(epoch),
                    );
                    shared.done.store(true, Ordering::Release);
                    self.send_snapshot(shared, epoch, my_slot)?;
                    awaiting_release = Some(Instant::now());
                }
                Ok((_, Wire::Abort { epoch: e, dead })) if e == epoch => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlAbort,
                        u64::from(epoch),
                    );
                    for d in dead {
                        self.node.liveness().mark_dead(PlaceId(d));
                    }
                    shared.fault.store(true, Ordering::Release);
                    self.send_snapshot(shared, epoch, my_slot)?;
                    awaiting_release = Some(Instant::now());
                }
                Ok((
                    _,
                    Wire::Resume {
                        epoch: e,
                        alive,
                        cells,
                        // The job server broadcasts full-set Resumes;
                        // the metadata rider is only used by the
                        // single-job socket engine's scatter.
                        meta: _,
                    },
                )) if e == epoch + 1 => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlResume,
                        u64::from(epoch + 1),
                    );
                    return Ok(JobFlow::WorkerResume { alive, cells });
                }
                Ok((_, Wire::Done)) => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlDone,
                        u64::from(epoch),
                    );
                    return Ok(JobFlow::WorkerExit);
                }
                Ok(_) | Err(_) => {}
            }

            let finished = shared.shards[my_slot]
                .finished_local
                .load(Ordering::Relaxed);
            if finished != last_reported || last_progress.elapsed() > PROGRESS_INTERVAL {
                last_reported = finished;
                last_progress = Instant::now();
                let _ = self.send_ctl(PlaceId::ZERO, Wire::Progress { epoch, finished });
            }
        }
    }

    /// Sends this place's per-job slot snapshot to the coordinator.
    /// Counter stats stay empty: the substrate's counters are mesh-level
    /// and already live in the node's stats board; repeating them per
    /// job would double-count them.
    fn send_snapshot(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        my_slot: usize,
    ) -> Result<(), EngineError> {
        // Flush-before-snapshot: this job's buffered coalesced traffic
        // hits the wire (or dies with a dead lane) before the epoch's
        // cells are reported.
        shared.transport.flush(self.me);
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let shard = &shared.shards[my_slot];
        let mut cells = Vec::new();
        for (li, &(i, j)) in shard.points.iter().enumerate() {
            if shard.in_pattern[li] && shard.finished[li].load(Ordering::Acquire) {
                let v = shard.values[li].get().expect("finished => set").clone();
                cells.push((VertexId::new(i, j).pack(), v));
            }
        }
        let sent = cells.len() as u64;
        let result = self
            .send_ctl(
                PlaceId::ZERO,
                Wire::Snapshot {
                    epoch,
                    cells,
                    computed: shared.computed(),
                    stats: Vec::new(),
                },
            )
            .map_err(|e| EngineError::Socket(format!("snapshot delivery failed: {e}")));
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                sent,
            );
        }
        result
    }

    /// Place 0: waits for every live participant's snapshot of this
    /// job, folding cells into `arr`; peers that never answer are marked
    /// dead and returned.
    fn collect_snapshots(
        &self,
        epoch: u32,
        alive: &[PlaceId],
        arr: &mut DistArray<A::Value>,
        report: &mut RunReport,
    ) -> Vec<PlaceId> {
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let mut pending: Vec<PlaceId> = alive.iter().copied().filter(|p| *p != self.me).collect();
        let mut lost = Vec::new();
        let deadline = Instant::now() + SNAPSHOT_DEADLINE;
        loop {
            pending.retain(|p| {
                if self.node.liveness().is_alive(*p) {
                    true
                } else {
                    lost.push(*p);
                    false
                }
            });
            if pending.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                for p in pending.drain(..) {
                    self.node.liveness().mark_dead(p);
                    lost.push(p);
                }
                break;
            }
            let Ok((src, wire)) = self.ctl_rx.recv_timeout(Duration::from_millis(10)) else {
                continue;
            };
            if let Wire::Snapshot {
                epoch: e,
                cells,
                computed,
                ..
            } = wire
            {
                if e != epoch {
                    continue;
                }
                let Some(k) = pending.iter().position(|p| *p == src) else {
                    continue;
                };
                pending.swap_remove(k);
                for (packed, v) in cells {
                    let id = VertexId::unpack(packed);
                    arr.set(id.i, id.j, v);
                }
                report.vertices_computed += computed;
            }
        }
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                lost.len() as u64,
            );
        }
        lost
    }

    /// Place 0: runs the paper's recovery over this job's snapshot.
    fn recover_from(
        &self,
        snapshot: &DistArray<A::Value>,
        dead: &[PlaceId],
        report: &mut RunReport,
    ) -> DistArray<A::Value> {
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let (restored, rec) = recover(
            snapshot,
            dead,
            self.config.restore_manner,
            &self.config.topology,
            &self.config.network,
            &RecoveryCostModel::default(),
        );
        report.recovery_time += rec.sim_time;
        report.recoveries.push(rec);
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::Recovery,
                start,
                self.recorder.now_ns(),
                u64::from(report.epochs),
            );
        }
        restored
    }

    /// Place 0: prunes this job's `alive` list to the survivors and
    /// sends each of them the restored state for the next epoch.
    fn resume_epoch(&self, epoch: u32, alive: &mut Vec<PlaceId>, restored: &DistArray<A::Value>) {
        alive.retain(|p| self.node.liveness().is_alive(*p));
        self.recorder.instant_now(
            self.me.0,
            RUNTIME_WORKER,
            EventKind::CtlResume,
            u64::from(epoch + 1),
        );
        let mut cells = Vec::new();
        let rdist = restored.dist();
        for s in 0..rdist.num_slots() {
            for (i, j, v, finished) in restored.iter_slot(s) {
                if finished {
                    cells.push((VertexId::new(i, j).pack(), v.clone()));
                }
            }
        }
        let alive_u16: Vec<u16> = alive.iter().map(|p| p.0).collect();
        for p in alive.iter().filter(|p| **p != self.me) {
            let _ = self.send_ctl(
                *p,
                Wire::Resume {
                    epoch: epoch + 1,
                    alive: alive_u16.clone(),
                    cells: cells.clone(),
                    // Full-set broadcast: every survivor gets every
                    // cell, so no metadata rider is needed.
                    meta: Vec::new(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DepView;

    struct Nop;
    impl DpApp for Nop {
        type Value = u64;
        fn compute(&self, _id: VertexId, _deps: &DepView<'_, u64>) -> u64 {
            0
        }
    }

    #[test]
    fn submit_applies_backpressure() {
        let mut server: JobServer<Nop> = JobServer::new().with_max_queue(2);
        let spec = || {
            JobSpec::new(
                "j",
                Nop,
                dpx10_dag::builtin::RowWave::new(2, 2),
                EngineConfig::flat(1),
            )
        };
        assert_eq!(server.submit(spec()).unwrap(), 0);
        assert_eq!(server.submit(spec()).unwrap(), 1);
        let err = server.submit(spec()).unwrap_err();
        assert!(matches!(err, EngineError::Job(_)), "{err}");
    }

    #[test]
    fn job_tracks_are_distinct_per_job_and_thread() {
        let mut seen = std::collections::HashSet::new();
        for job in 0..16 {
            for tid in 0..4 {
                assert!(seen.insert(job_track(job, tid)));
            }
        }
        // And they never collide with the runtime track.
        assert!(!seen.contains(&RUNTIME_WORKER));
    }

    #[test]
    fn placement_must_include_place_zero() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(
                JobSpec::new(
                    "pinned-wrong",
                    Nop,
                    dpx10_dag::builtin::RowWave::new(2, 2),
                    EngineConfig::flat(1),
                )
                .pinned_to(vec![PlaceId(1)]),
            )
            .unwrap();
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(1)])
            .unwrap_err();
        assert!(err.to_string().contains("place 0"), "{err}");
    }

    #[test]
    fn placement_must_match_topology() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(JobSpec::new(
                "too-wide",
                Nop,
                dpx10_dag::builtin::RowWave::new(2, 2),
                EngineConfig::flat(3),
            ))
            .unwrap();
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(1)])
            .unwrap_err();
        assert!(matches!(err, EngineError::Job(_)), "{err}");
    }

    #[test]
    fn placement_must_name_live_members_only() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(
                JobSpec::new(
                    "pinned-to-drained",
                    Nop,
                    dpx10_dag::builtin::RowWave::new(2, 2),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        // A 4-capacity mesh where slot 1 drained out: members are 0, 2.
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(2)])
            .unwrap_err();
        assert!(err.to_string().contains("not a live member"), "{err}");
        // The same pin is fine while slot 1 is a member.
        assert!(server
            .resolve_placements(&[PlaceId(0), PlaceId(1), PlaceId(2)])
            .is_ok());
    }
}
