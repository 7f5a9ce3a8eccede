//! The serve loop: many independent DP jobs over one shared socket mesh.
//!
//! Every socket run goes through here — [`crate::SocketEngine::run`] is a
//! one-job serve. The serve loop owns what outlives any one job: the
//! mesh connection, the frame demux, the worker pool and admission. Each
//! admitted job runs the epoch protocol of [`crate::socket_engine`]
//! through its own driver:
//!
//! * **Namespacing** — every frame of a job travels wrapped in
//!   [`Wire::Job`]`(job_id, …)`, so one demux thread per place routes
//!   traffic to per-job channels and one job's abort or park can never
//!   destroy another job's frames. Only `Die` (crash this place) and
//!   `Done` (the serve is over) travel bare.
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
//!   a place death (detected, or a job's planned kill) triggers the
//!   §VI-D recovery protocol only for jobs whose placement contains the
//!   dead place; everything else keeps running undisturbed on its own
//!   epoch chain.
//!
//! Place 0 coordinates every job (placements must include it) and is
//! the only place that returns a [`ServeReport`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dpx10_apgas::codec::encode_to_vec;
use dpx10_apgas::mailbox::Envelope;
use dpx10_apgas::{ChaosRng, PlaceId, SocketConfig, SocketNode};
use dpx10_dag::{validate_pattern, DagPattern};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::{unbounded, Receiver, Sender};

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::{EngineConfig, InitOverride};
use crate::engine::{idle_wait, next_worker, worker_rounds, Shared, WorkerBufs};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::schedule::ScheduleStrategy;
use crate::socket_engine::{decode_frame, AppPlane, Driver, Wire, SNAPSHOT_DEADLINE};
use crate::stats::ScheduleDowngrade;

/// A job's control-frame receiver: `(src, unwrapped frame)`.
type CtlReceiver<V> = Receiver<(PlaceId, Wire<V>)>;

/// What a job's driver hands back: `Ok(Some)` only on place 0.
pub(crate) type JobResult<V> = Result<Option<DagResult<V>>, EngineError>;

/// Applies the socket backend's scheduling restrictions to `config` and
/// returns a record of what changed.
fn downgrade_schedule(config: &mut EngineConfig) -> Option<ScheduleDowngrade> {
    if config.schedule == ScheduleStrategy::WorkStealing {
        config.schedule = ScheduleStrategy::Local;
        return Some(ScheduleDowngrade {
            requested: ScheduleStrategy::WorkStealing,
            effective: ScheduleStrategy::Local,
            reason: "work stealing needs shared-memory ready lists, \
                     which do not exist across socket places",
        });
    }
    None
}

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
    /// many places as the job's placement. Planned faults (`fault`,
    /// `chaos` kills) may only name places of the placement other than
    /// place 0; when one fires, the victim place crashes, so every job
    /// placed on it recovers. Checkpointing is cleared at admission.
    pub config: EngineConfig,
    /// Admission priority: higher runs earlier. Ties break by
    /// submission order.
    pub priority: u8,
    /// `Some` pins the job to a subset of the mesh (must include place
    /// 0, the per-job coordinator); `None` uses every place.
    pub places: Option<Vec<PlaceId>>,
    /// The solo engine's §VI-E initialisation override.
    pub(crate) init: Option<InitOverride<A::Value>>,
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
            init: None,
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
    /// epochs and recoveries included). The communication counters in
    /// `report().comm` are mesh-level: they count every job's traffic
    /// on the mesh up to this job's end, so concurrent jobs share them.
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

/// What the serve loop hands back on every place.
pub(crate) struct Served<V> {
    /// The place this process served as.
    me: PlaceId,
    /// Per job, its driver's result on this place (`None`: the job is
    /// not placed here).
    pub(crate) results: Vec<Option<JobResult<V>>>,
    /// Per job, the time it waited for admission on this place.
    waits: Vec<Duration>,
    /// The most jobs in flight at once on this place.
    peak: usize,
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
        let served = self.serve_all(socket)?;
        if served.me != PlaceId::ZERO {
            return Ok(None);
        }
        let jobs = served
            .results
            .into_iter()
            .enumerate()
            .map(|(j, r)| JobOutcome {
                job_id: j as u32,
                name: self.jobs[j].name.clone(),
                priority: self.jobs[j].priority,
                wait: served.waits[j],
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
            peak_in_flight: served.peak,
        }))
    }

    /// The serve loop behind [`serve`](JobServer::serve) and
    /// [`crate::SocketEngine::run`]: joins the mesh, runs every job
    /// placed here, and returns each job's result on this place.
    pub(crate) fn serve_all(&self, socket: SocketConfig) -> Result<Served<A::Value>, EngineError> {
        if self.jobs.is_empty() {
            return Err(EngineError::Job("no jobs submitted".into()));
        }
        // Pattern validation needs no mesh, so a bad pattern fails on
        // every place before any connection is made.
        for spec in &self.jobs {
            if spec.config.validate_pattern
                && spec.pattern.vertex_count() <= spec.config.validate_limit
            {
                validate_pattern(spec.pattern.as_ref())?;
            }
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
        // Every place validates the same specs the same way; an invalid
        // serve fails identically everywhere, tearing the mesh down
        // symmetrically. Validation runs against the live roster, not
        // the founding count — slots drained out of an elastic mesh are
        // not schedulable.
        let placements = match self.resolve_placements(&node.roster().members()) {
            Ok(p) => p,
            Err(e) => {
                node.shutdown();
                return Err(e);
            }
        };

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
            planes.push(Arc::new(AppPlane::new(node.clone(), app_rx, j as u32)));
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
                .spawn(move || pool_loop(pool, t, dying))
                .expect("spawn pool worker");
            pool_handles.push(handle);
        }

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
                // Checkpoint writers assume one process owns all places'
                // files.
                config.checkpoint = None;
                let driver = Driver {
                    job_id: j as u32,
                    app: spec.app.clone(),
                    pattern: spec.pattern.clone(),
                    config,
                    init: spec.init.clone(),
                    downgrade,
                    placement: placements[j].clone(),
                    node: node.clone(),
                    plane: planes[j].clone(),
                    ctl_rx: ctl_rxs[j].take().expect("each job is admitted once"),
                    pool: pool.clone(),
                    dying: dying.clone(),
                    recorder: recorder.clone(),
                };
                let tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("dpx10-job{j}p{}", me.index()))
                    .spawn(move || {
                        let mut result = driver.run();
                        if result.is_err() && driver.dying.load(Ordering::Acquire) {
                            // A planned `Die` crashed this place under the
                            // driver's feet: a death, not a job error.
                            result = Ok(None);
                        }
                        driver.release();
                        let _ = tx.send((driver.job_id, result));
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
            // forever (same escape as a driver's snapshot wait).
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
        Ok(Served {
            me,
            results,
            waits,
            peak,
        })
    }

    /// Resolves, sorts and checks every job's placement against the
    /// mesh's *live roster* — an elastic mesh may have drained or dead
    /// slots below its capacity, and a pin to one of those must be
    /// rejected, not discovered as a hang — and checks that every
    /// planned kill names a killable place of its job.
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
            let cfg = &spec.config;
            let victims = cfg.fault.iter().map(|p| p.place).chain(
                cfg.chaos
                    .iter()
                    .flat_map(|p| p.kills.iter().map(|k| k.place)),
            );
            for victim in victims {
                if victim == PlaceId::ZERO || !placement.contains(&victim) {
                    return Err(EngineError::BadFaultPlan(format!(
                        "job {j} ({}): {victim} is not a killable place",
                        spec.name
                    )));
                }
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
/// serve shutdown); any other bare frame and unknown job ids are
/// dropped, and an undecodable payload marks its sender dead.
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
        match decode_frame::<V>(&bytes) {
            Some((Some(job), wire)) if (job as usize) < routes.app.len() => match wire {
                Wire::App(epoch, msg) => {
                    let _ = routes.app[job as usize].send((epoch, Envelope { src, msg }));
                }
                other => {
                    let _ = routes.ctl[job as usize].send((src, other));
                }
            },
            Some((None, Wire::Die)) => {
                dying.store(true, Ordering::Release);
                if soft_die {
                    node.crash();
                } else {
                    std::process::abort();
                }
            }
            Some((None, Wire::Done)) => served_done.store(true, Ordering::Release),
            Some(_) => {}
            None => {
                node.liveness().mark_dead(src);
            }
        }
    }
}

/// The shared worker pool of one place: one slot per job, each holding
/// the job's current epoch state while an epoch is live. Pool threads
/// sweep the slots round-robin so every live job advances.
pub(crate) struct JobPool<A: DpApp> {
    slots: Vec<PoolSlot<A>>,
    shutdown: AtomicBool,
}

struct PoolSlot<A: DpApp> {
    /// The attached epoch's shared state and this place's slot in it.
    work: dpx10_sync::Mutex<Option<(Arc<Shared<A>>, usize)>>,
    /// Pool threads currently leasing this slot; the detach barrier
    /// spins on it reaching zero.
    busy: AtomicUsize,
}

/// A pool thread's hold on one attached epoch; dropping it releases the
/// detach barrier.
struct Lease<'a, A: DpApp> {
    busy: &'a AtomicUsize,
    shared: Arc<Shared<A>>,
    slot: usize,
}

impl<A: DpApp> Drop for Lease<'_, A> {
    fn drop(&mut self) {
        self.busy.fetch_sub(1, Ordering::AcqRel);
    }
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
            shutdown: AtomicBool::new(false),
        }
    }

    /// Hands an epoch's shared state to the pool.
    pub(crate) fn attach(&self, job: u32, shared: Arc<Shared<A>>, slot: usize) {
        *self.slots[job as usize].work.lock() = Some((shared, slot));
    }

    /// Withdraws a job's epoch from the pool and waits until no pool
    /// thread still works on it — the quiescence barrier between epochs.
    pub(crate) fn detach(&self, job: u32) {
        let slot = &self.slots[job as usize];
        *slot.work.lock() = None;
        while slot.busy.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Leases job `job`'s live epoch, if one is attached and not
    /// stopping. The busy count is bumped under the lock, so the detach
    /// barrier can never observe zero while a lease is being taken.
    fn lease(&self, job: usize) -> Option<Lease<'_, A>> {
        let slot = &self.slots[job];
        let guard = slot.work.lock();
        let (shared, s) = guard.as_ref()?;
        if shared.should_stop() {
            return None;
        }
        slot.busy.fetch_add(1, Ordering::AcqRel);
        Some(Lease {
            busy: &slot.busy,
            shared: shared.clone(),
            slot: *s,
        })
    }
}

/// The trace track a pool thread records a job's vertex events onto:
/// high-numbered and keyed by `(job, thread)`, so each job's compute
/// shows up as its own track and never collides with the threaded
/// engine's sequential worker ids.
fn job_track(job: usize, tid: usize) -> u16 {
    0x4A00 | (((job as u16) & 0x3F) << 3) | ((tid as u16) & 0x7)
}

/// One pool thread's state for one job: the epoch it last worked on
/// (weak, so a finished epoch's shards are freed, and its address is
/// never reused while the lane compares against it), that epoch's
/// shaker substream, and its run of idle rounds.
struct Lane<A: DpApp> {
    epoch: Weak<Shared<A>>,
    shaker: Option<ChaosRng>,
    idle: u32,
}

/// One pool thread: sweep every job slot, run one budgeted
/// `worker_rounds` per live slot, and when no slot made progress idle
/// the way a threaded worker does ([`idle_wait`]), blocking on one live
/// slot's transport at a time, round-robin.
fn pool_loop<A: DpApp>(pool: Arc<JobPool<A>>, tid: usize, dying: Arc<AtomicBool>) {
    let mut bufs = WorkerBufs::default();
    let mut lanes: Vec<Lane<A>> = (0..pool.slots.len())
        .map(|_| Lane {
            epoch: Weak::new(),
            shaker: None,
            idle: 0,
        })
        .collect();
    let mut idle_sweeps = 0u32;
    let mut wait_from = 0usize;
    while !pool.shutdown.load(Ordering::Acquire) && !dying.load(Ordering::Acquire) {
        let mut any = false;
        for (j, lane) in lanes.iter_mut().enumerate() {
            let Some(lease) = pool.lease(j) else {
                continue;
            };
            if lane.epoch.as_ptr() != Arc::as_ptr(&lease.shared) {
                // A new epoch: fresh shaker substream, fresh idle run.
                *lane = Lane {
                    epoch: Arc::downgrade(&lease.shared),
                    shaker: next_worker(&lease.shared).1,
                    idle: 0,
                };
            }
            let track = job_track(j, tid);
            if worker_rounds(
                &lease.shared,
                lease.slot,
                track,
                &mut bufs,
                &mut lane.shaker,
            ) {
                any = true;
                lane.idle = 0;
            } else {
                lane.idle += 1;
                if lane.idle == 1 {
                    // Idle drain of the job's coalescing layer: buffered
                    // decrements must flow once its local work runs out.
                    let me = lease.shared.dist.places()[lease.slot];
                    lease.shared.transport.flush(me);
                }
            }
        }
        if any {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps += 1;
        let n = lanes.len();
        let Some((j, lease)) = (0..n)
            .map(|k| (wait_from + k) % n)
            .find_map(|j| pool.lease(j).map(|l| (j, l)))
        else {
            // No live epoch anywhere: nothing to block on.
            std::thread::sleep(Duration::from_micros(200));
            continue;
        };
        wait_from = j + 1;
        if idle_wait(
            &lease.shared,
            lease.slot,
            job_track(j, tid),
            idle_sweeps,
            &mut bufs,
        ) {
            idle_sweeps = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DepView;
    use dpx10_dag::VertexId;

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
