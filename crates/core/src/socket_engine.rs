//! The multi-process socket engine and its epoch protocol.
//!
//! Runs the same vertex-execution protocol as [`crate::ThreadedEngine`],
//! but with one OS process per place connected by the TCP mesh of
//! [`dpx10_apgas::socket`] — the closest this reproduction gets to the
//! paper's real X10 deployment (§VII ran 2 place processes per node).
//!
//! Every process executes [`SocketEngine::run`] with the same
//! application, pattern and configuration; the mesh handshake assigns
//! place ids. All processes build the full shard table deterministically
//! (cheap: it is metadata plus prefinished values), then each place works
//! only its own slot and exchanges [`Msg`]s over the wire.
//!
//! A solo run is a one-job serve: `run` hands its job to the
//! [`crate::jobs`] serve loop, which owns the mesh, the frame demux and
//! the shared worker pool, and drives the job with the per-job `Driver`
//! defined here — the only implementation of the protocol below, used
//! by solo runs and multi-job serves alike.
//!
//! # The control protocol
//!
//! Vertex traffic alone cannot terminate a distributed run — no process
//! sees the global finished counter — so a thin coordination layer rides
//! on the same connections. Every frame of a job travels as
//! [`Wire::Job`]`(job_id, …)` and carries an *epoch* (recovery round),
//! so stragglers from a failed epoch are discarded and no job can read
//! another's traffic:
//!
//! * workers fold their slot's finished count with everything their
//!   subtree reported and stream it up the binomial tree as a `Reduce`
//!   (the epoch barrier — per-place entries are max-merged, so arrival
//!   order, re-sends and re-routed hops cannot corrupt the table);
//! * place 0 declares success when the counts sum to the DAG size,
//!   tree-broadcasts `Stop` (each receiver relays to its schedule
//!   children), gathers a `Snapshot` of every slot's values, and
//!   releases everyone with `Done`;
//! * a detected failure (connection loss / missed heartbeats feeding the
//!   shared liveness board, or a planned `Die`) makes place 0 tree-
//!   broadcast `Abort`, gather the survivors' snapshots, run the paper's
//!   recovery (§VI-D), and restart everyone with a `Resume` *scatter* —
//!   each tree hop carries the restored values of the receiver's
//!   subtree plus the packed ids of every finished cell (the metadata
//!   that unblocks cross-subtree dependencies without shipping every
//!   value to every place) — a fresh epoch.
//!
//! Planned faults (the job's `FaultPlan` and chaos kills) fire from
//! place 0 as a bare `Die`: death is a property of the process, not of
//! one job, so the serve demux crashes the victim and every job on it
//! detects the loss.
//!
//! The tree edges come from [`CollectiveSchedule`] over the epoch's
//! live roster; a hop whose carrier died is repaired by adopting the
//! dead child's subtree, and place 0 re-sends the concluding frame
//! directly to any peer it has not heard from (insurance against a
//! relay dying *after* accepting a hop). `Snapshot` stays a direct
//! gather on purpose: it is the payload-heavy, loss-sensitive leg, and
//! folding values through intermediate places would multiply the
//! recovery work whenever a mid-tree place dies after absorbing its
//! children's cells.
//!
//! Communication statistics on this backend are the bytes *actually
//! framed* onto the sockets (vertex and control traffic alike); the
//! [`dpx10_apgas::NetworkModel`] prices nothing here.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::mailbox::Envelope;
use dpx10_apgas::{
    fold_counts, ChaosRng, CoalesceConfig, CoalescingTransport, Codec, CollectiveSchedule,
    DeadPlaceError, KillTrigger, LivenessBoard, PlaceId, SocketConfig, SocketNode, Transport,
};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{recover, Dist, DistArray, RecoveryCostModel, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::Receiver;

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::{EngineConfig, InitOverride};
use crate::engine::Shared;
use crate::error::EngineError;
use crate::jobs::{JobPool, JobResult, JobServer, JobSpec};
use crate::msg::Msg;
use crate::state::{build_shards, collect_array};
use crate::stats::{RunReport, ScheduleDowngrade};

/// How long place 0 waits for a survivor's snapshot before writing the
/// place off as dead, and how long a worker waits for its release
/// (generous: the transport's own heartbeat timeout fires much earlier
/// for real failures).
pub(crate) const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(60);

/// How often a worker place re-sends its progress even when the count has
/// not moved (keeps the coordinator's view fresh without flooding).
const PROGRESS_INTERVAL: Duration = Duration::from_millis(50);

/// How often place 0 re-sends the concluding `Stop`/`Abort` frame
/// directly to peers whose snapshot has not arrived — insurance for a
/// broadcast relay dying after accepting its hop (receivers ignore the
/// duplicates).
const CONCLUDE_RESEND: Duration = Duration::from_millis(500);

/// How often place 0 re-sends a `Resume` bundle to a survivor that has
/// not reported any progress in the resumed epoch — insurance for a
/// scatter relay dying with its subtree's hop in hand.
const RESUME_RESEND: Duration = Duration::from_millis(250);

/// The codec tag of [`Wire::Job`].
const JOB_TAG: u8 = 8;

/// Everything that crosses a socket: vertex traffic ([`Wire::App`]) and
/// the control protocol, all epoch-tagged and wrapped per job in
/// [`Wire::Job`]. Only the mesh-level `Die` and `Done` travel bare.
///
/// Tag 1 is unassigned: it was a direct progress report, superseded by
/// the tree-reduced [`Wire::Reduce`].
#[derive(Clone)]
pub(crate) enum Wire<V> {
    /// A vertex-protocol message of the given epoch.
    App(u32, Msg<V>),
    /// Place 0 → workers: every vertex is finished; snapshot your slot.
    Stop {
        /// Epoch being concluded.
        epoch: u32,
    },
    /// Place 0 → survivors: these places died; snapshot for recovery.
    Abort {
        /// Epoch being aborted.
        epoch: u32,
        /// The places detected dead.
        dead: Vec<u16>,
    },
    /// Worker → place 0: my slot's finished cells plus local counters.
    Snapshot {
        /// Epoch the snapshot concludes.
        epoch: u32,
        /// `(packed vertex id, value)` for every finished owned cell.
        cells: Vec<(u64, V)>,
        /// Vertices this place computed during the epoch.
        computed: u64,
        /// Cumulative place counters: `[tasks, msgs, bytes, net_ns,
        /// cache_hits, cache_misses, busy_ns, batches_sent,
        /// batched_msgs, pulls_sent, pulls_deduped, pushes_sent,
        /// pull_roundtrips_avoided]`. Every counter but `busy_ns` is
        /// mesh-level, shared by all jobs on the place. Decoders accept
        /// any shorter prefix and leave the missing tail at zero.
        stats: Vec<u64>,
    },
    /// Place 0 → survivors (scattered down the tree): recovery done,
    /// start the next epoch.
    Resume {
        /// The new epoch (old + 1).
        epoch: u32,
        /// Surviving places, in slot order.
        alive: Vec<u16>,
        /// The restored finished cells of the *receiver's subtree* —
        /// each relay splits its bundle among its schedule children by
        /// the new distribution's ownership.
        cells: Vec<(u64, V)>,
        /// Packed ids of *every* restored finished cell — the global
        /// metadata that unblocks dependencies on cells whose values
        /// were scattered to another subtree (pulls still go to the
        /// owner, which holds the value). Decode tolerates its absence
        /// (legacy frames), meaning `cells` is the full set.
        meta: Vec<u64>,
    },
    /// Place 0 → a worker, bare: abort the process immediately (planned
    /// fault injection — dies without a goodbye so peers *detect* the
    /// death).
    Die,
    /// Place 0 → workers: bare, the serve is over and the process may
    /// leave the mesh; job-wrapped, that job is over on this place.
    Done,
    /// A frame belonging to one job: the `job_id` namespace joins the
    /// epoch already carried by the inner frame.
    Job(u32, Box<Wire<V>>),
    /// One hop of a tree broadcast ([`CollectiveSchedule`]): the
    /// receiver handles the inner frame as if it had arrived directly,
    /// then relays the same hop to its own schedule children (adopting
    /// dead children's subtrees — tree repair).
    Bcast(Box<Wire<V>>),
    /// Worker → its tree parent: folded per-place finished counts of
    /// the sender and its whole subtree. Entries are max-merged on
    /// receipt ([`fold_counts`]), so duplicated or re-routed hops are
    /// harmless; any entry for a place proves that place entered the
    /// epoch (counts originate only at their own place).
    Reduce {
        /// Epoch the counts belong to.
        epoch: u32,
        /// `(place id, finished count)` per place of the subtree.
        counts: Vec<(u16, u64)>,
    },
}

impl<V: Codec> Codec for Wire<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Wire::App(epoch, msg) => {
                buf.push(0);
                epoch.encode(buf);
                msg.encode(buf);
            }
            Wire::Stop { epoch } => {
                buf.push(2);
                epoch.encode(buf);
            }
            Wire::Abort { epoch, dead } => {
                buf.push(3);
                epoch.encode(buf);
                dead.encode(buf);
            }
            Wire::Snapshot {
                epoch,
                cells,
                computed,
                stats,
            } => {
                buf.push(4);
                epoch.encode(buf);
                cells.encode(buf);
                computed.encode(buf);
                stats.encode(buf);
            }
            Wire::Resume {
                epoch,
                alive,
                cells,
                meta,
            } => {
                buf.push(5);
                epoch.encode(buf);
                alive.encode(buf);
                cells.encode(buf);
                meta.encode(buf);
            }
            Wire::Die => buf.push(6),
            Wire::Done => buf.push(7),
            Wire::Job(job, inner) => {
                buf.push(JOB_TAG);
                job.encode(buf);
                inner.encode(buf);
            }
            Wire::Bcast(inner) => {
                buf.push(9);
                inner.encode(buf);
            }
            Wire::Reduce { epoch, counts } => {
                buf.push(10);
                epoch.encode(buf);
                counts.encode(buf);
            }
        }
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        match u8::decode(src)? {
            0 => Some(Wire::App(u32::decode(src)?, Msg::decode(src)?)),
            2 => Some(Wire::Stop {
                epoch: u32::decode(src)?,
            }),
            3 => Some(Wire::Abort {
                epoch: u32::decode(src)?,
                dead: Vec::decode(src)?,
            }),
            4 => Some(Wire::Snapshot {
                epoch: u32::decode(src)?,
                cells: Vec::decode(src)?,
                computed: u64::decode(src)?,
                stats: Vec::decode(src)?,
            }),
            5 => Some(Wire::Resume {
                epoch: u32::decode(src)?,
                alive: Vec::decode(src)?,
                cells: Vec::decode(src)?,
                // Tolerant tail: a legacy peer's frame ends here, which
                // means "cells is the full restored set".
                meta: if src.is_empty() {
                    Vec::new()
                } else {
                    Vec::decode(src)?
                },
            }),
            6 => Some(Wire::Die),
            7 => Some(Wire::Done),
            JOB_TAG => Some(Wire::Job(u32::decode(src)?, Box::new(Wire::decode(src)?))),
            9 => Some(Wire::Bcast(Box::new(Wire::decode(src)?))),
            10 => Some(Wire::Reduce {
                epoch: u32::decode(src)?,
                counts: Vec::decode(src)?,
            }),
            _ => None,
        }
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Wire::App(epoch, msg) => epoch.wire_size() + Codec::wire_size(msg),
            Wire::Stop { epoch } => epoch.wire_size(),
            Wire::Abort { epoch, dead } => epoch.wire_size() + dead.wire_size(),
            Wire::Snapshot {
                epoch,
                cells,
                computed,
                stats,
            } => epoch.wire_size() + cells.wire_size() + computed.wire_size() + stats.wire_size(),
            Wire::Resume {
                epoch,
                alive,
                cells,
                meta,
            } => epoch.wire_size() + alive.wire_size() + cells.wire_size() + meta.wire_size(),
            Wire::Die | Wire::Done => 0,
            Wire::Job(job, inner) => job.wire_size() + Codec::wire_size(inner.as_ref()),
            Wire::Bcast(inner) => Codec::wire_size(inner.as_ref()),
            Wire::Reduce { epoch, counts } => epoch.wire_size() + counts.wire_size(),
        }
    }
}

/// Encodes `Wire::Job(job, wire)` without boxing (or cloning) `wire`.
fn encode_job<V: Codec>(job: u32, wire: &Wire<V>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + job.wire_size() + wire.wire_size());
    buf.push(JOB_TAG);
    job.encode(&mut buf);
    wire.encode(&mut buf);
    buf
}

/// Decodes one mesh frame into its job id and unboxed inner frame;
/// `None` as the id marks a bare (mesh-level) frame.
pub(crate) fn decode_frame<V: Codec>(bytes: &[u8]) -> Option<(Option<u32>, Wire<V>)> {
    let Some((&JOB_TAG, mut src)) = bytes.split_first() else {
        return decode_exact(bytes).map(|wire| (None, wire));
    };
    let job = u32::decode(&mut src)?;
    let wire = decode_exact(src)?;
    Some((Some(job), wire))
}

/// The vertex-traffic half of one job's demultiplexed socket: implements
/// [`Transport`] for the worker pool, filtering out messages from *past*
/// epochs at consumption time (so a message that raced past an epoch
/// change in the demux thread is still discarded). Messages from a
/// *future* epoch are parked, not dropped: after a recovery the places
/// enter the new epoch at different moments, and a fast peer's vertex
/// traffic can arrive while this place is still resuming — discarding it
/// would starve this place's share of the DAG and stall the run.
pub(crate) struct AppPlane<V> {
    node: Arc<SocketNode>,
    epoch: AtomicU32,
    app_rx: Receiver<(u32, Envelope<Msg<V>>)>,
    early: dpx10_sync::Mutex<Vec<(u32, Envelope<Msg<V>>)>>,
    liveness: LivenessBoard,
    /// The job whose frames this plane carries: outbound frames are
    /// wrapped in [`Wire::Job`] so the remote demux routes them to the
    /// right job's channels.
    job: u32,
}

impl<V: VertexValue> AppPlane<V> {
    /// Builds job `job`'s plane over `node`, consuming the demux's app
    /// frames from `app_rx`.
    pub(crate) fn new(
        node: Arc<SocketNode>,
        app_rx: Receiver<(u32, Envelope<Msg<V>>)>,
        job: u32,
    ) -> Self {
        AppPlane {
            liveness: node.liveness().clone(),
            node,
            epoch: AtomicU32::new(0),
            app_rx,
            early: dpx10_sync::Mutex::new(Vec::new()),
            job,
        }
    }

    /// Classifies one demuxed frame against `current`: deliver, park for
    /// a later epoch, or drop as stale.
    fn admit(&self, epoch: u32, env: Envelope<Msg<V>>, current: u32) -> Option<Envelope<Msg<V>>> {
        use std::cmp::Ordering as O;
        match epoch.cmp(&current) {
            O::Equal => Some(env),
            O::Greater => {
                self.early.lock().push((epoch, env));
                None
            }
            O::Less => None, // stale epoch: state was recovered, drop
        }
    }

    /// Pops one parked message of the current epoch, pruning any that
    /// went stale since they were parked.
    fn pop_early(&self, current: u32) -> Option<Envelope<Msg<V>>> {
        let mut early = self.early.lock();
        early.retain(|(e, _)| *e >= current);
        let k = early.iter().position(|(e, _)| *e == current)?;
        Some(early.swap_remove(k).1)
    }
}

impl<V: VertexValue> Transport<Msg<V>> for AppPlane<V> {
    fn num_places(&self) -> u16 {
        self.node.places()
    }

    fn liveness(&self) -> &LivenessBoard {
        &self.liveness
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<V>,
        _wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        debug_assert_eq!(src, self.node.me(), "socket places only send as themselves");
        let wire = Wire::App(self.epoch.load(Ordering::Acquire), msg);
        self.node
            .send_bytes(dst, encode_job(self.job, &wire))
            .map(|_| ())
    }

    fn try_recv(&self, _at: PlaceId) -> Option<Envelope<Msg<V>>> {
        let current = self.epoch.load(Ordering::Acquire);
        if let Some(env) = self.pop_early(current) {
            return Some(env);
        }
        loop {
            match self.app_rx.try_recv() {
                Ok((epoch, env)) => {
                    if let Some(env) = self.admit(epoch, env, current) {
                        return Some(env);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<Msg<V>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = self.try_recv(at) {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Wait for anything to arrive, then re-filter.
            let (epoch, env) = self.app_rx.recv_timeout(deadline - now).ok()?;
            let current = self.epoch.load(Ordering::Acquire);
            if let Some(env) = self.admit(epoch, env, current) {
                return Some(env);
            }
        }
    }
}

/// What a control loop decided the epoch's fate is.
enum Flow<V> {
    /// Place 0: every vertex finished. `reported` is, per slot, the
    /// vertices the slot reported finishing this epoch.
    Finished { reported: Vec<u64> },
    /// Place 0: a place died (or a planned fault fired); recover.
    /// `reported` as in `Finished`.
    Fault { reported: Vec<u64> },
    /// Place 0: global progress froze.
    Stalled {
        /// Vertices finished when the watchdog gave up.
        finished: u64,
    },
    /// Worker: the job is over.
    WorkerExit,
    /// Worker: recovery finished, start the next epoch.
    WorkerResume {
        /// Surviving places in slot order.
        alive: Vec<u16>,
        /// The restored finished cells scattered to this place's
        /// subtree (already relayed onwards before this flow returned).
        cells: Vec<(u64, V)>,
        /// Packed ids of every restored finished cell.
        meta: Vec<u64>,
    },
    /// Worker: a planned `Die` crashed this place (soft-die mode; a
    /// hard die never returns).
    Died,
}

/// Place 0's record of one `Resume` scatter: everything needed to
/// rebuild a survivor's bundle if the tree hop carrying it died with a
/// relay (the coordinator re-sends directly to peers it has not heard
/// from in the resumed epoch).
struct ResumeState<V> {
    /// The epoch being resumed *into* (old + 1).
    epoch: u32,
    /// Surviving places of the scatter, in slot order.
    alive: Vec<u16>,
    /// Packed ids of every restored finished cell.
    meta: Vec<u64>,
    /// Every restored finished cell (re-bucketed per subtree on
    /// demand — re-sends are rare).
    cells: Vec<(u64, V)>,
}

/// The multi-process engine. Construct identically in every place
/// process, then call [`run`](SocketEngine::run) with that process's
/// [`SocketConfig`].
pub struct SocketEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: EngineConfig,
    init: Option<InitOverride<A::Value>>,
    soft_die: bool,
    recorder: Recorder,
}

impl<A: DpApp + 'static> SocketEngine<A> {
    /// Creates an engine for `app` over `pattern` with `config`.
    ///
    /// Work stealing degrades to local scheduling here: stealing pops
    /// from another slot's ready list through shared memory, which only
    /// exists inside one process. The swap is recorded in the run
    /// report's [`RunReport::schedule_downgrade`] rather than applied
    /// silently. Checkpointing is off: its writers assume one process
    /// owns every place's files.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: EngineConfig) -> Self {
        SocketEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            soft_die: false,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a flight recorder; this place's epoch, control-protocol,
    /// snapshot and vertex events land in its per-place ring.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Installs a §VI-E initialisation override (pre-finish cells).
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Makes a planned `Die` crash the *sockets* instead of the whole
    /// process: every connection closes without a goodbye (peers detect
    /// the death exactly as after a SIGKILL) and `run` returns
    /// `Ok(None)`. Required when places are threads of one process — the
    /// chaos harness — where `std::process::abort` would take the whole
    /// differential run down with the victim.
    pub fn with_soft_die(mut self) -> Self {
        self.soft_die = true;
        self
    }

    /// Joins the mesh as `socket` describes and runs the computation as
    /// a one-job serve.
    ///
    /// Returns `Ok(Some(result))` on place 0 and `Ok(None)` on every
    /// other place (the result lives with the coordinator; workers just
    /// exit). A worker that loses its coordinator returns `Err`.
    pub fn run(&self, socket: SocketConfig) -> Result<Option<DagResult<A::Value>>, EngineError> {
        // `DPX10_SOCKET_TRACE=1` is an alias for "record and echo every
        // event to stderr" — the recorder's echo subscriber replaces the
        // old ad-hoc eprintln tracing.
        let mut recorder = self.recorder.clone();
        if std::env::var_os("DPX10_SOCKET_TRACE").is_some() {
            if !recorder.enabled() {
                recorder =
                    Recorder::with_capacity(self.config.topology.num_places() as usize, 1 << 12);
            }
            recorder.set_echo(true);
        }
        let mut server = JobServer::new().with_recorder(recorder);
        if self.soft_die {
            server = server.with_soft_die();
        }
        server.submit(JobSpec {
            name: "solo".into(),
            app: self.app.clone(),
            pattern: self.pattern.clone(),
            config: self.config.clone(),
            priority: 0,
            places: None,
            init: self.init.clone(),
        })?;
        let mut served = server.serve_all(socket)?;
        served.results.swap_remove(0).unwrap_or(Ok(None))
    }
}

/// Drives one job on one place: the epoch loop of the protocol in the
/// module docs. The serve loop builds one per admitted job; the job's
/// compute runs on the place's shared [`JobPool`].
pub(crate) struct Driver<A: DpApp> {
    pub(crate) job_id: u32,
    pub(crate) app: Arc<A>,
    pub(crate) pattern: Arc<dyn DagPattern>,
    pub(crate) config: EngineConfig,
    pub(crate) init: Option<InitOverride<A::Value>>,
    pub(crate) downgrade: Option<ScheduleDowngrade>,
    /// The job's places, sorted; the first epoch's roster.
    pub(crate) placement: Vec<PlaceId>,
    pub(crate) node: Arc<SocketNode>,
    pub(crate) plane: Arc<AppPlane<A::Value>>,
    pub(crate) ctl_rx: Receiver<(PlaceId, Wire<A::Value>)>,
    pub(crate) pool: Arc<JobPool<A>>,
    /// Set by the serve demux once a planned `Die` crashed this place.
    pub(crate) dying: Arc<AtomicBool>,
    pub(crate) recorder: Recorder,
}

impl<A: DpApp + 'static> Driver<A> {
    fn me(&self) -> PlaceId {
        self.node.me()
    }

    /// Sends a control frame in this job's namespace.
    fn send_ctl(&self, dst: PlaceId, wire: &Wire<A::Value>) -> Result<(), DeadPlaceError> {
        self.node
            .send_bytes(dst, encode_job(self.job_id, wire))
            .map(|_| ())
    }

    /// Place 0: releases this job's surviving workers, whatever the
    /// outcome was — a coordinator error must not strand them waiting
    /// on a control message that never comes.
    pub(crate) fn release(&self) {
        if self.me() != PlaceId::ZERO {
            return;
        }
        for p in &self.placement {
            if *p != self.me() && self.node.liveness().is_alive(*p) {
                let _ = self.send_ctl(*p, &Wire::Done);
            }
        }
    }

    /// Runs the job to completion on this place: `Ok(Some)` on place 0,
    /// `Ok(None)` on the other places.
    pub(crate) fn run(&self) -> JobResult<A::Value> {
        if self.dying.load(Ordering::Acquire) {
            return Ok(None);
        }
        let me = self.me();
        let cfg = &self.config;
        let pattern = &self.pattern;
        let total = pattern.vertex_count();
        let region = Region2D::new(pattern.height(), pattern.width());
        let started = Instant::now();
        let mut report = RunReport {
            vertices_total: total,
            schedule_downgrade: self.downgrade.clone(),
            ..RunReport::default()
        };
        let mut alive: Vec<PlaceId> = self.placement.clone();
        let mut prior: Option<DistArray<A::Value>> = None;
        // A `Resume` scatter's restored cells + finished-set metadata,
        // parked until the next epoch's restore step consumes them.
        #[allow(clippy::type_complexity)]
        let mut pending_cells: Option<(Vec<(u64, A::Value)>, Vec<u64>)> = None;
        let mut peer_stats: Vec<[u64; 13]> = vec![[0; 13]; self.node.places() as usize];
        // Place 0's record of the last `Resume` scatter, kept so the
        // next epoch's coordinator loop can re-send a survivor's bundle
        // if a relay hop died with its carrier.
        let mut resume: Option<ResumeState<A::Value>> = None;
        // This place's compute time, summed across epochs (the shards —
        // and their busy counters — are rebuilt every epoch).
        let mut busy_total: u64 = 0;
        // Victims whose planned `Die` has been sent — one-shot per run.
        let mut kills_fired: Vec<PlaceId> = Vec::new();
        let mut epoch: u32 = 0;

        let final_array = loop {
            report.epochs += 1;
            self.plane.epoch.store(epoch, Ordering::Release);
            let dist = Arc::new(Dist::new(region, cfg.dist_kind.clone(), alive.clone()));
            let mut scatter_meta: Option<HashSet<u64>> = None;
            if let Some((cells, meta)) = pending_cells.take() {
                // Rebuild our subtree's slice of the restored array the
                // `Resume` scatter delivered; the metadata names every
                // finished cell globally, so cells whose values went to
                // another subtree still unblock their dependents here
                // (their values are pulled from the owner on demand).
                let mut arr = DistArray::new(dist.clone());
                for (packed, v) in cells {
                    let id = VertexId::unpack(packed);
                    arr.set(id.i, id.j, v);
                }
                prior = Some(arr);
                if !meta.is_empty() {
                    scatter_meta = Some(meta.into_iter().collect());
                }
            }
            let Some(my_slot) = alive.iter().position(|p| *p == me) else {
                // The coordinator counted us among the dead (e.g. a
                // false-positive timeout); nothing left to contribute.
                return Ok(None);
            };
            let agg = crate::engine::agg_mode(cfg, self.app.as_ref(), pattern.as_ref());
            let (shards, prefinished) = build_shards(
                pattern.as_ref(),
                &dist,
                prior.as_ref(),
                scatter_meta.as_ref(),
                self.init.as_ref(),
                cfg.cache_capacity,
                agg,
            );
            if agg.is_some() {
                // Reseed lanes from whatever restored values this place
                // holds (its own subtree after a Resume scatter).
                // Meta-only finished cells stay gaps; the ranged execute
                // path pulls them from their owner on demand.
                crate::engine::seed_aggs(self.app.as_ref(), &shards);
            }
            self.recorder.instant_now(
                me.0,
                RUNTIME_WORKER,
                EventKind::EpochStart,
                u64::from(epoch),
            );
            if prefinished == total {
                if me != PlaceId::ZERO {
                    // A scattered prior covers this place's subtree
                    // only, so its shards may hold finished flags
                    // without values — only place 0, which keeps the
                    // full restored array, can collect the result.
                    return Ok(None);
                }
                break collect_array(&shards, &dist);
            }

            let shared = Arc::new(Shared {
                app: self.app.clone(),
                stall_limit: cfg.stall_limit,
                pattern: pattern.clone(),
                dist: dist.clone(),
                shards,
                transport: {
                    let base = self.plane.clone() as Arc<dyn Transport<Msg<A::Value>>>;
                    match cfg.coalesce {
                        // A fresh per-job wrapper each epoch: coalescing
                        // lanes are keyed by job for free, buffered
                        // traffic of an abandoned epoch dies with it, and
                        // flushes always carry the current epoch tag (the
                        // pool is detached before `plane.epoch` advances).
                        Some(bytes) => Arc::new(CoalescingTransport::new(
                            base,
                            CoalesceConfig::bytes(bytes),
                            self.node.stats().clone(),
                            self.recorder.clone(),
                        )),
                        None => base,
                    }
                },
                topo: cfg.topology,
                net: cfg.network,
                schedule: cfg.schedule,
                comms: cfg.comms,
                liveness: self.node.liveness().clone(),
                stats: self.node.stats().clone(),
                total,
                prefinished,
                done: AtomicBool::new(false),
                fault: AtomicBool::new(false),
                stalled: AtomicBool::new(false),
                // Planned faults go through `Wire::Die` from place 0.
                fault_plan: Vec::new(),
                time_kills: Vec::new(),
                run_started: started,
                // The schedule shaker works on this backend too; each
                // place derives its own substream so its workers don't
                // mirror another place's decisions.
                shake: cfg.chaos.as_ref().filter(|p| p.shake).map(|p| {
                    let mut rng = ChaosRng::new(p.seed).fork(u64::from(me.0));
                    rng.next_u64()
                }),
                worker_seq: AtomicU64::new(0),
                checkpoint: None,
                recorder: self.recorder.clone(),
                agg,
            });
            self.pool.attach(self.job_id, shared.clone(), my_slot);

            let outcome = if me == PlaceId::ZERO {
                self.coordinate(
                    &shared,
                    epoch,
                    &alive,
                    my_slot,
                    total,
                    started,
                    &mut kills_fired,
                    resume.as_ref().filter(|st| st.epoch == epoch),
                )
            } else {
                self.follow(&shared, epoch, &alive, my_slot, busy_total)
            };
            shared.done.store(true, Ordering::Release); // belt and braces
            self.pool.detach(self.job_id);
            report.vertices_computed += shared.computed();
            busy_total += shared.shards[my_slot].busy_ns.load(Ordering::Relaxed);

            let (conclude, reported) = match outcome? {
                Flow::Finished { reported } => (Wire::Stop { epoch }, reported),
                Flow::Fault { reported } => {
                    let dead: Vec<u16> = alive
                        .iter()
                        .filter(|p| !self.node.liveness().is_alive(**p))
                        .map(|p| p.0)
                        .collect();
                    (Wire::Abort { epoch, dead }, reported)
                }
                Flow::Stalled { finished } => {
                    return Err(EngineError::Stalled { finished, total });
                }
                Flow::WorkerExit | Flow::Died => return Ok(None),
                Flow::WorkerResume {
                    alive: new_alive,
                    cells,
                    meta,
                } => {
                    alive = new_alive.into_iter().map(PlaceId).collect();
                    pending_cells = Some((cells, meta));
                    prior = None; // rebuilt from `pending_cells` above
                    epoch += 1;
                    continue;
                }
            };
            // Place 0 concludes the epoch: release the workers into their
            // snapshots, gather them, and either finish or recover.
            self.bcast_ctl(&alive, &conclude);
            let mut arr = collect_array(&shared.shards, &dist);
            let lost = self.collect_snapshots(
                epoch,
                &alive,
                &conclude,
                &mut arr,
                &mut peer_stats,
                &mut report,
            );
            let (mut dead, finished): (Vec<PlaceId>, bool) = match conclude {
                Wire::Abort { dead, .. } => (dead.into_iter().map(PlaceId).collect(), false),
                _ => (Vec::new(), true),
            };
            dead.extend(lost);
            if dead.is_empty() && finished {
                break arr;
            }
            // A place died — mid-epoch, or between the last vertex and
            // its snapshot: its values are gone, recover and re-run.
            dead.sort_unstable();
            dead.dedup();
            let unreported: u64 = dead
                .iter()
                .filter_map(|d| alive.iter().position(|p| p == d))
                .map(|s| reported[s])
                .sum();
            let restored = self.recover_from(&arr, &dead, unreported, &mut report);
            resume = Some(self.resume_epoch(epoch, &mut alive, &restored));
            prior = Some(restored);
            epoch += 1;
        };

        if me != PlaceId::ZERO {
            // Worker that left through the all-prefinished short-circuit.
            return Ok(None);
        }

        report.wall_time = started.elapsed();
        let mut comm = self.node.stats().snapshot();
        for stats in peer_stats.iter().skip(1) {
            comm.tasks_run += stats[0];
            comm.messages_sent += stats[1];
            comm.bytes_sent += stats[2];
            comm.net_time += Duration::from_nanos(stats[3]);
            comm.cache_hits += stats[4];
            comm.cache_misses += stats[5];
            comm.batches_sent += stats[7];
            comm.batched_msgs += stats[8];
            comm.pulls_sent += stats[9];
            comm.pulls_deduped += stats[10];
            comm.pushes_sent += stats[11];
            comm.pull_roundtrips_avoided += stats[12];
        }
        report.comm = comm;
        // In the final epoch's slot order (matching the simulator): our
        // own accumulator for place 0, the last snapshot's busy counter
        // for every peer.
        report.place_busy = alive
            .iter()
            .map(|p| {
                if *p == me {
                    Duration::from_nanos(busy_total)
                } else {
                    Duration::from_nanos(peer_stats[p.index()][6])
                }
            })
            .collect();
        let result = DagResult::new(final_array, report);
        self.app.app_finished(&result);
        Ok(Some(result))
    }

    /// The epoch's tree schedule over `alive`, rooted at place 0's rank
    /// (ranks index `alive`, whose order is exactly the slot order).
    fn schedule(&self, alive: &[PlaceId]) -> CollectiveSchedule {
        let root = alive.iter().position(|p| *p == PlaceId::ZERO).unwrap_or(0);
        CollectiveSchedule::new(alive.len(), root)
    }

    /// Forwards a broadcast hop to `me_rank`'s schedule children; a
    /// child that is dead or unreachable is replaced by its own
    /// children, so the frame still reaches every live subtree.
    fn relay_hops(&self, alive: &[PlaceId], me_rank: usize, hop: &Wire<A::Value>) {
        let sched = self.schedule(alive);
        let mut work = sched.children(me_rank);
        while let Some(c) = work.pop() {
            let p = alive[c];
            if !self.node.liveness().is_alive(p) || self.send_ctl(p, hop).is_err() {
                work.extend(sched.children(c));
            }
        }
    }

    /// Place 0: launches a tree broadcast of `frame` — one [`Wire::Bcast`]
    /// hop per schedule child; the receivers relay onwards.
    fn bcast_ctl(&self, alive: &[PlaceId], frame: &Wire<A::Value>) {
        let me_rank = self.schedule(alive).root();
        self.relay_hops(alive, me_rank, &Wire::Bcast(Box::new(frame.clone())));
    }

    /// Sends the `Resume` scatter hops from `me_rank` in the new
    /// epoch's schedule: each child receives the restored cells of its
    /// whole subtree plus the global finished-set metadata; a dead
    /// child's subtree is adopted. Cells are bucketed by the *new*
    /// distribution, whose slot order is `alive`'s order.
    fn scatter_resume(
        &self,
        alive: &[PlaceId],
        me_rank: usize,
        new_epoch: u32,
        alive_u16: &[u16],
        meta: &[u64],
        cells: &[(u64, A::Value)],
    ) {
        let sched = self.schedule(alive);
        if sched.children(me_rank).is_empty() {
            return;
        }
        let region = Region2D::new(self.pattern.height(), self.pattern.width());
        let ndist = Dist::new(region, self.config.dist_kind.clone(), alive.to_vec());
        let mut by_rank: Vec<Vec<(u64, A::Value)>> = vec![Vec::new(); alive.len()];
        for (packed, v) in cells {
            let id = VertexId::unpack(*packed);
            by_rank[ndist.slot_of(id.i, id.j)].push((*packed, v.clone()));
        }
        let mut work = sched.children(me_rank);
        while let Some(c) = work.pop() {
            let bundle: Vec<(u64, A::Value)> = sched
                .subtree(c)
                .into_iter()
                .flat_map(|r| by_rank[r].iter().cloned())
                .collect();
            let frame = Wire::Resume {
                epoch: new_epoch,
                alive: alive_u16.to_vec(),
                cells: bundle,
                meta: meta.to_vec(),
            };
            let p = alive[c];
            if !self.node.liveness().is_alive(p) || self.send_ctl(p, &frame).is_err() {
                work.extend(sched.children(c));
            }
        }
    }

    /// Rebuilds the `Resume` frame rank `rank` should have received
    /// from the scatter: its subtree's restored cells plus the global
    /// metadata (used by the re-send insurance, so a survivor stranded
    /// by a dead relay still enters the epoch).
    fn resume_frame_for(&self, st: &ResumeState<A::Value>, rank: usize) -> Wire<A::Value> {
        let places: Vec<PlaceId> = st.alive.iter().copied().map(PlaceId).collect();
        let sched = self.schedule(&places);
        let sub = sched.subtree(rank);
        let region = Region2D::new(self.pattern.height(), self.pattern.width());
        let ndist = Dist::new(region, self.config.dist_kind.clone(), places);
        let cells = st
            .cells
            .iter()
            .filter(|(packed, _)| {
                let id = VertexId::unpack(*packed);
                sub.contains(&ndist.slot_of(id.i, id.j))
            })
            .cloned()
            .collect();
        Wire::Resume {
            epoch: st.epoch,
            alive: st.alive.clone(),
            cells,
            meta: st.meta.clone(),
        }
    }

    /// Place 0: fires a planned kill once per victim. `Die` travels
    /// bare — death is mesh-level, so the victim's serve demux crashes
    /// the whole place and every job on it detects the loss.
    fn fire_kill(&self, victim: PlaceId, kills_fired: &mut Vec<PlaceId>) {
        if kills_fired.contains(&victim) || !self.node.liveness().is_alive(victim) {
            return;
        }
        kills_fired.push(victim);
        self.recorder.instant_now(
            self.me().0,
            RUNTIME_WORKER,
            EventKind::CtlDie,
            u64::from(victim.0),
        );
        let _ = self
            .node
            .send_bytes(victim, encode_to_vec(&Wire::<A::Value>::Die));
    }

    /// Place 0's mid-epoch loop: fold the tree-reduced progress reports
    /// into the finished table, fire any planned kills, re-send `Resume`
    /// bundles to survivors a dead relay may have stranded, and decide
    /// the epoch's fate.
    #[allow(clippy::too_many_arguments)]
    fn coordinate(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        alive: &[PlaceId],
        my_slot: usize,
        total: u64,
        started: Instant,
        kills_fired: &mut Vec<PlaceId>,
        resume: Option<&ResumeState<A::Value>>,
    ) -> Result<Flow<A::Value>, EngineError> {
        // Seeded from our own deterministic copy of every shard, so the
        // table starts at each slot's prefinished count.
        let start: Vec<u64> = (0..alive.len())
            .map(|s| shared.shards[s].finished_local.load(Ordering::Relaxed))
            .collect();
        let mut table = start.clone();
        // Per slot, what it reported finishing this epoch: a dead slot's
        // share is lost with its memory, since it never snapshots.
        let reported =
            |table: &[u64]| -> Vec<u64> { table.iter().zip(&start).map(|(t, s)| t - s).collect() };
        // Every planned kill, as (victim, progress threshold) or
        // (victim, wall-clock delay): the job's `FaultPlan` plus its
        // chaos plan's kills. All fire as `Wire::Die` to the victim.
        let to_threshold = |frac: f64| ((frac * total as f64).ceil() as u64).clamp(1, total);
        let cfg = &self.config;
        let mut progress_kills: Vec<(PlaceId, u64)> = cfg
            .fault
            .iter()
            .map(|p| (p.place, to_threshold(p.after_fraction)))
            .collect();
        let mut time_kills: Vec<(PlaceId, Duration)> = Vec::new();
        for k in cfg.chaos.iter().flat_map(|p| p.kills.iter()) {
            match k.trigger {
                KillTrigger::Progress(f) => progress_kills.push((k.place, to_threshold(f))),
                KillTrigger::After(t) => time_kills.push((k.place, t)),
            }
        }
        let mut last_sum = u64::MAX;
        let mut last_change = Instant::now();
        // Which places have reported anything this epoch: a `Reduce`
        // entry for a place can only originate at that place, so it
        // doubles as proof the place entered the epoch (used by the
        // resume re-send insurance below).
        let mut heard = vec![false; alive.len()];
        heard[my_slot] = true;
        let mut next_nudge = Instant::now() + RESUME_RESEND;

        loop {
            match self.ctl_rx.recv_timeout(Duration::from_millis(2)) {
                Ok((src, Wire::Reduce { epoch: e, counts })) if e == epoch => {
                    if let Some(s) = alive.iter().position(|p| *p == src) {
                        heard[s] = true;
                    }
                    for (pid, n) in counts {
                        if let Some(s) = alive.iter().position(|p| p.0 == pid) {
                            table[s] = table[s].max(n);
                            heard[s] = true;
                        }
                    }
                }
                Ok(_) | Err(_) => {} // stale traffic / timeout tick
            }
            if let Some(st) = resume {
                if Instant::now() >= next_nudge {
                    next_nudge = Instant::now() + RESUME_RESEND;
                    for (s, p) in alive.iter().enumerate() {
                        if !heard[s] && *p != self.me() && self.node.liveness().is_alive(*p) {
                            let _ = self.send_ctl(*p, &self.resume_frame_for(st, s));
                        }
                    }
                }
            }
            table[my_slot] = shared.shards[my_slot]
                .finished_local
                .load(Ordering::Relaxed);
            let sum: u64 = table.iter().sum();

            for &(victim, threshold) in &progress_kills {
                if sum >= threshold {
                    self.fire_kill(victim, kills_fired);
                }
            }
            for &(victim, after) in &time_kills {
                if started.elapsed() >= after {
                    self.fire_kill(victim, kills_fired);
                }
            }

            let someone_died = alive.iter().any(|p| !self.node.liveness().is_alive(*p));
            if someone_died || shared.fault.load(Ordering::Acquire) {
                shared.fault.store(true, Ordering::Release);
                self.recorder.instant_now(
                    self.me().0,
                    RUNTIME_WORKER,
                    EventKind::Fault,
                    u64::from(epoch),
                );
                return Ok(Flow::Fault {
                    reported: reported(&table),
                });
            }
            if sum >= total {
                shared.done.store(true, Ordering::Release);
                self.recorder.instant_now(
                    self.me().0,
                    RUNTIME_WORKER,
                    EventKind::CtlStop,
                    u64::from(epoch),
                );
                return Ok(Flow::Finished {
                    reported: reported(&table),
                });
            }

            if sum != last_sum {
                last_sum = sum;
                last_change = Instant::now();
            } else if last_change.elapsed() > shared.stall_limit {
                self.recorder
                    .instant_now(self.me().0, RUNTIME_WORKER, EventKind::Stalled, sum);
                shared.stalled.store(true, Ordering::Release);
                shared.done.store(true, Ordering::Release);
                return Ok(Flow::Stalled { finished: sum });
            }
        }
    }

    /// A worker place's mid-epoch loop: fold subtree progress up the
    /// tree to place 0 and obey (and relay) its control messages.
    fn follow(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        alive: &[PlaceId],
        my_slot: usize,
        busy_before: u64,
    ) -> Result<Flow<A::Value>, EngineError> {
        let sched = self.schedule(alive);
        let mut last_reported = u64::MAX;
        let mut last_progress = Instant::now();
        // Finished counts our subtree reported, folded into every
        // Reduce hop we send up (max-merged: duplicates are harmless).
        let mut child_counts: HashMap<u16, u64> = HashMap::new();
        // Set once a concluding Stop/Abort has been handled; dedups the
        // tree hop against the coordinator's direct re-send insurance
        // (and stops us re-relaying duplicates).
        let mut concluded = false;
        // Set once we have snapshotted and are owed a Resume/Done; if
        // the coordinator wrote *us* off it cannot even address us, so
        // an orphaned wait must time out rather than hang.
        let mut awaiting_release: Option<Instant> = None;

        loop {
            if self.dying.load(Ordering::Acquire) {
                self.recorder.instant_now(
                    self.me().0,
                    RUNTIME_WORKER,
                    EventKind::CtlDie,
                    u64::from(epoch),
                );
                shared.fault.store(true, Ordering::Release);
                return Ok(Flow::Died);
            }
            if !self.node.liveness().is_alive(PlaceId::ZERO) {
                return Err(EngineError::Socket(
                    "place 0 was lost; a worker cannot continue without the coordinator".into(),
                ));
            }
            if let Some(since) = awaiting_release {
                if since.elapsed() > SNAPSHOT_DEADLINE {
                    return Err(EngineError::Socket(
                        "no release from the coordinator after snapshot".into(),
                    ));
                }
            }

            let received = match self.ctl_rx.recv_timeout(Duration::from_millis(5)) {
                Ok((src, Wire::Bcast(inner))) => {
                    // A tree hop: relay to our schedule children first
                    // (adopting dead subtrees), then handle the inner
                    // frame as if it had arrived directly. A duplicate
                    // hop after we concluded is not re-relayed — the
                    // first relay already covered the subtree.
                    let hop = Wire::Bcast(inner);
                    if !concluded {
                        self.relay_hops(alive, my_slot, &hop);
                    }
                    let Wire::Bcast(inner) = hop else {
                        unreachable!()
                    };
                    Ok((src, *inner))
                }
                other => other,
            };
            match received {
                Ok((_, Wire::Stop { epoch: e })) if e == epoch && !concluded => {
                    concluded = true;
                    self.recorder.instant_now(
                        self.me().0,
                        RUNTIME_WORKER,
                        EventKind::CtlStop,
                        u64::from(epoch),
                    );
                    shared.done.store(true, Ordering::Release);
                    self.send_snapshot(shared, epoch, my_slot, busy_before)?;
                    awaiting_release = Some(Instant::now());
                }
                Ok((_, Wire::Abort { epoch: e, dead })) if e == epoch && !concluded => {
                    concluded = true;
                    self.recorder.instant_now(
                        self.me().0,
                        RUNTIME_WORKER,
                        EventKind::CtlAbort,
                        u64::from(epoch),
                    );
                    for d in dead {
                        self.node.liveness().mark_dead(PlaceId(d));
                    }
                    shared.fault.store(true, Ordering::Release);
                    self.send_snapshot(shared, epoch, my_slot, busy_before)?;
                    awaiting_release = Some(Instant::now());
                }
                Ok((
                    _,
                    Wire::Resume {
                        epoch: e,
                        alive: new_alive,
                        cells,
                        meta,
                    },
                )) if e == epoch + 1 => {
                    self.recorder.instant_now(
                        self.me().0,
                        RUNTIME_WORKER,
                        EventKind::CtlResume,
                        u64::from(epoch + 1),
                    );
                    // Relay the scatter onwards: each of our schedule
                    // children in the *new* epoch's tree receives its
                    // subtree's share of the bundle. (Stragglers this
                    // relay duplicates are dropped by the receivers'
                    // own epoch guards; stranded places the relay never
                    // reaches get direct insurance re-sends from the
                    // coordinator.)
                    let new_places: Vec<PlaceId> = new_alive.iter().copied().map(PlaceId).collect();
                    if let Some(r) = new_places.iter().position(|p| *p == self.me()) {
                        self.scatter_resume(&new_places, r, e, &new_alive, &meta, &cells);
                    }
                    return Ok(Flow::WorkerResume {
                        alive: new_alive,
                        cells,
                        meta,
                    });
                }
                Ok((_, Wire::Reduce { epoch: e, counts })) if e == epoch => {
                    // A child's subtree counts; folded into our next hop.
                    fold_counts(&mut child_counts, &counts);
                }
                Ok((_, Wire::Done)) => {
                    self.recorder.instant_now(
                        self.me().0,
                        RUNTIME_WORKER,
                        EventKind::CtlDone,
                        u64::from(epoch),
                    );
                    return Ok(Flow::WorkerExit);
                }
                Ok(_) | Err(_) => {}
            }

            let finished = shared.shards[my_slot]
                .finished_local
                .load(Ordering::Relaxed);
            if finished != last_reported || last_progress.elapsed() > PROGRESS_INTERVAL {
                last_reported = finished;
                last_progress = Instant::now();
                // One Reduce hop up the tree: our own count folded with
                // everything our subtree reported, addressed to the
                // nearest live ancestor (the root directly if the whole
                // chain died). The interval re-send also forwards child
                // updates that arrived while our own count sat still.
                // Failure to report is not fatal by itself; the liveness
                // check at the top of the loop is the judge of that.
                let mut counts: Vec<(u16, u64)> = vec![(self.me().0, finished)];
                counts.extend(child_counts.iter().map(|(&p, &n)| (p, n)));
                let parent = sched
                    .live_parent(my_slot, |r| !self.node.liveness().is_alive(alive[r]))
                    .unwrap_or(sched.root());
                let _ = self.send_ctl(alive[parent], &Wire::Reduce { epoch, counts });
            }
        }
    }

    /// Sends this place's slot snapshot to place 0.
    fn send_snapshot(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        my_slot: usize,
        busy_before: u64,
    ) -> Result<(), EngineError> {
        // Flush-before-snapshot barrier: anything still buffered in the
        // coalescing layer goes to the wire (or dies with a dead lane)
        // before this epoch's counters and cells are reported, so the
        // snapshot never precedes traffic it already counted.
        shared.transport.flush(self.me());
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let shard = &shared.shards[my_slot];
        let mut cells = Vec::new();
        for (li, &(i, j)) in shard.points.iter().enumerate() {
            if shard.in_pattern[li] && shard.finished[li].load(Ordering::Acquire) {
                let v = shard.values[li].get().expect("finished => set").clone();
                cells.push((VertexId::new(i, j).pack(), v));
            }
        }
        let mine = self.node.stats().place(self.me());
        let stats = vec![
            mine.tasks_run.load(Ordering::Relaxed),
            mine.messages_sent.load(Ordering::Relaxed),
            mine.bytes_sent.load(Ordering::Relaxed),
            mine.net_time_ns.load(Ordering::Relaxed),
            mine.cache_hits.load(Ordering::Relaxed),
            mine.cache_misses.load(Ordering::Relaxed),
            busy_before + shard.busy_ns.load(Ordering::Relaxed),
            mine.batches_sent.load(Ordering::Relaxed),
            mine.batched_msgs.load(Ordering::Relaxed),
            mine.pulls_sent.load(Ordering::Relaxed),
            mine.pulls_deduped.load(Ordering::Relaxed),
            mine.pushes_sent.load(Ordering::Relaxed),
            mine.pull_roundtrips_avoided.load(Ordering::Relaxed),
        ];
        let sent = cells.len() as u64;
        let result = self
            .send_ctl(
                PlaceId::ZERO,
                &Wire::Snapshot {
                    epoch,
                    cells,
                    computed: shared.computed(),
                    stats,
                },
            )
            .map_err(|e| EngineError::Socket(format!("snapshot delivery failed: {e}")));
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me().0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                sent,
            );
        }
        result
    }

    /// Place 0: waits for every live peer's snapshot, folding cells into
    /// `arr` and counters into `peer_stats`; peers that never answer are
    /// marked dead and returned.
    fn collect_snapshots(
        &self,
        epoch: u32,
        alive: &[PlaceId],
        conclude: &Wire<A::Value>,
        arr: &mut DistArray<A::Value>,
        peer_stats: &mut [[u64; 13]],
        report: &mut RunReport,
    ) -> Vec<PlaceId> {
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        // Start from every peer of the epoch, not just the currently
        // live ones: a place whose death was already detected (e.g. a
        // kill landing right at the end of the epoch, before its
        // snapshot) must still be reported as lost so its values get
        // recovered rather than silently dropped.
        let mut pending: Vec<PlaceId> = alive.iter().copied().filter(|p| *p != self.me()).collect();
        let mut lost = Vec::new();
        let deadline = Instant::now() + SNAPSHOT_DEADLINE;
        let mut next_nudge = Instant::now() + CONCLUDE_RESEND;
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
            if Instant::now() >= next_nudge {
                next_nudge = Instant::now() + CONCLUDE_RESEND;
                // Broadcast insurance: a relay that died after taking
                // its hop may have stranded its subtree; re-send the
                // concluding frame itself (not a `Bcast`, so nobody
                // re-relays it) directly to the peers still owed a
                // snapshot. Receivers that got the tree hop already
                // ignore the duplicate.
                for p in &pending {
                    let _ = self.send_ctl(*p, conclude);
                }
            }
            let Ok((src, wire)) = self.ctl_rx.recv_timeout(Duration::from_millis(10)) else {
                continue;
            };
            if let Wire::Snapshot {
                epoch: e,
                cells,
                computed,
                stats,
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
                if stats.len() >= 6 {
                    let row = &mut peer_stats[src.index()];
                    for (dst, s) in row.iter_mut().zip(stats) {
                        *dst = s;
                    }
                }
            }
        }
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me().0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                lost.len() as u64,
            );
        }
        lost
    }

    /// Place 0: runs the paper's recovery over the collected snapshot.
    /// `unreported` counts the cells the dead places reported finishing
    /// this epoch: they never reach the snapshot, so the recovery pass
    /// cannot see them, but they are lost all the same.
    fn recover_from(
        &self,
        snapshot: &DistArray<A::Value>,
        dead: &[PlaceId],
        unreported: u64,
        report: &mut RunReport,
    ) -> DistArray<A::Value> {
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let (restored, mut rec) = recover(
            snapshot,
            dead,
            self.config.restore_manner,
            &self.config.topology,
            &self.config.network,
            &RecoveryCostModel::default(),
        );
        rec.lost += unreported;
        report.recovery_time += rec.sim_time;
        report.recoveries.push(rec);
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me().0,
                RUNTIME_WORKER,
                EventKind::Recovery,
                start,
                self.recorder.now_ns(),
                u64::from(report.epochs),
            );
        }
        restored
    }

    /// Place 0: prunes `alive` to the survivors and scatters the
    /// restored state down the new epoch's tree — each schedule child
    /// receives its subtree's finished values plus the packed ids of
    /// *every* finished cell. Returns the scatter record so the next
    /// epoch's coordinator loop can re-send a survivor's bundle if a
    /// relay hop died with its carrier.
    fn resume_epoch(
        &self,
        epoch: u32,
        alive: &mut Vec<PlaceId>,
        restored: &DistArray<A::Value>,
    ) -> ResumeState<A::Value> {
        alive.retain(|p| self.node.liveness().is_alive(*p));
        self.recorder.instant_now(
            self.me().0,
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
        let meta: Vec<u64> = cells.iter().map(|(packed, _)| *packed).collect();
        let alive_u16: Vec<u16> = alive.iter().map(|p| p.0).collect();
        let me_rank = alive
            .iter()
            .position(|p| *p == self.me())
            .unwrap_or_else(|| self.schedule(alive).root());
        // A hop failure here means the peer died *after* recovery; the
        // adoption inside the scatter plus the next epoch's liveness
        // check and re-send insurance catch it.
        self.scatter_resume(alive, me_rank, epoch + 1, &alive_u16, &meta, &cells);
        ResumeState {
            epoch: epoch + 1,
            alive: alive_u16,
            meta,
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips() {
        let wires: Vec<Wire<i64>> = vec![
            Wire::App(
                3,
                Msg::PullVal {
                    id: VertexId::new(1, 2),
                    value: -7,
                },
            ),
            Wire::Stop { epoch: 0 },
            Wire::Abort {
                epoch: 2,
                dead: vec![1, 3],
            },
            Wire::Snapshot {
                epoch: 1,
                cells: vec![(VertexId::new(0, 0).pack(), 9)],
                computed: 5,
                stats: vec![1, 2, 3, 4, 5, 6, 7],
            },
            Wire::Resume {
                epoch: 2,
                alive: vec![0, 2],
                cells: vec![(VertexId::new(1, 1).pack(), -1)],
                meta: vec![VertexId::new(1, 1).pack(), VertexId::new(0, 3).pack()],
            },
            Wire::Die,
            Wire::Done,
            Wire::Job(
                7,
                Box::new(Wire::App(
                    2,
                    Msg::Pull {
                        id: VertexId::new(4, 4),
                    },
                )),
            ),
            Wire::Job(0, Box::new(Wire::Stop { epoch: 3 })),
            Wire::Bcast(Box::new(Wire::Stop { epoch: 4 })),
            Wire::Bcast(Box::new(Wire::Abort {
                epoch: 4,
                dead: vec![2],
            })),
            Wire::Reduce {
                epoch: 5,
                counts: vec![(1, 40), (3, 7)],
            },
        ];
        for wire in wires {
            let buf = encode_to_vec(&wire);
            assert_eq!(buf.len(), Codec::wire_size(&wire));
            let back: Wire<i64> = decode_exact(&buf).expect("decodes");
            // Structural comparison through re-encoding (no PartialEq on
            // purpose: Wire is an internal protocol type).
            assert_eq!(encode_to_vec(&back), buf);
        }
    }

    #[test]
    fn wire_rejects_unknown_tag() {
        assert!(decode_exact::<Wire<i64>>(&[99]).is_none());
        // Tag 1 (the retired direct progress report) stays unassigned.
        let mut progress = vec![1u8];
        1u32.encode(&mut progress);
        42u64.encode(&mut progress);
        assert!(decode_exact::<Wire<i64>>(&progress).is_none());
    }

    #[test]
    fn job_frames_decode_unboxed_and_bare_frames_stay_bare() {
        let app: Wire<i64> = Wire::App(
            2,
            Msg::Pull {
                id: VertexId::new(4, 4),
            },
        );
        let framed = encode_job(7, &app);
        // Byte-identical to the boxed codec form.
        assert_eq!(framed, encode_to_vec(&Wire::Job(7, Box::new(app))));
        let Some((Some(7), Wire::App(2, Msg::Pull { id }))) = decode_frame::<i64>(&framed) else {
            panic!("job frame did not decode");
        };
        assert_eq!(id, VertexId::new(4, 4));
        let bare = encode_to_vec(&Wire::<i64>::Die);
        assert!(matches!(
            decode_frame::<i64>(&bare),
            Some((None, Wire::Die))
        ));
        // Trailing garbage after a job's inner frame is rejected.
        let mut long = framed.clone();
        long.push(0);
        assert!(decode_frame::<i64>(&long).is_none());
    }

    #[test]
    fn resume_decode_tolerates_missing_meta() {
        // A legacy peer's Resume ends after `cells`; the decoder must
        // treat the absent metadata as "cells is the full set" — both
        // bare and wrapped in the serve protocol's Job envelope.
        let mut legacy = vec![5u8];
        3u32.encode(&mut legacy);
        vec![0u16, 1].encode(&mut legacy);
        vec![(VertexId::new(2, 2).pack(), 11i64)].encode(&mut legacy);
        let Some(Wire::Resume {
            epoch,
            alive,
            cells,
            meta,
        }) = decode_exact::<Wire<i64>>(&legacy)
        else {
            panic!("legacy Resume did not decode");
        };
        assert_eq!((epoch, alive.len(), cells.len()), (3, 2, 1));
        assert!(meta.is_empty());

        let mut wrapped = vec![8u8];
        9u32.encode(&mut wrapped);
        wrapped.extend_from_slice(&legacy);
        let Some(Wire::Job(9, inner)) = decode_exact::<Wire<i64>>(&wrapped) else {
            panic!("wrapped legacy Resume did not decode");
        };
        assert!(matches!(*inner, Wire::Resume { ref meta, .. } if meta.is_empty()));
    }

    #[test]
    fn reduce_decode_guards_hostile_count_length() {
        // A Reduce frame whose vec length claims more entries than the
        // buffer holds must fail cleanly, not allocate.
        let mut buf = vec![10u8];
        1u32.encode(&mut buf);
        u64::MAX.encode(&mut buf); // vec length prefix
        assert!(decode_exact::<Wire<i64>>(&buf).is_none());
    }
}
