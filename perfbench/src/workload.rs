//! The four workloads: inputs, oracles, set-up and the measurement loop.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpx10_apgas::{PlaceId, SocketConfig};
use dpx10_apps::{serial, workload as gen, GapApp, LcsApp, SwlagApp};
use dpx10_core::{
    CommsMode, DagResult, DistKind, DpApp, EngineConfig, EngineError, FaultPlan, RunReport,
    SocketEngine, ThreadedEngine,
};
use dpx10_dag::DagPattern;
use dpx10_obs::Recorder;

use crate::host::Host;
use crate::spans::Spans;
use crate::{layers, median, Metric, Options, Outcome};

/// Repetitions every run makes, whatever the budget.
const MIN_REPS: u64 = 3;
/// Untraced + traced repetition pairs every traced run makes.
const MIN_PAIRS: u64 = 2;
/// Share of a traced run's budget spent on engine repetitions; the
/// layer calls take the rest.
const ENGINE_SHARE: f64 = 0.6;
/// Set-ups made and torn down without running after each repetition;
/// their mean is one `setup_s` sample (a single threads set-up takes
/// ~200 ns, too close to the clock's own cost to time alone).
const DRY_SETUPS: usize = 20;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LCS, 10⁶ cells, threads: the engine hot path with idle comms.
    LcsThreads,
    /// SWLAG, 10⁶ cells, in-process socket mesh, cyclic-col, pull comms
    /// with coalescing: codec, coalescer, frames and cache hits.
    SwlagSocketsPull,
    /// GAP, 399², threads with prefix aggregation: ~400 anti-dependencies
    /// per cell.
    GapThreads,
    /// The LCS input on the socket mesh with place 1 killed at 50 %:
    /// snapshot, recovery and resume.
    LcsSocketsKill,
}

/// Which engine runs a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `ThreadedEngine`: places are thread pools of this process.
    Threads,
    /// `SocketEngine` over an in-process mesh: every place a thread of
    /// this process, connected over loopback TCP.
    Sockets,
}

/// The engine configuration of a workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Engine.
    pub backend: Backend,
    /// Places (one worker thread each).
    pub places: u16,
    /// Distribution.
    pub dist: DistKind,
    /// FIFO cache capacity per place.
    pub cache: usize,
    /// Coalescing byte budget, if on.
    pub coalesce: Option<usize>,
    /// Soft-kill place 1 at 50 % progress.
    pub kill: bool,
}

impl Spec {
    /// The engine config the workload runs with.
    pub fn config(&self) -> EngineConfig {
        let config = EngineConfig::flat(self.places)
            .with_dist(self.dist.clone())
            .with_cache(self.cache)
            .with_coalesce(self.coalesce)
            .with_comms(CommsMode::Pull);
        if self.kill {
            config.with_fault(FaultPlan::mid_run(PlaceId(1)))
        } else {
            config
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LcsThreads,
        Workload::SwlagSocketsPull,
        Workload::GapThreads,
        Workload::LcsSocketsKill,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LcsThreads => "lcs-threads",
            Workload::SwlagSocketsPull => "swlag-sockets-pull",
            Workload::GapThreads => "gap-threads",
            Workload::LcsSocketsKill => "lcs-sockets-kill",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Approximate DAG cells at full size. GAP runs at 399² rather
    /// than 499²: a 499² run takes ~3 s, too few for a steady median in
    /// the time budget.
    pub fn default_cells(self) -> u64 {
        match self {
            Workload::GapThreads => 160_000,
            _ => 1_000_000,
        }
    }

    /// The engine configuration.
    pub fn spec(self) -> Spec {
        let lcs = Spec {
            backend: Backend::Threads,
            places: 2,
            dist: DistKind::BlockCol,
            cache: 4096,
            coalesce: None,
            kill: false,
        };
        match self {
            Workload::LcsThreads => lcs,
            Workload::SwlagSocketsPull => Spec {
                backend: Backend::Sockets,
                dist: DistKind::CyclicCol,
                // A starved cache (256) turns the run into a storm of
                // pull round trips whose time is bimodal (0.7–2.4 s per
                // 500² run on a shared 2-core host): too unsteady to gate.
                coalesce: Some(4096),
                ..lcs
            },
            Workload::GapThreads => lcs,
            Workload::LcsSocketsKill => Spec {
                backend: Backend::Sockets,
                kill: true,
                ..lcs
            },
        }
    }
}

/// A workload's generated input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    /// The seed it was generated from.
    pub seed: u64,
    /// Sequence length (LCS, SWLAG) or table side (GAP).
    pub side: u32,
    /// First sequence (empty for GAP, whose penalties hash the seed).
    pub a: Vec<u8>,
    /// Second sequence (empty for GAP).
    pub b: Vec<u8>,
}

impl Input {
    /// The input of `workload` for `seed`, sized to about `cells` cells
    /// the way `dpx10 run --vertices` sizes it.
    pub fn generate(workload: Workload, seed: u64, cells: u64) -> Input {
        let side = gen::side_for_vertices(cells);
        let n = side as usize;
        let (a, b) = match workload {
            Workload::LcsThreads | Workload::LcsSocketsKill => {
                (gen::letters(n, seed), gen::letters(n, seed + 1))
            }
            Workload::SwlagSocketsPull => (gen::dna(n, seed), gen::dna(n, seed + 1)),
            Workload::GapThreads => (Vec::new(), Vec::new()),
        };
        Input { seed, side, a, b }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a `--trace 1` run writes its spans.
pub fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.json", workload.name()))
}

/// Runs one invocation: builds the input and the oracle, then measures.
pub fn run(opts: &Options, host: &Host) -> Result<Outcome, String> {
    let w = opts.workload;
    let input = Input::generate(w, opts.seed, opts.cells.unwrap_or(w.default_cells()));
    let mut spans = if opts.trace {
        Spans::new()
    } else {
        Spans::disabled()
    };
    let n = input.side;
    match w {
        Workload::LcsThreads | Workload::LcsSocketsKill => {
            let (a, b) = (input.a.clone(), input.b.clone());
            let make = move || {
                let app = LcsApp::new(a.clone(), b.clone());
                let pattern = app.pattern();
                (app, pattern)
            };
            let (want, serial_time) =
                spans.time("apps.serial", 0, || serial::lcs_len(&input.a, &input.b));
            let want = want + u32::from(opts.corrupt_oracle);
            // The kill run must finish with exactly the fault-free
            // threads result.
            let reference = if w == Workload::LcsSocketsKill {
                let (app, pattern) = make();
                let config = Workload::LcsThreads.spec().config();
                let result = ThreadedEngine::new(app, pattern, config)
                    .run()
                    .map_err(|e| format!("fault-free reference run failed: {e}"))?;
                Some(result.fingerprint())
            } else {
                None
            };
            let check = move |r: &DagResult<u32>| {
                let got = r.get(n, n);
                if got != want {
                    return Err(format!("LCS length {got}, serial oracle says {want}"));
                }
                match reference {
                    Some(fp) if r.fingerprint() != fp => Err(format!(
                        "fingerprint {:#018x} differs from the fault-free run's {fp:#018x}",
                        r.fingerprint()
                    )),
                    _ => Ok(()),
                }
            };
            drive(opts, host, &input, &mut spans, serial_time, make, check)
        }
        Workload::SwlagSocketsPull => {
            let (a, b) = (input.a.clone(), input.b.clone());
            let make = move || {
                let app = SwlagApp::new(a.clone(), b.clone());
                let pattern = app.pattern();
                (app, pattern)
            };
            let scoring = make().0.scoring;
            let (want, serial_time) = spans.time("apps.serial", 0, || {
                serial::smith_waterman_affine(&input.a, &input.b, &scoring)[n as usize][n as usize]
            });
            let want = want + i32::from(opts.corrupt_oracle);
            let check = move |r: &DagResult<dpx10_apps::SwCell>| {
                let got = r.get(n, n).h;
                if got == want {
                    Ok(())
                } else {
                    Err(format!("H({n}, {n}) = {got}, serial oracle says {want}"))
                }
            };
            drive(opts, host, &input, &mut spans, serial_time, make, check)
        }
        Workload::GapThreads => {
            let seed = input.seed;
            let make = move || {
                let app = GapApp::new(n, n, seed);
                let pattern = app.pattern();
                (app, pattern)
            };
            let (mut want, serial_time) = spans.time("apps.serial", 0, || serial::gap(n, n, seed));
            if opts.corrupt_oracle {
                want[n as usize - 1][n as usize - 1] += 1;
            }
            let check = move |r: &DagResult<u32>| {
                for (i, row) in want.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        let got = r.get(i as u32, j as u32);
                        if got != v {
                            return Err(format!("G({i}, {j}) = {got}, serial oracle says {v}"));
                        }
                    }
                }
                Ok(())
            };
            drive(opts, host, &input, &mut spans, serial_time, make, check)
        }
    }
}

/// An engine set up and ready for `run()`.
enum Prepared<A: DpApp> {
    Threads(ThreadedEngine<A>),
    Sockets {
        coordinator: SocketEngine<A>,
        listener: TcpListener,
        /// Worker places parked on a go/no-go signal.
        workers: Vec<(mpsc::Sender<bool>, JoinHandle<WorkerResult<A>>)>,
    },
}

type WorkerResult<A> = Result<Option<DagResult<<A as DpApp>::Value>>, EngineError>;

/// Builds the app, pattern and engine of every place and, on the socket
/// mesh, binds the coordinator's listener and spawns the worker places.
fn setup<A, P, F>(spec: &Spec, make: &F, recorder: Option<&Recorder>) -> Result<Prepared<A>, String>
where
    A: DpApp + 'static,
    P: DagPattern + 'static,
    F: Fn() -> (A, P),
{
    let config = spec.config();
    match spec.backend {
        Backend::Threads => {
            let (app, pattern) = make();
            let engine = ThreadedEngine::new(app, pattern, config);
            Ok(Prepared::Threads(match recorder {
                Some(r) => engine.with_recorder(r.clone()),
                None => engine,
            }))
        }
        Backend::Sockets => {
            let socket_engine = |config: EngineConfig| {
                let (app, pattern) = make();
                let mut engine = SocketEngine::new(app, pattern, config).with_soft_die();
                if let Some(r) = recorder {
                    engine = engine.with_recorder(r.clone());
                }
                engine
            };
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("listener address: {e}"))?
                .to_string();
            let places = spec.places;
            let mut workers = Vec::new();
            for p in 1..places {
                let engine = socket_engine(config.clone());
                let addr = addr.clone();
                let (go_tx, go_rx) = mpsc::channel::<bool>();
                let handle = std::thread::spawn(move || {
                    if go_rx.recv() != Ok(true) {
                        return Ok(None);
                    }
                    engine.run(SocketConfig::worker(PlaceId(p), places, addr))
                });
                workers.push((go_tx, handle));
            }
            Ok(Prepared::Sockets {
                coordinator: socket_engine(config),
                listener,
                workers,
            })
        }
    }
}

/// Tears down a set-up that was never run.
fn discard<A: DpApp>(prepared: Prepared<A>) {
    if let Prepared::Sockets { workers, .. } = prepared {
        for (go, handle) in workers {
            let _ = go.send(false);
            let _ = handle.join();
        }
    }
}

/// Runs a prepared engine; returns the result and the wall time of the
/// coordinator's `run()` call. Worker places are joined after the clock
/// stops.
fn execute<A: DpApp + 'static>(
    prepared: Prepared<A>,
) -> Result<(DagResult<A::Value>, Duration), String> {
    match prepared {
        Prepared::Threads(engine) => {
            let start = Instant::now();
            let result = engine.run();
            let wall = start.elapsed();
            Ok((result.map_err(|e| format!("run failed: {e}"))?, wall))
        }
        Prepared::Sockets {
            coordinator,
            listener,
            workers,
        } => {
            let places = workers.len() as u16 + 1;
            let start = Instant::now();
            for (go, _) in &workers {
                let _ = go.send(true);
            }
            let outcome = coordinator.run(SocketConfig::coordinator(listener, places));
            let wall = start.elapsed();
            let mut worker_error = None;
            for (idx, (_, handle)) in workers.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(None)) => {}
                    Ok(Ok(Some(_))) => {
                        worker_error.get_or_insert(format!("place {} returned a result", idx + 1));
                    }
                    Ok(Err(e)) => {
                        worker_error.get_or_insert(format!("place {} failed: {e}", idx + 1));
                    }
                    Err(_) => {
                        worker_error.get_or_insert(format!("place {} panicked", idx + 1));
                    }
                }
            }
            let result = outcome
                .map_err(|e| format!("coordinator failed: {e}"))?
                .ok_or("coordinator returned no result")?;
            match worker_error {
                Some(e) => Err(e),
                None => Ok((result, wall)),
            }
        }
    }
}

/// Repetition counters and the failure log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Set-up, run and check of one repetition. Returns the run's wall time
/// in seconds and its result when the repetition passed.
fn repetition<A, P, F, C>(
    spec: &Spec,
    make: &F,
    check: &C,
    recorder: Option<&Recorder>,
    label: &str,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<(f64, DagResult<A::Value>)>
where
    A: DpApp + 'static,
    P: DagPattern + 'static,
    F: Fn() -> (A, P),
    C: Fn(&DagResult<A::Value>) -> Result<(), String>,
{
    tally.attempted += 1;
    let k = tally.attempted;
    let (prepared, _) = spans.time("engine.setup", k, || setup(spec, make, recorder));
    let outcome = prepared.and_then(|p| spans.time(label, k, || execute(p)).0);
    let verdict =
        outcome.and_then(|(result, wall)| check(&result).map(|()| (wall.as_secs_f64(), result)));
    match verdict {
        Ok(ok) => Some(ok),
        Err(e) => {
            tally.failed += 1;
            tally.notes.push(format!("repetition {k} FAILED: {e}"));
            None
        }
    }
}

/// Mean seconds of [`DRY_SETUPS`] set-ups that are torn down without
/// running (teardown untimed).
fn dry_setups<A, P, F>(spec: &Spec, make: &F, spans: &mut Spans) -> f64
where
    A: DpApp + 'static,
    P: DagPattern + 'static,
    F: Fn() -> (A, P),
{
    let mut total = Duration::ZERO;
    for _ in 0..DRY_SETUPS {
        let (prepared, d) = spans.time("engine.setup.dry", 0, || setup(spec, make, None));
        total += d;
        if let Ok(p) = prepared {
            discard(p);
        }
    }
    total.as_secs_f64() / DRY_SETUPS as f64
}

/// The highest whole percentile with at least ten samples above it, and
/// its value; `None` below eleven samples.
fn tail_percentile(xs: &[f64]) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100 * (idx + 1) / n, sorted[idx]))
}

/// A short description of a run report, recorded as-is.
fn report_line(report: &RunReport) -> String {
    let lost: u64 = report.recoveries.iter().map(|r| r.lost).sum();
    format!(
        "report: computed {} of {} cells, epochs {}, recoveries {}, lost {}, frames {}, \
         bytes {}, pulls {}, cache hits {} misses {}",
        report.vertices_computed,
        report.vertices_total,
        report.epochs,
        report.recoveries.len(),
        lost,
        report.comm.messages_sent,
        report.comm.bytes_sent,
        report.comm.pulls_sent,
        report.comm.cache_hits,
        report.comm.cache_misses
    )
}

/// The measurement loop of one workload.
fn drive<A, P, F, C>(
    opts: &Options,
    host: &Host,
    input: &Input,
    spans: &mut Spans,
    serial_time: Duration,
    make: F,
    check: C,
) -> Result<Outcome, String>
where
    A: DpApp + 'static,
    P: DagPattern + 'static,
    F: Fn() -> (A, P),
    C: Fn(&DagResult<A::Value>) -> Result<(), String>,
{
    let w = opts.workload;
    let spec = w.spec();
    let cells = make().1.vertex_count();
    let budget = opts.seconds.as_secs_f64();
    let start = Instant::now();
    let mut tally = Tally::default();
    tally.notes.push(format!(
        "perfbench: workload {} seed {} cells {cells} places {} trace {}",
        w.name(),
        opts.seed,
        spec.places,
        u8::from(opts.trace)
    ));

    if !opts.trace {
        let mut walls = Vec::new();
        let mut setups = Vec::new();
        let mut last_report = None;
        // The high-water mark after the first repetition: later ones
        // start on heap the allocator kept from earlier ones, so the
        // process-wide peak would grow with the number that fit the budget.
        let mut peak_rss = None;
        loop {
            let rep = repetition(&spec, &make, &check, None, "engine.run", spans, &mut tally);
            peak_rss.get_or_insert_with(peak_rss_mb);
            if let Some((wall, result)) = rep {
                walls.push(wall);
                last_report = Some(result.report().clone());
            }
            setups.push(dry_setups(&spec, &make, spans));
            let elapsed = start.elapsed().as_secs_f64();
            let per_rep = elapsed / tally.attempted as f64;
            if tally.attempted >= MIN_REPS && elapsed + per_rep > budget {
                break;
            }
        }
        let ns_per_cell = median(&walls) * 1e9 / cells as f64;
        tally.notes.push(format!(
            "metric ns_per_cell {ns_per_cell:.1} ns (median of {} runs{})",
            walls.len(),
            tail_percentile(&walls)
                .map(|(p, wall)| format!(", p{p} {:.1} ns", wall * 1e9 / cells as f64))
                .unwrap_or_default()
        ));
        tally.notes.push(format!(
            "run walls (ms): {}",
            walls
                .iter()
                .map(|w| format!("{:.1}", w * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        tally.notes.push(format!(
            "metric setup_s {:.3e} s (median of {} means of {DRY_SETUPS} set-ups)",
            median(&setups),
            setups.len()
        ));
        let peak_rss = peak_rss.unwrap_or_default();
        tally.notes.push(format!(
            "metric peak_rss_mb {peak_rss:.1} MiB (after the first run; {:.1} MiB at the end)",
            peak_rss_mb()
        ));
        tally.notes.push(format!(
            "metric failed_frac {} ratio ({} of {} repetitions failed)",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        ));
        if let Some(report) = &last_report {
            tally.notes.push(report_line(report));
        }
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: vec![
                Metric::new("ns_per_cell", "ns", ns_per_cell),
                Metric::new("setup_s", "s", median(&setups)),
                Metric::new("peak_rss_mb", "MiB", peak_rss),
            ],
            notes: tally.notes,
        });
    }

    // Traced run: interleave untraced repetitions with repetitions that
    // carry the engine's flight recorder, then time the layers.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    loop {
        let rep = repetition(&spec, &make, &check, None, "engine.run", spans, &mut tally);
        if let Some((wall, result)) = rep {
            untraced.push(wall);
            last = Some(result);
        }
        let recorder = Recorder::new(spec.places as usize);
        let rep = repetition(
            &spec,
            &make,
            &check,
            Some(&recorder),
            "engine.run.traced",
            spans,
            &mut tally,
        );
        if let Some((wall, _)) = rep {
            traced.push(wall);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_pair = elapsed / (tally.attempted / 2) as f64;
        if tally.attempted >= 2 * MIN_PAIRS && elapsed + per_pair > budget * ENGINE_SHARE {
            break;
        }
    }
    let mut metrics = Vec::new();
    if let Some(result) = &last {
        tally.notes.push(report_line(result.report()));
        let (app, pattern) = make();
        let ns_per_cell = median(&untraced) * 1e9 / cells as f64;
        let ledger = layers::Ledger {
            spec: &spec,
            input,
            app: &app,
            pattern: &pattern,
            result,
            serial_ns_per_cell: serial_time.as_nanos() as f64 / cells as f64,
            ns_per_cell,
            traced_ns_per_cell: median(&traced) * 1e9 / cells as f64,
        };
        metrics = ledger.measure(spans, &mut tally.notes);
    }
    let path = trace_path(w, opts.seed);
    let mut meta = host.pairs();
    meta.push(("workload".into(), w.name().into()));
    meta.push(("seed".into(), opts.seed.to_string()));
    spans
        .write(&path, &meta)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    tally.notes.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    })
}
