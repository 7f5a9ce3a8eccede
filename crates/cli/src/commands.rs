//! Command implementations.

use std::net::TcpListener;
use std::time::Duration;

use dpx10_apgas::{
    launch_places, ElasticEvent, ElasticPlan, ElasticVerb, JoinConfig, PlaceId, SocketConfig,
    SocketNode, Topology,
};
use dpx10_apps::{
    workload, EditDistanceApp, GapApp, KnapsackApp, LcsApp, LpsApp, LwsApp, MtpApp,
    NeedlemanWunschApp, NussinovApp, SwLinearApp, SwlagApp,
};
use dpx10_bench::{AblationPlan, RatchetSpec};
use dpx10_core::{
    DagResult, DepView, DpApp, ElasticConfig, ElasticEngine, ElasticReport, ElasticServer,
    EngineConfig, FaultPlan, RunReport, ServeReport, SocketEngine, ThreadedEngine, VertexValue,
};
use dpx10_dag::{critical_path_len, wavefront_profile, BuiltinKind, DagPattern, VertexId};
use dpx10_obs::{chrome, summary as obs_summary, EventKind, Recorder, Registry, Trace};
use dpx10_sim::{CostModel, SimConfig, SimEngine, SimFaultPlan, TraceBuffer};

use crate::args::{AppChoice, EngineChoice, RunArgs};

/// A run's outcome in CLI form.
pub struct RunSummary {
    /// The app's headline answer (best score, optimum, …).
    pub answer: String,
    /// The run report.
    pub report: RunReport,
    /// Timeline, when requested and available.
    pub timeline: Option<String>,
    /// Workers per place, for utilisation.
    pub workers_per_place: u16,
}

impl RunSummary {
    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let r = &self.report;
        let mut out = String::new();
        out.push_str(&format!("answer: {}\n", self.answer));
        out.push_str(&format!(
            "vertices: {} total, {} computed ({} epochs)\n",
            r.vertices_total, r.vertices_computed, r.epochs
        ));
        if r.sim_time > Duration::ZERO {
            out.push_str(&format!("simulated makespan: {:?}\n", r.sim_time));
            if let Some(u) = r.utilization(self.workers_per_place) {
                out.push_str(&format!("worker utilisation: {:.1}%\n", u * 100.0));
            }
        }
        out.push_str(&format!("wall time: {:?}\n", r.wall_time));
        out.push_str(&format!(
            "communication: {} messages, {} bytes",
            r.comm.messages_sent, r.comm.bytes_sent
        ));
        if let Some(rate) = r.comm.cache_hit_rate() {
            out.push_str(&format!(", cache hit rate {:.1}%", rate * 100.0));
        }
        out.push('\n');
        if r.comm.batches_sent > 0 {
            out.push_str(&format!(
                "coalescing: {} batches carrying {} messages ({:.1} per flush)\n",
                r.comm.batches_sent,
                r.comm.batched_msgs,
                r.comm.batched_msgs as f64 / r.comm.batches_sent as f64
            ));
        }
        if r.comm.pulls_sent + r.comm.pushes_sent > 0 {
            out.push_str(&format!(
                "anti-dependencies: {} pulls ({} deduped), {} pushes ({} round-trips avoided)\n",
                r.comm.pulls_sent,
                r.comm.pulls_deduped,
                r.comm.pushes_sent,
                r.comm.pull_roundtrips_avoided
            ));
        }
        for (k, rec) in r.recoveries.iter().enumerate() {
            out.push_str(&format!(
                "recovery #{k}: kept {}, dropped {}, lost {}, migrated {} ({:?})\n",
                rec.kept, rec.dropped, rec.lost, rec.migrated, rec.sim_time
            ));
        }
        if let Some(t) = &self.timeline {
            out.push('\n');
            out.push_str(t);
        }
        out
    }
}

/// Dispatches a `run` command.
///
/// `raw` is the full argument vector (minus the program name) as typed;
/// the sockets backend re-executes the binary with it so every place
/// process rebuilds the identical workload.
pub fn run(args: &RunArgs, raw: &[String]) -> Result<RunSummary, String> {
    match args.app {
        AppChoice::Swlag => {
            let n = workload::side_for_vertices(args.vertices) as usize;
            let app = SwlagApp::new(workload::dna(n, args.seed), workload::dna(n, args.seed + 1));
            let pattern = app.pattern();
            let last = n as u32;
            execute(args, raw, app, pattern, 90, move |r| {
                format!("H({last}, {last}) = {:?}", r.get(last, last).h)
            })
        }
        AppChoice::SwLinear => {
            let n = workload::side_for_vertices(args.vertices) as usize;
            let app =
                SwLinearApp::new(workload::dna(n, args.seed), workload::dna(n, args.seed + 1));
            let pattern = app.pattern();
            let last = n as u32;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("H({last}, {last}) = {}", r.get(last, last))
            })
        }
        AppChoice::Mtp => {
            let n = workload::side_for_vertices(args.vertices) + 1;
            let app = MtpApp::new(n, n, args.seed);
            let pattern = app.pattern();
            execute(args, raw, app, pattern, 60, move |r| {
                format!("longest path = {}", r.get(n - 1, n - 1))
            })
        }
        AppChoice::Lps => {
            let n = ((args.vertices as f64 * 2.0).sqrt() as usize).max(2);
            let app = LpsApp::new(workload::letters(n, args.seed));
            let pattern = app.pattern();
            let last = n as u32 - 1;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("longest palindromic subsequence = {}", r.get(0, last))
            })
        }
        AppChoice::Knapsack => {
            let capacity = 999;
            let items = workload::knapsack_items(
                workload::knapsack_shape_for_vertices(args.vertices, capacity),
                64,
                args.seed,
            );
            let rows = items.len() as u32;
            let app = KnapsackApp::new(items, capacity);
            let pattern = app.pattern();
            execute(args, raw, app, pattern, 60, move |r| {
                format!("optimum value = {}", r.get(rows, capacity))
            })
        }
        AppChoice::Lcs => {
            let n = workload::side_for_vertices(args.vertices) as usize;
            let app = LcsApp::new(
                workload::letters(n, args.seed),
                workload::letters(n, args.seed + 1),
            );
            let pattern = app.pattern();
            let last = n as u32;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("LCS length = {}", r.get(last, last))
            })
        }
        AppChoice::EditDistance => {
            let n = workload::side_for_vertices(args.vertices) as usize;
            let app = EditDistanceApp::new(
                workload::letters(n, args.seed),
                workload::letters(n, args.seed + 1),
            );
            let pattern = app.pattern();
            let last = n as u32;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("edit distance = {}", r.get(last, last))
            })
        }
        AppChoice::NeedlemanWunsch => {
            let n = workload::side_for_vertices(args.vertices) as usize;
            let app = NeedlemanWunschApp::new(
                workload::dna(n, args.seed),
                workload::dna(n, args.seed + 1),
            );
            let pattern = app.pattern();
            let last = n as u32;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("global alignment score = {}", r.get(last, last))
            })
        }
        AppChoice::Nussinov => {
            // 2D/1D: keep the default scale modest.
            let n = ((args.vertices as f64 * 2.0).sqrt() as usize).clamp(2, 512);
            let rna: Vec<u8> = workload::dna(n, args.seed)
                .into_iter()
                .map(|c| if c == b'T' { b'U' } else { c })
                .collect();
            let app = NussinovApp::new(rna);
            let pattern = app.pattern();
            let last = n as u32 - 1;
            execute(args, raw, app, pattern, 60, move |r| {
                format!("max base pairs = {}", r.get(0, last))
            })
        }
        AppChoice::Lws => {
            // 1-D: every vertex is a position of the single-row DAG.
            let n = (args.vertices as u32).max(2);
            let app = LwsApp::new(n, args.seed);
            let pattern = app.pattern();
            execute(args, raw, app, pattern, 60, move |r| {
                format!("least weight D({}) = {}", n - 1, r.get(0, n - 1))
            })
        }
        AppChoice::Gap => {
            let n = workload::side_for_vertices(args.vertices);
            let app = GapApp::new(n, n, args.seed);
            let pattern = app.pattern();
            execute(args, raw, app, pattern, 60, move |r| {
                format!(
                    "gap alignment cost G({0}, {0}) = {1}",
                    n - 1,
                    r.get(n - 1, n - 1)
                )
            })
        }
    }
}

/// Runs one app on the selected engine.
fn execute<A, P, F>(
    args: &RunArgs,
    raw: &[String],
    app: A,
    pattern: P,
    compute_ns: u64,
    answer: F,
) -> Result<RunSummary, String>
where
    A: DpApp + 'static,
    P: DagPattern + 'static,
    F: FnOnce(&DagResult<A::Value>) -> String,
    A::Value: VertexValue,
{
    // Observability is opt-in: the recorder stays disabled (a no-op on
    // every hot path) unless an export file was requested.
    let want_obs = args.trace_out.is_some() || args.metrics_out.is_some();
    let make_recorder = |places: u16| {
        if want_obs {
            Recorder::with_capacity(places as usize, 1 << 20)
        } else {
            Recorder::disabled()
        }
    };
    match args.engine {
        EngineChoice::Sim => {
            let mut config = SimConfig::paper(args.nodes)
                .with_schedule(args.schedule)
                .with_cache(args.cache)
                .with_restore(args.restore)
                .with_comms(args.comms)
                .with_cost(CostModel::with_compute(compute_ns));
            if let Some(kind) = &args.dist {
                config = config.with_dist(kind.clone());
            }
            if let Some((place, fraction)) = args.fault {
                config = config.with_fault(SimFaultPlan {
                    place,
                    after_fraction: fraction,
                });
            }
            let workers = config.topology.threads_per_place;
            let recorder = make_recorder(config.topology.num_places());
            let engine = SimEngine::new(app, pattern, config).with_recorder(recorder.clone());
            let (result, trace): (DagResult<A::Value>, Option<TraceBuffer>) = if args.timeline {
                let (r, t) = engine.run_traced(2_000_000).map_err(|e| e.to_string())?;
                (r, Some(t))
            } else {
                (engine.run().map_err(|e| e.to_string())?, None)
            };
            write_observability(&recorder, result.report(), args)?;
            Ok(RunSummary {
                answer: answer(&result),
                report: result.report().clone(),
                timeline: trace.map(|t| t.render_timeline(64)),
                workers_per_place: workers,
            })
        }
        EngineChoice::Threaded => {
            let config = places_config(args);
            let recorder = make_recorder(args.places);
            let result = ThreadedEngine::new(app, pattern, config)
                .with_recorder(recorder.clone())
                .run()
                .map_err(|e| e.to_string())?;
            write_observability(&recorder, result.report(), args)?;
            Ok(RunSummary {
                answer: answer(&result),
                report: result.report().clone(),
                timeline: None,
                workers_per_place: 1,
            })
        }
        EngineChoice::Sockets => {
            let config = places_config(args);
            let recorder = make_recorder(args.places);
            let engine = SocketEngine::new(app, pattern, config).with_recorder(recorder.clone());
            match SocketConfig::from_env().map_err(|e| e.to_string())? {
                Some(worker_cfg) => {
                    // We are a spawned place process: join the mesh, do
                    // our share, and exit without printing a summary —
                    // the coordinator owns the result. A worker's trace
                    // goes to its own `<file>.p<N>` (each process has its
                    // own recorder and clock).
                    let my_place = worker_cfg.place;
                    match engine.run(worker_cfg) {
                        Ok(_) => {
                            if let Some(path) = &args.trace_out {
                                let trace = recorder.drain();
                                let worker_path = format!("{path}.p{}", my_place.0);
                                if let Err(e) =
                                    chrome::write(std::path::Path::new(&worker_path), &trace)
                                {
                                    eprintln!("dpx10: place trace write failed: {e}");
                                }
                            }
                            std::process::exit(0)
                        }
                        Err(e) => {
                            eprintln!("dpx10: place error: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                None => {
                    let (coord_cfg, mut children) =
                        launch_places(args.places, raw).map_err(|e| e.to_string())?;
                    match engine.run(coord_cfg) {
                        Ok(result) => {
                            let _ = children.wait_all();
                            let result = result.ok_or("coordinator finished without a result")?;
                            write_observability(&recorder, result.report(), args)?;
                            Ok(RunSummary {
                                answer: answer(&result),
                                report: result.report().clone(),
                                timeline: None,
                                workers_per_place: 1,
                            })
                        }
                        Err(e) => {
                            children.kill_all();
                            Err(e.to_string())
                        }
                    }
                }
            }
        }
    }
}

/// Drains the recorder and writes the requested trace/metrics exports.
fn write_observability(
    recorder: &Recorder,
    report: &RunReport,
    args: &RunArgs,
) -> Result<(), String> {
    if !recorder.enabled() {
        return Ok(());
    }
    let trace = recorder.drain();
    if let Some(path) = &args.trace_out {
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
    }
    if let Some(path) = &args.metrics_out {
        let registry = build_registry(report, &trace);
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
    }
    Ok(())
}

/// Builds the metrics registry a finished run exports: run-level counters
/// from the report plus a per-place compute-time histogram from the
/// recorded vertex spans.
fn build_registry(report: &RunReport, trace: &Trace) -> Registry {
    let reg = Registry::new();
    reg.counter("dpx10_vertices_total", "DAG vertices in the pattern", &[])
        .add(report.vertices_total);
    reg.counter(
        "dpx10_vertices_computed_total",
        "vertices computed, recomputation included",
        &[],
    )
    .add(report.vertices_computed);
    reg.counter("dpx10_epochs_total", "execution epochs run", &[])
        .add(u64::from(report.epochs));
    reg.counter("dpx10_recoveries_total", "recoveries performed", &[])
        .add(report.recoveries.len() as u64);
    reg.counter("dpx10_messages_sent_total", "remote messages sent", &[])
        .add(report.comm.messages_sent);
    reg.counter("dpx10_bytes_sent_total", "remote bytes sent", &[])
        .add(report.comm.bytes_sent);
    reg.counter("dpx10_cache_hits_total", "remote-value cache hits", &[])
        .add(report.comm.cache_hits);
    reg.counter("dpx10_cache_misses_total", "remote-value cache misses", &[])
        .add(report.comm.cache_misses);
    reg.counter(
        "dpx10_batches_sent_total",
        "coalesced batches flushed to the transport",
        &[],
    )
    .add(report.comm.batches_sent);
    reg.counter(
        "dpx10_batched_messages_total",
        "protocol messages carried inside coalesced batches",
        &[],
    )
    .add(report.comm.batched_msgs);
    reg.counter(
        "dpx10_pulls_sent_total",
        "anti-dependency pull round-trips issued",
        &[],
    )
    .add(report.comm.pulls_sent);
    reg.counter(
        "dpx10_pulls_deduped_total",
        "pulls folded into an already in-flight request for the same cell",
        &[],
    )
    .add(report.comm.pulls_deduped);
    reg.counter(
        "dpx10_pushes_sent_total",
        "anti-dependency values pushed eagerly to consumer places",
        &[],
    )
    .add(report.comm.pushes_sent);
    reg.counter(
        "dpx10_pull_roundtrips_avoided_total",
        "parked consumers satisfied by a pushed value instead of a pull",
        &[],
    )
    .add(report.comm.pull_roundtrips_avoided);
    reg.counter(
        "dpx10_trace_events_dropped_total",
        "flight-recorder events dropped at full rings",
        &[],
    )
    .add(trace.dropped);
    reg.gauge("dpx10_wall_seconds", "wall-clock run time", &[])
        .set(report.wall_time.as_secs_f64());
    if report.sim_time > Duration::ZERO {
        reg.gauge("dpx10_sim_seconds", "virtual makespan (simulator)", &[])
            .set(report.sim_time.as_secs_f64());
    }
    for (slot, busy) in report.place_busy.iter().enumerate() {
        reg.gauge(
            "dpx10_place_busy_seconds",
            "per-place busy time, final epoch slot order: vertex execute \
             time (gather, compute, publish) on threads and sockets, \
             virtual compute time on the simulator",
            &[("slot", slot.to_string())],
        )
        .set(busy.as_secs_f64());
    }
    for ev in &trace.events {
        if ev.kind == EventKind::VertexCompute {
            reg.histogram_ns(
                "dpx10_compute_ns",
                "vertex compute span durations",
                &[("place", ev.place.to_string())],
            )
            .observe(ev.dur_ns);
        }
    }
    reg
}

/// `dpx10 trace summarize <file>`: parses an exported Chrome trace,
/// checks the span-nesting invariant, and renders the per-place phase
/// summary. An invalid or ill-nested trace is an `Err` (exit code 1), so
/// CI can use this as its trace validator.
pub fn trace_summarize(file: &str) -> Result<String, String> {
    let json = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let events = chrome::parse(&json).map_err(|e| format!("{file}: {e}"))?;
    chrome::check_nesting(&events).map_err(|e| format!("{file}: span nesting: {e}"))?;
    let rows = obs_summary::rows_from_chrome(&events);
    let mut out = format!("{file}: {} events, spans nest correctly\n\n", events.len());
    out.push_str(&obs_summary::render(&rows, 0));
    let reloc: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "relocate" && e.ph == "X")
        .map(|e| e.dur_ns)
        .collect();
    if !reloc.is_empty() {
        let total: u64 = reloc.iter().sum();
        out.push_str(&format!(
            "\nrelocations: {} chunk(s), {:.1} us per chunk ({:.1} us total)\n",
            reloc.len(),
            total as f64 / reloc.len() as f64 / 1_000.0,
            total as f64 / 1_000.0
        ));
    }
    Ok(out)
}

/// The per-place engine configuration shared by the threaded and socket
/// backends (one worker per place, like the threaded default).
fn places_config(args: &RunArgs) -> EngineConfig {
    let mut config = EngineConfig {
        topology: Topology::flat(args.places),
        ..EngineConfig::paper(1)
    };
    config.schedule = args.schedule;
    config.cache_capacity = args.cache;
    config.restore_manner = args.restore;
    if let Some(kind) = &args.dist {
        config.dist_kind = kind.clone();
    }
    if let Some((place, fraction)) = args.fault {
        config.fault = Some(FaultPlan {
            place,
            after_fraction: fraction,
        });
    }
    config.coalesce = args.coalesce;
    config.comms = args.comms;
    config.aggregation = args.agg;
    config
}

/// `dpx10 chaos`: the seeded differential chaos suite. Returns the
/// rendered report and whether every seed passed. Output is
/// deterministic — no wall-clock content — so the same invocation is
/// bit-for-bit reproducible.
pub fn run_chaos(args: &crate::args::ChaosArgs) -> (String, bool) {
    if args.elastic {
        return run_elastic_chaos(args);
    }
    let opts = dpx10_harness::ChaosOptions {
        sockets: args.sockets,
        shrink: args.shrink,
        coalesce: args.coalesce,
        comms: args.comms,
        agg: args.agg,
        ..dpx10_harness::ChaosOptions::default()
    };
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.count)
            .map(|k| args.start.wrapping_add(k))
            .collect(),
    };
    let mut out = String::new();
    let mut failed = Vec::new();
    for &seed in &seeds {
        let report = dpx10_harness::run_seed(seed, &opts);
        out.push_str(&report.render());
        out.push('\n');
        if !report.passed() {
            failed.push(seed);
        }
    }
    out.push_str(&format!(
        "chaos: {} seed(s), {} passed, {} failed\n",
        seeds.len(),
        seeds.len() - failed.len(),
        failed.len()
    ));
    for seed in &failed {
        out.push_str(&format!(
            "reproduce with: dpx10 chaos --seed {seed:#018x}\n"
        ));
        if let Some(path) = dpx10_harness::write_failure_trace(*seed) {
            out.push_str(&format!(
                "failure trace: {} (inspect with `dpx10 trace summarize`)\n",
                path.display()
            ));
        }
    }
    (out, failed.is_empty())
}

/// One elastic churn plan run on the 12×12 reference workload (the
/// chaos harness's non-commutative mixing kernel, so any dropped,
/// duplicated or reordered dependency value changes the fingerprint).
fn elastic_plan_run(
    founding: u16,
    capacity: u16,
    plan: ElasticPlan,
) -> Result<dpx10_core::ElasticRun<u64>, String> {
    ElasticEngine::new(
        dpx10_harness::MixApp,
        dpx10_dag::builtin::Grid3::new(12, 12),
        ElasticConfig::new(founding, capacity),
    )
    .with_plan(plan)
    .run()
    .map_err(|e| e.to_string())
}

/// Checks one elastic plan against the solo fingerprint, the serial
/// oracle and the compute-conservation invariant; `Ok` carries the
/// run's report for the summary line.
fn elastic_plan_check(plan: &ElasticPlan, solo: u64) -> Result<ElasticReport, String> {
    let run = elastic_plan_run(3, 5, plan.clone())?;
    if run.fingerprint() != solo {
        return Err(format!(
            "fingerprint {:#018x} != solo {solo:#018x}",
            run.fingerprint()
        ));
    }
    for (id, want) in dpx10_harness::oracle(&dpx10_dag::builtin::Grid3::new(12, 12)) {
        if run.try_get(id.i, id.j) != Some(want) {
            return Err(format!("value mismatch at {id}"));
        }
    }
    let r = run.report().clone();
    if r.computed - r.recomputed != r.total {
        return Err(format!(
            "computed {} - recomputed {} != total {}",
            r.computed, r.recomputed, r.total
        ));
    }
    Ok(r)
}

/// `dpx10 chaos --elastic`: the membership-churn sweep. Every seed
/// expands into an [`ElasticPlan`] of joins, drains, live relocations
/// and kills; the run must match the solo fingerprint, the serial
/// oracle, and conserve compute. Deterministic like the classic sweep.
fn run_elastic_chaos(args: &crate::args::ChaosArgs) -> (String, bool) {
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.count)
            .map(|k| args.start.wrapping_add(k))
            .collect(),
    };
    let solo = match elastic_plan_run(1, 1, ElasticPlan::quiet(0)) {
        Ok(run) => run.fingerprint(),
        Err(e) => return (format!("elastic chaos: solo oracle failed: {e}\n"), false),
    };
    let mut out = String::new();
    let mut failed = Vec::new();
    for &seed in &seeds {
        let plan = ElasticPlan::generate(seed, 3, 5);
        match elastic_plan_check(&plan, solo) {
            Ok(r) => out.push_str(&format!(
                "elastic seed {seed:#018x}: ok    {plan} (joins {}, drains {}, kills {}, relocated {}, recomputed {})\n",
                r.joins, r.drains, r.kills, r.chunks_relocated, r.recomputed
            )),
            Err(e) => {
                out.push_str(&format!("elastic seed {seed:#018x}: FAIL  {plan}: {e}\n"));
                if args.shrink {
                    // Greedy minimisation: keep dropping one event at a
                    // time while the plan still fails.
                    let mut minimal = plan.clone();
                    'minimise: loop {
                        for cand in minimal.shrink() {
                            if elastic_plan_check(&cand, solo).is_err() {
                                minimal = cand;
                                continue 'minimise;
                            }
                        }
                        break;
                    }
                    out.push_str(&format!("  minimal failing plan: {minimal}\n"));
                }
                failed.push(seed);
            }
        }
    }
    out.push_str(&format!(
        "elastic chaos: {} seed(s), {} passed, {} failed\n",
        seeds.len(),
        seeds.len() - failed.len(),
        failed.len()
    ));
    for seed in &failed {
        out.push_str(&format!(
            "reproduce with: dpx10 chaos --elastic --seed {seed:#018x}\n"
        ));
    }
    (out, failed.is_empty())
}

/// `dpx10 bench`: with `--plan FILE`, runs a declarative ablation plan
/// through the experiment registry; otherwise the comms-plane baseline.
/// The baseline runs SWLAG twice over an in-process socket mesh —
/// coalescing off, then on at the requested byte budget — and writes
/// the frame/byte/wall-time comparison to a JSON file. The
/// cyclic-column distribution puts every column boundary across a place
/// boundary, so the uncoalesced run pays one transport frame per remote
/// `Done` and the comparison measures the comms plane rather than the
/// distribution's boundary traffic.
///
/// Errs (process exit 1) if the two runs' result fingerprints differ: a
/// coalesced run must be byte-for-byte the same computation.
pub fn run_bench(args: &crate::args::BenchArgs) -> Result<String, String> {
    if let Some(plan_path) = &args.plan {
        return run_bench_plan(args, plan_path);
    }
    if args.comms == dpx10_core::CommsMode::Push {
        return run_bench_push(args);
    }
    let off = bench_swlag_sockets(args, None, dpx10_core::CommsMode::Pull, 4096)?;
    let mut on = bench_swlag_sockets(args, Some(args.coalesce), dpx10_core::CommsMode::Pull, 4096)?;
    // Test hook: force the mismatch path so the exit-nonzero contract
    // stays pinned by a smoke test without a real equivalence bug.
    if std::env::var("DPX10_BENCH_FORCE_FP_MISMATCH").as_deref() == Ok("1") {
        on.0 ^= 1;
    }
    let n = workload::side_for_vertices(args.vertices) as usize;
    if off.0 != on.0 {
        return Err(format!(
            "coalescing changed the result: fingerprint {:#018x} (off) vs {:#018x} (on)",
            off.0, on.0
        ));
    }
    let (fingerprint, off) = (off.0, off.1);
    let on = on.1;
    let ratio = off.comm.messages_sent as f64 / on.comm.messages_sent.max(1) as f64;
    let json = format!(
        "{{\n  \"app\": \"swlag\",\n  \"vertices\": {},\n  \"side\": {n},\n  \"places\": {},\n  \"dist\": \"cyclic-col\",\n  \"seed\": {},\n  \"coalesce_bytes\": {},\n  \"fingerprint\": \"{fingerprint:#018x}\",\n  \"off\": {},\n  \"on\": {},\n  \"frame_reduction\": {ratio:.2}\n}}\n",
        args.vertices,
        args.places,
        args.seed,
        args.coalesce,
        bench_mode_json(&off),
        bench_mode_json(&on),
    );
    std::fs::write(&args.out, &json).map_err(|e| format!("write {}: {e}", args.out))?;
    let mut out = format!(
        "bench: swlag, {} vertices ({n}x{n}), {} places, cyclic-col, seed {}\n",
        args.vertices, args.places, args.seed
    );
    out.push_str(&format!(
        "coalesce off:  {:>9} frames, {:>11} bytes, {:?}\n",
        off.comm.messages_sent, off.comm.bytes_sent, off.wall_time
    ));
    out.push_str(&format!(
        "coalesce {:>4}: {:>9} frames, {:>11} bytes, {:?} ({} batches carrying {} messages)\n",
        args.coalesce,
        on.comm.messages_sent,
        on.comm.bytes_sent,
        on.wall_time,
        on.comm.batches_sent,
        on.comm.batched_msgs
    ));
    out.push_str(&format!(
        "frame reduction: {ratio:.1}x, fingerprints match ({fingerprint:#018x})\n"
    ));
    out.push_str(&format!("wrote {}\n", args.out));
    Ok(out)
}

/// The remote-value cache pinned by the pull-vs-push baseline. Small
/// enough that the SWLAG anti-diagonal working set spills it, so the
/// pull plane actually pays cache-miss round-trips for push to remove;
/// at the default 4096 the FIFO cache absorbs nearly every remote read
/// and both modes would measure zero.
const PUSH_BENCH_CACHE: usize = 256;

/// `dpx10 bench --comms push`: the anti-dependency delivery baseline.
/// Runs the same SWLAG socket-mesh cell twice — pull mode, then push
/// mode — with the cache pinned small (see [`PUSH_BENCH_CACHE`]) and
/// coalescing off, so the comparison isolates the delivery plane:
/// every avoided `Pull`/`PullVal` round-trip shows up directly in the
/// frame counts. Errs if the two fingerprints differ — push is a
/// transport optimisation, never a different computation.
fn run_bench_push(args: &crate::args::BenchArgs) -> Result<String, String> {
    let pull = bench_swlag_sockets(args, None, dpx10_core::CommsMode::Pull, PUSH_BENCH_CACHE)?;
    let mut push = bench_swlag_sockets(args, None, dpx10_core::CommsMode::Push, PUSH_BENCH_CACHE)?;
    // Same exit-nonzero smoke hook as the coalescing baseline.
    if std::env::var("DPX10_BENCH_FORCE_FP_MISMATCH").as_deref() == Ok("1") {
        push.0 ^= 1;
    }
    if pull.0 != push.0 {
        return Err(format!(
            "push mode changed the result: fingerprint {:#018x} (pull) vs {:#018x} (push)",
            pull.0, push.0
        ));
    }
    let (fingerprint, pull) = (pull.0, pull.1);
    let push = push.1;
    let n = workload::side_for_vertices(args.vertices) as usize;
    let reduction = 1.0 - push.comm.pulls_sent as f64 / pull.comm.pulls_sent.max(1) as f64;
    let json = format!(
        "{{\n  \"app\": \"swlag\",\n  \"vertices\": {},\n  \"side\": {n},\n  \"places\": {},\n  \"dist\": \"cyclic-col\",\n  \"seed\": {},\n  \"cache\": {PUSH_BENCH_CACHE},\n  \"fingerprint\": \"{fingerprint:#018x}\",\n  \"pull\": {},\n  \"push\": {},\n  \"pull_reduction\": {reduction:.2}\n}}\n",
        args.vertices,
        args.places,
        args.seed,
        bench_comms_json(&pull),
        bench_comms_json(&push),
    );
    std::fs::write(&args.out, &json).map_err(|e| format!("write {}: {e}", args.out))?;
    let mut out = format!(
        "bench: swlag, {} vertices ({n}x{n}), {} places, cyclic-col, cache {PUSH_BENCH_CACHE}, seed {}\n",
        args.vertices, args.places, args.seed
    );
    out.push_str(&format!(
        "comms pull: {:>9} pulls, {:>9} frames, {:>11} bytes, {:?}\n",
        pull.comm.pulls_sent, pull.comm.messages_sent, pull.comm.bytes_sent, pull.wall_time
    ));
    out.push_str(&format!(
        "comms push: {:>9} pulls, {:>9} frames, {:>11} bytes, {:?} ({} pushes, {} round-trips avoided)\n",
        push.comm.pulls_sent,
        push.comm.messages_sent,
        push.comm.bytes_sent,
        push.wall_time,
        push.comm.pushes_sent,
        push.comm.pull_roundtrips_avoided
    ));
    out.push_str(&format!(
        "pull round-trips reduced {:.1}%, fingerprints match ({fingerprint:#018x})\n",
        reduction * 100.0
    ));
    out.push_str(&format!("wrote {}\n", args.out));
    Ok(out)
}

/// One comms mode as a JSON object string (pull-vs-push baseline).
fn bench_comms_json(r: &RunReport) -> String {
    format!(
        "{{ \"pulls_sent\": {}, \"pushes_sent\": {}, \"pull_roundtrips_avoided\": {}, \"frames\": {}, \"bytes\": {}, \"wall_ms\": {} }}",
        r.comm.pulls_sent,
        r.comm.pushes_sent,
        r.comm.pull_roundtrips_avoided,
        r.comm.messages_sent,
        r.comm.bytes_sent,
        r.wall_time.as_millis()
    )
}

/// One bench mode as a JSON object string.
fn bench_mode_json(r: &RunReport) -> String {
    format!(
        "{{ \"frames\": {}, \"bytes\": {}, \"wall_ms\": {}, \"batches\": {}, \"batched_messages\": {} }}",
        r.comm.messages_sent,
        r.comm.bytes_sent,
        r.wall_time.as_millis(),
        r.comm.batches_sent,
        r.comm.batched_msgs
    )
}

/// Runs the comms-baseline SWLAG configuration through the shared
/// registry runner: an in-process socket mesh (every place a thread of
/// this process, same idiom as the chaos harness), cyclic-column
/// distribution, default cache. Returns the result fingerprint plus the
/// coordinator's report.
fn bench_swlag_sockets(
    args: &crate::args::BenchArgs,
    coalesce: Option<usize>,
    comms: dpx10_core::CommsMode,
    cache: usize,
) -> Result<(u64, RunReport), String> {
    let cell = dpx10_bench::Experiment {
        plan: "comms-baseline".into(),
        plan_digest: 0,
        index: 0,
        cell: format!(
            "sockets/swlag/v{}/p{}/c{}/t1/k{cache}/m{}",
            args.vertices,
            args.places,
            coalesce.map_or("off".into(), |b| b.to_string()),
            comms.name()
        ),
        backend: dpx10_bench::Backend::Sockets,
        app: dpx10_bench::BenchApp::Swlag,
        vertices: args.vertices,
        places: args.places,
        coalesce,
        tile: 1,
        cache,
        dist: dpx10_bench::DistChoice::CyclicCol,
        schedule: dpx10_core::ScheduleStrategy::Local,
        seed: args.seed,
        comms,
    };
    dpx10_bench::runner::run_cell(&cell)
}

/// `dpx10 bench --plan`: expand the plan, run every cell, append
/// provenance-hashed rows to the registry CSV, write the per-run JSON,
/// and optionally compare against (or tighten) the committed ratchet
/// baseline. Stdout carries only deterministic data — fingerprints and
/// the deterministic KPIs — so two consecutive runs of the same plan
/// print byte-identical text; wall times and file paths that embed
/// timestamps go to stderr.
fn run_bench_plan(args: &crate::args::BenchArgs, plan_path: &str) -> Result<String, String> {
    use std::path::Path;

    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("read {plan_path}: {e}"))?;
    let plan = AblationPlan::parse(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    plan.validate().map_err(|e| format!("{plan_path}: {e}"))?;
    let digest = plan.digest();
    let cells = plan.expand();
    let git = dpx10_bench::registry::git_describe();
    let host = dpx10_bench::registry::host_fingerprint();
    let mut out = format!(
        "plan {} — {} cells, digest {digest:016x}\n",
        plan.name,
        cells.len()
    );
    let mut records = Vec::new();
    for exp in &cells {
        let (fingerprint, report) = dpx10_bench::runner::run_cell(exp)?;
        let record = dpx10_bench::runner::record(exp, fingerprint, &report, &git, &host);
        eprintln!(
            "dpx10 bench: {} in {:?} ({} frames, {} bytes, {} pulls)",
            exp.cell, report.wall_time, record.frames, record.bytes, record.pull_roundtrips
        );
        out.push_str(&format!(
            "{}  fp {}  computed {}  recoveries {}\n",
            exp.cell, record.fingerprint, record.computed, record.recoveries
        ));
        records.push(record);
    }
    dpx10_bench::registry::append(Path::new(&args.registry), &records)?;
    out.push_str(&format!(
        "registry: appended {} rows to {}\n",
        records.len(),
        args.registry
    ));
    let run_json = args.run_json.clone().unwrap_or_else(|| {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!(
            "results/runs/{}-{ts}-{}.json",
            plan.name,
            std::process::id()
        )
    });
    dpx10_bench::registry::write_run_json(Path::new(&run_json), &plan.name, digest, &records)?;
    eprintln!("dpx10 bench: per-run report written to {run_json}");
    if let Some(trend_path) = &args.trend {
        let rows = dpx10_bench::registry::load(Path::new(&args.registry))?;
        std::fs::write(trend_path, dpx10_bench::registry::trend_json(&rows))
            .map_err(|e| format!("write {trend_path}: {e}"))?;
        out.push_str(&format!("trend: {trend_path}\n"));
    }
    if args.ratchet {
        let baseline_path = args
            .baseline
            .clone()
            .unwrap_or_else(|| format!("plans/baselines/{}.toml", plan.name));
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline_text) => {
                let spec = RatchetSpec::parse(&baseline_text)
                    .map_err(|e| format!("{baseline_path}: {e}"))?;
                let report = spec.compare(digest, &records)?;
                if !report.passed() {
                    let mut msg = format!("perf ratchet FAILED against {baseline_path}:\n");
                    for regression in &report.regressions {
                        msg.push_str(&format!("  {regression}\n"));
                    }
                    return Err(msg);
                }
                for (cell, kpi, base, measured) in &report.improvements {
                    eprintln!("dpx10 bench: improvement {cell} {kpi}: {base} -> {measured}");
                }
                if args.update_baseline {
                    std::fs::write(&baseline_path, spec.tightened(&records).render())
                        .map_err(|e| format!("write {baseline_path}: {e}"))?;
                    eprintln!(
                        "dpx10 bench: baseline tightened ({} improvement(s))",
                        report.improvements.len()
                    );
                }
                out.push_str(&format!(
                    "ratchet: PASS, {} cells within tolerance\n",
                    report.cells
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if args.update_baseline {
                    if let Some(parent) = Path::new(&baseline_path).parent() {
                        if !parent.as_os_str().is_empty() {
                            std::fs::create_dir_all(parent)
                                .map_err(|e| format!("create {}: {e}", parent.display()))?;
                        }
                    }
                    let spec = RatchetSpec::from_run(&plan.name, digest, &records);
                    std::fs::write(&baseline_path, spec.render())
                        .map_err(|e| format!("write {baseline_path}: {e}"))?;
                    out.push_str(&format!(
                        "ratchet: baseline created at {baseline_path} ({} cells)\n",
                        records.len()
                    ));
                } else {
                    return Err(format!(
                        "no committed baseline at {baseline_path}; create one with \
                         --ratchet --update-baseline and commit it"
                    ));
                }
            }
            Err(e) => return Err(format!("read {baseline_path}: {e}")),
        }
    }
    Ok(out)
}

/// The applications `dpx10 serve` can multiplex: a [`JobServer`] runs
/// one value type per mesh, so serve offers the builtin apps that share
/// `Value = u32` and dispatches per job.
enum ServeJobApp {
    Lcs(LcsApp),
    EditDistance(EditDistanceApp),
    Lps(LpsApp),
    Nussinov(NussinovApp),
    Lws(LwsApp),
    Gap(GapApp),
}

impl DpApp for ServeJobApp {
    type Value = u32;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        match self {
            ServeJobApp::Lcs(app) => app.compute(id, deps),
            ServeJobApp::EditDistance(app) => app.compute(id, deps),
            ServeJobApp::Lps(app) => app.compute(id, deps),
            ServeJobApp::Nussinov(app) => app.compute(id, deps),
            ServeJobApp::Lws(app) => app.compute(id, deps),
            ServeJobApp::Gap(app) => app.compute(id, deps),
        }
    }
    fn agg_spec(&self) -> Option<dpx10_core::AggSpec> {
        match self {
            ServeJobApp::Lws(app) => app.agg_spec(),
            ServeJobApp::Gap(app) => app.agg_spec(),
            _ => None,
        }
    }
    fn agg_key(&self, axis: dpx10_core::Axis, id: VertexId, value: &u32) -> i64 {
        match self {
            ServeJobApp::Lws(app) => app.agg_key(axis, id, value),
            ServeJobApp::Gap(app) => app.agg_key(axis, id, value),
            _ => unimplemented!("no aggregation for this serve app"),
        }
    }
    fn compute_ranged(
        &self,
        id: VertexId,
        points: &DepView<'_, u32>,
        aggs: &dpx10_core::AggView<'_>,
    ) -> u32 {
        match self {
            ServeJobApp::Lws(app) => app.compute_ranged(id, points, aggs),
            ServeJobApp::Gap(app) => app.compute_ranged(id, points, aggs),
            _ => unimplemented!("no ranged compute for this serve app"),
        }
    }
}

/// One job to serve, as plain data so every place rebuilds it
/// identically (the serve contract).
#[derive(Clone)]
struct ServeJobDef {
    name: String,
    app: AppChoice,
    vertices: u64,
    seed: u64,
    priority: u8,
}

/// Builds the app + pattern a job definition describes.
fn serve_app_for(def: &ServeJobDef) -> Result<(ServeJobApp, Box<dyn DagPattern>), String> {
    match def.app {
        AppChoice::Lcs => {
            let n = workload::side_for_vertices(def.vertices) as usize;
            let app = LcsApp::new(
                workload::letters(n, def.seed),
                workload::letters(n, def.seed + 1),
            );
            let pattern = app.pattern();
            Ok((ServeJobApp::Lcs(app), Box::new(pattern)))
        }
        AppChoice::EditDistance => {
            let n = workload::side_for_vertices(def.vertices) as usize;
            let app = EditDistanceApp::new(
                workload::letters(n, def.seed),
                workload::letters(n, def.seed + 1),
            );
            let pattern = app.pattern();
            Ok((ServeJobApp::EditDistance(app), Box::new(pattern)))
        }
        AppChoice::Lps => {
            let n = ((def.vertices as f64 * 2.0).sqrt() as usize).max(2);
            let app = LpsApp::new(workload::letters(n, def.seed));
            let pattern = app.pattern();
            Ok((ServeJobApp::Lps(app), Box::new(pattern)))
        }
        AppChoice::Nussinov => {
            let n = ((def.vertices as f64 * 2.0).sqrt() as usize).clamp(2, 512);
            let rna: Vec<u8> = workload::dna(n, def.seed)
                .into_iter()
                .map(|c| if c == b'T' { b'U' } else { c })
                .collect();
            let app = NussinovApp::new(rna);
            let pattern = app.pattern();
            Ok((ServeJobApp::Nussinov(app), Box::new(pattern)))
        }
        AppChoice::Lws => {
            let n = (def.vertices as u32).max(2);
            let app = LwsApp::new(n, def.seed);
            let pattern = app.pattern();
            Ok((ServeJobApp::Lws(app), Box::new(pattern)))
        }
        AppChoice::Gap => {
            let n = workload::side_for_vertices(def.vertices);
            let app = GapApp::new(n, n, def.seed);
            let pattern = app.pattern();
            Ok((ServeJobApp::Gap(app), Box::new(pattern)))
        }
        other => Err(format!(
            "app {} cannot be served (serve apps share one value type: lcs, edit-distance, lps, nussinov, lws, gap)",
            AppChoice::name(other)
        )),
    }
}

/// The job's solo oracle: the same app on a single-place threaded
/// engine, fingerprinted.
fn serve_solo_fingerprint(def: &ServeJobDef) -> Result<u64, String> {
    let (app, pattern) = serve_app_for(def)?;
    let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(1))
        .run()
        .map_err(|e| format!("solo run of {}: {e}", def.name))?;
    Ok(result.fingerprint())
}

/// Parses a serve jobfile: `<app> <vertices> <seed> [priority]` per
/// line, `#` comments and blank lines skipped.
fn parse_jobfile(text: &str) -> Result<Vec<ServeJobDef>, String> {
    let mut defs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 || fields.len() > 4 {
            return Err(format!(
                "jobfile line {}: expected `<app> <vertices> <seed> [priority]`, got `{line}`",
                lineno + 1
            ));
        }
        let app = AppChoice::ALL
            .iter()
            .find(|(name, _)| *name == fields[0])
            .map(|&(_, app)| app)
            .ok_or(format!(
                "jobfile line {}: unknown app {}",
                lineno + 1,
                fields[0]
            ))?;
        let vertices: u64 = fields[1]
            .parse()
            .map_err(|_| format!("jobfile line {}: bad vertices {}", lineno + 1, fields[1]))?;
        let seed: u64 = fields[2]
            .parse()
            .map_err(|_| format!("jobfile line {}: bad seed {}", lineno + 1, fields[2]))?;
        let priority: u8 = match fields.get(3) {
            Some(p) => p
                .parse()
                .map_err(|_| format!("jobfile line {}: bad priority {p}", lineno + 1))?,
            None => 0,
        };
        defs.push(ServeJobDef {
            name: format!("{}:{}", fields[0], defs.len()),
            app,
            vertices,
            seed,
            priority,
        });
    }
    if defs.is_empty() {
        return Err("jobfile has no jobs".into());
    }
    Ok(defs)
}

/// Job-level metrics of a finished serve, Prometheus-renderable.
fn build_serve_registry(report: &ServeReport<u32>) -> Registry {
    let reg = Registry::new();
    reg.counter(
        "dpx10_jobs_done_total",
        "jobs that completed with a result",
        &[],
    )
    .add(report.succeeded() as u64);
    reg.counter(
        "dpx10_jobs_failed_total",
        "jobs that ended in an error",
        &[],
    )
    .add((report.jobs.len() - report.succeeded()) as u64);
    reg.gauge(
        "dpx10_jobs_active_peak",
        "most jobs concurrently admitted on the shared mesh",
        &[],
    )
    .set(report.peak_in_flight as f64);
    for job in &report.jobs {
        reg.histogram_ns("dpx10_job_wait_ns", "submit-to-admission wait per job", &[])
            .observe(job.wait.as_nanos() as u64);
    }
    reg
}

/// The job list a serve invocation describes (jobfile or sweep), with
/// every app checked servable before any work starts.
fn serve_defs(args: &crate::args::ServeArgs) -> Result<Vec<ServeJobDef>, String> {
    let defs: Vec<ServeJobDef> = match &args.jobfile {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            parse_jobfile(&text)?
        }
        None => (0..args.jobs)
            .map(|k| ServeJobDef {
                name: format!("{}:{k}", args.app.name()),
                app: args.app,
                vertices: args.vertices,
                seed: args.seed.wrapping_add(u64::from(k)),
                priority: 0,
            })
            .collect(),
    };
    // Fail fast on un-servable apps before any thread spawns.
    for def in &defs {
        serve_app_for(def)?;
    }
    Ok(defs)
}

/// `dpx10 serve`: several DP jobs on one shared in-process socket mesh
/// (every place a thread, same idiom as `bench`). Jobs come from a
/// jobfile or a `--jobs N --app A` sweep; `--verify` re-runs every job
/// solo and errs on any fingerprint divergence.
pub fn run_serve(args: &crate::args::ServeArgs) -> Result<String, String> {
    if args.elastic {
        return run_serve_elastic(args);
    }
    let defs = serve_defs(args)?;

    let recorder = if args.trace_out.is_some() {
        Recorder::with_capacity(args.places as usize, 1 << 20)
    } else {
        Recorder::disabled()
    };
    let places = args.places;
    let max_in_flight = args.max_in_flight;
    let comms = args.comms;
    let build = {
        let defs = defs.clone();
        let recorder = recorder.clone();
        move || -> Result<dpx10_core::JobServer<ServeJobApp>, String> {
            let mut server = dpx10_core::JobServer::new()
                .with_max_in_flight(max_in_flight)
                .with_recorder(recorder.clone());
            for def in &defs {
                let (app, pattern) = serve_app_for(def)?;
                let mut config = EngineConfig {
                    topology: Topology::flat(places),
                    ..EngineConfig::paper(1)
                };
                config.comms = comms;
                server
                    .submit(
                        dpx10_core::JobSpec::new(def.name.clone(), app, pattern, config)
                            .with_priority(def.priority),
                    )
                    .map_err(|e| e.to_string())?;
            }
            Ok(server)
        }
    };

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?
        .to_string();
    let build = std::sync::Arc::new(build);
    let mut workers = Vec::new();
    for p in 1..places {
        let addr = addr.clone();
        let build = build.clone();
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            match build()?.serve(SocketConfig::worker(PlaceId(p), places, addr)) {
                Ok(None) => Ok(()),
                Ok(Some(_)) => Err(format!("worker place {p} returned a report")),
                Err(e) => Err(format!("worker place {p}: {e}")),
            }
        }));
    }
    let outcome = build()
        .map_err(|e| e.to_string())?
        .serve(SocketConfig::coordinator(listener, places));
    for (idx, w) in workers.into_iter().enumerate() {
        w.join()
            .map_err(|_| format!("worker place {} panicked", idx + 1))??;
    }
    let report = outcome
        .map_err(|e| format!("coordinator failed: {e}"))?
        .ok_or("coordinator returned no report")?;

    let mut out = format!(
        "serve: {} job(s), {} places, admission cap {}\n",
        defs.len(),
        places,
        max_in_flight
    );
    let mut failures = Vec::new();
    for (job, def) in report.jobs.iter().zip(&defs) {
        match &job.result {
            Ok(result) => {
                let r = result.report();
                out.push_str(&format!(
                    "  {:<20} prio {}  wait {:>9?}  epochs {}  recoveries {}  fingerprint {:#018x}",
                    job.name,
                    job.priority,
                    job.wait,
                    r.epochs,
                    r.recoveries.len(),
                    result.fingerprint()
                ));
                if let Some(d) = &r.schedule_downgrade {
                    out.push_str(&format!(
                        "  [schedule {:?} -> {:?}]",
                        d.requested, d.effective
                    ));
                }
                if args.verify {
                    let solo = serve_solo_fingerprint(def)?;
                    if solo == result.fingerprint() {
                        out.push_str("  verified");
                    } else {
                        failures.push(format!(
                            "job {} fingerprint {:#018x} != solo {:#018x}",
                            job.name,
                            result.fingerprint(),
                            solo
                        ));
                        out.push_str("  MISMATCH");
                    }
                }
                out.push('\n');
            }
            Err(e) => {
                failures.push(format!("job {} failed: {e}", job.name));
                out.push_str(&format!(
                    "  {:<20} prio {}  FAILED: {e}\n",
                    job.name, job.priority
                ));
            }
        }
    }
    out.push_str(&format!(
        "done: {}/{} succeeded, peak {} in flight\n",
        report.succeeded(),
        report.jobs.len(),
        report.peak_in_flight
    ));
    if let Some(path) = &args.trace_out {
        let trace = recorder.drain();
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = &args.metrics_out {
        let registry = build_serve_registry(&report);
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(out)
}

/// Renders a mesh-size timeline (`3 -> 4 -> 5 -> 4 -> 3`) from the
/// report's membership-change samples.
fn mesh_timeline(founding: u16, sizes: &[(u64, u16)]) -> String {
    let mut out = founding.to_string();
    for &(_, n) in sizes {
        out.push_str(&format!(" -> {n}"));
    }
    out
}

/// `dpx10 serve --elastic`: the same job sweep, but on the elastic mesh.
/// Every job runs under a grow-and-drain churn plan — two places join
/// mid-sweep and drain back out before the job ends — with the chunks
/// they briefly owned shipped live, never recomputed. Every job's
/// fingerprint is compared against its solo run, so the membership
/// churn is proven invisible to the results.
fn run_serve_elastic(args: &crate::args::ServeArgs) -> Result<String, String> {
    if args.capacity < args.places + 2 {
        return Err(format!(
            "--elastic grows the mesh by 2 places mid-sweep: --capacity {} leaves no room above --places {}",
            args.capacity, args.places
        ));
    }
    let defs = serve_defs(args)?;
    let recorder = if args.trace_out.is_some() {
        Recorder::with_capacity(args.capacity as usize, 1 << 20)
    } else {
        Recorder::disabled()
    };
    let mut server = ElasticServer::new(args.places, args.capacity).with_recorder(recorder.clone());

    // Each job's plan: grow by two joiners early, drain them late. The
    // mesh returns to its founders between jobs, so the joiners always
    // receive the same two fresh place ids.
    let joiner_a = args.places;
    let joiner_b = args.places + 1;
    let ev = |at: f64, verb: ElasticVerb| ElasticEvent { at, verb };

    let mut out = format!(
        "serve (elastic): {} job(s), {} founding places, capacity {}\n",
        defs.len(),
        args.places,
        args.capacity
    );
    let mut failures = Vec::new();
    let mut totals = ElasticReport::default();
    for def in &defs {
        let plan = ElasticPlan {
            seed: def.seed,
            events: vec![
                ev(0.10, ElasticVerb::Join),
                ev(0.18, ElasticVerb::Join),
                ev(
                    0.55,
                    ElasticVerb::Drain {
                        place: PlaceId(joiner_a),
                    },
                ),
                ev(
                    0.70,
                    ElasticVerb::Drain {
                        place: PlaceId(joiner_b),
                    },
                ),
            ],
        };
        let (app, pattern) = serve_app_for(def)?;
        let run = server
            .run_job(app, pattern, plan)
            .map_err(|e| format!("job {}: {e}", def.name))?;
        let solo = serve_solo_fingerprint(def)?;
        let r = run.report();
        out.push_str(&format!(
            "  {:<20} fingerprint {:#018x}  mesh {}  relocated {} chunk(s) carrying {} cell(s)",
            def.name,
            run.fingerprint(),
            mesh_timeline(args.places, &r.mesh_sizes),
            r.chunks_relocated,
            r.cells_moved
        ));
        if run.fingerprint() == solo {
            out.push_str("  verified");
        } else {
            failures.push(format!(
                "job {} fingerprint {:#018x} != solo {:#018x}",
                def.name,
                run.fingerprint(),
                solo
            ));
            out.push_str("  MISMATCH");
        }
        out.push('\n');
        if r.chunks_relocated == 0 {
            failures.push(format!("job {} never relocated a chunk", def.name));
        }
        if r.recomputed > 0 {
            failures.push(format!(
                "job {} recomputed {} cell(s) under graceful churn",
                def.name, r.recomputed
            ));
        }
        if r.final_members.len() != args.places as usize {
            failures.push(format!(
                "job {} ended with members {:?}, expected the {} founders",
                def.name, r.final_members, args.places
            ));
        }
        totals.joins += r.joins;
        totals.drains += r.drains;
        totals.chunks_relocated += r.chunks_relocated;
        totals.cells_moved += r.cells_moved;
        totals.chunk_bytes += r.chunk_bytes;
        totals.recomputed += r.recomputed;
    }
    out.push_str(&format!(
        "done: {} job(s), {} joins, {} drains, {} chunks relocated ({} cells, {} bytes), {} recomputed\n",
        server.jobs_run(),
        totals.joins,
        totals.drains,
        totals.chunks_relocated,
        totals.cells_moved,
        totals.chunk_bytes,
        totals.recomputed
    ));
    if let Some(path) = &args.trace_out {
        let trace = recorder.drain();
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = &args.metrics_out {
        let reg = Registry::new();
        reg.gauge(
            "dpx10_mesh_size",
            "current member count of the elastic mesh",
            &[],
        )
        .set(server.members().len() as f64);
        reg.counter(
            "dpx10_chunks_relocated",
            "chunks shipped whole via live relocation",
            &[],
        )
        .add(totals.chunks_relocated);
        reg.counter(
            "dpx10_cells_moved_total",
            "finished cells carried inside relocated chunks",
            &[],
        )
        .add(totals.cells_moved);
        reg.counter(
            "dpx10_chunk_bytes_total",
            "encoded ChunkData payload bytes shipped",
            &[],
        )
        .add(totals.chunk_bytes);
        reg.counter("dpx10_joins_total", "places that joined mid-run", &[])
            .add(totals.joins);
        reg.counter("dpx10_drains_total", "graceful departures", &[])
            .add(totals.drains);
        reg.counter(
            "dpx10_jobs_done_total",
            "jobs that completed with a result",
            &[],
        )
        .add(server.jobs_run());
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = &args.bench_out {
        out.push_str(&elastic_bench(&defs[0], args.places, args.capacity, path)?);
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(out)
}

/// One elastic-bench mode as a JSON object string.
fn elastic_mode_json(r: &ElasticReport) -> String {
    format!(
        "{{ \"chunks_relocated\": {}, \"cells_moved\": {}, \"chunk_bytes\": {}, \"computed\": {}, \"recomputed\": {} }}",
        r.chunks_relocated, r.cells_moved, r.chunk_bytes, r.computed, r.recomputed
    )
}

/// The relocation benchmark: the same job loses place 1 at half
/// progress, once as a graceful drain (chunks relocate live) and once
/// as an abrupt kill (the paper's §VI-D recompute path). Both must
/// produce the solo fingerprint; the JSON records what relocation
/// saved.
fn elastic_bench(
    def: &ServeJobDef,
    places: u16,
    capacity: u16,
    path: &str,
) -> Result<String, String> {
    let ev = |at: f64, verb: ElasticVerb| ElasticEvent { at, verb };
    let run_mode = |verb: ElasticVerb| -> Result<ElasticReport, String> {
        let (app, pattern) = serve_app_for(def)?;
        let plan = ElasticPlan {
            seed: def.seed,
            events: vec![ev(0.50, verb)],
        };
        let run = ElasticEngine::new(app, pattern, ElasticConfig::new(places, capacity))
            .with_plan(plan)
            .run()
            .map_err(|e| format!("bench {}: {e}", def.name))?;
        let solo = serve_solo_fingerprint(def)?;
        if run.fingerprint() != solo {
            return Err(format!(
                "bench {} fingerprint {:#018x} != solo {:#018x}",
                def.name,
                run.fingerprint(),
                solo
            ));
        }
        Ok(run.report().clone())
    };
    let drain = run_mode(ElasticVerb::Drain { place: PlaceId(1) })?;
    let kill = run_mode(ElasticVerb::Kill { place: PlaceId(1) })?;
    let cells_saved = kill.recomputed.saturating_sub(drain.recomputed);
    let json = format!(
        "{{\n  \"app\": \"{}\",\n  \"vertices\": {},\n  \"seed\": {},\n  \"places\": {places},\n  \"capacity\": {capacity},\n  \"scenario\": \"place 1 leaves at 50% progress\",\n  \"drain_and_rebalance\": {},\n  \"kill_and_recompute\": {},\n  \"cells_saved_by_relocation\": {cells_saved}\n}}\n",
        def.app.name(),
        def.vertices,
        def.seed,
        elastic_mode_json(&drain),
        elastic_mode_json(&kill),
    );
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(format!(
        "bench: drain relocated {} chunk(s) ({} cells, 0 recomputed); kill recomputed {} cell(s); relocation saved {cells_saved} cell(s)\nwrote {path}\n",
        drain.chunks_relocated, drain.cells_moved, kill.recomputed
    ))
}

/// `dpx10 join`: dials a running socket mesh's coordinator, completes
/// the join handshake, reports the assigned place and live roster, then
/// drains back out gracefully.
pub fn run_join(coordinator: &str) -> Result<String, String> {
    let node = SocketNode::join(JoinConfig::new(coordinator))
        .map_err(|e| format!("join {coordinator}: {e}"))?;
    let roster = node.roster();
    let members: Vec<String> = roster.members().iter().map(|p| p.0.to_string()).collect();
    let out = format!(
        "joined mesh at {coordinator} as place {}\n\
         mesh: {} live member(s) of capacity {} (roster v{})\n\
         members: {}\n\
         draining back out (this probe holds no chunks)\n",
        node.me().0,
        members.len(),
        node.capacity(),
        roster.version(),
        members.join(" ")
    );
    node.drain();
    Ok(out)
}

/// `dpx10 apps`: one line per application.
pub fn list_apps() -> String {
    let mut out = String::from("applications (paper SVIII + extensions):\n");
    let note = |app: AppChoice| match app {
        AppChoice::Swlag => "Smith-Waterman, linear+affine gap (paper headline app)",
        AppChoice::SwLinear => "Smith-Waterman, linear gap (paper Fig. 7 demo)",
        AppChoice::Mtp => "Manhattan Tourists Problem",
        AppChoice::Lps => "Longest Palindromic Subsequence",
        AppChoice::Knapsack => "0/1 Knapsack (custom data-dependent pattern)",
        AppChoice::Lcs => "Longest Common Subsequence (paper Fig. 1 walk-through)",
        AppChoice::EditDistance => "Levenshtein distance (extension)",
        AppChoice::NeedlemanWunsch => "global alignment (extension)",
        AppChoice::Nussinov => "RNA folding, 2D/1D interval-splits (extension)",
        AppChoice::Lws => "Least-Weight Subsequence, interval deps + prefix-min (extension)",
        AppChoice::Gap => "general gap penalties, row+col interval deps (extension)",
    };
    for (_, app) in AppChoice::ALL {
        out.push_str(&format!("  {:<18} {}\n", app.name(), note(app)));
    }
    out
}

/// `dpx10 patterns`: analysis of the built-in library at a given size.
pub fn list_patterns(height: u32, width: u32) -> String {
    let mut out = format!(
        "built-in DAG patterns at {height}x{width} (paper Fig. 5 a-h):\n{:<20} {:>9} {:>14} {:>17}\n",
        "pattern", "vertices", "critical path", "peak parallelism"
    );
    for kind in BuiltinKind::ALL {
        let p = kind.instantiate(height, width);
        let profile = wavefront_profile(&p);
        out.push_str(&format!(
            "{:<20} {:>9} {:>14} {:>17}\n",
            p.name(),
            p.vertex_count(),
            critical_path_len(&p),
            profile.iter().copied().max().unwrap_or(0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunArgs;

    #[test]
    fn every_app_runs_small_on_sim() {
        for (_, app) in AppChoice::ALL {
            let args = RunArgs {
                app,
                vertices: 2_000,
                nodes: 2,
                ..RunArgs::default()
            };
            let summary = run(&args, &[]).unwrap_or_else(|e| panic!("{app:?}: {e}"));
            assert!(!summary.answer.is_empty());
            assert!(summary.report.sim_time > Duration::ZERO, "{app:?}");
        }
    }

    #[test]
    fn threaded_engine_runs_too() {
        let args = RunArgs {
            app: AppChoice::Lcs,
            engine: EngineChoice::Threaded,
            vertices: 2_500,
            places: 2,
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        assert!(summary.answer.starts_with("LCS length"));
        assert!(summary.render().contains("wall time"));
    }

    #[test]
    fn fault_run_reports_recovery() {
        let args = RunArgs {
            app: AppChoice::Mtp,
            vertices: 10_000,
            nodes: 2,
            fault: Some((dpx10_apgas::PlaceId(3), 0.5)),
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        assert_eq!(summary.report.recoveries.len(), 1);
        assert!(summary.render().contains("recovery #0"));
    }

    #[test]
    fn timeline_requested_is_rendered() {
        let args = RunArgs {
            app: AppChoice::Swlag,
            vertices: 5_000,
            nodes: 2,
            timeline: true,
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        let text = summary.render();
        assert!(text.contains("activity timeline"));
        assert!(text.contains("place   0 |"));
    }

    #[test]
    fn listings_are_complete() {
        let apps = list_apps();
        for (name, _) in AppChoice::ALL {
            assert!(apps.contains(name), "{name} missing from listing");
        }
        let pats = list_patterns(12, 12);
        assert!(pats.contains("grid3"));
        assert!(pats.contains("interval-upper"));
        assert_eq!(pats.lines().count(), 2 + 8);
    }
}
