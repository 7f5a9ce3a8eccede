//! The per-layer ledger: isolated calls into each layer's public
//! functions, timed from outside, plus the counters the run report
//! already exposes.
//!
//! Every microcall runs on warm caches in a single thread, so each layer
//! cost is a lower bound on what the layer costs inside a run. The
//! ledger converts them to wall time per cell by dividing by the number
//! of places (perfect overlap); what it cannot attribute is the
//! residual, which therefore also absorbs contention and waiting.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::{
    CoalesceConfig, CoalescingTransport, Codec, LivenessBoard, LocalTransport, PlaceId,
    SocketConfig, SocketNode, StatsBoard, Transport,
};
use dpx10_baseline::NativeSwlag;
use dpx10_core::msg::Msg;
use dpx10_core::state::{build_shards, collect_array};
use dpx10_core::{DagResult, DpApp, FifoCache};
use dpx10_dag::{AggSpec, Axis, DagPattern, Reduction, VertexId};
use dpx10_distarray::{recover, Dist, RecoveryCostModel, Region2D};
use dpx10_obs::Recorder;

use crate::spans::Spans;
use crate::workload::{Backend, Input, Spec};
use crate::{median, Metric};

/// Messages pushed through the coalescer per timed pass.
const COALESCE_MSGS: u64 = 100_000;
/// Small-frame ping-pongs timed on the socket mesh.
const PINGS: usize = 2_000;
/// 4 KiB frames streamed one way per timed pass.
const STREAM_FRAMES: usize = 2_048;
const FRAME_BYTES: usize = 4_096;
/// Cap on replayed cache accesses (GAP's interval reads are ~10⁸).
const CACHE_REPLAY_CAP: usize = 2_000_000;

/// Everything the ledger reads: the workload, one checked result of
/// the run and the engine timings of this process.
pub struct Ledger<'a, A: DpApp> {
    /// Workload configuration.
    pub spec: &'a Spec,
    /// Workload input.
    pub input: &'a Input,
    /// The app.
    pub app: &'a A,
    /// Its pattern.
    pub pattern: &'a dyn DagPattern,
    /// A finished, checked result of the workload.
    pub result: &'a DagResult<A::Value>,
    /// The serial oracle's time per cell.
    pub serial_ns_per_cell: f64,
    /// Median untraced `run()` wall time per cell in this process.
    pub ns_per_cell: f64,
    /// Median `run()` wall time per cell with the flight recorder on.
    pub traced_ns_per_cell: f64,
}

/// Median nanoseconds per operation of `pass`, which performs `ops`
/// operations: at least `passes` passes, more until `min` has elapsed.
fn ns_per_op(
    spans: &mut Spans,
    name: &str,
    ops: u64,
    passes: usize,
    min: Duration,
    mut pass: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < passes || (start.elapsed() < min && samples.len() < 200) {
        let ((), d) = spans.time(name, ops, &mut pass);
        samples.push(d.as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

/// Median seconds of `pass` over three passes; what a pass returns is
/// dropped outside the timed span.
fn seconds<T>(spans: &mut Spans, name: &str, mut pass: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (out, d) = spans.time(name, 0, &mut pass);
            drop(out);
            d.as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Every cell of a pattern, row-major (a topological order for all
/// shipped patterns: dependencies lie up and to the left).
fn cells(pattern: &dyn DagPattern) -> Vec<(u32, u32)> {
    (0..pattern.height())
        .flat_map(|i| (0..pattern.width()).map(move |j| (i, j)))
        .filter(|&(i, j)| pattern.contains(i, j))
        .collect()
}

impl<A: DpApp + 'static> Ledger<'_, A> {
    /// Measures every per-layer metric; `notes` receives the ledger's
    /// breakdown.
    pub fn measure(&self, spans: &mut Spans, notes: &mut Vec<String>) -> Vec<Metric> {
        let spec = self.spec;
        let config = spec.config();
        let pattern = self.pattern;
        let report = self.result.report();
        let places = f64::from(spec.places);
        let all = cells(pattern);
        let n_cells = all.len() as u64;
        let per_cell = |x: u64| x as f64 / n_cells as f64;
        let dist = Arc::new(Dist::new(
            Region2D::new(pattern.height(), pattern.width()),
            spec.dist.clone(),
            (0..spec.places).map(PlaceId).collect(),
        ));
        let aggregated = config.aggregation && self.app.agg_spec().is_some();
        let mut m = Vec::new();

        // apps + baseline: the fused-loop floors.
        m.push(Metric::new(
            "apps.serial_ns_per_cell",
            "ns",
            self.serial_ns_per_cell,
        ));
        let (na, nb) = match self.input.a.is_empty() {
            false => (self.input.a.clone(), self.input.b.clone()),
            true => {
                let n = self.input.side as usize;
                let gen = dpx10_apps::workload::dna;
                (gen(n, self.input.seed), gen(n, self.input.seed + 1))
            }
        };
        let native_cells = ((na.len() + 1) * (nb.len() + 1)) as u64;
        let native = NativeSwlag::new(na, nb, spec.places);
        let native_ns = ns_per_op(
            spans,
            "baseline.native_swlag",
            native_cells,
            3,
            Duration::from_millis(200),
            || {
                black_box(native.run());
            },
        );
        m.push(Metric::new("baseline.native_ns_per_cell", "ns", native_ns));

        // dag: enumerate every cell's (anti-)dependencies into a reused
        // buffer, through `dyn DagPattern` as the engine does.
        let mut buf: Vec<VertexId> = Vec::with_capacity(1024);
        let (mut deps, mut anti) = (0u64, 0u64);
        let deps_ns = ns_per_op(
            spans,
            "dag.dependencies",
            n_cells,
            3,
            Duration::from_millis(200),
            || {
                deps = 0;
                for &(i, j) in &all {
                    buf.clear();
                    pattern.dependencies(i, j, &mut buf);
                    deps += buf.len() as u64;
                }
            },
        );
        let anti_ns = ns_per_op(
            spans,
            "dag.anti_dependencies",
            n_cells,
            3,
            Duration::from_millis(200),
            || {
                anti = 0;
                for &(i, j) in &all {
                    buf.clear();
                    pattern.anti_dependencies(i, j, &mut buf);
                    anti += buf.len() as u64;
                }
            },
        );
        let (deps_per_cell, anti_per_cell) = (per_cell(deps), per_cell(anti));
        m.push(Metric::new("dag.deps_ns_per_cell", "ns", deps_ns));
        m.push(Metric::new("dag.anti_deps_ns_per_cell", "ns", anti_ns));
        m.push(Metric::new(
            "dag.anti_deps_per_cell",
            "count",
            anti_per_cell,
        ));

        // distarray: owner lookups, prefix lanes, recovery.
        let dist_ns = ns_per_op(
            spans,
            "distarray.dist",
            n_cells,
            3,
            Duration::from_millis(100),
            || {
                let mut acc = 0usize;
                for &(i, j) in &all {
                    acc += dist.slot_of(i, j) + dist.local_index(i, j);
                }
                black_box(acc);
            },
        );
        m.push(Metric::new("distarray.dist_ns_per_cell", "ns", dist_ns));
        let (h, w) = (pattern.height(), pattern.width());
        let agg_ns = ns_per_op(
            spans,
            "distarray.aggregate",
            n_cells,
            3,
            Duration::from_millis(100),
            || {
                let table = dpx10_distarray::AggTable::new(h, w, AggSpec::both(Reduction::Min));
                let mut acc = 0i64;
                for &(i, j) in &all {
                    acc ^=
                        table.row_prefix(i, j).unwrap_or(0) ^ table.col_prefix(j, i).unwrap_or(0);
                    table.record(VertexId::new(i, j), |axis| match axis {
                        Axis::Row => i64::from(i ^ j.rotate_left(7)),
                        Axis::Col => i64::from(j ^ i.rotate_left(11)),
                    });
                }
                black_box(acc);
            },
        );
        m.push(Metric::new("distarray.agg_ns_per_cell", "ns", agg_ns));

        // core.state: one epoch's shard build and result collection.
        let agg = if aggregated {
            self.app.agg_spec()
        } else {
            None
        };
        let build_s = seconds(spans, "core.state.build_shards", || {
            build_shards::<A::Value>(pattern, &dist, None, None, None, spec.cache, agg)
        });
        let prior = Some(self.result.array());
        let (full, _) = build_shards(pattern, &dist, prior, None, None, spec.cache, agg);
        let collect_s = seconds(spans, "core.state.collect_array", || {
            collect_array(&full, &dist)
        });
        m.push(Metric::new("core.build_shards_s", "s", build_s));
        m.push(Metric::new("core.collect_s", "s", collect_s));

        // Recovery of the finished array laid out over all places (a
        // killed run's result lives on the survivors only).
        let finished = collect_array(&full, &dist);
        drop(full);
        let recover_s = seconds(spans, "distarray.recover", || {
            recover(
                &finished,
                &[PlaceId(1)],
                config.restore_manner,
                &config.topology,
                &config.network,
                &RecoveryCostModel::default(),
            )
        });
        drop(finished);
        m.push(Metric::new("distarray.recover_s", "s", recover_s));

        // core.cache: replay the last place's remote-dependency reads
        // through a FIFO cache of the workload's capacity.
        let last_slot = dist.num_slots() - 1;
        let mut reads: Vec<(u64, A::Value)> = Vec::new();
        'replay: for (i, j) in dist.iter_slot(last_slot) {
            if !pattern.contains(i, j) {
                continue;
            }
            buf.clear();
            pattern.dependencies(i, j, &mut buf);
            for d in &buf {
                if dist.slot_of(d.i, d.j) != last_slot {
                    reads.push((d.pack(), self.result.get(d.i, d.j)));
                    if reads.len() >= CACHE_REPLAY_CAP {
                        break 'replay;
                    }
                }
            }
        }
        let mut cache: FifoCache<A::Value> = FifoCache::new(spec.cache);
        let replay = |cache: &mut FifoCache<A::Value>| {
            cache.clear();
            let mut ops = 0u64;
            for (key, value) in &reads {
                ops += 1;
                if cache.get(*key).is_none() {
                    cache.insert(*key, value.clone());
                    ops += 1;
                }
            }
            ops
        };
        let cache_ops = replay(&mut cache);
        let cache_ns = ns_per_op(
            spans,
            "core.cache.replay",
            cache_ops,
            3,
            Duration::from_millis(50),
            || {
                black_box(replay(&mut cache));
            },
        );
        m.push(Metric::new("core.cache.ns_per_op", "ns", cache_ns));
        m.push(Metric::new(
            "core.cache.hit_rate",
            "ratio",
            report.comm.cache_hit_rate().unwrap_or(0.0),
        ));

        // apgas.coalesce: Done messages through a 4 KiB coalescer over
        // the in-process transport, received and unpacked at place 1.
        let value = self.result.get(h.min(2) - 1, w.min(2) - 1);
        let coalesce_ns = coalesce_ns_per_msg::<A::Value>(spans, &config, &value);
        let msgs_per_batch = if report.comm.batches_sent > 0 {
            report.comm.batched_msgs as f64 / report.comm.batches_sent as f64
        } else {
            0.0
        };
        m.push(Metric::new("apgas.coalesce.ns_per_msg", "ns", coalesce_ns));
        m.push(Metric::new(
            "apgas.coalesce.msgs_per_batch",
            "count",
            msgs_per_batch,
        ));

        // apgas.socket: mesh formation, round trip, streaming.
        let (connect_s, rtt_us, ns_per_byte) = socket_layer(spans);
        m.push(Metric::new("apgas.socket.connect_s", "s", connect_s));
        m.push(Metric::new("apgas.socket.rtt_us", "us", rtt_us));
        m.push(Metric::new("apgas.socket.ns_per_byte", "ns", ns_per_byte));

        // comm: the run's own counters.
        let comm = &report.comm;
        m.push(Metric::new(
            "comm.msgs_per_cell",
            "count",
            per_cell(comm.messages_sent),
        ));
        m.push(Metric::new(
            "comm.bytes_per_cell",
            "B",
            per_cell(comm.bytes_sent),
        ));
        m.push(Metric::new(
            "comm.pulls_per_cell",
            "count",
            per_cell(comm.pulls_sent),
        ));

        // core.msg: codec round trips shaped like the run's traffic.
        let targets = ((anti_per_cell / places).round() as u32).max(1);
        let batch = (msgs_per_batch.round() as usize).clamp(1, CoalesceConfig::MAX_ENTRIES);
        let codec = codec_ns::<A::Value>(spans, &value, targets, batch);

        // The ledger: per-cell CPU cost of each layer as the run uses it.
        let dag_cost = anti_ns + if aggregated { 0.0 } else { deps_ns };
        let lookups = 1.0 + anti_per_cell + if aggregated { 0.0 } else { deps_per_cell };
        let epochs = f64::from(report.epochs.max(1));
        let mut parts = vec![
            ("dag", dag_cost),
            ("distarray.dist", dist_ns * lookups),
            ("distarray.agg", if aggregated { agg_ns } else { 0.0 }),
            (
                "core.state",
                (build_s + collect_s) * epochs * 1e9 / n_cells as f64,
            ),
            (
                "core.cache",
                cache_ns * per_cell(comm.cache_hits + comm.cache_misses),
            ),
        ];
        if spec.coalesce.is_some() {
            parts.push(("apgas.coalesce", coalesce_ns * per_cell(comm.batched_msgs)));
        }
        if spec.backend == Backend::Sockets {
            let codec_of = |tag: &str| {
                codec
                    .iter()
                    .filter(|(t, _, _)| *t == tag)
                    .map(|(_, e, d)| e + d)
                    .sum::<f64>()
            };
            let single = comm.messages_sent.saturating_sub(comm.batches_sent);
            parts.push((
                "core.msg",
                per_cell(comm.batches_sent) * codec_of("done_batch")
                    + per_cell(single) * codec_of("done"),
            ));
            parts.push(("apgas.socket", ns_per_byte * per_cell(comm.bytes_sent)));
        }
        let attributed = parts.iter().map(|(_, ns)| ns).sum::<f64>() / places;
        notes.push(format!(
            "ledger (CPU ns per cell, divided by {} places for wall): {}",
            spec.places,
            parts
                .iter()
                .map(|(name, ns)| format!("{name} {ns:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        notes.push(format!(
            "ledger: ns_per_cell {:.1} = attributed {attributed:.1} + residual {:.1}",
            self.ns_per_cell,
            self.ns_per_cell - attributed
        ));

        let busy: f64 = report.place_busy.iter().map(Duration::as_secs_f64).sum();
        m.push(Metric::new(
            "core.engine.busy_frac",
            "ratio",
            busy / (report.wall_time.as_secs_f64() * places),
        ));
        m.push(Metric::new(
            "core.engine.residual_ns_per_cell",
            "ns",
            self.ns_per_cell - attributed,
        ));
        m.push(Metric::new(
            "core.socket_engine.epochs",
            "count",
            f64::from(report.epochs),
        ));
        m.push(Metric::new(
            "ledger.attributed_frac",
            "ratio",
            attributed / self.ns_per_cell,
        ));
        m.push(Metric::new(
            "obs.trace_overhead_frac",
            "ratio",
            self.traced_ns_per_cell / self.ns_per_cell - 1.0,
        ));
        m.extend(
            codec
                .iter()
                .map(|(tag, e, _)| Metric::new(format!("core.msg.encode_ns.{tag}"), "ns", *e)),
        );
        m.extend(
            codec
                .iter()
                .map(|(tag, _, d)| Metric::new(format!("core.msg.decode_ns.{tag}"), "ns", *d)),
        );
        m
    }
}

/// Encode and decode nanoseconds of one message per tag. Vertex-carrying
/// messages name `targets` dependents; batches hold `batch` entries.
fn codec_ns<V: Codec + Clone>(
    spans: &mut Spans,
    value: &V,
    targets: u32,
    batch: usize,
) -> Vec<(&'static str, f64, f64)> {
    let id = |k: u32| VertexId::new(k / 1000, k % 1000);
    let ids = |n: u32| (1..=n).map(id).collect::<Vec<_>>();
    let entries = |n: usize| -> Vec<(VertexId, V, Vec<VertexId>)> {
        (0..n as u32)
            .map(|k| (id(k), value.clone(), ids(targets)))
            .collect()
    };
    let samples: [(&str, Msg<V>); 8] = [
        (
            "done",
            Msg::Done {
                from: id(7),
                value: value.clone(),
                targets: ids(targets),
            },
        ),
        ("pull", Msg::Pull { id: id(7) }),
        (
            "pull_val",
            Msg::PullVal {
                id: id(7),
                value: value.clone(),
            },
        ),
        (
            "done_batch",
            Msg::DoneBatch {
                entries: entries(batch),
            },
        ),
        (
            "pull_batch",
            Msg::PullBatch {
                ids: ids(batch as u32),
            },
        ),
        (
            "pull_val_batch",
            Msg::PullValBatch {
                entries: (0..batch as u32).map(|k| (id(k), value.clone())).collect(),
            },
        ),
        (
            "push_val",
            Msg::PushVal {
                from: id(7),
                value: value.clone(),
                targets: ids(targets),
            },
        ),
        (
            "push_val_batch",
            Msg::PushValBatch {
                entries: entries(batch),
            },
        ),
    ];
    const REPS: u64 = 1_000;
    samples
        .iter()
        .map(|(tag, msg)| {
            let mut buf = Vec::new();
            let enc = ns_per_op(
                spans,
                &format!("core.msg.encode.{tag}"),
                REPS,
                3,
                Duration::from_millis(5),
                || {
                    for _ in 0..REPS {
                        buf.clear();
                        msg.encode(&mut buf);
                        black_box(&buf);
                    }
                },
            );
            let bytes = buf.clone();
            let dec = ns_per_op(
                spans,
                &format!("core.msg.decode.{tag}"),
                REPS,
                3,
                Duration::from_millis(5),
                || {
                    for _ in 0..REPS {
                        let mut src = &bytes[..];
                        black_box(Msg::<V>::decode(&mut src));
                    }
                },
            );
            (*tag, enc, dec)
        })
        .collect()
}

/// Nanoseconds per `Done` sent through a 4 KiB [`CoalescingTransport`]
/// over the in-process transport, flushed and received at place 1.
fn coalesce_ns_per_msg<V: Codec + Clone + Send + 'static>(
    spans: &mut Spans,
    config: &dpx10_core::EngineConfig,
    value: &V,
) -> f64 {
    let places = config.topology.num_places();
    let stats = StatsBoard::new(places);
    let local: Arc<dyn Transport<Msg<V>>> = Arc::new(LocalTransport::new(
        config.topology,
        config.network,
        LivenessBoard::new(places),
        stats.clone(),
    ));
    let transport = CoalescingTransport::new(
        local,
        CoalesceConfig::bytes(4096),
        stats,
        Recorder::disabled(),
    );
    let (src, dst) = (PlaceId(0), PlaceId(places - 1));
    ns_per_op(
        spans,
        "apgas.coalesce",
        COALESCE_MSGS,
        3,
        Duration::from_millis(100),
        || {
            for k in 0..COALESCE_MSGS as u32 {
                let msg = Msg::Done {
                    from: VertexId::new(k, 0),
                    value: value.clone(),
                    targets: vec![VertexId::new(k, 1)],
                };
                let bytes = msg.wire_size();
                transport
                    .send(src, dst, msg, bytes)
                    .expect("in-process send");
            }
            transport.flush(src);
            let mut received = 0u64;
            while let Some(env) = transport.try_recv(dst) {
                received += match env.msg {
                    Msg::DoneBatch { entries } => entries.len() as u64,
                    _ => 1,
                };
            }
            assert_eq!(received, COALESCE_MSGS, "coalescer lost messages");
        },
    )
}

const ECHO: u8 = 0;
const SINK: u8 = 1;
const QUIT: u8 = 2;

/// Place 1 of the socket probe: echoes `ECHO` frames, acknowledges the
/// final `SINK` frame, stops on `QUIT` or silence.
fn socket_peer(node: SocketNode) {
    while let Some((src, payload)) = node.recv_bytes_timeout(Duration::from_secs(10)) {
        match payload.first() {
            Some(&ECHO) => {
                if node.send_bytes(src, payload).is_err() {
                    break;
                }
            }
            Some(&SINK) if payload.get(1) == Some(&1) => {
                let _ = node.send_bytes(src, vec![SINK]);
            }
            Some(&SINK) => {}
            _ => break,
        }
    }
    node.shutdown();
}

/// Two-place mesh formation (median of three), small-frame round trip
/// (median of [`PINGS`]) and one-way 4 KiB streaming cost per byte
/// (median of three passes).
fn socket_layer(spans: &mut Spans) -> (f64, f64, f64) {
    let mut connects = Vec::new();
    let (mut rtt_us, mut ns_per_byte) = (0.0, 0.0);
    for round in 0..3 {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            continue;
        };
        let Ok(addr) = listener.local_addr() else {
            continue;
        };
        let peer = std::thread::spawn(move || {
            if let Ok(node) =
                SocketNode::connect(SocketConfig::worker(PlaceId(1), 2, addr.to_string()))
            {
                socket_peer(node);
            }
        });
        let (node, d) = spans.time("apgas.socket.connect", 0, || {
            SocketNode::connect(SocketConfig::coordinator(listener, 2))
        });
        let Ok(node) = node else {
            let _ = peer.join();
            continue;
        };
        connects.push(d.as_secs_f64());
        let one = PlaceId(1);
        if round == 2 {
            let mut rtts = Vec::with_capacity(PINGS);
            for _ in 0..PINGS {
                let start = Instant::now();
                if node.send_bytes(one, vec![ECHO; 16]).is_err() {
                    break;
                }
                if node.recv_bytes_timeout(Duration::from_secs(10)).is_none() {
                    break;
                }
                rtts.push(start.elapsed().as_secs_f64() * 1e6);
            }
            rtt_us = median(&rtts);
            let total = (STREAM_FRAMES * FRAME_BYTES) as u64;
            ns_per_byte = ns_per_op(
                spans,
                "apgas.socket.stream",
                total,
                3,
                Duration::ZERO,
                || {
                    for k in 0..STREAM_FRAMES {
                        let mut frame = vec![0u8; FRAME_BYTES];
                        frame[0] = SINK;
                        frame[1] = u8::from(k + 1 == STREAM_FRAMES);
                        if node.send_bytes(one, frame).is_err() {
                            return;
                        }
                    }
                    let _ = node.recv_bytes_timeout(Duration::from_secs(10));
                },
            );
        }
        let _ = node.send_bytes(one, vec![QUIT]);
        let _ = peer.join();
        node.shutdown();
    }
    (median(&connects), rtt_us, ns_per_byte)
}
