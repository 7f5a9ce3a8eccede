//! In-process end-to-end tests of the socket engine: every place is a
//! thread with its own `SocketNode`, so the whole TCP mesh, the wire
//! protocol and the termination/recovery control plane run for real —
//! only process boundaries are missing (the CLI integration tests cover
//! those, including SIGKILL fault injection).

use std::net::TcpListener;
use std::sync::Arc;

use dpx10_apgas::SocketConfig;
use dpx10_core::{
    DepView, DistKind, DpApp, EngineConfig, FaultPlan, PlaceId, ScheduleStrategy, SocketEngine,
    ThreadedEngine,
};
use dpx10_dag::{builtin::Grid3, topological_order, DagPattern, VertexId};

/// Same differential app as the threaded engine tests: any misrouted or
/// stale dependency value changes everything downstream.
struct MixApp;

impl DpApp for MixApp {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.i % 31) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

fn oracle<P: DagPattern>(pattern: &P) -> std::collections::HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
    let mut out = std::collections::HashMap::new();
    let mut deps = Vec::new();
    for id in order {
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
        out.insert(id, MixApp.compute(id, &DepView::new(&deps, &vals)));
    }
    out
}

/// Runs `places` socket places as threads in this process and returns
/// the coordinator's result. A planned kill crashes only the victim's
/// sockets (soft die), so the victim thread exits like the others.
fn run_mesh<P: DagPattern + Clone + 'static>(
    places: u16,
    pattern: P,
    config: EngineConfig,
    init: Option<dpx10_core::InitOverride<u64>>,
) -> dpx10_core::DagResult<u64> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let mut workers = Vec::new();
    for p in 1..places {
        let addr = addr.clone();
        let pattern = pattern.clone();
        let config = config.clone();
        let init = init.clone();
        workers.push(std::thread::spawn(move || {
            let mut engine = SocketEngine::new(MixApp, pattern, config).with_soft_die();
            if let Some(init) = init {
                engine = engine.with_init(init);
            }
            engine.run(SocketConfig::worker(PlaceId(p), places, addr))
        }));
    }
    let mut engine = SocketEngine::new(MixApp, pattern, config).with_soft_die();
    if let Some(init) = init {
        engine = engine.with_init(init);
    }
    let result = engine
        .run(SocketConfig::coordinator(listener, places))
        .expect("coordinator completes")
        .expect("coordinator returns the result");
    for w in workers {
        let worker_result = w.join().expect("worker thread exits");
        assert!(
            matches!(worker_result, Ok(None)),
            "workers yield no result: {:?}",
            worker_result.map(|r| r.is_some())
        );
    }
    result
}

#[test]
fn four_places_match_oracle_and_threaded_engine_bit_for_bit() {
    let pattern = Grid3::new(13, 11);
    let expect = oracle(&pattern);
    let threaded = ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(4))
        .run()
        .expect("threaded run");
    let socket = run_mesh(4, pattern, EngineConfig::flat(4), None);
    for (id, v) in &expect {
        assert_eq!(
            socket.try_get(id.i, id.j).as_ref(),
            Some(v),
            "{id} vs oracle"
        );
        assert_eq!(
            socket.try_get(id.i, id.j),
            threaded.try_get(id.i, id.j),
            "{id} vs threaded engine"
        );
    }
    assert_eq!(socket.report().epochs, 1);
}

#[test]
fn socket_stats_count_real_framed_bytes_with_no_network_model() {
    let result = run_mesh(
        3,
        Grid3::new(10, 10),
        EngineConfig::flat(3).with_dist(DistKind::BlockCol),
        None,
    );
    let comm = result.report().comm;
    assert!(comm.messages_sent > 0, "places must have talked");
    assert!(
        comm.bytes_sent > comm.messages_sent * 5,
        "every framed message costs at least its header"
    );
    assert_eq!(
        comm.net_time,
        std::time::Duration::ZERO,
        "the socket backend must not price transfers through the model"
    );
}

#[test]
fn pull_path_over_sockets_matches_oracle() {
    // No cache: every pushed remote value is evicted immediately and
    // must be pulled back over the wire.
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern);
    let result = run_mesh(
        4,
        pattern,
        EngineConfig::flat(4)
            .with_cache(0)
            .with_dist(DistKind::CyclicCol),
        None,
    );
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    assert!(result.report().comm.cache_misses > 0);
}

#[test]
fn random_scheduling_ships_exec_over_the_wire() {
    let pattern = Grid3::new(11, 11);
    let expect = oracle(&pattern);
    let result = run_mesh(
        3,
        pattern,
        EngineConfig::flat(3).with_schedule(ScheduleStrategy::Random),
        None,
    );
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
}

#[test]
fn fully_prefinished_dag_short_circuits_on_every_place() {
    let init: dpx10_core::InitOverride<u64> = Arc::new(|i, j| Some(u64::from(i * 100 + j)));
    let result = run_mesh(3, Grid3::new(8, 8), EngineConfig::flat(3), Some(init));
    assert_eq!(result.report().vertices_computed, 0);
    assert_eq!(result.get(7, 7), 707);
}

#[test]
fn killed_place_reports_its_finished_cells_as_lost() {
    // Block-row over 2 places: place 0 owns exactly the top half. The
    // kill fires once 75 % of the cells are reported finished, so the
    // victim had reported at least a quarter of the DAG — all of it
    // gone with its memory, since a dead place never snapshots.
    let pattern = Grid3::new(40, 40);
    let total = pattern.vertex_count();
    let expect = oracle(&pattern);
    let config = EngineConfig::flat(2)
        .with_dist(DistKind::BlockRow)
        .with_fault(FaultPlan {
            place: PlaceId(1),
            after_fraction: 0.75,
        });
    let result = run_mesh(2, pattern, config, None);
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    let report = result.report();
    assert!(report.epochs >= 2, "the kill must have fired");
    let lost: u64 = report.recoveries.iter().map(|r| r.lost).sum();
    assert!(
        lost >= total / 4,
        "lost {lost} of {total} cells, expected at least a quarter"
    );
}
