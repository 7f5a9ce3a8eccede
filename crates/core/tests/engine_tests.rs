//! End-to-end tests of the threaded engine: every scheduler, several
//! distributions, fault injection, pull-fallback stress — all checked
//! against a serial oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpx10_core::{
    DagResult, DepView, DistKind, DpApp, EngineConfig, FaultPlan, PlaceId, RestoreManner,
    ScheduleStrategy, ThreadedEngine,
};
use dpx10_dag::{builtin::*, topological_order, DagPattern, KnapsackDag, VertexId};

/// A value-mixing app: each vertex hashes its coordinates with its
/// dependencies' results, so any misrouted, stale or missing dependency
/// changes downstream values — a strong differential signal.
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

/// Serial oracle: evaluate the same app in topological order.
fn oracle<P: DagPattern>(pattern: &P, app: &MixApp) -> std::collections::HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
    let mut out = std::collections::HashMap::new();
    let mut deps = Vec::new();
    for id in order {
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
        let view = DepView::new(&deps, &vals);
        out.insert(id, app.compute(id, &view));
    }
    out
}

fn check_against_oracle<P: DagPattern + Clone + 'static>(pattern: P, config: EngineConfig) {
    let expect = oracle(&pattern, &MixApp);
    let engine = ThreadedEngine::new(MixApp, pattern, config);
    let result = engine.run().expect("engine completes");
    for (id, v) in &expect {
        assert_eq!(
            result.try_get(id.i, id.j).as_ref(),
            Some(v),
            "vertex {id} diverged from oracle"
        );
    }
}

#[test]
fn grid3_matches_oracle_across_distributions() {
    for kind in [
        DistKind::BlockRow,
        DistKind::BlockCol,
        DistKind::CyclicRow,
        DistKind::CyclicCol,
        DistKind::BlockCyclicRow { block: 2 },
        DistKind::BlockCyclicCol { block: 3 },
    ] {
        check_against_oracle(
            Grid3::new(13, 17),
            EngineConfig::flat(3).with_dist(kind.clone()),
        );
    }
}

#[test]
fn all_builtins_match_oracle() {
    use dpx10_dag::BuiltinKind;
    for kind in BuiltinKind::ALL {
        let expect_pattern = kind.instantiate(9, 9);
        let expect = oracle(&expect_pattern, &MixApp);
        let engine = ThreadedEngine::new(MixApp, kind.instantiate(9, 9), EngineConfig::flat(2));
        let result = engine.run().expect("completes");
        for (id, v) in &expect {
            assert_eq!(
                result.try_get(id.i, id.j).as_ref(),
                Some(v),
                "{kind:?} {id}"
            );
        }
    }
}

#[test]
fn knapsack_pattern_matches_oracle() {
    let weights = vec![3, 1, 4, 1, 5, 2];
    check_against_oracle(
        KnapsackDag::new(weights, 17),
        EngineConfig::flat(3).with_dist(DistKind::BlockRow),
    );
}

#[test]
fn all_schedulers_match_oracle() {
    for strat in ScheduleStrategy::ALL {
        check_against_oracle(
            Grid3::new(11, 11),
            EngineConfig::flat(3).with_schedule(strat),
        );
    }
}

#[test]
fn zero_cache_forces_pull_path_and_still_correct() {
    // With no cache, every remote dependency value pushed by `Done` is
    // lost immediately and must be pulled: the park/fill path runs for
    // nearly every boundary vertex.
    check_against_oracle(
        Grid3::new(12, 12),
        EngineConfig::flat(4)
            .with_cache(0)
            .with_dist(DistKind::CyclicCol),
    );
}

#[test]
fn tiny_cache_mixes_hits_and_pulls() {
    check_against_oracle(
        Grid3::new(16, 16),
        EngineConfig::flat(4)
            .with_cache(2)
            .with_dist(DistKind::CyclicRow),
    );
}

#[test]
fn multithreaded_places_match_oracle() {
    let mut config = EngineConfig::flat(2);
    config.topology.threads_per_place = 3;
    check_against_oracle(Grid3::new(14, 14), config);
}

#[test]
fn single_place_degenerates_to_serial() {
    check_against_oracle(Grid2::new(10, 10), EngineConfig::flat(1));
}

#[test]
fn fault_mid_run_recovers_and_matches_oracle() {
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern, &MixApp);
    let config = EngineConfig::flat(3)
        .with_dist(DistKind::BlockRow)
        .with_fault(FaultPlan::mid_run(PlaceId(2)));
    let engine = ThreadedEngine::new(MixApp, pattern, config);
    let result = engine.run().expect("survives the fault");
    let report = result.report();
    assert!(report.epochs >= 2, "a fault forces at least two epochs");
    assert_eq!(report.recoveries.len(), 1);
    assert!(
        report.vertices_computed >= report.vertices_total,
        "recomputation can only add work"
    );
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
}

#[test]
fn fault_with_copy_remote_restore_matches_oracle() {
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern, &MixApp);
    let config = EngineConfig::flat(4)
        .with_dist(DistKind::BlockCol)
        .with_restore(RestoreManner::CopyRemote)
        .with_fault(FaultPlan {
            place: PlaceId(1),
            after_fraction: 0.3,
        });
    let engine = ThreadedEngine::new(MixApp, pattern, config);
    let result = engine.run().expect("survives the fault");
    let rec = &result.report().recoveries[0];
    assert_eq!(rec.dropped, 0, "copy-remote never drops finished work");
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
}

#[test]
fn fault_plan_on_place_zero_rejected() {
    let engine = ThreadedEngine::new(
        MixApp,
        Grid2::new(4, 4),
        EngineConfig::flat(2).with_fault(FaultPlan::mid_run(PlaceId(0))),
    );
    assert!(engine.run().is_err());
}

#[test]
fn init_override_prefinished_cells_are_respected() {
    // Pre-finish the whole first row and column with zeros; compute only
    // checks interior cells, matching the §VI-E "set the unneeded
    // vertices as finished" idiom.
    struct BorderApp;
    impl DpApp for BorderApp {
        type Value = u64;
        fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            assert!(id.i > 0 && id.j > 0, "border cells must never compute");
            deps.values().iter().sum::<u64>() + 1
        }
    }
    let init: dpx10_core::InitOverride<u64> = Arc::new(|i, j| (i == 0 || j == 0).then_some(0));
    let engine =
        ThreadedEngine::new(BorderApp, Grid3::new(6, 6), EngineConfig::flat(2)).with_init(init);
    let result = engine.run().unwrap();
    assert_eq!(result.get(0, 3), 0);
    assert_eq!(result.get(1, 1), 1);
    // Interior values grow along the wavefront.
    assert!(result.get(5, 5) > result.get(1, 1));
    // The report only counts computed (non-prefinished) work.
    assert_eq!(result.report().vertices_computed, 25);
}

#[test]
fn app_finished_hook_runs_once_with_full_results() {
    struct HookApp {
        calls: Arc<AtomicU64>,
    }
    impl DpApp for HookApp {
        type Value = u64;
        fn compute(&self, _id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            deps.values().iter().sum::<u64>() + 1
        }
        fn app_finished(&self, result: &DagResult<u64>) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(result.array().finished_count(), 16);
        }
    }
    let calls = Arc::new(AtomicU64::new(0));
    let engine = ThreadedEngine::new(
        HookApp {
            calls: calls.clone(),
        },
        Grid2::new(4, 4),
        EngineConfig::flat(2),
    );
    engine.run().unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

#[test]
fn report_counts_communication() {
    let engine = ThreadedEngine::new(
        MixApp,
        Grid3::new(10, 10),
        EngineConfig::flat(2).with_dist(DistKind::BlockCol),
    );
    let result = engine.run().unwrap();
    let comm = result.report().comm;
    // The column boundary forces messages between the two places.
    assert!(comm.messages_sent > 0);
    assert!(comm.bytes_sent > 0);
    assert_eq!(result.report().epochs, 1);
}

#[test]
fn interval_pattern_triangular_cells_absent() {
    let engine = ThreadedEngine::new(MixApp, IntervalUpper::new(8), EngineConfig::flat(2));
    let result = engine.run().unwrap();
    assert!(result.try_get(3, 5).is_some());
    assert!(
        result.try_get(5, 3).is_none(),
        "lower triangle is not part of the DAG"
    );
}

#[test]
fn broken_custom_pattern_is_detected_as_stall() {
    // A vertex whose dependency never notifies it: (0,1) depends on
    // (0,0) but (0,0) lists no dependents. Validation would catch this;
    // with validation off, the stall watchdog must end the run with an
    // error instead of hanging.
    use dpx10_dag::CustomDag;
    let broken = CustomDag::new(1, 2).with_dependencies(|_i, j, out| {
        if j == 1 {
            out.push(VertexId::new(0, 0));
        }
    });
    let mut config = EngineConfig::flat(1);
    config.validate_pattern = false;
    config.stall_limit = std::time::Duration::from_millis(200);
    let err = match ThreadedEngine::new(MixApp, broken, config).run() {
        Err(e) => e,
        Ok(_) => panic!("broken pattern must not complete"),
    };
    match err {
        dpx10_core::EngineError::Stalled { finished, total } => {
            assert_eq!((finished, total), (1, 2));
        }
        other => panic!("expected stall, got {other}"),
    }
}

#[test]
fn validation_catches_the_same_broken_pattern_up_front() {
    use dpx10_dag::CustomDag;
    let broken = CustomDag::new(1, 2).with_dependencies(|_i, j, out| {
        if j == 1 {
            out.push(VertexId::new(0, 0));
        }
    });
    let mut config = EngineConfig::flat(1);
    config.validate_pattern = true;
    let err = match ThreadedEngine::new(MixApp, broken, config).run() {
        Err(e) => e,
        Ok(_) => panic!("broken pattern must not validate"),
    };
    assert!(matches!(err, dpx10_core::EngineError::InvalidPattern(_)));
}

#[test]
fn checkpointed_run_resumes_without_recomputation() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dpx10-engine-ckpt-{}", std::process::id()));
    let pattern = Grid3::new(10, 10);
    let expect = oracle(&pattern, &MixApp);

    // First run: checkpoint everything to disk.
    let mut config = EngineConfig::flat(2);
    config.checkpoint = Some(dpx10_core::CheckpointConfig::new(&dir));
    let result = ThreadedEngine::new(MixApp, Grid3::new(10, 10), config)
        .run()
        .unwrap();
    assert_eq!(result.report().vertices_computed, 100);

    // Second run: resume from the checkpoint — nothing recomputes and
    // every value matches the oracle.
    let init = dpx10_core::load_checkpoint::<u64>(&dir, 2).unwrap();
    let resumed = ThreadedEngine::new(MixApp, Grid3::new(10, 10), EngineConfig::flat(2))
        .with_init(init)
        .run()
        .unwrap();
    assert_eq!(resumed.report().vertices_computed, 0);
    for (id, v) in &expect {
        assert_eq!(resumed.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_survives_fault_and_resumes() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("dpx10-engine-ckpt-fault-{}", std::process::id()));
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern, &MixApp);

    let mut config = EngineConfig::flat(3)
        .with_dist(DistKind::BlockRow)
        .with_fault(FaultPlan::mid_run(PlaceId(2)));
    config.checkpoint = Some(dpx10_core::CheckpointConfig::new(&dir));
    let result = ThreadedEngine::new(MixApp, Grid3::new(12, 12), config)
        .run()
        .unwrap();
    assert!(result.report().epochs >= 2);

    let init = dpx10_core::load_checkpoint::<u64>(&dir, 3).unwrap();
    let resumed = ThreadedEngine::new(MixApp, Grid3::new(12, 12), EngineConfig::flat(2))
        .with_init(init)
        .run()
        .unwrap();
    assert_eq!(
        resumed.report().vertices_computed,
        0,
        "checkpoint covers all publishes"
    );
    for (id, v) in &expect {
        assert_eq!(resumed.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_pulls_of_one_vertex_fold_into_a_single_request() {
    // A "hub" DAG: place 1 owns 40 vertices that all depend on the one
    // cell (0, 0) owned by place 0. With a zero-capacity cache the
    // pushed `Done` value is evicted instantly, so each dependent's
    // gather misses and wants a pull — but `gather` folds waiters on
    // the same remote cell into one in-flight `Pull` (the waiter list
    // in `pending.waiters`), and `cache_misses` counts only the pulls
    // actually issued. Without dedup this run would issue ~40 pulls.
    use dpx10_dag::CustomDag;
    let w = 40u32;
    let pattern = CustomDag::new(2, w)
        .with_dependencies(|i, _j, out| {
            if i == 1 {
                out.push(VertexId::new(0, 0));
            }
        })
        .with_anti_dependencies(move |i, j, out, (_h, w)| {
            if i == 0 && j == 0 {
                out.extend((0..w).map(|k| VertexId::new(1, k)));
            }
        });
    let expect = oracle(&pattern, &MixApp);
    let config = EngineConfig::flat(2)
        .with_dist(DistKind::BlockRow)
        .with_cache(0);
    let pattern = CustomDag::new(2, w)
        .with_dependencies(|i, _j, out| {
            if i == 1 {
                out.push(VertexId::new(0, 0));
            }
        })
        .with_anti_dependencies(move |i, j, out, (_h, w)| {
            if i == 0 && j == 0 {
                out.extend((0..w).map(|k| VertexId::new(1, k)));
            }
        });
    let result = ThreadedEngine::new(MixApp, pattern, config)
        .run()
        .expect("engine completes");
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    let misses = result.report().comm.cache_misses;
    assert!(misses >= 1, "the pull path must have run");
    assert!(
        misses < u64::from(w) / 2,
        "{misses} pulls for {w} dependents of one cell — dedup is not folding"
    );
    // The round-trip accounting must agree with the hub: every one of
    // the 40 first gathers either issued the in-flight pull or joined
    // it as a deduped waiter — never both, never neither.
    let pulls = result.report().comm.pulls_sent;
    let deduped = result.report().comm.pulls_deduped;
    assert_eq!(
        pulls + deduped,
        u64::from(w),
        "{pulls} pulls + {deduped} deduped waiters for {w} dependents"
    );
    assert!(
        deduped >= u64::from(w) / 2,
        "only {deduped} of {w} waiters were folded into the hub"
    );
}

#[test]
fn kill_armed_for_the_last_round_still_recovers() {
    // Workers check progress once per round, but an armed kill must
    // still fire at its exact finished count. Here the threshold is 143
    // of 144 cells: the 143rd and the final cell are finished by the
    // same worker, in the same round, so a per-round check would see
    // the threshold and the total together and `done` would hide the
    // dead place.
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern, &MixApp);
    let config = EngineConfig::flat(4).with_fault(FaultPlan {
        place: PlaceId(1),
        after_fraction: 143.0 / 144.0,
    });
    let result = ThreadedEngine::new(MixApp, pattern, config)
        .run()
        .expect("survives the fault");
    assert_eq!(result.report().recoveries.len(), 1);
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
}

/// The LCS recurrence over two byte strings (the `dpx10-apps` kernel,
/// restated so this crate's tests need no app crate).
struct Lcs {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl DpApp for Lcs {
    type Value = u32;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if i == 0 || j == 0 {
            0
        } else if self.a[i as usize - 1] == self.b[j as usize - 1] {
            deps.get(i - 1, j - 1).unwrap() + 1
        } else {
            *deps.get(i - 1, j).unwrap().max(deps.get(i, j - 1).unwrap())
        }
    }
}

#[test]
fn batched_progress_counters_lose_nothing() {
    // Two places by column: exactly the left and diagonal edges into
    // place 1's first column cross places (h + (h - 1) of them), each a
    // cache hit once the `Done` lands, and the cache never evicts.
    let (h, w) = (150u32, 120u32);
    let seq = |n: u32, k: u32| -> Vec<u8> {
        (0..n)
            .map(|x| b"ACGT"[((x * k) % 7 % 4) as usize])
            .collect()
    };
    let app = Lcs {
        a: seq(h - 1, 3),
        b: seq(w - 1, 5),
    };
    let mut table = vec![vec![0u32; w as usize]; h as usize];
    for i in 1..h as usize {
        for j in 1..w as usize {
            table[i][j] = if app.a[i - 1] == app.b[j - 1] {
                table[i - 1][j - 1] + 1
            } else {
                table[i - 1][j].max(table[i][j - 1])
            };
        }
    }
    let config = EngineConfig::flat(2)
        .with_dist(DistKind::BlockCol)
        .with_cache(4096);
    let result = ThreadedEngine::new(app, Grid3::new(h, w), config)
        .run()
        .expect("engine completes");
    assert_eq!(
        result.get(h - 1, w - 1),
        table[h as usize - 1][w as usize - 1]
    );
    let report = result.report();
    assert_eq!(report.comm.cache_hits, u64::from(2 * h - 1));
    assert_eq!(report.comm.pulls_sent, 0);
    assert_eq!(report.vertices_computed, u64::from(h * w));
    assert_eq!(report.vertices_computed, report.vertices_total);
}
