//! In-process end-to-end tests of the multi-job scheduler: every place
//! is a thread with its own `SocketNode`, and one `JobServer` per place
//! serves several concurrent DP jobs over the shared mesh. The oracle
//! for every job is its solo single-place threaded run — vertex values
//! are a pure function of the DAG, so any cross-job frame leakage or
//! scheduling corruption changes a fingerprint.

use std::net::TcpListener;
use std::sync::Arc;

use dpx10_apgas::SocketConfig;
use dpx10_core::{
    DepView, DpApp, EngineConfig, JobServer, JobSpec, PlaceId, ScheduleStrategy, ServeReport,
    ThreadedEngine,
};
use dpx10_dag::{builtin, DagPattern, VertexId};

/// Differential app: any misrouted or stale dependency value changes
/// everything downstream.
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

fn solo_fingerprint(pattern: impl DagPattern + Clone + 'static) -> u64 {
    ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(1))
        .run()
        .expect("solo run")
        .fingerprint()
}

/// Runs `places` serve participants as threads in this process and
/// returns place 0's report. `build` must produce the same server on
/// every call — the serve contract.
fn serve_mesh(
    places: u16,
    build: impl Fn() -> JobServer<MixApp> + Send + Sync + 'static,
) -> ServeReport<u64> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let build = Arc::new(build);
    let mut workers = Vec::new();
    for p in 1..places {
        let addr = addr.clone();
        let build = build.clone();
        workers.push(std::thread::spawn(move || {
            build().serve(SocketConfig::worker(PlaceId(p), places, addr))
        }));
    }
    let report = build()
        .serve(SocketConfig::coordinator(listener, places))
        .expect("coordinator serves")
        .expect("coordinator returns the report");
    for w in workers {
        let worker_report = w.join().expect("worker thread exits");
        assert!(matches!(worker_report, Ok(None)), "workers return Ok(None)");
    }
    report
}

#[test]
fn four_concurrent_jobs_match_their_solo_fingerprints() {
    let report = serve_mesh(3, || {
        let mut server = JobServer::new().with_max_in_flight(4);
        server
            .submit(JobSpec::new(
                "grid2",
                MixApp,
                builtin::Grid2::new(14, 14),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "grid3",
                MixApp,
                builtin::Grid3::new(12, 12),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "rowwave",
                MixApp,
                builtin::RowWave::new(10, 16),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "diagonal",
                MixApp,
                builtin::Diagonal::new(12, 12),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
    });

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.succeeded(), 4);
    // All four were admitted together (cap 4, one mesh).
    assert_eq!(report.peak_in_flight, 4);
    let solos = [
        solo_fingerprint(builtin::Grid2::new(14, 14)),
        solo_fingerprint(builtin::Grid3::new(12, 12)),
        solo_fingerprint(builtin::RowWave::new(10, 16)),
        solo_fingerprint(builtin::Diagonal::new(12, 12)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        let result = job.result.as_ref().expect("job succeeded");
        assert_eq!(
            result.fingerprint(),
            solo,
            "job {} diverged from its solo run",
            job.name
        );
        assert_eq!(result.report().epochs, 1, "no faults => one epoch");
        assert!(result.report().recoveries.is_empty());
    }
}

#[test]
fn pinned_job_runs_on_its_subset_with_the_same_answer() {
    let report = serve_mesh(3, || {
        let mut server = JobServer::new();
        server
            .submit(JobSpec::new(
                "wide",
                MixApp,
                builtin::Grid3::new(10, 10),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned",
                    MixApp,
                    builtin::Grid2::new(10, 10),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        server
    });

    assert_eq!(report.succeeded(), 2);
    assert_eq!(
        report.jobs[0].result.as_ref().unwrap().fingerprint(),
        solo_fingerprint(builtin::Grid3::new(10, 10)),
    );
    assert_eq!(
        report.jobs[1].result.as_ref().unwrap().fingerprint(),
        solo_fingerprint(builtin::Grid2::new(10, 10)),
    );
}

#[test]
fn priority_and_cap_order_admission() {
    let report = serve_mesh(2, || {
        let mut server = JobServer::new().with_max_in_flight(1);
        server
            .submit(
                JobSpec::new(
                    "background",
                    MixApp,
                    builtin::RowWave::new(8, 8),
                    EngineConfig::flat(2),
                )
                .with_priority(0),
            )
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "urgent",
                    MixApp,
                    builtin::RowWave::new(8, 8),
                    EngineConfig::flat(2),
                )
                .with_priority(9),
            )
            .unwrap();
        server
    });

    assert_eq!(report.succeeded(), 2);
    assert_eq!(report.peak_in_flight, 1, "cap of one is respected");
    // The urgent job was admitted first despite being submitted second:
    // the background job waited at least as long.
    assert!(report.jobs[0].wait >= report.jobs[1].wait);
}

#[test]
fn served_jobs_record_the_work_stealing_downgrade() {
    let report = serve_mesh(2, || {
        let mut server = JobServer::new();
        server
            .submit(JobSpec::new(
                "steal",
                MixApp,
                builtin::RowWave::new(6, 6),
                EngineConfig::flat(2).with_schedule(ScheduleStrategy::WorkStealing),
            ))
            .unwrap();
        server
    });
    let result = report.jobs[0].result.as_ref().expect("job succeeded");
    let downgrade = result
        .report()
        .schedule_downgrade
        .as_ref()
        .expect("downgrade recorded");
    assert_eq!(downgrade.requested, ScheduleStrategy::WorkStealing);
    assert_eq!(downgrade.effective, ScheduleStrategy::Local);
}

#[test]
fn served_reports_carry_the_mesh_counters() {
    let report = serve_mesh(3, || {
        let mut server = JobServer::new();
        server
            .submit(JobSpec::new(
                "grid3",
                MixApp,
                builtin::Grid3::new(10, 10),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
    });
    let result = report.jobs[0].result.as_ref().expect("job succeeded");
    let comm = result.report().comm;
    assert!(comm.messages_sent > 0, "a 3-place job must have talked");
    assert!(comm.bytes_sent > comm.messages_sent);
    assert_eq!(result.report().place_busy.len(), 3);
}
