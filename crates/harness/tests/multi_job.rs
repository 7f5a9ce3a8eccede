//! Chaos differential oracle for the multi-job scheduler: several
//! concurrent jobs share one 3-place socket mesh while one job's
//! planned fault takes a place down mid-serve. The oracle for
//! every job — faulted or not — is its solo single-place threaded run;
//! fault isolation is asserted structurally: only jobs with vertices on
//! the dead place recover (epochs ≥ 2), jobs pinned away from it never
//! see a second epoch.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::SocketConfig;
use dpx10_core::{
    EngineConfig, FaultPlan, JobServer, JobSpec, PlaceId, ServeReport, ThreadedEngine,
};
use dpx10_dag::{builtin, DagPattern};
use dpx10_harness::MixApp;

fn solo_fingerprint(pattern: impl DagPattern + Clone + 'static) -> u64 {
    ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(1))
        .run()
        .expect("solo run")
        .fingerprint()
}

/// Tight failure-detector settings so the pinned kill is noticed fast.
fn tighten(mut cfg: SocketConfig) -> SocketConfig {
    cfg.heartbeat = Duration::from_millis(25);
    cfg.peer_timeout = Duration::from_millis(600);
    cfg
}

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
            build().serve(tighten(SocketConfig::worker(PlaceId(p), places, addr)))
        }));
    }
    let report = build()
        .serve(tighten(SocketConfig::coordinator(listener, places)))
        .expect("coordinator serves")
        .expect("coordinator returns the report");
    for w in workers {
        assert!(
            matches!(w.join().expect("worker thread exits"), Ok(None)),
            "workers (including the victim) shut down cleanly"
        );
    }
    report
}

#[test]
fn place_death_mid_serve_recovers_only_the_affected_jobs() {
    // Four jobs: two big full-mesh jobs that are certain to have
    // unfinished vertices on place 2 when it dies, two pinned to
    // {0, 1} and therefore out of the blast radius. The first wide
    // job's fault plan kills place 2 once 5 % of its 400 vertices are
    // done — far before any full-mesh job (≥ 360 vertices, ~a third of
    // them on place 2) can finish. The kill takes the whole place down,
    // so the second wide job recovers too.
    let report = serve_mesh(3, || {
        let mut server = JobServer::new().with_max_in_flight(4).with_soft_die();
        server
            .submit(JobSpec::new(
                "wide-grid3",
                MixApp,
                builtin::Grid3::new(20, 20),
                EngineConfig::flat(3).with_fault(FaultPlan {
                    place: PlaceId(2),
                    after_fraction: 0.05,
                }),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "wide-grid2",
                MixApp,
                builtin::Grid2::new(18, 20),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned-rowwave",
                    MixApp,
                    builtin::RowWave::new(10, 12),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned-diagonal",
                    MixApp,
                    builtin::Diagonal::new(11, 11),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        server
    });

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(
        report.succeeded(),
        4,
        "every job completes despite the mid-serve place death"
    );

    let solos = [
        solo_fingerprint(builtin::Grid3::new(20, 20)),
        solo_fingerprint(builtin::Grid2::new(18, 20)),
        solo_fingerprint(builtin::RowWave::new(10, 12)),
        solo_fingerprint(builtin::Diagonal::new(11, 11)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        let result = job.result.as_ref().expect("job succeeded");
        assert_eq!(
            result.fingerprint(),
            solo,
            "job {} diverged from its solo oracle after the fault",
            job.name
        );
        let rep = result.report();
        if job.name.starts_with("wide") {
            // Blast radius: the full-mesh jobs lost a place and must
            // have recovered into a second (or later) epoch.
            assert!(
                rep.epochs >= 2,
                "job {} had vertices on the dead place but ran {} epoch(s)",
                job.name,
                rep.epochs
            );
            assert!(
                !rep.recoveries.is_empty(),
                "job {} recorded no recovery pass",
                job.name
            );
        } else {
            // Isolation: jobs pinned away from the victim never even
            // notice the death.
            assert_eq!(
                rep.epochs, 1,
                "pinned job {} was dragged into a recovery it did not need",
                job.name
            );
            assert!(
                rep.recoveries.is_empty(),
                "pinned job {} recorded a recovery",
                job.name
            );
        }
    }
}
