//! Self-tests of the benchmark: the correctness gate, the printed metric
//! names against `BENCHMARK.json`, and seed handling. They drive the
//! built `perfbench` binary on shrunken inputs.

use std::path::PathBuf;
use std::process::Command;

use dpx10_perfbench::json::{self, Value};
use dpx10_perfbench::workload::trace_path;
use dpx10_perfbench::{Input, Workload};

/// Cells per workload in the self-tests: big enough for both places to
/// own work, small enough to finish in about a second.
const CELLS: &str = "2500";

/// Runs the benchmark; returns whether it exited 0 and its stdout.
fn bench(workload: Workload, seed: u64, trace: u8, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--cells",
            CELLS,
        ])
        .args(extra)
        .output()
        .expect("spawn perfbench");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// The result object on the last line of stdout.
fn result(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("some output");
    let v = json::parse(last).unwrap_or_else(|e| panic!("last line not JSON ({e}): {last}"));
    let keys: Vec<&str> = match &v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    v
}

/// `(name, unit)` of a result's metrics, in print order.
fn metrics(result: &Value) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Value::as_str).expect("unit");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("metrics is not an object"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn injected_wrong_answer_fails_the_run() {
    for w in Workload::ALL {
        let (ok, stdout) = bench(w, 5, 0, &["--corrupt-oracle"]);
        assert!(!ok, "{}: a wrong answer must exit non-zero", w.name());
        let r = result(&stdout);
        assert_eq!(r.get("correct"), Some(&Value::Bool(false)), "{}", w.name());
        let attempted = r.get("attempted").and_then(Value::as_f64).unwrap();
        let failed = r.get("failed").and_then(Value::as_f64).unwrap();
        assert!(attempted >= 1.0);
        assert_eq!(failed, attempted, "{}: every repetition is wrong", w.name());
        assert!(
            stdout.contains("FAILED"),
            "{}: failure is explained",
            w.name()
        );
    }
}

#[test]
fn printed_metrics_are_declared_and_trace_parses() {
    for w in Workload::ALL {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, stdout) = bench(w, 11, trace, &[]);
            assert!(ok, "{} trace {trace} failed:\n{stdout}", w.name());
            let r = result(&stdout);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
            let printed = metrics(&r);
            for (name, _) in &printed {
                assert!(valid_name(name), "bad metric name {name}");
            }
            assert_eq!(printed, declared(key), "{} trace {trace}", w.name());
            assert!(
                stdout.contains("\"host\": {\"nproc\""),
                "host record missing"
            );
        }
        let text = std::fs::read_to_string(trace_path(w, 11)).expect("trace written");
        let events = dpx10_obs::chrome::parse(&text).expect("obs reads the trace");
        assert!(events.iter().any(|e| e.name == "engine.run"));
        assert!(events.iter().any(|e| e.name == "dag.anti_dependencies"));
        dpx10_obs::chrome::check_nesting(&events).expect("spans nest");
    }
}

#[test]
fn seeds_change_inputs_but_not_metric_names() {
    for w in Workload::ALL {
        let one = Input::generate(w, 1, 2500);
        assert_eq!(one, Input::generate(w, 1, 2500), "same seed, same input");
        let two = Input::generate(w, 2, 2500);
        if w == Workload::GapThreads {
            // GAP's penalties hash the seed; compare the resulting tables.
            let table = |s| dpx10_apps::serial::gap(one.side, one.side, s);
            assert_ne!(table(1), table(2));
        } else {
            assert_ne!((&one.a, &one.b), (&two.a, &two.b), "{}", w.name());
        }
    }
    let (ok1, out1) = bench(Workload::LcsThreads, 1, 0, &[]);
    let (ok2, out2) = bench(Workload::LcsThreads, 2, 0, &[]);
    assert!(ok1 && ok2);
    assert_eq!(metrics(&result(&out1)), metrics(&result(&out2)));
}
