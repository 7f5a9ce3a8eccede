//! The dpx10 benchmark: ns per cell on four workloads, plus a per-layer
//! cost ledger measured from outside the program.
//!
//! One invocation runs one workload for a fixed time budget:
//!
//! * `--trace 0` measures the end-to-end metrics from untraced
//!   repetitions of the engine's `run()`;
//! * `--trace 1` measures the per-layer metrics by timing
//!   calls into each layer's public functions, records its own spans
//!   around those calls and writes them out in the `dpx10-obs` Chrome
//!   trace format when it ends.
//!
//! Every repetition is checked against the serial oracles; a wrong
//! answer, an engine error or a stall counts as failed and makes the
//! process exit non-zero. [`workload::run`] is the entry point. See
//! `README.md` next to this crate for the workloads, the layer table and
//! how to read the ledger.

pub mod host;
pub mod json;
pub mod layers;
pub mod spans;
pub mod workload;

use std::time::Duration;

pub use workload::{Input, Workload};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (a ratio over an empty denominator)
    /// are reported as 0 so the output stays valid JSON.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// `false`: end-to-end metrics; `true`: per-layer ledger.
    pub trace: bool,
    /// Overrides the workload's cell count (self-tests shrink it).
    pub cells: Option<u64>,
    /// Checks every repetition against a deliberately wrong oracle
    /// answer (self-test of the correctness gate).
    pub corrupt_oracle: bool,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, plus the
    /// self-test flags `--cells N` and `--corrupt-oracle`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut cells = None;
        let mut corrupt_oracle = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--corrupt-oracle" {
                corrupt_oracle = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {v}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(num(value)?),
                "--seconds" => seconds = Some(num(value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--cells" => cells = Some(num(value)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: Duration::from_secs(seconds.ok_or("missing --seconds")?.max(1)),
            trace: trace.ok_or("missing --trace")?,
            cells,
            corrupt_oracle,
        })
    }
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Repetitions of the engine's `run()` attempted.
    pub attempted: u64,
    /// Repetitions that errored, stalled or failed the correctness check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
