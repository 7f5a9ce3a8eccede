//! The host record printed with every result.
//!
//! Numbers from different hosts are never compared silently: each result
//! carries the core count, CPU model, compiler, source revision and a
//! calibration spin-loop time. The spin time is recorded only; no metric
//! is normalised by it.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Iterations of the calibration loop (tens of milliseconds).
const SPIN_ITERS: u64 = 20_000_000;

/// What the benchmark ran on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git describe --always --dirty` of the checkout, or `none` when
    /// the checkout is not a git repository.
    pub git: String,
    /// Wall time of the fixed calibration loop, milliseconds.
    pub spin_ms: f64,
}

impl Host {
    /// Probes the host; `root` is the checkout the benchmark runs in.
    pub fn probe(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Only ask git about a checkout that is itself a repository, so a
        // git repository further up the tree is never described instead.
        let git = if root.join(".git").exists() {
            command_line("git", &["describe", "--always", "--dirty"], root)
        } else {
            None
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
            git: git.unwrap_or_else(|| "none".to_string()),
            spin_ms: spin_ms(),
        }
    }

    /// The record as one JSON object line.
    pub fn json(&self) -> String {
        use crate::json::escape;
        format!(
            "{{\"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
             \"spin_ms\": {}}}}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.git),
            self.spin_ms
        )
    }

    /// The record as `(key, value)` pairs for the trace file.
    pub fn pairs(&self) -> Vec<(String, String)> {
        vec![
            ("nproc".into(), self.nproc.to_string()),
            ("cpu".into(), self.cpu.clone()),
            ("rustc".into(), self.rustc.clone()),
            ("git".into(), self.git.clone()),
            ("spin_ms".into(), self.spin_ms.to_string()),
        ]
    }
}

/// First stdout line of a command that succeeded; waits for it to exit.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

/// Times a dependent multiply-add chain; `black_box` on every step
/// keeps the compiler from folding or vectorising it.
fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..SPIN_ITERS {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    start.elapsed().as_secs_f64() * 1e3
}
