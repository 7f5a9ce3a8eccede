//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints human-readable lines, the host record, and as its last line
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Exits 0 only when every repetition passed its check.

use std::path::Path;
use std::process::ExitCode;

use dpx10_perfbench::{host::Host, Options};

const USAGE: &str = "usage: perfbench --workload lcs-threads|swlag-sockets-pull|gap-threads|\
lcs-sockets-kill --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let host = Host::probe(&root);
    match dpx10_perfbench::workload::run(&opts, &host) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", host.json());
            println!("{}", outcome.result_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
