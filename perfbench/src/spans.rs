//! The benchmark's own span recorder.
//!
//! Spans are wall-clock intervals the benchmark records around its calls
//! into the program's layers (the program itself is not instrumented).
//! They are kept in memory and rendered at the end in the `dpx10-obs`
//! Chrome trace format: `{"traceEvents":[…]}` with a `process_name`
//! metadata record and `"X"` complete events whose `ts`/`dur` are
//! microseconds printed with three decimals (exact nanoseconds), so
//! `dpx10_obs::chrome::parse` and `dpx10 trace summarize` read them back.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start_ns: u64,
    dur_ns: u64,
    arg: u64,
}

/// An in-memory span list; a disabled recorder only times.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    events: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: true,
            events: Vec::new(),
        }
    }

    /// A recorder that only measures durations.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    /// Runs `f` inside a span called `name` (`arg` is free-form payload,
    /// e.g. the operation count) and returns its result and duration.
    pub fn time<T>(&mut self, name: &str, arg: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.enabled {
            self.events.push(Span {
                name: name.to_string(),
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                arg,
            });
        }
        (out, dur)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the spans as Chrome trace JSON; `meta` lands in
    /// `otherData` as string values.
    pub fn render(&self, meta: &[(String, String)]) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from(
            "{\"traceEvents\":[\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for s in &self.events {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"perfbench\",\"pid\":0,\"tid\":0,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"arg\":{}}}}}",
                crate::json::escape(&s.name),
                us(s.start_ns),
                us(s.dur_ns),
                s.arg
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":0");
        for (k, v) in meta {
            let _ = write!(
                out,
                ",\"{}\":\"{}\"",
                crate::json::escape(k),
                crate::json::escape(v)
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders and writes the trace, creating the parent directory.
    pub fn write(&self, path: &Path, meta: &[(String, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render(meta))
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}
