//! Benchmark-side spans for the traced run: recorded around the calls the
//! benchmark makes into each crate, never inside the program. The tree is
//! written as Chrome trace-event JSON that `rexctl trace profile` reads.

use std::time::{Duration, Instant};

use rex_telemetry::span::{Profile, SpanCollector};

/// A span recorder on the benchmark's main thread.
pub struct Spans {
    collector: SpanCollector,
    open: Vec<&'static str>,
    muted: bool,
}

impl Spans {
    /// A recorder anchored now.
    pub fn new() -> Spans {
        Spans {
            collector: SpanCollector::new(),
            open: Vec::new(),
            muted: false,
        }
    }

    /// Stops (or resumes) recording: muted spans are still timed by
    /// [`Spans::time`] but leave no events, which keeps the written tree
    /// small when a run repeats thousands of cells. Toggle only with no
    /// span opened since the last toggle still open.
    pub fn mute(&mut self, muted: bool) {
        self.muted = muted;
    }

    /// Opens a span that later calls nest under.
    pub fn enter(&mut self, name: &'static str) {
        if !self.muted {
            self.collector.enter(name);
        }
        self.open.push(name);
    }

    /// Closes the innermost span, which must be `name`.
    pub fn exit(&mut self, name: &'static str) {
        if !self.muted {
            self.collector.exit(name);
        }
        self.open.pop();
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain: the clean-up after a call
    /// returned early with an error.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let name = self.open[self.open.len() - 1];
            self.exit(name);
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// wall time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.enter(name);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.exit(name);
        (r, dt)
    }

    /// Closes any open spans and returns the profile.
    pub fn finish(self) -> Profile {
        self.collector.finish()
    }
}
