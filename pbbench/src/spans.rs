//! In-memory span recording around calls into each layer.
//!
//! A span has a name (the layer's crate and module, e.g.
//! `codec.encode`), a start, a duration, the span that was open when it
//! began, and the stream (clip or session) and frame it served. Spans
//! stay in memory and are written as JSON when the run ends. A layer's
//! self time is its span's duration minus the time its child spans
//! cover.
//!
//! Hooks called tens of thousands of times per frame (the refresh
//! policy's ME bias) are recorded as one *aggregated* child span per
//! frame: its duration is the summed busy time of `calls` calls, not an
//! interval on the clock.
//!
//! A disabled recorder reads no clock, so the untraced loop runs the
//! same code with the recording switched off.

use crate::json::{n, obj, s, Value};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration (busy time for aggregated spans), nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Clip or session the span served.
    pub stream: u32,
    /// Frame index within the stream.
    pub frame: u64,
    /// Calls folded into this span (1 for an interval span).
    pub calls: u64,
}

/// Handle of an open span; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing and reads no clock.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off (between frames, never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with open spans");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, stream: u32, frame: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            parent: self.stack.last().copied(),
            stream,
            frame,
            calls: 1,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Spans::open`]; spans close innermost
    /// first.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        stream: u32,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, stream, frame);
        let out = f();
        self.close(open);
        out
    }

    /// Records an aggregated child of the span `parent`: `busy_ns` of
    /// busy time over `calls` calls made while `parent` was open.
    pub fn aggregate(&mut self, parent: Open, name: &'static str, busy_ns: u64, calls: u64) {
        let Some(pidx) = parent.0 else { return };
        let p = &self.spans[pidx];
        let span = Span {
            name,
            start_ns: p.start_ns,
            dur_ns: busy_ns,
            parent: Some(pidx),
            stream: p.stream,
            frame: p.frame,
            calls,
        };
        self.spans.push(span);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(span, c)| span.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Summed self time and span count per name, in first-seen order.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => out.push((span.name, own, 1)),
            }
        }
        out
    }

    /// Summed self time of spans named `name`, nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_by_name()
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |e| e.1)
    }

    /// Summed duration of spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.dur_ns)
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|span| {
                    obj([
                        ("name", s(span.name)),
                        ("start_ns", n(span.start_ns as f64)),
                        ("dur_ns", n(span.dur_ns as f64)),
                        ("parent", span.parent.map_or(Value::Null, |p| n(p as f64))),
                        ("stream", n(span.stream)),
                        ("frame", n(span.frame as f64)),
                        ("calls", n(span.calls as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// The cost of reading the clock once, nanoseconds: the median of many
/// back-to-back `Instant` reads. Sampled hook timings subtract it, since
/// for a call of a few nanoseconds the clock read would otherwise
/// dominate what is measured.
pub fn clock_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let root = spans.open("frame", 0, 0);
        let enc = spans.open("codec.encode", 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.aggregate(enc, "core.policy", 1_000_000, 40);
        spans.close(enc);
        spans.close(root);
        let own = spans.self_times();
        assert_eq!(spans.spans()[2].parent, Some(1));
        assert!(own[1] + 1_000_000 == spans.spans()[1].dur_ns);
        assert_eq!(own[2], 1_000_000);
        assert!(own[0] < spans.spans()[0].dur_ns);
        assert_eq!(spans.self_ns("core.policy"), 1_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let v = spans.time("codec.encode", 0, 0, || 7);
        assert_eq!(v, 7);
        assert!(spans.spans().is_empty());
    }
}
