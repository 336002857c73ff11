//! A forwarding [`RefreshPolicy`] that times the wrapped policy's hooks.
//!
//! The benchmark measures the `C^k` policy layer (`core.policy_us`)
//! from outside the encoder: every hook forwards to the wrapped policy,
//! including [`RefreshPolicy::frame_frozen_bias`], so the encoder takes
//! the same serial or slice-parallel path with or without the wrapper.
//!
//! `me_bias` runs once per motion-search candidate (up to 961 per
//! macroblock under full search), so timing every call would cost more
//! than the call, and a clock read inside the search loop perturbs the
//! call it brackets. One call in [`BIAS_SAMPLE`] is timed, and halfway
//! between two timed calls an *empty* interval is timed at the same call
//! site. A frame's bias time is its call count times the difference of
//! the two medians: the medians ignore samples hit by an interrupt, and
//! the empty interval carries the in-context cost of the clock reads.
//! The other hooks run a few hundred times per frame; they are all
//! timed, minus the calibrated clock-read cost.

use pbpair_codec::{
    FrameContext, FrameKind, FrameStats, FrozenMeBias, MbContext, MbOutcome, MeResult,
    MotionVector, PostMeDecision, PreMeDecision, RefreshPolicy,
};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// One `me_bias` call in this many is timed.
pub const BIAS_SAMPLE: u64 = 64;
const HALF_SAMPLE: u64 = BIAS_SAMPLE / 2;
/// Sample buffer capacity, reserved up front so timing allocates
/// nothing inside the encoder (a full-search frame makes ~1,500 samples).
const SAMPLE_CAPACITY: usize = 16_384;

/// The timing wrapper. With timing off it only forwards.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    timing: bool,
    clock_ns: u64,
    busy_ns: Cell<u64>,
    calls: Cell<u64>,
    /// `me_bias` calls since the last take.
    bias_calls: u64,
    /// Durations of the timed `me_bias` calls since the last take.
    bias_ns: Vec<u64>,
    /// Durations of the empty intervals timed beside them.
    null_ns: Vec<u64>,
}

impl<P: RefreshPolicy> TimedPolicy<P> {
    /// Wraps `inner`; `clock_ns` is the clock-read cost to subtract
    /// (see [`crate::spans::clock_overhead_ns`]).
    pub fn new(inner: P, timing: bool, clock_ns: u64) -> Self {
        TimedPolicy {
            inner,
            timing,
            clock_ns,
            busy_ns: Cell::new(0),
            calls: Cell::new(0),
            bias_calls: 0,
            bias_ns: Vec::with_capacity(SAMPLE_CAPACITY),
            null_ns: Vec::with_capacity(SAMPLE_CAPACITY),
        }
    }

    /// Switches timing on or off.
    pub fn set_timing(&mut self, timing: bool) {
        self.timing = timing;
    }

    /// Returns and resets `(busy ns, hook calls)` since the last take.
    pub fn take(&mut self) -> (u64, u64) {
        let calls = std::mem::take(&mut self.bias_calls);
        let per_call = median(&mut self.bias_ns).saturating_sub(median(&mut self.null_ns));
        self.bias_ns.clear();
        self.null_ns.clear();
        let bias_busy = if self.timing { per_call * calls } else { 0 };
        let bias_calls = if self.timing { calls } else { 0 };
        (
            self.busy_ns.take() + bias_busy,
            self.calls.take() + bias_calls,
        )
    }
}

fn median(v: &mut [u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mid = v.len() / 2;
    *v.select_nth_unstable(mid).1
}

impl<P: RefreshPolicy> RefreshPolicy for TimedPolicy<P> {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        let mut out = FrameKind::Inter;
        let inner = &mut self.inner;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || out = inner.begin_frame(ctx),
        );
        out
    }

    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        let mut out = PreMeDecision::TryInter;
        let inner = &mut self.inner;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || out = inner.pre_me_mode(ctx),
        );
        out
    }

    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        self.bias_calls += 1;
        if !self.timing {
            return self.inner.me_bias(ctx, mv);
        }
        let sample = self.bias_ns.len() < SAMPLE_CAPACITY;
        match self.bias_calls % BIAS_SAMPLE {
            0 if sample => {
                let t = Instant::now();
                let out = self.inner.me_bias(ctx, mv);
                self.bias_ns.push(t.elapsed().as_nanos() as u64);
                out
            }
            HALF_SAMPLE if sample => {
                let t = Instant::now();
                black_box(());
                self.null_ns.push(t.elapsed().as_nanos() as u64);
                self.inner.me_bias(ctx, mv)
            }
            _ => self.inner.me_bias(ctx, mv),
        }
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, me: &MeResult) -> PostMeDecision {
        let mut out = PostMeDecision::Keep;
        let inner = &mut self.inner;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || out = inner.post_me_mode(ctx, me),
        );
        out
    }

    fn frame_frozen_bias(&self, ctx: &FrameContext) -> Option<FrozenMeBias> {
        let mut out = None;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || out = self.inner.frame_frozen_bias(ctx),
        );
        out
    }

    fn mb_coded(&mut self, ctx: &FrameContext, outcome: &MbOutcome) {
        let inner = &mut self.inner;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || inner.mb_coded(ctx, outcome),
        );
    }

    fn end_frame(&mut self, ctx: &FrameContext, stats: &FrameStats) {
        let inner = &mut self.inner;
        time_into(
            self.timing,
            self.clock_ns,
            &self.busy_ns,
            &self.calls,
            1,
            || inner.end_frame(ctx, stats),
        );
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Runs `f`, adding its duration times `scale` (minus the clock read)
/// and `scale` calls to the accumulators when `timing` is on. A free
/// function so the hooks can borrow the wrapped policy mutably while
/// the accumulators are borrowed shared.
fn time_into(
    timing: bool,
    clock_ns: u64,
    busy: &Cell<u64>,
    calls: &Cell<u64>,
    scale: u64,
    f: impl FnOnce(),
) {
    if !timing {
        return f();
    }
    let t = Instant::now();
    f();
    let ns = (t.elapsed().as_nanos() as u64).saturating_sub(clock_ns);
    busy.set(busy.get() + ns * scale);
    calls.set(calls.get() + scale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair::{PbpairConfig, PbpairPolicy};
    use pbpair_codec::{Encoder, EncoderConfig};
    use pbpair_media::{synth::SyntheticSequence, VideoFormat};

    #[test]
    fn wrapper_is_bitstream_neutral_and_counts_hooks() {
        let cfg = PbpairConfig::default();
        let mut plain = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut wrapped =
            TimedPolicy::new(PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap(), true, 0);
        let mut a = Encoder::new(EncoderConfig::default());
        let mut b = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(3);
        for _ in 0..4 {
            let f = seq.next_frame();
            assert_eq!(
                a.encode_frame(&f, &mut plain).data,
                b.encode_frame(&f, &mut wrapped).data
            );
        }
        let (busy, calls) = wrapped.take();
        assert!(calls > 4 * 99, "every macroblock calls at least one hook");
        assert!(busy > 0);
        assert_eq!(wrapped.take(), (0, 0));
    }
}
