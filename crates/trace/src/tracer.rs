//! The [`Tracer`] handle shared by every instrumented component of a
//! pipeline (encoder, channel, decoder, session control), and the
//! flight tail it keeps beside its log.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::event::Event;
use crate::replay::TraceLog;
use crate::SIGMA_SCALE;

/// Flight events a tracer keeps in its tail: enough to hold several
/// frames' worth of transport/decode events around a control incident.
pub const FLIGHT_CAPACITY: usize = 512;

/// One flight event in the tail, with its ticket (its 0-based index
/// among the tracer's flight events) and a microsecond timestamp
/// relative to the tracer's creation. Tickets are deterministic for a
/// session; timestamps are wall-clock and belong to the timing side of
/// the export split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Index of this event among the tracer's flight events.
    pub ticket: u64,
    /// Microseconds since the tracer was created. Timing-only.
    pub ts_us: u64,
    /// The event payload.
    pub event: Event,
}

/// What the tracer's one lock guards.
#[derive(Default)]
struct Logs {
    log: TraceLog,
    /// The newest [`FLIGHT_CAPACITY`] flight events, oldest first.
    tail: VecDeque<RecordedEvent>,
    /// Flight events ever emitted: the next one's ticket.
    flight_pushed: u64,
}

struct Inner {
    epoch: Instant,
    /// Frame index published by the pipeline owner so components that
    /// don't know it (the decoder) can stamp their events.
    frame: AtomicU64,
    logs: Mutex<Logs>,
}

/// Cheaply cloneable tracing handle. A disabled tracer (the default
/// for every instrumented component) reduces every emission to one
/// branch on an `Option`, which is what keeps the disabled-mode
/// overhead inside the <2% bench gate.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// Creates an enabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                frame: AtomicU64::new(0),
                logs: Mutex::default(),
            })),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether emissions are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Publishes the frame index for components that can't know it.
    pub fn set_frame(&self, frame: u64) {
        if let Some(inner) = &self.inner {
            inner.frame.store(frame, Ordering::Relaxed);
        }
    }

    /// The most recently published frame index.
    pub fn current_frame(&self) -> u32 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.frame.load(Ordering::Relaxed) as u32)
    }

    /// Records an event into the structured log, and — for
    /// transport/decode/control events — into the flight tail, evicting
    /// its oldest event once it holds [`FLIGHT_CAPACITY`].
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut logs = inner.logs.lock().expect("trace log lock");
        if event.is_flight() {
            if logs.tail.len() == FLIGHT_CAPACITY {
                logs.tail.pop_front();
            }
            let recorded = RecordedEvent {
                ticket: logs.flight_pushed,
                ts_us: inner.epoch.elapsed().as_micros() as u64,
                event,
            };
            logs.tail.push_back(recorded);
            logs.flight_pushed += 1;
        }
        logs.log.events.push(event);
    }

    /// Stores the encoder's post-frame `sigma` (`C^k`) snapshot,
    /// scaled to fixed point for deterministic scoring.
    pub fn record_sigma(&self, frame: u64, sigma: &[f64]) {
        let Some(mut logs) = self.logs() else { return };
        let scaled: Vec<u32> = sigma
            .iter()
            .map(|&s| (s.clamp(0.0, 1.0) * SIGMA_SCALE as f64).round() as u32)
            .collect();
        logs.log.sigma_e9.insert(frame as u32, scaled);
    }

    /// Stores the decoder-vs-encoder per-MB SAD for a frame (the
    /// pixel-cost ground truth for blast radii).
    pub fn record_mb_sad(&self, frame: u64, sad: Vec<u64>) {
        if let Some(mut logs) = self.logs() {
            logs.log.mb_sad.insert(frame as u32, sad);
        }
    }

    /// Copies the structured log out for analysis.
    pub fn log_snapshot(&self) -> TraceLog {
        self.logs()
            .map_or_else(TraceLog::default, |logs| logs.log.clone())
    }

    /// Copies the flight tail out, oldest first.
    pub fn ring_snapshot(&self) -> Vec<RecordedEvent> {
        self.logs()
            .map_or_else(Vec::new, |logs| logs.tail.iter().copied().collect())
    }

    /// Flight events emitted since creation, evicted ones included.
    pub fn ring_pushed(&self) -> u64 {
        self.logs().map_or(0, |logs| logs.flight_pushed)
    }

    /// The locked log and flight tail; `None` when disabled.
    fn logs(&self) -> Option<MutexGuard<'_, Logs>> {
        self.inner
            .as_ref()
            .map(|inner| inner.logs.lock().expect("trace log lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(Event::Resync {
            frame: 1,
            bytes_skipped: 2,
        });
        t.record_sigma(0, &[0.5]);
        t.set_frame(9);
        assert_eq!(t.current_frame(), 0);
        assert!(t.log_snapshot().is_empty());
        assert!(t.ring_snapshot().is_empty());
    }

    #[test]
    fn events_land_in_log_and_ring_split_by_kind() {
        let t = Tracer::new();
        t.emit(Event::MbCoded {
            frame: 0,
            mb: 0,
            mode: 0,
            mv_x: 0,
            mv_y: 0,
            bit_start: 0,
            bit_len: 10,
        });
        t.emit(Event::Resync {
            frame: 0,
            bytes_skipped: 3,
        });
        let log = t.log_snapshot();
        assert_eq!(log.events.len(), 2);
        // Only the resync reaches the flight tail.
        let ring = t.ring_snapshot();
        assert_eq!(ring.len(), 1);
        assert_eq!(
            ring[0].event,
            Event::Resync {
                frame: 0,
                bytes_skipped: 3
            }
        );
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::new();
        let u = t.clone();
        u.set_frame(7);
        assert_eq!(t.current_frame(), 7);
        u.record_sigma(7, &[1.0, 0.25]);
        let log = t.log_snapshot();
        assert_eq!(log.sigma_e9[&7], vec![SIGMA_SCALE as u32, 250_000_000]);
    }

    #[test]
    fn flight_tail_keeps_the_newest_events_with_consecutive_tickets() {
        let t = Tracer::new();
        let emitted = FLIGHT_CAPACITY as u32 + 20;
        for frame in 0..emitted {
            t.emit(Event::Resync {
                frame,
                bytes_skipped: 1,
            });
        }
        let tail = t.ring_snapshot();
        assert_eq!(tail.len(), FLIGHT_CAPACITY);
        for (i, rec) in tail.iter().enumerate() {
            let ticket = 20 + i as u64;
            assert_eq!(rec.ticket, ticket);
            assert_eq!(rec.event.frame() as u64, ticket, "newest events kept");
        }
        assert_eq!(t.ring_pushed(), u64::from(emitted));
        assert_eq!(t.log_snapshot().events.len(), emitted as usize);
    }
}
