//! Robustness fuzzing of the serving surface: no [`ServeConfig`] may
//! panic [`run`](pbpair_serve::run). A config is outside input — the
//! `serve` and `matrix` binaries, eval and the benchmark all build one —
//! so `run` must be total over it: every config either fails validation
//! with an `Err` or runs to a report.
//!
//! The main harness draws a few hundred seeded configs. Every field is
//! drawn from in-range values, its boundaries, and hostile values (0,
//! NaN, ±∞, huge), and each config runs with the telemetry registry and
//! the tracer on or off (`run` is [`run_with`] with both off). Fleets
//! stay tiny (at most 3 sessions × 4 frames, no pacing, no scrape port)
//! so the whole sweep runs in seconds. Configs that once panicked are
//! kept below as named cases.

use pbpair_codec::RdeConfig;
use pbpair_media::synth::MotionClass;
use pbpair_netsim::{ChannelSpec, FecSpec, Phase, PhaseKind};
use pbpair_serve::{
    run_with, AdmissionConfig, ChaosEvent, ChaosFault, ChaosPlan, DeviceKind, DeviceMix,
    RedundancyConfig, ServeConfig, SessionScheme,
};
use pbpair_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configs the seeded sweep draws.
const CONFIGS: u64 = 300;

const HOSTILE_F64: [f64; 8] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    f64::MIN_POSITIVE,
    1e300,
];

/// The seeded value source of one config. Each draw is hostile with
/// probability `hostile`; otherwise it lands in range, one time in four
/// on a boundary.
struct Draw {
    rng: StdRng,
    hostile: f64,
}

impl Draw {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Mostly-valid configs reach deep into the run; mostly-hostile
        // ones stress validation.
        let hostile = [0.0, 0.0, 0.02, 0.05, 0.2, 0.5][rng.gen_range(0..6usize)];
        Draw { rng, hostile }
    }

    fn hostile(&mut self) -> bool {
        self.rng.gen_bool(self.hostile)
    }

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.rng.gen_range(0..values.len())]
    }

    /// A float from `lo..=hi`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        if self.hostile() {
            self.pick(&HOSTILE_F64)
        } else if self.rng.gen_range(0..4u8) == 0 {
            self.pick(&[lo, hi])
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// A count from `lo..=hi`; hostile counts are zero or huge.
    fn count(&mut self, lo: u64, hi: u64) -> u64 {
        if self.hostile() {
            self.pick(&[0, u64::MAX, u64::MAX / 2, 1 << 40, u32::MAX as u64])
        } else if self.rng.gen_range(0..4u8) == 0 {
            self.pick(&[lo, hi])
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    fn size(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.count(lo as u64, hi as u64)).unwrap_or(usize::MAX)
    }

    /// `Some(draw)` one time in three.
    fn maybe<T>(&mut self, draw: impl FnOnce(&mut Self) -> T) -> Option<T> {
        (self.rng.gen_range(0..3u8) == 0).then(|| draw(self))
    }

    fn fec_spec(&mut self) -> FecSpec {
        let k = self.size(1, 16);
        let r = self.size(1, 4);
        match self.rng.gen_range(0..3u8) {
            0 => FecSpec::Xor { k },
            1 => FecSpec::Rs { k, r },
            _ => FecSpec::Lt {
                k,
                r,
                seed: self.rng.gen(),
            },
        }
    }

    fn phase(&mut self) -> Phase {
        Phase {
            frames: self.count(1, 4),
            rtt_frames: self.count(0, 8),
            kind: match self.rng.gen_range(0..4u8) {
                0 => PhaseKind::Steady {
                    plr: self.float(0.0, 1.0),
                },
                1 => PhaseKind::Ramp {
                    from: self.float(0.0, 1.0),
                    to: self.float(0.0, 1.0),
                },
                2 => PhaseKind::Outage,
                _ => PhaseKind::Burst {
                    burst_len: self.float(1.0, 8.0),
                    guard_len: self.float(1.0, 40.0),
                },
            },
        }
    }

    fn channel(&mut self) -> ChannelSpec {
        match self.rng.gen_range(0..4u8) {
            0 => ChannelSpec::Uniform {
                plr: self.float(0.0, 1.0),
            },
            1 => ChannelSpec::GilbertElliott {
                p_gb: self.float(0.0, 1.0),
                p_bg: self.float(0.0, 1.0),
                loss_good: self.float(0.0, 1.0),
                loss_bad: self.float(0.0, 1.0),
            },
            2 => ChannelSpec::BurstErasure {
                burst_len: self.float(1.0, 8.0),
                guard_len: self.float(1.0, 40.0),
            },
            _ => {
                let phases = if self.hostile() {
                    0
                } else {
                    self.rng.gen_range(1..=3)
                };
                ChannelSpec::Schedule {
                    phases: (0..phases).map(|_| self.phase()).collect(),
                }
            }
        }
    }

    fn scheme(&mut self) -> SessionScheme {
        match self.rng.gen_range(0..4u8) {
            0 => SessionScheme::Pbpair,
            1 => SessionScheme::Gop(u32::try_from(self.count(1, 8)).unwrap_or(u32::MAX)),
            2 => SessionScheme::Air(self.size(1, 99)),
            _ => SessionScheme::Pgop(self.size(1, 11)),
        }
    }

    fn chaos(&mut self, sessions: usize) -> ChaosPlan {
        let events = (0..self.rng.gen_range(0..=3usize))
            .map(|_| ChaosEvent {
                session: self.rng.gen_range(0..=sessions as u32),
                at_frame: self.count(0, 4),
                fault: match self.rng.gen_range(0..4u8) {
                    0 => ChaosFault::FeedbackBlackout {
                        frames: self.count(1, 8),
                    },
                    1 => ChaosFault::DecoderStall {
                        frames: self.count(1, 8),
                    },
                    2 => ChaosFault::BurstKill {
                        frames: self.count(1, 8),
                    },
                    _ => ChaosFault::ChannelSwap {
                        spec: self.channel(),
                    },
                },
            })
            .collect();
        // An invalid plan cannot be built, so it never reaches a config.
        ChaosPlan::new(events).unwrap_or_default()
    }

    fn rde(&mut self) -> RdeConfig {
        RdeConfig {
            lambda1_q16: self.pick(&[0, 1, 1 << 16, 1 << 20, u32::MAX]),
            lambda2_q16: self.pick(&[0, 1, 1 << 16, 1 << 20, u32::MAX]),
        }
    }
}

/// One seeded config: a tiny fleet with every other field drawn.
fn config(seed: u64) -> ServeConfig {
    let d = &mut Draw::new(seed);
    let sessions = if d.hostile() {
        0
    } else {
        d.rng.gen_range(1..=3)
    };
    ServeConfig {
        sessions,
        frames: if d.hostile() {
            0
        } else {
            d.rng.gen_range(1..=4)
        },
        workers: if d.hostile() {
            d.pick(&[0, usize::MAX, usize::MAX / 2, 1 << 20])
        } else {
            d.rng.gen_range(1..=3)
        },
        seed: d.rng.gen(),
        plr: d.float(0.0, 0.999),
        corruption: d.float(0.0, 1.0),
        fec: d.maybe(Draw::fec_spec),
        redundancy: d.maybe(|d| RedundancyConfig {
            family: d.fec_spec(),
            max_parity: d.size(0, 4),
            budget_ratio: d.float(1.0, 2.0),
            gop: d.count(1, 8),
        }),
        mtu: d.size(36, 1500),
        base_intra_th: d.float(0.0, 1.0),
        pacing_us: 0,
        admission: AdmissionConfig {
            capacity_j_per_round: d.float(1e-4, 10.0),
            degrade_lag: d.float(0.5, 2.0),
            rate_drop_lag: d.float(2.0, 6.0),
            shed_lag: d.float(6.0, 12.0),
        },
        channel: d.maybe(Draw::channel),
        clip: d.maybe(|d| d.pick(&MotionClass::all())),
        scheme: d.scheme(),
        rde: d.maybe(Draw::rde),
        device_mix: d.pick(&[
            DeviceMix::Uniform(DeviceKind::Ipaq),
            DeviceMix::Uniform(DeviceKind::Zaurus),
            DeviceMix::Alternating,
        ]),
        chaos: d.chaos(sessions),
        // Two configs in three observe; a scrape port would bind.
        observe: d.rng.gen_range(0..3u8) != 0,
        expose_port: None,
    }
}

/// Runs `cfg` through [`run_with`], with the telemetry registry and the
/// tracer on or off, and fails naming the config if it panics. Returns
/// whether the fleet ran.
fn runs(name: &str, cfg: &ServeConfig, telemetry: bool, trace: bool) -> bool {
    let tel = if telemetry {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    match catch_unwind(AssertUnwindSafe(|| run_with(cfg, &tel, trace))) {
        Ok(Ok(fleet)) => {
            assert_eq!(fleet.report.sessions.len(), cfg.sessions, "{name}");
            assert_eq!(fleet.report.rounds, cfg.frames, "{name}");
            true
        }
        Ok(Err(e)) => {
            assert!(!e.is_empty(), "{name}: an error must say why");
            false
        }
        Err(_) => panic!("{name} panicked (telemetry {telemetry}, trace {trace}): {cfg:#?}"),
    }
}

#[test]
fn no_seeded_config_panics_the_fleet() {
    let mut ran = 0;
    for seed in 0..CONFIGS {
        // `run` is `run_with` with both planes off; cover all four.
        let (telemetry, trace) = (seed % 2 == 1, seed % 4 >= 2);
        ran += u64::from(runs(
            &format!("seed {seed}"),
            &config(seed),
            telemetry,
            trace,
        ));
    }
    assert!(
        (CONFIGS / 10..=CONFIGS - CONFIGS / 10).contains(&ran),
        "{ran} of {CONFIGS} configs ran: the sweep must both run fleets and reject configs"
    );
}

// Configs that once panicked (or aborted) the run.

/// A tiny valid fleet the named cases change one field of.
fn tiny() -> ServeConfig {
    ServeConfig {
        sessions: 2,
        frames: 3,
        workers: 2,
        pacing_us: 0,
        ..ServeConfig::default()
    }
}

#[test]
fn tiny_fleet_runs() {
    assert!(runs("tiny", &tiny(), false, false));
}

#[test]
fn fec_block_bound_overflow_is_rejected() {
    // `k + r` overflowed in the GF(256) block-bound check.
    let fec = ServeConfig {
        fec: Some(FecSpec::Rs {
            k: usize::MAX,
            r: 1,
        }),
        ..tiny()
    };
    assert!(!runs("fec k = usize::MAX", &fec, false, false));
    let redundancy = ServeConfig {
        redundancy: Some(RedundancyConfig {
            max_parity: usize::MAX,
            ..RedundancyConfig::new(FecSpec::Rs { k: 4, r: 1 })
        }),
        ..tiny()
    };
    assert!(!runs("max_parity = usize::MAX", &redundancy, false, false));
}

#[test]
fn worker_count_beyond_the_limit_is_rejected() {
    // A million worker threads aborted the process once spawns failed.
    let cfg = ServeConfig {
        workers: 1 << 20,
        ..tiny()
    };
    assert!(!runs("a million workers", &cfg, false, false));
}

#[test]
fn zero_gop_and_zero_pgop_are_rejected() {
    // Both policy constructors assert a positive parameter.
    for scheme in [SessionScheme::Gop(0), SessionScheme::Pgop(0)] {
        let cfg = ServeConfig { scheme, ..tiny() };
        assert!(!runs(&scheme.label(), &cfg, false, false));
    }
}

#[test]
fn endless_chaos_faults_run() {
    // `now + frames` overflowed for a fault lasting `u64::MAX` frames.
    for fault in [
        ChaosFault::FeedbackBlackout { frames: u64::MAX },
        ChaosFault::DecoderStall { frames: u64::MAX },
        ChaosFault::BurstKill { frames: u64::MAX },
    ] {
        let cfg = ServeConfig {
            chaos: ChaosPlan::new(vec![ChaosEvent {
                session: 0,
                at_frame: 1,
                fault: fault.clone(),
            }])
            .unwrap(),
            ..tiny()
        };
        assert!(runs(fault.label(), &cfg, false, false));
    }
}

#[test]
fn traced_fleet_with_a_huge_mtu_runs() {
    // The trace replay's `frag × mtu` byte offset overflowed.
    let cfg = ServeConfig {
        mtu: usize::MAX,
        fec: Some(FecSpec::Rs { k: 2, r: 4 }),
        plr: 0.5,
        ..tiny()
    };
    assert!(runs("mtu = usize::MAX", &cfg, false, true));
}

#[test]
fn schedule_with_an_endless_phase_runs() {
    // Phase boundaries past an endless phase overflowed, and so did the
    // arrival frame of a report sent under an endless RTT.
    let phase = |frames, rtt_frames, kind| Phase {
        frames,
        rtt_frames,
        kind,
    };
    let cfg = ServeConfig {
        // Long enough for the feedback report sent at frame 5.
        frames: 7,
        channel: Some(ChannelSpec::Schedule {
            phases: vec![
                phase(1, 2, PhaseKind::Steady { plr: 0.1 }),
                phase(u64::MAX, u64::MAX, PhaseKind::Steady { plr: 0.1 }),
                phase(1, 2, PhaseKind::Outage),
            ],
        }),
        ..tiny()
    };
    assert!(runs("endless phase", &cfg, false, true));
}
