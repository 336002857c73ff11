//! Serving-layer benchmarks: fleet throughput under the work-stealing
//! pool, single-worker vs multi-worker on the same session load, and
//! the cost of one full session frame step.
//!
//! Pacing is disabled here — a benchmark must measure compute, not
//! modeled transmission sleeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pbpair_netsim::FecSpec;
use pbpair_serve::{run, ServeConfig, Session, SessionConfig};

fn fleet_cfg(sessions: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        sessions,
        frames: 8,
        workers,
        seed: 1234,
        pacing_us: 0,
        ..ServeConfig::default()
    }
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_fleet");
    group.sample_size(10);
    for (sessions, workers) in [(4, 1), (4, 4), (8, 4)] {
        group.bench_function(format!("{sessions}sess_{workers}w"), |b| {
            let cfg = fleet_cfg(sessions, workers);
            b.iter(|| run(black_box(&cfg)).expect("valid config"))
        });
    }
    group.finish();
}

fn bench_session_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_session");
    group.sample_size(20);
    group.bench_function("step_frame", |b| {
        let mut session = Session::new(SessionConfig::standard(0, 42)).expect("valid config");
        b.iter(|| black_box(session.step_frame()))
    });
    group.bench_function("step_frame_fec", |b| {
        let mut cfg = SessionConfig::standard(0, 42);
        cfg.mtu = 300;
        cfg.fec = Some(FecSpec::Xor { k: 4 });
        let mut session = Session::new(cfg).expect("valid config");
        b.iter(|| black_box(session.step_frame()))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet, bench_session_step);
criterion_main!(benches);
