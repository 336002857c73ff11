//! Tracing contract tests: the causal-trace report (blast radii,
//! calibration, incident dumps) is schedule-independent — byte-identical
//! for any worker count — and attaching a tracer never perturbs the
//! deterministic outcome of the run itself.

use pbpair_serve::{run, run_with, FleetTrace, ServeConfig};
use pbpair_telemetry::Telemetry;

fn overload_cfg() -> ServeConfig {
    let mut cfg = ServeConfig {
        sessions: 6,
        frames: 12,
        seed: 77,
        plr: 0.25,
        mtu: 400, // multi-fragment frames → real packet-level losses
        ..ServeConfig::default()
    };
    // Starvation-level capacity so the full escalation path runs while
    // tracing: Intra_Th floor, stride frame drops, and shedding.
    cfg.admission.capacity_j_per_round = 1e-4;
    cfg.admission.degrade_lag = 1.0;
    cfg.admission.rate_drop_lag = 2.0;
    cfg.admission.shed_lag = 4.0;
    cfg
}

fn traced(cfg: &ServeConfig, workers: usize) -> (String, FleetTrace) {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    let run = run_with(&cfg, &Telemetry::disabled(), true).expect("valid config");
    (
        run.report.deterministic_digest(),
        run.trace.expect("traced run"),
    )
}

#[test]
fn trace_report_identical_across_worker_counts() {
    let cfg = overload_cfg();
    let (_, one) = traced(&cfg, 1);
    let (_, two) = traced(&cfg, 2);
    let (_, eight) = traced(&cfg, 8);
    let a = one.deterministic_json();
    let b = two.deterministic_json();
    let c = eight.deterministic_json();
    assert_eq!(a, b, "trace report must not depend on worker count");
    assert_eq!(b, c, "trace report must not depend on worker count");
    // Sanity: the report carries real content, not empty sections.
    assert!(one.calibration.count > 0, "calibration must score MBs");
    assert!(
        one.sessions.iter().any(|s| !s.analysis.blasts.is_empty()),
        "a 10% PLR fleet must record loss events with blast radii"
    );
    assert!(
        one.dumps.iter().any(|d| d.reason == "degraded"),
        "overload must trigger degrade dumps"
    );
}

#[test]
fn calibration_json_is_integer_only_and_merges_in_id_order() {
    let cfg = overload_cfg();
    let (_, trace) = traced(&cfg, 2);
    let json = trace.calibration.deterministic_json();
    assert!(
        !json.contains('.'),
        "calibration JSON must be fixed-point integers: {json}"
    );
    // The fleet score is the id-ordered merge of the per-session ones.
    let mut merged = pbpair_trace::Calibration::default();
    for s in &trace.sessions {
        merged.merge(&s.analysis.calibration);
    }
    assert_eq!(merged.deterministic_json(), json);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let cfg = ServeConfig {
        sessions: 4,
        frames: 8,
        seed: 31,
        ..ServeConfig::default()
    };
    let plain = run(&cfg).expect("valid config").deterministic_digest();
    let (traced_digest, _) = traced(&cfg, cfg.workers);
    assert_eq!(traced_digest, plain, "tracers must observe, not perturb");
}

/// A healthy (no-overload) fleet under heavy channel stress: losses,
/// mid-frame corruption, multi-fragment frames. This is the config the
/// attribution and resync-dump properties are checked against.
fn lossy_cfg() -> ServeConfig {
    ServeConfig {
        sessions: 4,
        frames: 20,
        seed: 77,
        plr: 0.20,
        corruption: 0.6,
        mtu: 300,
        ..ServeConfig::default()
    }
}

#[test]
fn provenance_dags_are_acyclic_and_bad_mbs_are_attributed() {
    let (_, trace) = traced(&lossy_cfg(), 2);
    for s in &trace.sessions {
        assert!(s.analysis.dag.is_acyclic(), "session {} DAG cyclic", s.id);
        // Every decoder-reported bad MB must be reachable from at least
        // one recorded transport event.
        for (frame, bad) in &s.analysis.decoder_bad {
            let reach = s.analysis.loss_reach.get(frame);
            for (mb, &is_bad) in bad.iter().enumerate() {
                if is_bad {
                    let covered = reach.is_some_and(|r| r[mb]);
                    assert!(
                        covered,
                        "session {} frame {frame} MB {mb} bad but unattributed",
                        s.id
                    );
                }
            }
        }
    }
    // Mid-frame corruption at this intensity must fire resync dumps.
    assert!(trace.dumps.iter().any(|d| d.reason == "resync"));
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let (_, trace) = traced(&lossy_cfg(), 2);
    let json = trace.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"ph\":\"i\""), "instant events expected");
    assert!(json.contains("\"name\":\"packet_lost\""));
}
