//! Golden deterministic digests for the three committed scenarios.
//!
//! Each vector runs one fixed cell of the scenario matrix (foreman
//! clip, PBPAIR scheme, 2 sessions, fixed depth) under one committed
//! channel scenario, at 1, 2, and 8 workers. All three runs must
//! produce the same deterministic fleet digest, and its FNV-1a hash
//! must match the committed constant — one number pins the entire
//! encoder → channel → decoder → feedback → health trajectory of the
//! scenario.
//!
//! To re-bless after an *intentional* behavior change, run
//! `PBPAIR_BLESS=1 cargo test -p pbpair-eval --test scenario_goldens -- --nocapture`
//! and paste the printed digests into `GOLDENS`.

use pbpair_eval::experiments::fleet;
use pbpair_eval::experiments::scenarios::committed_scenarios;
use pbpair_media::synth::MotionClass;
use pbpair_serve::{run, ServeReport, SessionScheme};

const FRAMES: usize = 12;
const SESSIONS: usize = 2;

const GOLDENS: &[(&str, u64)] = &[
    ("steady_burst", 0xf221_419e_7a47_00b2),
    ("handoff_ramp", 0x6d9b_b9ba_71a3_cad6),
    ("feedback_blackout", 0x7bef_86a4_7f95_8854),
];

fn report_at(scenario_name: &str, workers: usize) -> ServeReport {
    let scenario = committed_scenarios()
        .into_iter()
        .find(|s| s.name == scenario_name)
        .expect("committed scenario exists");
    let cfg = scenario.fleet(
        MotionClass::MediumForeman,
        SessionScheme::Pbpair,
        FRAMES,
        SESSIONS,
        workers,
    );
    run(&cfg).expect("valid config")
}

#[test]
fn committed_scenarios_replay_identically_at_1_2_and_8_workers() {
    let bless = std::env::var("PBPAIR_BLESS").is_ok();
    for &(name, committed) in GOLDENS {
        let [one, two, eight] = [1, 2, 8].map(|w| report_at(name, w));
        let digest = ServeReport::deterministic_digest;
        assert_eq!(
            digest(&one),
            digest(&two),
            "{name}: digest differs between 1 and 2 workers"
        );
        assert_eq!(
            digest(&two),
            digest(&eight),
            "{name}: digest differs between 2 and 8 workers"
        );
        let got = fleet::digest(&one);
        if bless {
            println!("    (\"{name}\", 0x{got:016x}),");
        } else {
            assert_eq!(
                got, committed,
                "{name}: scenario digest drifted from the committed golden \
                 (0x{got:016x} vs 0x{committed:016x}); if the change is \
                 intentional, re-bless with PBPAIR_BLESS=1"
            );
        }
    }
}
