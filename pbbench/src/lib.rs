//! `pbbench`: the end-to-end and per-layer benchmark of the PBPAIR
//! reproduction.
//!
//! The benchmark measures the program from outside: it calls only the
//! public APIs of the repository's crates and reimplements no session or
//! manager logic. Four workloads run closed loops (one stream advances
//! frame by frame, or a fleet advances in round-barrier frame slots):
//!
//! * [`paper`] — `paper-cell` and `paper-cell-2slice`, the paper's
//!   Fig. 5 cell driven through encode → packetize → channel → decode →
//!   quality over pre-rendered clips;
//! * [`fleet`] — `fleet-uniform` and `fleet-burst-fec`, 16-session
//!   serving fleets through `pbpair_serve::run`.
//!
//! See `README.md` for the command line, the metrics and how to read the
//! trace.

pub mod compare;
pub mod fleet;
pub mod json;
pub mod kernels;
pub mod paper;
pub mod policy;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;

use report::WorkloadResult;
use std::io::Read as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "paper-cell",
    "paper-cell-2slice",
    "fleet-uniform",
    "fleet-burst-fec",
];

/// Seed of the reference inputs. The deterministic metrics (mJ, PSNR,
/// bytes and the per-layer counts) are measured on them whatever
/// `--seed` says, so two runs of one program agree on them exactly and
/// any change in them is a change of the program; `--seed` varies the
/// inputs of the timed repetitions.
pub const REFERENCE_SEED: u64 = 2005;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny depth for the smoke test.
    pub smoke: bool,
    /// Directory the span JSON is written to.
    pub trace_dir: PathBuf,
}

impl RunOpts {
    /// Least timed repetitions of a run, whatever `seconds` says: nine
    /// for the medians of the end-to-end metrics, two for a traced run
    /// (a traced and an untraced one in the paper cells; a traced fleet
    /// repetition includes a replay of several seconds).
    pub fn min_reps(&self) -> usize {
        if self.smoke || self.trace {
            2
        } else {
            9
        }
    }
}

/// Runs workload `name` in this process.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<WorkloadResult, String> {
    match name {
        "paper-cell" => Ok(paper::run(name, 1, opts)),
        "paper-cell-2slice" => Ok(paper::run(name, 2, opts)),
        "fleet-uniform" | "fleet-burst-fec" => Ok(fleet::run(name, opts)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Writes the spans of a traced run, with its summary values and the
/// summed self time per layer, to `<trace_dir>/trace-<workload>.json`.
///
/// # Errors
///
/// Returns a message when the directory or file cannot be written.
pub fn write_trace(
    opts: &RunOpts,
    workload: &str,
    spans: &spans::Spans,
    summary: &[(&str, f64)],
    clock_ns: u64,
) -> Result<PathBuf, String> {
    use json::{n, obj, s, Value};
    let mut members = vec![
        ("workload".to_string(), s(workload)),
        ("seed".to_string(), n(opts.seed as f64)),
        ("clock_overhead_ns".to_string(), n(clock_ns as f64)),
    ];
    members.extend(summary.iter().map(|(k, v)| (k.to_string(), n(*v))));
    members.push((
        "self_ns".to_string(),
        obj(spans.self_by_name().into_iter().map(|(name, ns, count)| {
            (
                name,
                obj([("ns", n(ns as f64)), ("spans", n(count as f64))]),
            )
        })),
    ));
    members.push(("spans".to_string(), spans.to_json()));
    std::fs::create_dir_all(&opts.trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.trace_dir.display()))?;
    let path = opts.trace_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, Value::Obj(members).to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Derives an independent 64-bit stream seed from the run seed
/// (SplitMix64 finalizer over `seed ^ stream·φ`).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, the digest the repository's committed goldens use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hex form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The timed repetitions of one run: repetitions until `seconds` have
/// passed and at least `min_reps` ran. The caller runs the untimed
/// warm-up before. Each call of `rep` gets its index and builds its
/// objects afresh. A repetition that panics or returns `Err` is recorded
/// as a failure and the loop goes on.
pub fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> (Vec<T>, Vec<String>) {
    let mut ok = Vec::new();
    let mut failed = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < seconds {
        match catch_unwind(AssertUnwindSafe(|| rep(i))) {
            Ok(Ok(v)) => ok.push(v),
            Ok(Err(e)) => failed.push(format!("repetition {i}: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                failed.push(format!("repetition {i} panicked: {msg}"));
            }
        }
        i += 1;
    }
    (ok, failed)
}

/// Runs `cmd` with its standard output captured and returns that
/// output. A command that cannot start, exits unsuccessfully or outlives
/// `timeout` yields the reason instead; one that outlives `timeout` is
/// killed and waited for first.
///
/// # Errors
///
/// Returns the reason the command produced no usable output.
pub fn run_child(mut cmd: Command, timeout: Duration) -> Result<String, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the workload process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Drain the pipe on a thread so a chatty child never blocks on it.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "timed out after {:.2} s and was killed",
                    timeout.as_secs_f64()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for the workload process: {e}"));
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    match status? {
        status if status.success() => Ok(text),
        status => Err(format!("workload process {status}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_counts_failures_and_keeps_going() {
        let (ok, failed) = repeat(0.0, 4, |i| match i {
            1 => Err("bad".to_string()),
            2 => panic!("boom"),
            _ => Ok(i),
        });
        assert_eq!(ok, vec![0, 3]);
        assert_eq!(failed.len(), 2);
        assert!(failed[1].contains("boom"));
    }

    #[test]
    fn run_child_returns_output_and_kills_on_timeout() {
        let mut echo = Command::new("sh");
        echo.args(["-c", "echo result"]);
        assert_eq!(
            run_child(echo, Duration::from_secs(30)).as_deref(),
            Ok("result\n")
        );
        let mut fail = Command::new("sh");
        fail.args(["-c", "exit 3"]);
        assert!(run_child(fail, Duration::from_secs(30)).is_err());
        let mut hang = Command::new("sleep");
        hang.arg("30");
        let t = Instant::now();
        let err = run_child(hang, Duration::from_millis(10)).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
