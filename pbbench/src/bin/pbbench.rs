//! `pbbench`: the end-to-end and per-layer benchmark of the PBPAIR
//! reproduction.
//!
//! ```text
//! pbbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!         [--out FILE] [--trace-dir DIR] [--smoke]
//! pbbench --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! Each workload runs in a child process of its own, under a wall-clock
//! timeout; a child that exceeds it is killed and its slots count as
//! failed. Without `--workload` all four workloads run in turn. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every output check passed.

use pbbench::report::{parse_results, WorkloadResult};
use pbbench::sys::CountingAllocator;
use pbbench::{compare, json, run_workload, RunOpts, WORKLOADS};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: pbbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--out FILE] [--trace-dir DIR] [--smoke]
       pbbench --compare A.json B.json [--bounds BENCHMARK.json]";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    child: bool,
    opts: RunOpts,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let default_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("pbbench");
    let mut args = Args {
        workload: None,
        child: false,
        opts: RunOpts {
            seed: 2005,
            seconds: 20.0,
            trace: false,
            smoke: false,
            trace_dir: default_dir,
        },
        out: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = raw.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(arg, &mut it)?),
            "--child" => {
                args.child = true;
                args.workload = Some(value(arg, &mut it)?);
            }
            "--seed" => {
                args.opts.seed = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.opts.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--trace-dir" => args.opts.trace_dir = PathBuf::from(value(arg, &mut it)?),
            "--bounds" => args.bounds = PathBuf::from(value(arg, &mut it)?),
            "--compare" => {
                let a = PathBuf::from(value(arg, &mut it)?);
                let b = PathBuf::from(value(arg, &mut it)?);
                args.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Runs one workload in a child process of this executable, under a
/// wall-clock timeout of twice its timed phase plus a minute, and reads
/// its result; a child that fails, prints no result or is killed at the
/// timeout yields a failed result.
fn run_workload_child(name: &str, opts: &RunOpts) -> WorkloadResult {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            let why = format!("cannot locate the pbbench executable: {e}");
            return WorkloadResult::failed_run(name, opts.seed, opts.trace, &why);
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&opts.trace_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let timeout = Duration::from_secs_f64(opts.seconds * 2.0 + 60.0);
    pbbench::run_child(cmd, timeout)
        .and_then(|text| {
            let line = text.lines().last().ok_or("no output")?;
            WorkloadResult::from_json(&json::parse(line)?)
        })
        .unwrap_or_else(|why| WorkloadResult::failed_run(name, opts.seed, opts.trace, &why))
}

/// The result line of a run of all workloads: the per-workload metrics
/// under `<workload>/<metric>` keys.
fn combined_line(results: &[WorkloadResult]) -> String {
    let mut metrics = Vec::new();
    for r in results {
        let line = json::parse(&r.result_line()).expect("result lines are valid JSON");
        if let Some(members) = line.get("metrics").and_then(json::Value::as_obj) {
            metrics.extend(
                members
                    .iter()
                    .map(|(k, v)| (format!("{}/{k}", r.workload), v.clone())),
            );
        }
    }
    json::obj([
        (
            "correct",
            json::Value::Bool(results.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted",
            json::n(results.iter().map(|r| r.attempted.max(1)).sum::<u64>() as f64),
        ),
        (
            "failed",
            json::n(results.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", json::Value::Obj(metrics)),
    ])
    .to_json()
}

fn run_compare(a: &PathBuf, b: &PathBuf, bounds: &PathBuf) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let bounds = compare::load_bounds(&read(bounds)?)?;
    let (text, regressed) = compare::compare(
        &parse_results(&read(a)?)?,
        &parse_results(&read(b)?)?,
        &bounds,
    );
    print!("{text}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pbbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &args.compare {
        return match run_compare(a, b, &args.bounds) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("pbbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    if args.child {
        let name = args.workload.as_deref().expect("--child names a workload");
        return match run_workload(name, &args.opts) {
            Ok(result) => {
                println!("{}", result.to_json().to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pbbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results: Vec<WorkloadResult> = names
        .iter()
        .map(|name| {
            eprintln!("pbbench: running {name} (seed {})", args.opts.seed);
            run_workload_child(name, &args.opts)
        })
        .collect();

    // Both paper cells encode the same inputs; slices must not change
    // a single bit.
    if let [serial, sliced, ..] = &mut results[..] {
        if serial.workload == "paper-cell" && sliced.workload == "paper-cell-2slice" {
            let same = serial.digest == sliced.digest && !serial.digest.is_empty();
            let detail = format!("{} vs {}", serial.digest, sliced.digest);
            for r in [serial, sliced] {
                r.checks.push(pbbench::report::Check::new(
                    "paper-cell and paper-cell-2slice bitstream digests identical",
                    same,
                    detail.clone(),
                ));
            }
        }
    }

    for r in &results {
        println!("{}", r.render());
    }
    if let Some(path) = &args.out {
        // One line per invocation, so repeated runs build up a set of
        // runs for `--compare`.
        let line = json::obj([
            ("seed", json::n(args.opts.seed as f64)),
            (
                "workloads",
                json::Value::Arr(results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all((line.to_json() + "\n").as_bytes()));
        if let Err(e) = appended {
            eprintln!("pbbench: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match &results[..] {
        [one] => println!("{}", one.result_line()),
        all => println!("{}", combined_line(all)),
    }
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
