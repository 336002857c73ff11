//! Encode hot-path benchmark: frames/sec, SAD ops/frame, and
//! allocations/frame for the retained naive path, the optimized serial
//! path, and slice-parallel encoding at 2 and 4 threads, over seeded
//! synthetic clips. Emits the JSON committed as `BENCH_PR5.json`
//! (schema enforced by `ci/validate_bench.py`).
//!
//! A second mode (`--kernels`) microbenchmarks the SIMD pixel-kernel
//! tiers against the scalar reference — SAD, bounded SAD, the fused
//! transform, the inverse DCT, and half-pel interpolation — asserting
//! bit-identical results while timing, and emits the JSON committed as
//! `BENCH_PR8.json` (same validator, keyed on `meta.bench`).
//!
//! A third mode (`--overhead`) is the disabled-mode observability guard:
//! it prices an encode with disabled telemetry and with a disabled
//! tracer against the same encode with nothing wired, and exits 1 if
//! either costs more than the budget (`PBPAIR_TELEMETRY_GATE_PCT`,
//! default 2%). The time-series needs no arm: with the observability
//! plane off the serve manager holds no series, and its per-round check
//! is a `None` test on its own state.
//!
//! Usage:
//!   cargo run --release -p pbpair-eval --bin perf              # full run, JSON to stdout
//!   cargo run --release -p pbpair-eval --bin perf -- --smoke   # CI-sized run
//!   cargo run --release -p pbpair-eval --bin perf -- --out BENCH_PR5.json
//!   cargo run --release -p pbpair-eval --bin perf -- --kernels --out BENCH_PR8.json
//!   cargo run --release -p pbpair-eval --bin perf -- --kernels-info  # detected tier to stdout
//!   cargo run --release -p pbpair-eval --bin perf -- --overhead      # disabled-mode guard
//!
//! `--kernels-info` and `--overhead` take no other flag. Bad arguments
//! (an unknown or misplaced flag, a missing value, a `PBPAIR_KERNELS`
//! value that names no tier of this host) exit with status 2 and a
//! message; a failed run exits with status 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::fused::fdct_quant_scan_with;
use pbpair_codec::{EncodedFrame, Encoder, EncoderConfig, Kernels, NaturalPolicy, OptConfig, Qp};
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::{Frame, VideoFormat};
use pbpair_telemetry::json;
use pbpair_telemetry::Telemetry;
use pbpair_trace::Tracer;

const USAGE: &str =
    "usage: perf [--kernels] [--smoke] [--out PATH] | perf --kernels-info | perf --overhead";

/// Counts heap allocations so the benchmark can report allocations per
/// steady-state frame (the zero-allocation claim, measured rather than
/// asserted here).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const WARMUP: usize = 4;

struct Variant {
    name: &'static str,
    threads: u8,
    opt: OptConfig,
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "naive",
            threads: 1,
            opt: OptConfig::naive(),
        },
        Variant {
            name: "fast",
            threads: 1,
            opt: OptConfig::default(),
        },
        Variant {
            name: "fast-2slices",
            threads: 2,
            opt: OptConfig {
                slices: 2,
                ..OptConfig::default()
            },
        },
        Variant {
            name: "fast-4slices",
            threads: 4,
            opt: OptConfig {
                slices: 4,
                ..OptConfig::default()
            },
        },
    ]
}

struct Measurement {
    name: String,
    threads: u8,
    clip: &'static str,
    frames: usize,
    fps: f64,
    sad_ops_per_frame: f64,
    allocs_per_frame: f64,
    speedup_vs_naive: f64,
}

/// Encodes `frames` pre-generated frames and measures throughput, SAD
/// work, and steady-state allocations. The bitstream digest is returned
/// so the harness can assert all variants agree.
fn run_variant(v: &Variant, clip: &'static str, frames: &[Frame]) -> (Measurement, u64) {
    let mut enc = Encoder::new(EncoderConfig {
        opt: v.opt,
        ..EncoderConfig::paper()
    });
    let mut policy = NaturalPolicy::new();
    let mut out = EncodedFrame::empty();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for frame in &frames[..WARMUP] {
        enc.encode_frame_into(frame, &mut policy, &mut out);
        for &b in &out.data {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let _ = enc.take_ops();
    let measured = &frames[WARMUP..];
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let t0 = Instant::now();
    for frame in measured {
        enc.encode_frame_into(frame, &mut policy, &mut out);
        for &b in &out.data {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let ops = enc.take_ops();
    let n = measured.len() as f64;
    (
        Measurement {
            name: format!("{}/{}", v.name, clip),
            threads: v.threads,
            clip,
            frames: measured.len(),
            fps: n / elapsed.max(1e-9),
            sad_ops_per_frame: ops.sad_ops as f64 / n,
            allocs_per_frame: allocs as f64 / n,
            speedup_vs_naive: 0.0, // filled in by the caller
        },
        digest,
    )
}

/// A float member with a fixed number of decimals.
fn fixed(o: &mut json::Object<'_>, key: &str, value: f64, decimals: usize) {
    o.raw(key, &format!("{value:.decimals$}"));
}

fn emit_json(results: &[Measurement], frames_per_clip: usize) -> String {
    json::object(|o| {
        o.object("meta", |m| {
            m.string("bench", "pr5-encode-hot-path")
                .string("config", "paper (full search ±15, QCIF)")
                .field("warmup_frames", WARMUP)
                .field("measured_frames_per_clip", frames_per_clip);
        })
        .array("results", |a| {
            for r in results {
                a.object(|o| {
                    o.string("name", &r.name)
                        .field("threads", r.threads)
                        .string("clip", r.clip)
                        .field("frames", r.frames);
                    fixed(o, "fps", r.fps, 2);
                    fixed(o, "sad_ops_per_frame", r.sad_ops_per_frame, 1);
                    fixed(o, "allocs_per_frame", r.allocs_per_frame, 3);
                    fixed(o, "speedup_vs_naive", r.speedup_vs_naive, 3);
                });
            }
        });
    }) + "\n"
}

// ---------------------------------------------------------------------
// `--kernels`: per-tier pixel-kernel microbenchmarks (BENCH_PR8.json).
// ---------------------------------------------------------------------

/// The per-arch detected-best pins committed in BENCH_PR8.json. CI fails
/// if the running host detects a different best tier than its pin (a
/// silent dispatch regression would otherwise bench scalar and call it
/// a day).
const TIER_PINS: &[(&str, &str)] = &[("x86_64", "sse2"), ("aarch64", "neon")];

struct KernelMeasurement {
    kernel: &'static str,
    tier: &'static str,
    ns_per_call: f64,
    speedup_vs_scalar: f64,
}

/// Deterministic byte fill (splitmix-style) — the microbench needs
/// repeatable inputs, not statistical quality.
fn fill_bytes(buf: &mut [u8], mut state: u64) {
    for b in buf {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (state >> 33) as u8;
    }
}

/// Times `iters` calls of `f`, returning (ns/call, checksum). The
/// checksum both defeats dead-code elimination and lets the harness
/// assert every tier computed identical results.
fn timed<F: FnMut(usize) -> u64>(iters: usize, mut f: F) -> (f64, u64) {
    for i in 0..iters / 8 {
        black_box(f(i));
    }
    let mut sum = 0u64;
    let t0 = Instant::now();
    for i in 0..iters {
        sum = sum.wrapping_add(f(i));
    }
    let dt = t0.elapsed().as_secs_f64();
    (dt * 1e9 / iters as f64, sum)
}

fn sum_u8(buf: &[u8]) -> u64 {
    buf.iter().map(|&b| b as u64).sum()
}

fn sum_i32(buf: &[i32]) -> u64 {
    buf.iter()
        .map(|&v| v as i64 as u64)
        .fold(0, u64::wrapping_add)
}

fn bench_kernels(smoke: bool) -> Vec<KernelMeasurement> {
    const STRIDE: usize = 176;
    const ROWS: usize = 144;
    let scale = if smoke { 20 } else { 1 };
    let qp = Qp::new(8).unwrap();

    // Shared inputs: two pseudo-random planes for SAD/half-pel, a pool of
    // residual-range spatial blocks, and legal dequantized coefficient
    // blocks for the inverse transform.
    let mut plane_a = vec![0u8; STRIDE * ROWS];
    let mut plane_b = vec![0u8; STRIDE * ROWS];
    fill_bytes(&mut plane_a, 0x9e3779b97f4a7c15);
    fill_bytes(&mut plane_b, 0xd1b54a32d192ed03);
    // Power-of-two offset pool so the hot loops index with a mask — the
    // harness must not dilute the kernel-to-kernel ratio with division.
    let offsets: [usize; 64] =
        std::array::from_fn(|i| ((i * 23) % (ROWS - 16)) * STRIDE + (i * 37) % (STRIDE - 16));
    let spatial: Vec<[i32; 64]> = (0..32)
        .map(|i| {
            let mut bytes = [0u8; 64];
            fill_bytes(&mut bytes, 0x100 + i as u64);
            std::array::from_fn(|j| bytes[j] as i32 - 128)
        })
        .collect();
    let scalar = Kernels::scalar();
    let coefs: Vec<[i32; 64]> = spatial
        .iter()
        .map(|s| {
            let mut freq = [0i32; 64];
            scalar.fdct8(s, &mut freq);
            let q = pbpair_codec::quant::quantize_block(&freq, qp, false);
            pbpair_codec::quant::dequantize_block(&q, qp, false)
        })
        .collect();

    let tiers: Vec<&Kernels> = Kernels::available()
        .into_iter()
        .map(|t| Kernels::get(t).expect("available tier resolves"))
        .collect();
    let measured = [
        (
            "sad16",
            kernel_rounds(&tiers, 1_000_000 / scale, |k, i| {
                k.sad16(
                    &plane_a[offsets[i & 63]..],
                    STRIDE,
                    &plane_b[offsets[(i + 17) & 63]..],
                    STRIDE,
                )
            }),
        ),
        (
            "sad16_bounded",
            kernel_rounds(&tiers, 1_000_000 / scale, |k, i| {
                let (acc, ops) = k.sad16_bounded(
                    &plane_a[offsets[i & 63]..],
                    STRIDE,
                    &plane_b[offsets[(i + 29) & 63]..],
                    STRIDE,
                    2_000,
                );
                acc.wrapping_mul(31).wrapping_add(ops)
            }),
        ),
        (
            "fused_transform",
            kernel_rounds(&tiers, 200_000 / scale, |k, i| {
                let mut zig = [0i32; 64];
                let coded = fdct_quant_scan_with(k, &spatial[i & 31], qp, false, &mut zig);
                sum_i32(&zig).wrapping_add(coded as u64)
            }),
        ),
        (
            "idct8",
            kernel_rounds(&tiers, 200_000 / scale, |k, i| {
                let mut out = [0i32; 64];
                k.idct8(&coefs[i & 31], &mut out);
                sum_i32(&out)
            }),
        ),
        (
            "halfpel16",
            kernel_rounds(&tiers, 200_000 / scale, |k, i| {
                let mut out = [0u8; 256];
                k.halfpel(&plane_a[offsets[i & 63]..], STRIDE, 1, 1, &mut out, 16);
                sum_u8(&out)
            }),
        ),
    ];

    // Tier-major with scalar first: the order of `BENCH_PR8.json`.
    let mut results = Vec::new();
    for (t, k) in tiers.iter().enumerate() {
        for (name, cells) in &measured {
            let ((ns, sum), (base_ns, base_sum)) = (cells[t], cells[0]);
            assert_eq!(
                sum,
                base_sum,
                "{name}: tier {} computed different results than scalar",
                k.tier()
            );
            let speedup = if t == 0 { 1.0 } else { base_ns / ns };
            eprintln!(
                "{:>16}/{:<6} {:9.1} ns/call  {:5.2}x",
                name,
                k.tier().label(),
                ns,
                speedup
            );
            results.push(KernelMeasurement {
                kernel: name,
                tier: k.tier().label(),
                ns_per_call: ns,
                speedup_vs_scalar: speedup,
            });
        }
    }
    results
}

/// Timed rounds per kernel: each round times every tier back to back,
/// in alternating order, and a tier keeps its fastest round, so one
/// preempted time slice cannot decide a ratio.
const KERNEL_ROUNDS: usize = 7;

/// Times `f` on every tier in [`KERNEL_ROUNDS`] rounds; returns each
/// tier's fastest ns/call and its checksum.
fn kernel_rounds<F: Fn(&Kernels, usize) -> u64>(
    tiers: &[&Kernels],
    iters: usize,
    f: F,
) -> Vec<(f64, u64)> {
    let mut best = vec![(f64::INFINITY, 0); tiers.len()];
    for round in 0..KERNEL_ROUNDS {
        for n in 0..tiers.len() {
            let t = if round % 2 == 0 {
                n
            } else {
                tiers.len() - 1 - n
            };
            let (ns, sum) = timed(iters, |i| f(tiers[t], i));
            best[t] = (best[t].0.min(ns), sum);
        }
    }
    best
}

fn emit_kernels_json(results: &[KernelMeasurement], smoke: bool) -> String {
    json::object(|o| {
        o.object("meta", |m| {
            m.string("bench", "pr8_kernels")
                .string("arch", std::env::consts::ARCH)
                .string("detected_best", Kernels::detect_best().label())
                .object("pins", |p| {
                    for (arch, tier) in TIER_PINS {
                        p.string(arch, tier);
                    }
                })
                .string("scale", if smoke { "smoke" } else { "full" });
        })
        .array("results", |a| {
            for r in results {
                a.object(|o| {
                    o.string("kernel", r.kernel).string("tier", r.tier);
                    fixed(o, "ns_per_call", r.ns_per_call, 2);
                    fixed(o, "speedup_vs_scalar", r.speedup_vs_scalar, 3);
                });
            }
        });
    }) + "\n"
}

// ---------------------------------------------------------------------
// `--overhead`: the disabled-mode observability guard.
// ---------------------------------------------------------------------
//
// The telemetry contract promises that *disabled* instrumentation is
// free: a `Telemetry::disabled()` handle reduces every flush to a branch
// on a `None`, and a `Tracer::disabled()` handle does the same for
// causal-trace emission. The guard prices four encode configurations —
// nothing wired, disabled telemetry, a disabled tracer, and an enabled
// registry — and fails if either disabled mode costs more than the
// budgeted fraction of the plain encode hot loop.

/// Frames per guard pass: 48 foreman-class frames (seed 2005).
const OVERHEAD_FRAMES: usize = 48;

/// A PBPAIR policy at the evaluation's default operating point.
fn default_pbpair() -> PbpairPolicy {
    PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: 0.93,
            plr: 0.10,
            ..PbpairConfig::default()
        },
    )
    .expect("valid default config")
}

/// One measured encode pass; telemetry and tracing wired per args.
fn encode_pass(frames: &[Frame], tel: Option<&Telemetry>, trace: Option<&Tracer>) -> usize {
    let mut enc = Encoder::new(EncoderConfig::default());
    if let Some(tel) = tel {
        enc.set_telemetry(tel);
    }
    if let Some(trace) = trace {
        enc.set_tracer(trace);
    }
    let mut policy = default_pbpair();
    frames
        .iter()
        .map(|f| enc.encode_frame(f, &mut policy).data.len())
        .sum()
}

/// One timed pass, in seconds.
fn time_pass<F: FnMut() -> usize>(f: &mut F) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Runs the guard; `Err` names the first disabled mode over budget.
fn overhead_guard() -> Result<(), String> {
    let gate_pct: f64 = std::env::var("PBPAIR_TELEMETRY_GATE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    let mut seq = SyntheticSequence::for_class(MotionClass::MediumForeman, 2005);
    let fs: Vec<Frame> = (0..OVERHEAD_FRAMES).map(|_| seq.next_frame()).collect();
    let disabled = Telemetry::disabled();
    let enabled = Telemetry::new();
    let tracer_off = Tracer::disabled();

    // Warm-up: page in code, ramp the CPU governor.
    encode_pass(&fs, None, None);
    encode_pass(&fs, Some(&enabled), None);

    // Time the four modes back-to-back each round and compare *within*
    // the round: the per-round ratio cancels frequency drift between
    // rounds. Each pass is long enough (~tens of ms) that interference
    // averages out inside it; the median over rounds (with the order
    // alternated to cancel position effects) discards the rest.
    let reps = 9;
    let mut plain_s = f64::INFINITY;
    let mut disabled_ratios = Vec::with_capacity(reps);
    let mut tracer_ratios = Vec::with_capacity(reps);
    let mut enabled_ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (p, d, t, e);
        if rep % 2 == 0 {
            p = time_pass(&mut || encode_pass(&fs, None, None));
            d = time_pass(&mut || encode_pass(&fs, Some(&disabled), None));
            t = time_pass(&mut || encode_pass(&fs, None, Some(&tracer_off)));
            e = time_pass(&mut || encode_pass(&fs, Some(&enabled), None));
        } else {
            e = time_pass(&mut || encode_pass(&fs, Some(&enabled), None));
            t = time_pass(&mut || encode_pass(&fs, None, Some(&tracer_off)));
            d = time_pass(&mut || encode_pass(&fs, Some(&disabled), None));
            p = time_pass(&mut || encode_pass(&fs, None, None));
        }
        plain_s = plain_s.min(p);
        disabled_ratios.push(d / p);
        tracer_ratios.push(t / p);
        enabled_ratios.push(e / p);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let disabled_s = plain_s * median(&mut disabled_ratios);
    let tracer_s = plain_s * median(&mut tracer_ratios);
    let enabled_s = plain_s * median(&mut enabled_ratios);

    let pct = |t: f64| (t - plain_s) / plain_s * 100.0;
    println!(
        "telemetry overhead guard ({} frames, best of {reps}):",
        fs.len()
    );
    println!("  no telemetry       {:>9.3} ms", plain_s * 1e3);
    println!(
        "  disabled handle    {:>9.3} ms  ({:+.2}%)",
        disabled_s * 1e3,
        pct(disabled_s)
    );
    println!(
        "  disabled tracer    {:>9.3} ms  ({:+.2}%)",
        tracer_s * 1e3,
        pct(tracer_s)
    );
    println!(
        "  enabled registry   {:>9.3} ms  ({:+.2}%)",
        enabled_s * 1e3,
        pct(enabled_s)
    );

    for (what, t) in [("telemetry", disabled_s), ("tracing", tracer_s)] {
        if pct(t) > gate_pct {
            return Err(format!(
                "disabled-mode {what} costs {:.2}% (> {gate_pct}% budget)",
                pct(t)
            ));
        }
    }
    println!("disabled-mode overhead within {gate_pct}% budget");
    Ok(())
}

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

/// Which run the flags select.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The encode hot-path benchmark (`BENCH_PR5.json`).
    Encode,
    /// The pixel-kernel microbenchmarks (`BENCH_PR8.json`).
    Kernels,
    /// The detected-best kernel tier, bare on stdout.
    KernelsInfo,
    /// The disabled-mode observability overhead guard.
    Overhead,
}

impl Mode {
    fn flag(self) -> &'static str {
        match self {
            Mode::Encode => "",
            Mode::Kernels => "--kernels",
            Mode::KernelsInfo => "--kernels-info",
            Mode::Overhead => "--overhead",
        }
    }
}

struct Args {
    mode: Mode,
    smoke: bool,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Encode,
        smoke: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mode = match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                continue;
            }
            "--out" => {
                args.out = Some(argv.next().ok_or("--out expects a value")?);
                continue;
            }
            "--kernels" => Mode::Kernels,
            "--kernels-info" => Mode::KernelsInfo,
            "--overhead" => Mode::Overhead,
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if args.mode != Mode::Encode && args.mode != mode {
            return Err(format!("{flag} does not apply to {}", args.mode.flag()));
        }
        args.mode = mode;
    }
    if matches!(args.mode, Mode::KernelsInfo | Mode::Overhead) {
        for (set, flag) in [(args.smoke, "--smoke"), (args.out.is_some(), "--out")] {
            if set {
                return Err(format!("{flag} does not apply to {}", args.mode.flag()));
            }
        }
    }
    Kernels::from_env()?;
    Ok(args)
}

/// Writes a bench report to `out`, or to stdout without one.
fn emit(json: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(p) => {
            std::fs::write(p, json).map_err(|e| format!("failed to write {p}: {e}"))?;
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// The encode hot-path benchmark over both clips.
fn encode_bench(smoke: bool) -> String {
    let frames_per_clip = if smoke { 12 } else { 64 } + WARMUP;

    type MakeSeq = fn(u64) -> SyntheticSequence;
    let clips: [(&'static str, MakeSeq, u64); 2] = [
        ("foreman", SyntheticSequence::foreman_class, 42),
        ("akiyo", SyntheticSequence::akiyo_class, 43),
    ];

    let mut results = Vec::new();
    for (clip, make_seq, seed) in &clips {
        let mut seq = make_seq(*seed);
        let frames: Vec<Frame> = (0..frames_per_clip).map(|_| seq.next_frame()).collect();
        let mut naive_fps = 0.0;
        let mut digest0 = None;
        for v in variants() {
            let (mut m, digest) = run_variant(&v, clip, &frames);
            // Every variant must produce the identical bitstream — a
            // benchmark that silently measured a divergent encoder would
            // be meaningless.
            match digest0 {
                None => digest0 = Some(digest),
                Some(d) => assert_eq!(
                    d, digest,
                    "variant {} diverged from the naive bitstream on {clip}",
                    m.name
                ),
            }
            if v.name == "naive" {
                naive_fps = m.fps;
            }
            m.speedup_vs_naive = m.fps / naive_fps;
            eprintln!(
                "{:>20}: {:8.2} fps  {:12.0} sad_ops/frame  {:6.3} allocs/frame  {:5.2}x",
                m.name, m.fps, m.sad_ops_per_frame, m.allocs_per_frame, m.speedup_vs_naive
            );
            results.push(m);
        }
    }
    emit_json(&results, frames_per_clip - WARMUP)
}

fn run(args: &Args) -> Result<(), String> {
    match args.mode {
        Mode::KernelsInfo => {
            // Bare detected-best tier on stdout (CI compares it against
            // the committed pin); the full picture goes to stderr.
            eprintln!(
                "arch={} available={}",
                std::env::consts::ARCH,
                Kernels::available()
                    .iter()
                    .map(|t| t.label())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            println!("{}", Kernels::detect_best().label());
            Ok(())
        }
        Mode::Overhead => overhead_guard(),
        Mode::Kernels => {
            let results = bench_kernels(args.smoke);
            emit(
                &emit_kernels_json(&results, args.smoke),
                args.out.as_deref(),
            )
        }
        Mode::Encode => emit(&encode_bench(args.smoke), args.out.as_deref()),
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
}
