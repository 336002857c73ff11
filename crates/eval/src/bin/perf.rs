//! The pixel-kernel microbenchmark: times each SIMD kernel tier against
//! the scalar reference — SAD, bounded SAD, the fused transform, the
//! inverse DCT, and half-pel interpolation — asserting bit-identical
//! results while timing, and emits the JSON committed as
//! `BENCH_PR8.json` (schema enforced by `ci/validate_bench.py`). Its
//! `meta.detected_best` is the tier this host dispatches to, which CI
//! compares against the pin `BENCH_PR8.json` commits.
//!
//! Usage:
//!   cargo run --release -p pbpair-eval --bin perf -- --out BENCH_PR8.json
//!   cargo run --release -p pbpair-eval --bin perf -- --smoke  # CI-sized, JSON to stdout
//!
//! Bad arguments (an unknown flag, a missing value, a `PBPAIR_KERNELS`
//! value that names no tier of this host) exit with status 2 and a
//! message; a failed write exits with status 1.

use std::hint::black_box;
use std::time::Instant;

use pbpair_codec::fused::fdct_quant_scan_with;
use pbpair_codec::{Kernels, Qp};
use pbpair_telemetry::json;

const USAGE: &str = "usage: perf [--smoke] [--out PATH]";

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

/// A float member with a fixed number of decimals.
fn fixed(o: &mut json::Object<'_>, key: &str, value: f64, decimals: usize) {
    o.raw(key, &format!("{value:.decimals$}"));
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

struct Args {
    smoke: bool,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(argv.next().ok_or("--out expects a value")?),
            _ => return Err(format!("unknown flag {flag:?}")),
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

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let json = emit_kernels_json(&bench_kernels(args.smoke), args.smoke);
    if let Err(e) = emit(&json, args.out.as_deref()) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
}
