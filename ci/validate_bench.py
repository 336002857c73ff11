#!/usr/bin/env python3
"""Validates the schema and invariants of a pixel-kernel benchmark JSON
file: `BENCH_PR8.json` or the output of `perf [--smoke]`
(`meta.bench` is `pr8_kernels`). Any other `meta.bench` fails, the
retired encode benchmark's `BENCH_PR5.json` included.

Usage: python3 ci/validate_bench.py <bench.json> [--detected <tier>]

Checks:
  * schema: meta block (arch, detected-best tier, per-arch pins) +
    per-result field names and types;
  * every kernel is measured on every tier the run reported, with the
    scalar baseline pinned at exactly 1.0x;
  * the best tier clears a 2.0x floor on the SAD and fused-transform
    microbenches (the PR8 acceptance claim);
  * `--detected <tier>`: the tier the running host detects as best
    (a fresh `perf --smoke` run's `meta.detected_best`) matches the
    committed pin for the host's architecture (`platform.machine()`,
    not the bench file's `meta.arch`), so a silently broken dispatch
    chain fails CI instead of benching scalar everywhere.
"""

import json
import platform
import sys

KERNEL_SPEEDUP_FLOORS = {"sad16": 2.0, "fused_transform": 2.0}
KERNEL_META_FIELDS = {"bench", "arch", "detected_best", "pins", "scale"}
KERNEL_RESULT_FIELDS = {
    "kernel": str,
    "tier": str,
    "ns_per_call": (int, float),
    "speedup_vs_scalar": (int, float),
}
KERNELS = {"sad16", "sad16_bounded", "fused_transform", "idct8", "halfpel16"}
# `platform.machine()` spellings that differ from the pins' Rust names.
MACHINE_ARCH = {"AMD64": "x86_64", "arm64": "aarch64"}


def fail(msg):
    print(f"bench validation FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_kernels(doc, detected):
    if set(doc["meta"]) != KERNEL_META_FIELDS:
        fail(f"meta keys {sorted(doc['meta'])} != {sorted(KERNEL_META_FIELDS)}")
    meta = doc["meta"]
    pins = meta["pins"]
    if not isinstance(pins, dict) or not pins:
        fail("meta.pins must be a non-empty arch -> tier map")
    if meta["scale"] not in ("full", "smoke"):
        fail(f"meta.scale {meta['scale']!r} not full/smoke")
    results = doc["results"]
    if not results:
        fail("empty results")

    by_kernel = {}
    tiers = []
    for r in results:
        if set(r) != set(KERNEL_RESULT_FIELDS):
            fail(f"result keys {sorted(r)} != {sorted(KERNEL_RESULT_FIELDS)}")
        for field, ty in KERNEL_RESULT_FIELDS.items():
            if not isinstance(r[field], ty):
                fail(f"{r['kernel']}/{r['tier']}: {field} is {type(r[field]).__name__}")
        if r["ns_per_call"] <= 0:
            fail(f"{r['kernel']}/{r['tier']}: non-positive ns_per_call")
        by_kernel.setdefault(r["kernel"], {})[r["tier"]] = r
        if r["tier"] not in tiers:
            tiers.append(r["tier"])

    if set(by_kernel) != KERNELS:
        fail(f"kernels {sorted(by_kernel)} != {sorted(KERNELS)}")
    if tiers[0] != "scalar":
        fail("the scalar baseline must be measured first")
    for kernel, cells in sorted(by_kernel.items()):
        if set(cells) != set(tiers):
            fail(f"{kernel}: tiers {sorted(cells)} != {sorted(tiers)}")
        if cells["scalar"]["speedup_vs_scalar"] != 1.0:
            fail(f"{kernel}: scalar speedup {cells['scalar']['speedup_vs_scalar']} != 1.0")
    if len(tiers) > 1:
        for kernel, floor in sorted(KERNEL_SPEEDUP_FLOORS.items()):
            best = max(r["speedup_vs_scalar"] for r in by_kernel[kernel].values())
            if best < floor:
                fail(f"{kernel}: best speedup {best} below floor {floor}")

    if detected is not None:
        arch = MACHINE_ARCH.get(platform.machine(), platform.machine())
        pin = pins.get(arch)
        if pin is None:
            fail(f"no pin committed for host arch {arch}")
        if detected != pin:
            fail(
                f"host detects best tier {detected!r} but the committed pin"
                f" for {arch} is {pin!r} — dispatch regressed"
            )

    best = {
        kernel: max(r["speedup_vs_scalar"] for r in cells.values())
        for kernel, cells in sorted(by_kernel.items())
    }
    print(
        f"bench OK: {len(results)} kernel results over tiers {tiers}, best "
        + ", ".join(f"{k}={v:.2f}x" for k, v in best.items())
        + (f", detected={detected} matches pin" if detected is not None else "")
    )


def main(path, detected=None):
    with open(path) as f:
        doc = json.load(f)

    if set(doc) != {"meta", "results"}:
        fail(f"top-level keys {sorted(doc)} != ['meta', 'results']")
    bench = doc["meta"].get("bench")
    if bench != "pr8_kernels":
        fail(f"meta.bench {bench!r} is not 'pr8_kernels', the only schema this checks")
    validate_kernels(doc, detected)


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 4 and sys.argv[2] == "--detected":
        main(sys.argv[1], sys.argv[3])
    else:
        fail("usage: validate_bench.py <bench.json> [--detected <tier>]")
