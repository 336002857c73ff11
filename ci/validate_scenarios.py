#!/usr/bin/env python3
"""The one checker of the serve-driven matrices' reports (`matrix
<scenarios|dashboard|fec|rde|trace>`): validates each against its
committed bounds, with trend tracking.

Usage: python3 ci/validate_scenarios.py <scenarios.json> [<bounds.json>]
       python3 ci/validate_scenarios.py --fec <fec.json> [<bounds.json>]
       python3 ci/validate_scenarios.py --dashboard <dashboard.json> [<bounds.json>]
       python3 ci/validate_scenarios.py --rde <rde.json> [<rde_bounds.json>]
       python3 ci/validate_scenarios.py --trace <trace.json> [<bounds.json>]

Every mode checks the shared schema first: the exact top-level keys
with positive integer depths, exactly the expected cells, each cell's
exact field set and types, nonzero digests and PSNR.

Checks (default scenario mode):
  * schema: 18 cells (3 scenarios x 2 clips x 3 schemes);
  * damage: the lossy scenarios recorded at least one damage event
    somewhere in the matrix;
  * committed bounds per scenario: minimum PSNR, maximum per-cell
    energy, maximum C^k Brier score, maximum mean frames-to-heal —
    resilience regressions fail CI the same way bitstream goldens do;
  * trend: every gated quantity is reported as a drift percentage
    against the baseline recorded when the bound was committed, so a
    slow slide toward a bound is visible in CI logs long before it
    trips.

Checks (--fec mode, against the 'fec' section of the bounds file):
  * schema: 14 cells (2 channels x 7 arms), integer-only metrics,
    nonzero digests and PSNR; 'none' arms send no parity and charge no
    FEC energy, protected arms do both;
  * committed per-cell bounds: residual-frame-loss ceiling (ppm),
    PSNR floor (milli-dB), FEC-energy ceiling (uJ), each with drift
    reported against the committed baseline;
  * wire budget: every protected arm's parity overhead stays under the
    committed ceiling;
  * headline claim: on the committed burst channel the adaptive
    multi-erasure arms beat fixed XOR on residual frame loss at the
    same wire budget.

Checks (--rde mode, against ci/rde_bounds.json):
  * schema: 7 arms (baseline, zero gate, five lambda points),
    integer-only metrics, nonzero digests and PSNR;
  * zero-lambda gate: the rde-zero arm's digest is byte-identical to
    the pure-PBPAIR baseline's (the controller at lambda1=lambda2=0 is
    provably inert);
  * Pareto front: dominance is recomputed from the reported metrics,
    the on_front flags must match it, and front membership must match
    the committed list;
  * weak dominance: some front arm matches or beats pure PBPAIR on
    encode energy AND displayed quality simultaneously;
  * energy lever: some energy-priced arm encodes strictly cheaper than
    the baseline;
  * committed per-arm bounds: PSNR floor (milli-dB) and encode-energy
    ceiling (uJ), each with drift reported against the baseline.

Checks (--trace mode, against the 'trace' section):
  * schema: a non-empty (PLR, Intra_Th) grid, one point per grid key;
  * calibration: every point scored observations, no more correct
    than scored, reliability bins partitioning the observations, and a
    C^k Brier score strictly below the committed ceiling (drift of the
    worst point reported against the baseline);
  * damage: at least one loss or corruption event across the grid.

Checks (--dashboard mode, against the 'dashboard' section):
  * schema: 4 cells (3 committed scenarios + burst_kill), integer alert
    tallies per SLO;
  * per scenario: total SLO firing transitions within the committed
    [fired_min, fired_max] band, with drift against the baseline;
  * the burst_kill incident drives the full observability chain:
    residual_loss fires, the flight recorder dumps (reason "slo"), and
    the health ledger records slo: transitions.
"""

import json
import sys
from itertools import product

SCENARIOS = {"steady_burst", "handoff_ramp", "feedback_blackout"}
CELL_FIELDS = {
    "scenario": str,
    "clip": str,
    "scheme": str,
    "digest": str,
    "psnr_mdb": int,
    "energy_uj": int,
    "brier_e9": int,
    "heal_events": int,
    "heal_sum": int,
    "heal_max": int,
    "frames_lost": int,
    "impaired": int,
    "recovered": int,
}

FEC_CELL_FIELDS = {
    "channel": str,
    "arm": str,
    "codec": str,
    "digest": str,
    "frames": int,
    "frames_lost": int,
    "frames_damaged": int,
    "fec_recoveries": int,
    "blocks_failed": int,
    "residual_ppm": int,
    "overhead_ppm": int,
    "psnr_mdb": int,
    "encode_uj": int,
    "fec_uj": int,
    "sent_bytes": int,
    "parity_bytes": int,
}

RDE_ARMS = {
    "pbpair", "rde-zero",
    "rde-r12", "rde-r20",
    "rde-e4", "rde-e8",
    "rde-r16-e4",
}
RDE_CELL_FIELDS = {
    "arm": str,
    "lambda1_q16": int,
    "lambda2_q16": int,
    "digest": str,
    "frames": int,
    "frames_lost": int,
    "frames_damaged": int,
    "psnr_mdb": int,
    "encode_uj": int,
    "sent_bytes": int,
    "on_front": int,
}

TRACE_POINT_FIELDS = {
    "plr_pm": int,
    "intra_th_pm": int,
    "loss_events": int,
    "corrupt_events": int,
    "mbs_touched": int,
    "frames_to_heal_sum": int,
    "max_frames_to_heal": int,
    "sad_cost": int,
    "dumps": int,
    "calibration": dict,
}

DASHBOARD_CELL_FIELDS = {
    "scenario": str,
    "alerts": dict,
    "slo_dumps": int,
    "slo_transitions": int,
    "impaired": int,
    "recovered": int,
}


def fail(msg):
    print(f"scenario validation FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def drift(observed, baseline):
    """Signed drift of observed vs baseline, as a percentage string."""
    if not baseline:
        return "n/a"
    return f"{100.0 * (observed - baseline) / baseline:+.1f}%"


def load_cells(report_path, label, fields, key_fields, expected_keys,
               top=("frames", "sessions", "cells")):
    """Loads a report and checks the schema every mode shares: the
    top-level keys `top` (the last one lists the cells, the others are
    positive integer depths), exactly one cell per expected key (the key
    joins `key_fields` with '/'; `expected_keys=None` accepts any
    non-empty set), each cell's exact field set and types, and nonzero
    PSNR and digest where the cell carries them. Returns the cells by
    key."""
    with open(report_path) as f:
        doc = json.load(f)
    if set(doc) != set(top):
        fail(f"{label} top-level keys {sorted(doc)}")
    for depth in top[:-1]:
        if not isinstance(doc[depth], int) or doc[depth] <= 0:
            fail(f"{label} {depth} = {doc[depth]!r}, expected a positive integer")
    cells = doc[top[-1]]
    if expected_keys is not None and len(cells) != len(expected_keys):
        fail(f"{len(cells)} {label} cells != {len(expected_keys)}")
    if not cells:
        fail(f"empty {label} report")
    by_key = {}
    for c in cells:
        if set(c) != set(fields):
            fail(f"{label} cell keys {sorted(c)} != {sorted(fields)}")
        key = "/".join(str(c[k]) for k in key_fields)
        for field, ty in fields.items():
            if not isinstance(c[field], ty):
                fail(f"{key}: {field} is {type(c[field]).__name__}")
        if "psnr_mdb" in fields and c["psnr_mdb"] == 0:
            fail(f"{key}: zero PSNR")
        if "digest" in fields and c["digest"] == "0" * 16:
            fail(f"{key}: zero digest")
        if key in by_key:
            fail(f"{label}: duplicate cell {key}")
        by_key[key] = c
    if expected_keys is not None and set(by_key) != expected_keys:
        fail(f"{label} coverage mismatch: missing {sorted(expected_keys - set(by_key))}, "
             f"extra {sorted(set(by_key) - expected_keys)}")
    return by_key


def check_bounded(label, names, bounds):
    """Every gated name has a committed bound and vice versa."""
    if set(names) != set(bounds):
        fail(f"{label} {sorted(names)} != bounded {sorted(bounds)}")


def gate(name, key, observed, baseline, unit="", lo=None, hi=None):
    """Prints one gated quantity with its committed band and drift vs
    the baseline recorded with the bound, and fails outside the band."""
    band = (f"band [{lo}, {hi}]" if lo is not None and hi is not None
            else f"bound min {lo}" if lo is not None
            else f"bound max {hi}" if hi is not None
            else "unbounded")
    value = f"{round(observed, 2)} {unit}".rstrip()
    trend = "" if baseline is None else f", drift vs baseline {drift(observed, baseline)}"
    print(f"{name}: {key} = {value} ({band}{trend})")
    if lo is not None and observed < lo:
        fail(f"{name}: {key} {observed} below committed floor {lo}")
    if hi is not None and observed > hi:
        fail(f"{name}: {key} {observed} above committed ceiling {hi}")


def main(report_path, bounds_path):
    with open(bounds_path) as f:
        bounds = json.load(f)["scenarios"]
    expected = {"/".join(k) for k in
                product(SCENARIOS, ("akiyo", "foreman"), ("PBPAIR", "GOP-4", "AIR-11"))}
    cells = load_cells(report_path, "scenario", CELL_FIELDS,
                       ("scenario", "clip", "scheme"), expected)

    per_scenario = {}
    for c in cells.values():
        agg = per_scenario.setdefault(c["scenario"], {
            "psnr_min_mdb": 1 << 60,
            "energy_max_uj": 0,
            "brier_max_e9": 0,
            "heal_mean_max": 0.0,
        })
        agg["psnr_min_mdb"] = min(agg["psnr_min_mdb"], c["psnr_mdb"])
        agg["energy_max_uj"] = max(agg["energy_max_uj"], c["energy_uj"])
        agg["brier_max_e9"] = max(agg["brier_max_e9"], c["brier_e9"])
        if c["heal_events"] > 0:
            agg["heal_mean_max"] = max(
                agg["heal_mean_max"], c["heal_sum"] / c["heal_events"])
    check_bounded("scenarios", per_scenario, bounds)
    if all(c["heal_events"] == 0 for c in cells.values()):
        fail("no damage events recorded across the matrix")

    # PSNR against its floor, the lower-is-better quantities against
    # their ceilings.
    for name in sorted(per_scenario):
        agg, b = per_scenario[name], bounds[name]
        base = b["baseline"]
        gate(name, "psnr_min_mdb", agg["psnr_min_mdb"], base["psnr_min_mdb"], "mdB",
             lo=b["psnr_min_mdb"])
        for key, unit in (("energy_max_uj", "uJ"), ("brier_max_e9", "/1e9"),
                          ("heal_mean_max", "frames")):
            gate(name, key, agg[key], base[key], unit, hi=b[key])

    print(f"scenarios OK: {len(cells)} cells, "
          f"{len(per_scenario)} scenarios within committed bounds")


def main_fec(report_path, bounds_path):
    with open(bounds_path) as f:
        fec = json.load(f)["fec"]
    cell_bounds = fec["cells"]
    arms = ("none", "xor-fixed", "xor-adaptive", "rs-fixed", "rs-adaptive",
            "lt-fixed", "lt-adaptive")
    expected = {"/".join(k) for k in product(("uniform", "markov_burst"), arms)}
    cells = load_cells(report_path, "fec", FEC_CELL_FIELDS, ("channel", "arm"), expected)
    check_bounded("fec cells", cells, cell_bounds)

    for key in sorted(cells):
        c, b = cells[key], cell_bounds[key]
        base = b["baseline"]
        if c["arm"] == "none":
            if c["parity_bytes"] != 0 or c["fec_uj"] != 0 or c["codec"]:
                fail(f"{key}: unprotected arm carries FEC state")
        else:
            if c["parity_bytes"] == 0 or c["fec_uj"] == 0 or not c["codec"]:
                fail(f"{key}: protected arm sent no parity or charged no energy")
            # The wire budget every protected arm shares.
            gate(key, "overhead_ppm", c["overhead_ppm"], None, "ppm",
                 hi=fec["overhead_ppm_max"])
        gate(key, "residual_ppm", c["residual_ppm"], base["residual_ppm"], "ppm",
             hi=b["residual_ppm_max"])
        gate(key, "psnr_mdb", c["psnr_mdb"], base["psnr_mdb"], "mdB", lo=b["psnr_min_mdb"])
        gate(key, "fec_uj", c["fec_uj"], base["fec_uj"], "uJ", hi=b["fec_uj_max"])

    # The headline claim the matrix exists to demonstrate: adaptive
    # multi-erasure codecs beat fixed single-erasure XOR on residual
    # frame loss under the committed burst channel at equal wire budget.
    g = fec["burst_gate"]
    ref = cells[f"{g['channel']}/{g['reference_arm']}"]
    ref_residual = ref["frames_lost"] + ref["frames_damaged"]
    for arm in g["better_arms"]:
        c = cells[f"{g['channel']}/{arm}"]
        residual = c["frames_lost"] + c["frames_damaged"]
        print(f"{g['channel']}: {arm} residual {residual} frames "
              f"vs {g['reference_arm']} {ref_residual}")
        if residual >= ref_residual:
            fail(f"{g['channel']}: {arm} residual loss {residual} must beat "
                 f"{g['reference_arm']} {ref_residual}")

    print(f"fec OK: {len(cells)} cells within committed bounds, "
          f"burst gate holds for {', '.join(g['better_arms'])}")


def rde_dominates(a, b):
    """Weak Pareto dominance: energy and bytes down, quality up."""
    no_worse = (a["encode_uj"] <= b["encode_uj"]
                and a["sent_bytes"] <= b["sent_bytes"]
                and a["psnr_mdb"] >= b["psnr_mdb"])
    better = (a["encode_uj"] < b["encode_uj"]
              or a["sent_bytes"] < b["sent_bytes"]
              or a["psnr_mdb"] > b["psnr_mdb"])
    return no_worse and better


def main_rde(report_path, bounds_path):
    with open(bounds_path) as f:
        bounds = json.load(f)
    arm_bounds = bounds["arms"]
    by_arm = load_cells(report_path, "rde", RDE_CELL_FIELDS, ("arm",), RDE_ARMS)
    check_bounded("rde arms", by_arm, arm_bounds)
    cells = list(by_arm.values())

    # The inert gate: the controller at zero lambda must be invisible.
    base, zero = by_arm["pbpair"], by_arm["rde-zero"]
    if (base["lambda1_q16"], base["lambda2_q16"]) != (0, 0):
        fail("pbpair baseline carries nonzero lambda weights")
    if (zero["lambda1_q16"], zero["lambda2_q16"]) != (0, 0):
        fail("rde-zero gate carries nonzero lambda weights")
    if zero["digest"] != base["digest"]:
        fail(f"zero-lambda digest {zero['digest']} != pbpair {base['digest']}")
    print(f"rde zero gate: digest {zero['digest']} identical to baseline")

    # The Pareto front, recomputed from the reported metrics: the
    # report's flags must agree, and membership must match the
    # committed front exactly (the sweep is deterministic).
    for c in cells:
        dominated = any(rde_dominates(o, c) for o in cells)
        if bool(c["on_front"]) == dominated:
            fail(f"{c['arm']}: on_front={c['on_front']} contradicts "
                 f"recomputed dominance")
    observed_front = sorted(c["arm"] for c in cells if c["on_front"])
    committed_front = sorted(bounds["front"])
    if observed_front != committed_front:
        fail(f"Pareto front {observed_front} != committed {committed_front}")
    print(f"rde front: {', '.join(observed_front)}")

    # The headline claims: the front weakly dominates pure PBPAIR at
    # equal energy, and the energy price strictly cuts encode cost
    # somewhere on the plane.
    witnesses = [c["arm"] for c in cells if c["on_front"]
                 and c["encode_uj"] <= base["encode_uj"]
                 and c["psnr_mdb"] >= base["psnr_mdb"]]
    if not witnesses:
        fail("no front arm weakly dominates pure PBPAIR at equal energy")
    print(f"rde dominance: {', '.join(witnesses)} weakly dominate pbpair "
          f"({base['encode_uj']} uJ, {base['psnr_mdb']} mdB)")
    savers = [c["arm"] for c in cells
              if c["lambda2_q16"] > 0 and c["encode_uj"] < base["encode_uj"]]
    if not savers:
        fail("no energy-priced arm encoded cheaper than baseline")

    for arm in sorted(by_arm):
        c, b = by_arm[arm], arm_bounds[arm]
        gate(arm, "psnr_mdb", c["psnr_mdb"], b["baseline"]["psnr_mdb"], "mdB",
             lo=b["psnr_min_mdb"])
        gate(arm, "encode_uj", c["encode_uj"], b["baseline"]["encode_uj"], "uJ",
             hi=b["encode_uj_max"])

    print(f"rde OK: {len(cells)} arms within committed bounds, zero gate "
          f"holds, front dominates pure PBPAIR")


def main_trace(report_path, bounds_path):
    with open(bounds_path) as f:
        bounds = json.load(f)["trace"]
    points = load_cells(report_path, "trace", TRACE_POINT_FIELDS,
                        ("plr_pm", "intra_th_pm"), None, top=("frames", "points"))
    ceiling = bounds["brier_max_e9"]
    for key in sorted(points):
        cal = points[key]["calibration"]
        if cal["count"] == 0:
            fail(f"{key}: grid point scored no MBs")
        if cal["correct"] > cal["count"]:
            fail(f"{key}: {cal['correct']} correct of {cal['count']} scored")
        if sum(b["count"] for b in cal["bins"]) != cal["count"]:
            fail(f"{key}: reliability bins do not partition the observations")
        # The committed ceiling is exclusive.
        if cal["brier_e9"] >= ceiling:
            fail(f"{key}: Brier {cal['brier_e9']}/1e9 not below the committed "
                 f"ceiling {ceiling}")
    worst = max(p["calibration"]["brier_e9"] for p in points.values())
    print(f"trace: brier_max_e9 = {worst} /1e9 (exclusive ceiling {ceiling}, drift vs "
          f"baseline {drift(worst, bounds['baseline']['brier_max_e9'])})")
    if all(p["loss_events"] + p["corrupt_events"] == 0 for p in points.values()):
        fail("no damage events recorded across the grid")
    print(f"trace OK: {len(points)} points scored, worst Brier {worst}/1e9 "
          f"below {ceiling}")


def main_dashboard(report_path, bounds_path):
    with open(bounds_path) as f:
        bounds = json.load(f)["dashboard"]["scenarios"]
    by_name = load_cells(report_path, "dashboard", DASHBOARD_CELL_FIELDS, ("scenario",),
                         SCENARIOS | {"burst_kill"})
    for name, c in by_name.items():
        for slo, tally in c["alerts"].items():
            if set(tally) != {"fired", "cleared"} or not all(
                    isinstance(v, int) for v in tally.values()):
                fail(f"{name}: malformed alert tally for {slo}: {tally}")
    check_bounded("dashboard scenarios", by_name, bounds)

    # Per scenario the firing total sits in its committed band; the
    # burst_kill incident also carries floors on each link of the
    # metric -> alert -> ledger -> trace chain.
    for name in sorted(by_name):
        c, b = by_name[name], bounds[name]
        fired = sum(t["fired"] for t in c["alerts"].values())
        gate(name, "fired", fired, b["baseline"]["fired"],
             lo=b["fired_min"], hi=b["fired_max"])
        residual = c["alerts"].get("residual_loss", {}).get("fired", 0)
        gate(name, "residual_loss_fired", residual, None,
             lo=b.get("residual_loss_fired_min"))
        gate(name, "slo_dumps", c["slo_dumps"], None, lo=b.get("slo_dumps_min"))
        gate(name, "slo_transitions", c["slo_transitions"], None,
             lo=b.get("slo_transitions_min"))

    print(f"dashboard OK: {len(by_name)} scenarios within committed alert bounds; "
          f"burst_kill drives the full metric -> alert -> ledger -> trace chain")


if __name__ == "__main__":
    args = sys.argv[1:]
    entries = {"--fec": main_fec, "--dashboard": main_dashboard,
               "--rde": main_rde, "--trace": main_trace}
    modes = [a for a in args if a in entries]
    args = [a for a in args if a not in modes]
    if len(modes) > 1:
        fail("pick one of --fec / --dashboard / --rde / --trace")
    if len(args) not in (1, 2):
        fail("usage: validate_scenarios.py [--fec|--dashboard|--rde|--trace] "
             "<report.json> [<bounds.json>]")
    mode = modes[0] if modes else None
    entry = entries.get(mode, main)
    default_bounds = "ci/rde_bounds.json" if mode == "--rde" else "ci/scenario_bounds.json"
    entry(args[0], args[1] if len(args) == 2 else default_bounds)
