#!/usr/bin/env python3
"""Live-scrape validation of the observability plane's expose endpoint.

Usage: python3 ci/validate_expose.py <serve-binary> [--port N]

Spawns `<serve-binary> --expose <port> --expose-hold 60`, waits
for the run to finish and the endpoint to come up, then validates:

  * `/metrics` parses as Prometheus text exposition 0.0.4: every sample
    line belongs to a `# TYPE`-declared family, metric names carry the
    `pbpair_` prefix, values are numeric;
  * required families exist: `pbpair_enc_frames_total`,
    `pbpair_dec_frames_total`, `pbpair_serve_rounds_total`, and the
    `pbpair_serve_frame_latency_ms` histogram;
  * histogram integrity per family: cumulative `le` bucket counts are
    monotone nondecreasing, the `+Inf` bucket equals `_count`, and
    `_sum`/`_count` are present;
  * `/health` is valid JSON with a per-session state list and the
    firing-alert set;
  * `/timeseries` is valid JSON carrying the delta-frame ring.

Kills the serve process on exit, pass or fail.
"""

import json
import re
import subprocess
import sys
import time
import urllib.request

REQUIRED_COUNTERS = [
    "pbpair_enc_frames_total",
    "pbpair_dec_frames_total",
    "pbpair_serve_rounds_total",
]
REQUIRED_HISTOGRAMS = ["pbpair_serve_frame_latency_ms"]

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>[0-9.eE+\-]+|\+Inf|NaN)$'
)


def fail(msg):
    print(f"expose validation FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def fetch(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        return r.read().decode("utf-8"), r.headers.get("Content-Type", "")


def parse_exposition(body):
    """Returns ({family: type}, [(name, labels, value)])."""
    families, samples = {}, []
    for line in body.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(f"malformed TYPE line: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"unparseable sample line: {line!r}")
        value = m.group("value")
        samples.append((m.group("name"), m.group("labels") or "", value))
    return families, samples


def family_of(name):
    for suffix in ("_bucket", "_sum", "_count", "_max"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def le_of(labels):
    m = re.search(r'le="([^"]+)"', labels)
    return m.group(1) if m else None


def check_metrics(body, content_type):
    if "text/plain" not in content_type or "version=0.0.4" not in content_type:
        fail(f"unexpected /metrics content type: {content_type!r}")
    families, samples = parse_exposition(body)
    if not families:
        fail("no # TYPE families in /metrics")
    for name, labels, value in samples:
        if not name.startswith("pbpair_"):
            fail(f"metric {name} lacks the pbpair_ prefix")
        fam = family_of(name)
        # Gauge companions export their own family name; stage counters
        # share a labelled family. Every sample must trace to a TYPE.
        if fam not in families and name not in families:
            fail(f"sample {name} has no # TYPE declaration")
        if value != "+Inf":
            float(value)

    for required in REQUIRED_COUNTERS:
        if not any(n == required for n, _, _ in samples):
            fail(f"required counter {required} missing from /metrics")
        if families.get(required) != "counter":
            fail(f"{required} not declared as a counter")

    for hist in REQUIRED_HISTOGRAMS:
        if families.get(hist) != "histogram":
            fail(f"{hist} not declared as a histogram")
        buckets = [(le_of(labels), float(v))
                   for n, labels, v in samples
                   if n == f"{hist}_bucket"]
        if not buckets or buckets[-1][0] != "+Inf":
            fail(f"{hist}: bucket list missing or not ending at +Inf")
        counts = [v for _, v in buckets]
        if any(b > a for a, b in zip(counts[1:], counts)):
            fail(f"{hist}: cumulative le counts not monotone: {counts}")
        count = next(float(v) for n, _, v in samples if n == f"{hist}_count")
        if counts[-1] != count:
            fail(f"{hist}: +Inf bucket {counts[-1]} != _count {count}")
        if not any(n == f"{hist}_sum" for n, _, _ in samples):
            fail(f"{hist}: _sum missing")
    return len(families), len(samples)


def check_health(body):
    doc = json.loads(body)
    for key in ("rounds", "sessions", "alerts_firing"):
        if key not in doc:
            fail(f"/health missing {key!r}")
    if not doc["sessions"]:
        fail("/health reports no sessions")
    for s in doc["sessions"]:
        if set(s) != {"id", "health", "transitions", "shed"}:
            fail(f"/health session keys: {sorted(s)}")
    return len(doc["sessions"])


def check_timeseries(body):
    doc = json.loads(body)
    for key in ("every", "ticks", "dropped", "frames"):
        if key not in doc:
            fail(f"/timeseries missing {key!r}")
    if doc["ticks"] == 0 or not doc["frames"]:
        fail("/timeseries ring is empty")
    frame = doc["frames"][0]
    if "deterministic" not in frame or "round" not in frame["deterministic"]:
        fail(f"/timeseries frame shape: {sorted(frame)}")
    return doc["ticks"]


def main():
    args = sys.argv[1:]
    if not args:
        fail("usage: validate_expose.py <serve-binary> [--port N]")
    binary = args[0]
    port = 9184
    if "--port" in args:
        port = int(args[args.index("--port") + 1])

    proc = subprocess.Popen(
        [binary, "--expose", str(port), "--expose-hold", "60"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Wait for the endpoint to come up AND for the time-series ring
        # to have published at least one tick (the run publishes per
        # round, so a scrape can land before the first barrier).
        deadline = time.time() + 120
        ready = False
        while time.time() < deadline:
            if proc.poll() is not None:
                fail(f"serve exited early with {proc.returncode}: "
                     f"{proc.stderr.read()}")
            try:
                probe = json.loads(fetch(port, "/timeseries")[0])
                if probe.get("ticks", 0) > 0:
                    ready = True
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.5)
        if not ready:
            fail("timed out waiting for the first published tick")

        body, ctype = fetch(port, "/metrics")
        nfam, nsamp = check_metrics(body, ctype)
        nsess = check_health(fetch(port, "/health")[0])
        nticks = check_timeseries(fetch(port, "/timeseries")[0])
        print(f"expose OK: {nfam} families / {nsamp} samples on /metrics, "
              f"{nsess} sessions on /health, {nticks} ticks on /timeseries")
    finally:
        proc.kill()
        proc.wait()


if __name__ == "__main__":
    main()
