"""qtsym benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  qtsym is imported from that checkout's
src/, never from an installed copy.  Workloads (see workloads.py):
macdonald, hall_littlewood.

Each repetition is a fresh interpreter (rep.py), started one at a time
from this process, which waits for it.  Repetitions run until --seconds
would be exceeded, and at least MIN_REPS of them.  Every repetition runs
the same cold build and its own query stream, drawn from the seed and
its index, and checks every query; the first also checks the build and
the CLI output.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the median
over the repetitions, and for latency and qps all the run's queries
together.  Every time is CPU time scaled to a fixed host speed: each
repetition times a stdlib-only reference slice next to every timed phase,
and a phase's CPU seconds are multiplied by REF_SLICE_S over the mean
slice time measured next to it.  On a shared host whose speed drifts by a
third within minutes, this cancels the drift, which the work and the
slice share; the line before the result gives the unscaled medians.
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics: counts and times from the first (traced) repetition,
and the tracing overhead from the median scaled build time of both kinds.
It also writes the traced repetition's per-name and per-caller totals to
.perfbench/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("macdonald", "hall_littlewood")
MIN_REPS = 3
REP_TIMEOUT_S = 170
# Scaled times are CPU seconds on a host where one reference slice
# (rep.reference_slice) takes this long; about its median on the
# 2-vCPU Xeon host of baseline.json.
REF_SLICE_S = 0.04


class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, rep: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--rep", str(rep)]
    if traced:
        cmd.append("--trace")
    if rep == 0:
        cmd.append("--check")
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"),
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition timed out after {REP_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def scaled(phase: list[float]) -> float:
    """A phase's CPU seconds at the reference host speed."""
    cpu_s, slice_s = phase
    return cpu_s * REF_SLICE_S / slice_s


def end_to_end(reps: list[dict], metrics: list[dict]) -> tuple[dict, dict]:
    """Scaled and unscaled end-to-end metrics.  Times of a phase are the
    median over the repetitions.  Latency percentiles and qps pool the
    queries of all repetitions, each query scaled by the slices taken
    around it, so p99 has ten samples beyond it per 1,000 queries run."""

    def values(scale) -> dict[str, float]:
        pool = [
            scale([ms, slice_s])
            for r in reps
            for ms, slice_s in zip(r["latencies_ms"], r["query_slices_s"])
        ]
        cuts = statistics.quantiles(pool, n=100)
        return {
            "setup_s": statistics.median(scale(r["setup"]) for r in reps),
            "wall_s": statistics.median(scale(r["build"]) for r in reps),
            "qps": len(pool) / (sum(pool) / 1e3),
            "p50_ms": cuts[49],
            "p99_ms": cuts[98],
            "cli_cold_s": statistics.median(scale(c) for r in reps for c in r["cli"]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }

    names = [m["name"] for m in metrics]
    plain, host = values(lambda phase: phase[0]), values(scaled)
    return {n: host[n] for n in names}, {n: plain[n] for n in names}


def per_layer(reps: list[dict], names: list[str]) -> dict[str, float]:
    """Layer metrics by name: '<span>.calls', '<span>.self_s' and '<span>.s'
    (inclusive time) read from the span totals, plus a few derived ones."""
    first = reps[0]
    traced = [scaled(r["build"]) for r in reps if "layers" in r]
    plain = [scaled(r["build"]) for r in reps if "layers" not in r]
    derived = {
        "coeffs.max_terms": first["max_terms"],
        "coeffs.max_degree": first["max_degree"],
        "ribbons.ribbon_tableaux.count": first["ribbon_count"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.unattributed_s": first["wall_s"] - first["layers"]["covered_s"],
    }
    spans = first["layers"]["names"]
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, _, field = name.rpartition(".")
        key = {"calls": "calls", "self_s": "self_s", "s": "total_s"}[field]
        out[name] = spans.get(span, {}).get(key, 0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qtsym", "__init__.py")):
        print(f"perfbench: no qtsym sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    reps: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    try:
        while len(reps) < MIN_REPS or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            traced = bool(args.trace) and len(reps) % 2 == 0
            reps.append(run_rep(args.workload, args.seed, len(reps), traced))
            last = time.perf_counter() - began
    except RepFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(reps, [m["name"] for m in wanted])
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(reps[0]["layers"], fh, indent=1, sort_keys=True)
    else:
        values, unscaled = end_to_end(reps, wanted)
        slices = [r[phase][1] for r in reps for phase in ("setup", "build")]
        info = {"repetitions": len(reps), "queries": sum(len(r["latencies_ms"]) for r in reps)}
        info["reference_slice_s"] = statistics.median(slices)
        print(json.dumps({"unscaled": unscaled, **info}))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
