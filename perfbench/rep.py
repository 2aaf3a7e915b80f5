"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, with PYTHONPATH set to the
checkout's src/, so that module-level caches (coeffs._GCD_CACHE, the
lru_caches of llt and classical) start empty every time:

    python3 perfbench/rep.py --workload NAME --seed N --rep K [--trace] [--check]
    python3 perfbench/rep.py --workload NAME --seed N --rep 0 --record

The last line of standard output is a JSON object with the timings.
Every query of the repetition's stream, which depends on the seed and
K, is checked.  --check also verifies the built matrices and tables
(fingerprints, identities) and the CLI's output.  --record writes this
workload's fingerprints into fingerprints.json instead of comparing with
it.

Times are CPU seconds of the process doing the work (this one, or the
CLI child), so time the scheduler gives to other processes is not
counted.  Next to every timed phase the repetition also times a fixed
reference slice, pure stdlib code that never touches qtsym: run.py
divides each phase by the reference time measured around it, which
cancels the speed of the host at that moment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
MAX_REPORTED = 5
# Inside the build and the query stream, a reference slice is taken at the
# first break after this many CPU seconds since the last one.  Queries are
# short, so their host speed is sampled more often.
BUILD_SAMPLE_S = 0.5
STREAM_SAMPLE_S = 0.1
# Cold CLI runs per repetition, each between two reference slices.
CLI_RUNS = 2

_REF_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def _reference() -> dict:
    """Fixed work of the kind qtsym does: products and sums of sparse
    bivariate polynomials with Fraction coefficients, in dicts."""
    acc: dict = {}
    for _ in range(8):
        prod: dict = {}
        for (i, j), c in _REF_POLY.items():
            for (k, l), d in _REF_POLY.items():
                mono = (i + k, j + l)
                prod[mono] = prod.get(mono, 0) + c * d
        for mono, c in prod.items():
            acc[mono] = acc.get(mono, 0) + c
    return acc


def reference_slice() -> float:
    """CPU seconds of one run of the reference work.  The collector is
    off, so the size of qtsym's heap does not change the slice."""
    gc.disable()
    start = time.process_time()
    _reference()
    spent = time.process_time() - start
    gc.enable()
    return spent


class HostSpeed:
    """Reference slices taken next to one timed phase.  Their own CPU
    time is kept in `spent`, so that it can be taken out of the phase."""

    def __init__(self, every_s: float = 0.0):
        self.slices: list[float] = []
        self.spent = 0.0
        self._every_s = every_s
        self._due = 0.0

    def sample(self) -> None:
        t = reference_slice()
        self.slices.append(t)
        self.spent += t
        self._due = time.process_time() + self._every_s

    def tick(self) -> bool:
        """A break in the phase: sample if one is due; True if it did."""
        if time.process_time() < self._due:
            return False
        self.sample()
        return True

    def mean(self) -> float:
        return sum(self.slices) / len(self.slices)


def _cli(expr: str) -> tuple[float, subprocess.CompletedProcess]:
    """A cold `qtsym eval`: the child's CPU time, from process start to exit."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "qtsym.cli", "eval", expr],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, proc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    name = args.workload
    perf = time.perf_counter
    cpu = time.process_time

    reference_slice()  # warm-up, untimed
    setup_ref = HostSpeed()
    setup_ref.sample()
    setup_cpu = cpu()
    import qtsym

    if not os.path.abspath(qtsym.__file__).startswith(SRC + os.sep):
        print(f"qtsym imported from {qtsym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from qtsym import exprs
    from qtsym.algebra import SymmetricFunctions

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    S = SymmetricFunctions()
    setup_cpu = cpu() - setup_cpu
    setup_ref.sample()

    # A traced build takes no slices inside, so that the trace window
    # holds only qtsym's work.
    stream = workloads.queries(name, args.seed, args.rep)
    build_ref = HostSpeed(BUILD_SAMPLE_S)
    build_ref.sample()
    tick = None if tracer else build_ref.tick
    build_start, build_cpu = perf(), cpu()
    built = workloads.build(S, name, tracer, tick)
    comb = workloads.combinatorics(S, tracer, tick) if name == "hall_littlewood" else None
    build_end = perf()
    build_cpu = cpu() - build_cpu - (build_ref.spent - build_ref.slices[0])
    build_ref.sample()

    # Each query's reference time is the mean of the two slices around the
    # stretch of queries it belongs to.
    stream_ref = HostSpeed(STREAM_SAMPLE_S)
    stream_ref.sample()
    results, latencies, stretches = [], [], [0]
    for query in stream:
        if stream_ref.tick():
            stretches.append(len(latencies))
        start = cpu()
        try:
            result = exprs.evaluate(S, query[1])
        except Exception as exc:  # noqa: BLE001 - a raised query is a failed operation
            result = exc
        latencies.append((cpu() - start) * 1e3)
        results.append(result)
    stream_ref.sample()
    stretches.append(len(latencies))
    query_slices = []
    for i, (lo, hi) in enumerate(zip(stretches, stretches[1:])):
        query_slices += [(stream_ref.slices[i] + stream_ref.slices[i + 1]) / 2] * (hi - lo)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each phase: [its CPU seconds, mean reference slice next to it].
    out = {
        "setup": [setup_cpu, setup_ref.mean()],
        "build": [build_cpu, build_ref.mean()],
        "latencies_ms": latencies,
        "query_slices_s": query_slices,
        "wall_s": build_end - build_start,
        "rss_mb": rss_mb,
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary((build_start, build_end))
        out["max_terms"], out["max_degree"] = workloads.coefficient_size(built)
        out["ribbon_count"] = comb["ribbon_count"] if comb else 0

    outcomes: dict[str, bool] = {}
    for i, (query, result) in enumerate(zip(stream, results)):
        try:
            ok = not isinstance(result, Exception) and workloads.check_query(S, query, result)
        except Exception:  # noqa: BLE001 - a check that raises is a miss
            ok = False
        outcomes[f"query {i} {query[1]}"] = ok
    if args.check or args.record:
        found = workloads.fingerprints(built, comb)
        recorded = {}
        if os.path.exists(FINGERPRINTS):
            with open(FINGERPRINTS) as fh:
                recorded = json.load(fh)
        if args.record:
            recorded.update(found)
            with open(FINGERPRINTS, "w") as fh:
                json.dump(dict(sorted(recorded.items())), fh, indent=1)
                fh.write("\n")
        for key, value in found.items():
            outcomes[f"fingerprint {key}"] = recorded.get(key) == value
        outcomes.update(workloads.identities(S, name, built, comb))

    expr = workloads.SPECS[name]["cli"]
    cli_ref = HostSpeed()
    cli_ref.sample()
    out["cli"] = []
    for i in range(CLI_RUNS):
        cli_cpu, proc = _cli(expr)
        cli_ref.sample()
        out["cli"].append([cli_cpu, (cli_ref.slices[i] + cli_ref.slices[i + 1]) / 2])
        ok = proc.returncode == 0
        if ok and args.check:
            ok = exprs.evaluate(S, proc.stdout.strip()) == exprs.evaluate(S, expr)
        outcomes[f"cli {i} {expr}"] = ok

    missed = [key for key, ok in outcomes.items() if not ok]
    for key in missed[:MAX_REPORTED]:
        print(f"{name}: check failed: {key}", file=sys.stderr)
    out["attempted"] = len(outcomes)
    out["failed"] = len(missed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
