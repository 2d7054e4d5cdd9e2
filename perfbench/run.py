"""The stablekron benchmark: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload rule-copieri --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Every repetition of a workload runs in a fresh interpreter
(perfbench/child.py), so the package's module-level memos start cold as
they do for every `stablekron` command.  One child runs at a time and
nothing runs in threads.  Repetitions continue until --seconds have been
spent (at least MIN_REPS).

Times are in reference seconds (perfbench/probe.py): the child runs a
fixed CPU-speed probe before and after every call and every 0.25 s
during one, and scales each stretch of the call by PROBE_REFERENCE_S
over the probes around it, so that other tenants of a shared host,
which slow its CPU by up to half for seconds at a time, do not move the
figures.  Every repetition makes the same calls in the same order from
cold memos, so call i does the same work in each; its time is the
median over repetitions.  wall_s is the sum of those per-call times,
call_p50_s their median, setup_s the median of every child's scaled
set-up time and peak_rss_mb the median over repetitions.  The table also
gives the unscaled wall time.  Traced calls are scaled by the probes
before and after them only; trace.wall_s is in reference seconds, to be
compared with wall_s, and the per-layer self times are raw seconds.

With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of traced children.  Without --workload every
workload runs in turn.  Each result is a table of metrics, with units
and sample counts, then one JSON line: correct, attempted, failed and
metrics.  The exit code is 1 when a result is wrong or an attribution
check fails, and 2 when ./src/stablekron is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from probe import PROBE_REFERENCE_S

CHILD = Path(__file__).resolve().parent / "child.py"

WORKLOADS = ("rule-copieri", "rule-maxdepth", "oracle-scan", "verify-sweep")
END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
}
DEFAULT_SEED = 1
MIN_REPS = 2          # so that counts can be compared between repetitions
SETUP_PROBES = 3      # children that only import the package, per repetition
DEADLINE_S = 170      # a run ends well within 180 s


class BenchError(RuntimeError):
    """A child failed to run or to report."""


def attribution_errors(workload: str, layers: dict) -> list:
    """Why the traced run did not do what the workload was chosen for."""
    errors = []
    keep = layers["branching.radical_keep_ratio"]
    if workload == "rule-copieri" and not keep < 0.05:
        errors.append(f"radical keep ratio {keep} is not below 0.05")
    if workload == "rule-maxdepth" and keep != 1.0:
        errors.append(f"radical keep ratio {keep} is not 1.0")
    if workload == "oracle-scan":
        for name in ("branching.enumerate_std.calls",
                     "tableaux.swap_adjacent.calls"):
            if layers[name]:
                errors.append(f"{name} is {layers[name]}, not 0")
    if workload == "verify-sweep" and not layers["diagalg.multiply.calls"]:
        errors.append("diagalg.multiply.calls is 0")
    return errors


def make_inputs(workload: str, seed: int):
    """The seeded inputs and the reference value of each call."""
    import workloads  # imports the package, so only once src is on the path
    if workload == "verify-sweep":
        return [workloads.VERIFY_ARGS], [[workloads.VERIFY_CHECKS, 0]]
    triples = workloads.GENERATORS[workload](random.Random(seed))
    refs = workloads.references(workload, triples)
    return [[list(p) for p in t] for t in triples], refs


class Runner:
    """Starts children one at a time, within the run's deadline."""

    def __init__(self, root: Path):
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.cwd = root

    def child(self, job) -> tuple[float, dict]:
        """Run one child; return its set-up time and its report."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("deadline reached")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD)], input=json.dumps(job),
                capture_output=True, text=True, env=self.env, cwd=self.cwd,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("child did not finish before the deadline")
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        return report["ready"] - start, report


def scaled(seconds: float, probes: list) -> float:
    """`seconds` in reference seconds, given the times of probes run
    next to it."""
    return seconds * PROBE_REFERENCE_S / statistics.median(probes)


def scaled_calls(rep: dict) -> list:
    """Each call of one repetition in reference seconds."""
    return [ref_s for _, _, ref_s in rep["calls"]]


def median_calls(reps) -> list:
    """Each call's scaled time, median over the repetitions."""
    return [statistics.median(times)
            for times in zip(*(scaled_calls(r) for r in reps))]


def tail(values):
    """The highest of p90 and p99 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4g}"
    return None


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    runner = Runner(root)
    inputs, refs = make_inputs(workload, seed)
    setups = []
    job = {"workload": workload, "inputs": inputs, "trace": trace}

    reps, errors = [], []
    attempted = failed = 0
    begun = time.monotonic()
    while len(reps) < MIN_REPS or (
            time.monotonic() - begun
            + statistics.median(r["elapsed"] for r in reps) <= seconds):
        t0 = time.monotonic()
        for _ in range(SETUP_PROBES):
            setup, report = runner.child(None)
            setups.append(scaled(setup, report["probes"]))
        setup, report = runner.child(job)
        report["elapsed"] = time.monotonic() - t0
        setups.append(scaled(setup, report["probes"][:1]))
        reps.append(report)
        for (_, got, _), want in zip(report["calls"], refs):
            attempted += 1
            if got != want:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"got {got}, want {want}")

    calls = median_calls(reps)
    summary = {
        "workload": workload, "seed": seed, "reps": len(reps),
        "attempted": attempted, "failed": failed, "errors": errors,
        "samples": {"setup_s": len(setups), "wall_s": len(reps),
                    "call_p50_s": len(calls), "peak_rss_mb": len(reps)},
        "call_tail": tail(calls),
        "unscaled_wall_s": statistics.median(r["wall_s"] for r in reps),
    }
    if trace:
        metrics = layer_metrics(workload, reps, errors)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(calls),
            "call_p50_s": statistics.median(calls),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }
    return summary, metrics


def layer_metrics(workload: str, reps: list, errors: list) -> dict:
    """Counts of the first traced repetition -- every repetition must
    agree -- and medians of the times."""
    layers = [dict(r["layers"]) for r in reps]
    for layer, rep in zip(layers, reps):
        dt, value, _ = rep["calls"][0]
        verified = workload == "verify-sweep" and isinstance(value, list)
        layer["cli.verify.checks"] = value[0] if verified else 0
        layer["cli.verify.time_s"] = dt if verified else 0.0
        layer["trace.wall_s"] = sum(scaled_calls(rep))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        values = [layer[name] for layer in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between repetitions: {values}")
            metrics[name] = values[0]
    errors.extend(attribution_errors(workload, metrics))
    return metrics


def report(summary: dict, metrics: dict, trace: bool) -> bool:
    """Print the metric table and the JSON result line; True if correct."""
    units = tracing.LAYER_METRICS if trace else END_TO_END
    correct = not summary["errors"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"repetitions {summary['reps']}  "
          f"{'traced' if trace else 'untraced'}")
    for name, unit in units.items():
        samples = summary["samples"].get(name, summary["reps"])
        extra = f"  {summary['call_tail']}" if (
            name == "call_p50_s" and summary["call_tail"]) else ""
        print(f"  {name:40s} {metrics[name]:>14.6g} {unit:6s} "
              f"n={samples}{extra}")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"n={attempted}")
    print(f"  {'unscaled wall_s':40s} {summary['unscaled_wall_s']:>14.6g} "
          f"{'s':6s} n={summary['reps']}")
    for error in summary["errors"]:
        print(f"  ERROR {error}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stablekron" / "__init__.py").is_file():
        print("error: run from the root of a stablekron checkout "
              "(no src/stablekron here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            summary, metrics = run_workload(root, workload, args.seed,
                                            args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        ok = report(summary, metrics, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
