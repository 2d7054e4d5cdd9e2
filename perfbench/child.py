"""One repetition of a benchmark workload in a fresh interpreter.

Reads a job from stdin as JSON -- {"workload", "inputs", "trace"}, or
null to only measure set-up -- makes each public call in order, and
prints one JSON line: the monotonic time at which `stablekron` and
`stablekron.cli` had been imported, the wall time of the calls, the time
and result of each call and its time in reference seconds (probe.py),
the times of the CPU-speed probes run first after set-up, peak resident
memory and, when traced, the per-layer metrics.  Traced calls are not
interrupted by probes, so that they add nothing to the traced spans.
The package comes from PYTHONPATH.
"""

import sys
import time

import stablekron
import stablekron.cli

READY = time.monotonic()

# Everything below is imported after the set-up timestamp on purpose.
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from probe import Clock, probe  # noqa: E402


def call(workload: str, item):
    """One public call; verify-sweep returns [checks, failures]."""
    if workload == "verify-sweep":
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                stablekron.cli.main(item, standalone_mode=False)
        except SystemExit:
            pass  # `verify` exits 1 after printing its report on failures
        report = json.loads(out.getvalue())
        return [report["checks"], len(report["failures"])]
    lam, nu, mu = (tuple(p) for p in item)
    if workload == "oracle-scan":
        return stablekron.oracle.stable_kronecker_oracle(lam, nu, mu).value
    return stablekron.tableaux.stable_kronecker(lam, nu, mu)


def guarded(workload: str, item):
    """The call's value, or {"error": ...} if it raises."""
    try:
        return call(workload, item)
    except Exception as exc:  # counted as a failed call by the parent
        return {"error": f"{type(exc).__name__}: {exc}"}


def run(workload: str, inputs, clock: Clock) -> tuple[float, list]:
    """Wall time of all calls and [seconds, value, reference seconds]
    per call."""
    results = []
    for item in inputs:
        value, elapsed, scaled = clock.time(lambda: guarded(workload, item))
        results.append([elapsed, value, scaled])
    return sum(elapsed for elapsed, _, _ in results), results


def main():
    job = json.load(sys.stdin)
    report = {"ready": READY}
    if job is None:
        report["probes"] = [probe() for _ in range(3)]
    else:
        clock = Clock(in_call=not job["trace"])
        if job["trace"]:
            import tracing
            tracer = tracing.Tracer()
            with tracer.installed():
                wall, calls = run(job["workload"], job["inputs"], clock)
            report["layers"] = tracer.layer_metrics()
        else:
            wall, calls = run(job["workload"], job["inputs"], clock)
        report.update(wall_s=wall, calls=calls, probes=[clock.first])
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
