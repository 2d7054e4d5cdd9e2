"""Tests of the benchmark's input generators and traced-run helper.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import random
import signal
import time

import pytest

import child
import probe
import run
import tracing
import workloads

SMALL = {
    "rule-copieri": [[[2], [3], [2, 1]], [[3], [2], [3, 1, 1]]],
    "rule-maxdepth": [[[1], [3, 1], [2, 1]], [[2], [4, 2, 1], [3, 2]]],
    "oracle-scan": [[[1, 1], [2], [3, 2, 1]], [[2, 1], [2, 1], [2, 1, 1]]],
    "verify-sweep": [["verify", "--max-size", "2", "--max-s", "2",
                      "--thm33-r", "2", "--emit", "json"]],
}


def wrapped_names():
    return [(importlib.import_module(f"stablekron.{module}"), attr)
            for module, attr, _, _ in tracing.WRAPS]


@pytest.mark.parametrize("fail", [False, True])
def test_removal_restores_every_wrapped_name(fail):
    names = wrapped_names()
    originals = [getattr(module, attr) for module, attr in names]
    try:
        with tracing.Tracer().installed():
            for (module, attr), fn in zip(names, originals):
                assert getattr(module, attr) is not fn
            if fail:
                raise RuntimeError("abandon the traced run")
    except RuntimeError:
        assert fail
    for (module, attr), fn in zip(names, originals):
        assert getattr(module, attr) is fn


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_returns_untraced_results(workload):
    _, plain = child.run(workload, SMALL[workload], probe.Clock())
    tracer = tracing.Tracer()
    with tracer.installed():
        _, traced = child.run(workload, SMALL[workload],
                              probe.Clock(in_call=False))
    assert [value for _, value, _ in traced] == [value for _, value, _ in plain]
    assert not any(isinstance(value, dict) for _, value, _ in plain)
    assert tracer.spans
    layers = tracer.layer_metrics()
    assert set(layers) | {"cli.verify.checks", "cli.verify.time_s",
                          "trace.wall_s"} == set(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_inputs(workload):
    draw = workloads.GENERATORS[workload]
    assert draw(random.Random(5)) == draw(random.Random(5))


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


@pytest.mark.parametrize("in_call", [False, True])
def test_clock_leaves_probes_out_of_the_call_time(in_call):
    clock = probe.Clock(in_call)
    start = time.perf_counter()
    result, raw, scaled = clock.time(lambda: busy(0.6))
    assert result == "done"
    assert raw == pytest.approx(0.6 - clock.paused, abs=0.02)
    assert (clock.paused > 0) == in_call
    assert (len(clock.stretches) > 1) == in_call
    assert scaled > 0
    assert time.perf_counter() - start > raw
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_calls_take_the_median_of_their_scaled_times():
    reps = [{"calls": [[0.5, 1, 0.2], [0.9, 2, 0.4]]},
            {"calls": [[0.4, 1, 0.3], [0.8, 2, 0.5]]},
            {"calls": [[0.6, 1, 0.1], [0.7, 2, 0.3]]}]
    assert run.median_calls(reps) == pytest.approx([0.2, 0.4])
