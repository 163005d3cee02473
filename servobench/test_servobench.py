"""The benchmark's own tests: every metric is printed with its unit, and
each output check fails on a wrong input.

    python3 -m pytest servobench -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from wbosc.config import load_config  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("servobench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[0].split(" ", 1)[1])
    reference = json.loads(lines[1].split(" ", 1)[1])
    return host, reference, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    host, reference, result = _run(workload, trace)
    assert set(host) == {"seed", "cpus", "python", "numpy", "blas",
                         "blas_threads"}
    assert host["seed"] == 7
    assert reference["cycles_per_s"]["unit"] == "1/s"
    assert reference["cycles_per_s"]["value"] > 0
    for label in ("cycle_ms", "model_age_ms", "goal_latency_ms"):
        figures = reference[label]
        assert figures["unit"] == "ms" and figures["n"] > 0
        assert 0 < figures["p50"] <= figures["p90"] <= figures["p99"] \
            <= figures["max"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert np.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0


def test_benchmark_file_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {"setup_s", "cycle_ms_p50", "peak_rss_mb"} \
        == {m["name"] for m in BENCHMARK["end_to_end"]}


# -- each check fails on a wrong input ------------------------------------------------

@pytest.fixture(scope="module")
def paper():
    """A single-threaded dreamer22 controller at the seeded frozen pose."""
    w = workloads.PaperLatency(seed=3, seconds=1)
    with w.build(single_threaded=True) as ctl:
        w.ctl = ctl
        w.prepare()
        ctl.start()
        ctl.run(cycles=2)
        effort = ctl.runtime.last_result.command.effort.copy()
        residual = w._level0_residual(ctl, effort)
        yield w, ctl, effort, residual
        w.ctl = None


def test_perturbed_command_matches_no_reference(paper):
    _, _, effort, _ = paper
    assert checks.reference_index(effort.copy(), (effort,)) == 0
    wrong = effort.copy()
    wrong[5] += 1e-6
    assert checks.reference_index(wrong, (effort,)) == -1


def test_perturbed_command_does_not_realise_level0(paper):
    w, ctl, effort, residual = paper
    assert residual <= checks.REALISED_TOL
    wrong = effort.copy()
    wrong[5] += 1e-6
    assert w._level0_residual(ctl, wrong) > checks.REALISED_TOL


def test_pendulum_closed_form_rejects_a_perturbed_effort():
    w = workloads.BindingLoop(seed=1, seconds=0.3)
    try:
        w.setup()
        w.measure()
        w.check()
        assert w.tally.failed == 0, w.tally.reasons
        w.tau[w.first + 3] += 1e-6
        w.tally = checks.Tally()
        w.check()
        assert w.tally.failed == 1
        assert "closed form" in w.tally.reasons[0]
    finally:
        w.shutdown()


def test_withheld_datagram_is_found():
    assert checks.datagrams_accounted(500, 500, 0)
    assert not checks.datagrams_accounted(499, 500, 0)
    # a dropped entry may explain a missing datagram, never an extra one
    assert checks.datagrams_accounted(499, 500, 3)
    assert not checks.datagrams_accounted(501, 500, 3)
    assert not checks.datagrams_accounted(0, 0, 0)


def test_goal_never_applied_fails():
    w = workloads.BindingLoop(seed=3, seconds=0.3)
    send = w.send_goal
    w.send_goal = lambda goal: None if w.goals_sent == 2 else send(goal)
    try:
        w.setup()
        w.measure()
        w.check()
        assert w.tally.failed == 1
        assert "not applied" in w.tally.reasons[0]
    finally:
        w.shutdown()


def test_undecodable_datagrams_are_rejected():
    good = checks.encode_publish("errors/posture", [0.25])
    assert checks.decode_publish(good)[0] == "errors/posture"
    for bad in (good[:-1], good + b"\0", b"XXXX" + good[4:]):
        with pytest.raises(ValueError):
            checks.decode_publish(bad)


def test_torso_off_its_ratio_and_effort_over_limit_fail():
    w = workloads.DisassemblyTracking(seed=1, seconds=0.3)
    spec = load_config(w.config)
    assert spec.framework.enforce_effort_limits
    w.first = 0
    w.runtime = type("R", (), {"cycle_count": 2})()
    w.reached = []
    w.hand_errors = lambda goals, q, model: [0.0, 0.0]
    w.settled = (None, None)
    w.efforts[:2] = 0.0
    w.torso[:2] = [[0.1, 0.1], [0.1, 0.1 + 1e-6]]
    w.efforts[1, 0] = w.limits[0] * 1.01
    w.check()
    assert w.tally.failed == 2
