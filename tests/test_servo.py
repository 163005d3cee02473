import multiprocessing
import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from wbosc import fixtures
from wbosc.assembly import build_from_files
from wbosc.config import load_config
from wbosc.constraints import Constraint
from wbosc.model import RobotState
from wbosc.servo import (LockstepClock, MonotonicClock, ServoError,
                         ServoHooks, make_clock)


class FrozenInterface:
    """Robot that never moves; write() is a sink."""

    def __init__(self, n_joints, position=None):
        self.state = RobotState(0.0,
                                np.zeros(n_joints) if position is None
                                else np.asarray(position, dtype=float),
                                np.zeros(n_joints), np.zeros(n_joints))
        self.last_effort = None
        self.writes = 0

    def read(self):
        return self.state.copy()

    def write(self, command):
        self.last_effort = command.effort.copy()
        self.writes += 1


def build_pend(single_threaded=None, interface=None, hooks=None,
               worker_delay=None, frequency=None, udp_port=None):
    text = fixtures.read_config("pend1_posture")
    if frequency is not None:
        text = text.replace("servo_frequency: 1000",
                            f"servo_frequency: {frequency}")
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    spec = load_config(text)
    description = load_description(fixtures.read_robot("pend1"))
    return AssembledController(description, spec, interface=interface,
                               single_threaded=single_threaded, hooks=hooks,
                               worker_delay=worker_delay, udp_port=udp_port)


def build_dreamer(config="dreamer22_posture", **kwargs):
    return build_from_files(fixtures.config_path(config),
                            fixtures.robot_path("dreamer22"), **kwargs)


# -- clocks ---------------------------------------------------------------------

def test_lockstep_exact_time():
    clock = LockstepClock(1000.0)
    for _ in range(1000):
        clock.tick()
    assert clock.now() == pytest.approx(1.0, abs=1e-12)


def test_lockstep_thousand_cycles_no_jitter():
    ctl = build_pend(single_threaded=True)
    with ctl:
        ctl.start()
        ctl.run(cycles=1000)
        assert ctl.clock.now() == pytest.approx(1.0, abs=1e-12)
        assert ctl.runtime.cycle_count == 1000


def test_monotonic_clock_sleeps_and_counts_overruns():
    clock = MonotonicClock(200.0)
    t0 = time.monotonic()
    for _ in range(10):
        clock.tick()
    elapsed = time.monotonic() - t0
    assert elapsed >= 0.04   # at least ~9 periods of 5 ms
    slow = MonotonicClock(1000.0)
    slow.tick()
    time.sleep(0.01)
    slow.tick()
    assert slow.overruns >= 1


def test_unknown_clock_kind():
    with pytest.raises(Exception):
        make_clock("bogus", 100.0)


# -- init ------------------------------------------------------------------------

def test_single_threaded_starts_no_workers():
    ctl = build_pend(single_threaded=True)
    with ctl:
        ctl.start()
        assert ctl.runtime.model_worker is None
        assert ctl.runtime.task_worker is None
        assert ctl.runtime.model_process is None
        ctl.run(cycles=5)
        assert multiprocessing.active_children() == []


def test_multi_threaded_first_cycle_fresh_model():
    ctl = build_dreamer()
    with ctl:
        ctl.start()
        result = ctl.runtime.servo_update()
        assert not result.suppressed
        assert ctl.runtime.clock.now() - ctl.runtime.last_model_swap_time \
            <= ctl.runtime.period + 1e-12


THREAD_NAMES = ("model-updater", "publisher", "udp-transport")


def test_close_stops_every_thread():
    before = set(threading.enumerate())
    ctl = build_pend(udp_port=0)
    with ctl:
        ctl.start()
        ctl.run(cycles=5)
        started = [t for t in threading.enumerate() if t not in before]
        names = sorted(t.name for t in started)
        assert names.count("model-updater") == 1
        assert set(names) == set(THREAD_NAMES)
    alive = [t.name for t in started if t.is_alive()]
    assert alive == []


def test_missing_robot_description_fails_before_start(tmp_path):
    from wbosc.assembly import build_from_files
    with pytest.raises(FileNotFoundError):
        build_from_files(fixtures.config_path("pend1_posture"),
                         tmp_path / "missing.yaml")


# -- cycle behavior -----------------------------------------------------------------

def test_busy_model_worker_never_blocks_cycle():
    ctl = build_pend(worker_delay=lambda: 0.25)
    with ctl:
        ctl.start()
        latencies = []
        for _ in range(5):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            latencies.append(ctl.clock.now()
                             - ctl.runtime.last_model_swap_time)
        # the worker is still sleeping: no swaps, staleness grows by a period
        # every cycle, and the servo never waited on it
        assert ctl.runtime.stats.model_swaps == 0
        assert latencies == sorted(latencies)
        assert ctl.runtime.stats.servo_blocking_acquires == 0


def test_nan_command_suppressed_and_error_published():
    ctl = build_pend(single_threaded=True)
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=2)
        ctl.registry.require("posture.goalPosition").set(np.array([np.nan]))
        ctl.run(cycles=3)
        assert ctl.flush()
    assert ctl.runtime.stats.suppressed_commands >= 1
    assert errors


def test_staleness_bound_under_lockstep():
    # worker delays below one period: the active model is swapped at most
    # two periods after the state it was computed from was read
    ctl = build_pend(worker_delay=lambda: 0.002, frequency=100)
    with ctl:
        ctl.start()
        worst = 0.0
        for _ in range(50):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            time.sleep(0.01)   # pace wall time to the simulated period
            worst = max(worst, ctl.clock.now()
                        - ctl.runtime.last_model_swap_time)
        assert worst <= 2.0 * ctl.runtime.period + 1e-9
        assert ctl.runtime.stats.servo_blocking_acquires == 0


# -- update epochs and the reply sequence ------------------------------------------

def mixed_epoch_cycles(ctl, cycles):
    """Runs ``cycles`` lockstep closed-loop cycles; returns how many
    computed their command from a model copy and enabled-task states that
    carry different stamps."""
    runtime = ctl.runtime
    mixed = 0
    for _ in range(cycles):
        result = runtime.servo_update()
        ctl.clock.tick()
        stamp = runtime.active.model.stamp
        if result.command is not None and any(
                task.active_state.model_stamp != stamp
                for task in ctl.compound.tasks() if task.enabled):
            mixed += 1
    return mixed


EPOCH_BUILDS = {"pend1": build_pend,
                "dreamer22_disassembly": partial(
                    build_dreamer, config="dreamer22_disassembly")}


@pytest.mark.parametrize("robot", EPOCH_BUILDS)
def test_every_command_uses_one_update_epoch(robot):
    ctl = EPOCH_BUILDS[robot]()
    with ctl:
        ctl.start()
        assert mixed_epoch_cycles(ctl, 2000) == 0
        stats = ctl.runtime.stats
        assert stats.model_swaps > 0
        assert stats.suppressed_commands == 0
        assert stats.lost_task_updates == 0
        assert stats.servo_blocking_acquires == 0


def run_two_stagings_before_a_round():
    """Stages twice while the model worker waits at its gate, after its
    first trigger: the second trigger asks for a round that would overwrite
    the first round's reply before the servo swapped it in.  Returns
    (whether staging was refused while that reply waited, the lost-update
    count after the swap, the swapped reply's sequence step)."""
    arrived = threading.Event()
    gate = threading.Event()

    def hold():
        arrived.set()
        gate.wait(5.0)

    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]),
                     hooks=ServoHooks(model_worker_gate=hold))
    with ctl:
        ctl.start()
        runtime = ctl.runtime
        try:
            first = runtime.active.seq
            ctl.run(cycles=1)
            assert arrived.wait(5.0)
            ctl.run(cycles=1)           # the second trigger
        finally:
            gate.set()
        assert runtime.wait_idle()
        assert runtime.model_worker.rounds == 2
        assert runtime.buffers.update_ready
        skips = runtime.stats.staging_skips
        refused = not runtime._stage_model_update(ctl.interface.read()) \
            and runtime.stats.staging_skips == skips + 1
        result = runtime.servo_update()
        assert result.model_swapped
        return refused, runtime.stats.lost_task_updates, \
            runtime.active.seq - first


def test_a_waiting_reply_is_never_overwritten():
    refused, lost, step = run_two_stagings_before_a_round()
    assert refused
    assert lost == 0
    assert step == 1


# -- multi/single equivalence ----------------------------------------------------------

def test_frozen_state_multi_single_equivalence():
    commands = {}
    for mode in (True, False):
        iface = FrozenInterface(16, position=[0.08, 0.08,
                                              -0.3, -0.15, 0.0, -1.3, 0, 0, 0,
                                              -0.3, 0.15, 0.0, -1.3, 0, 0, 0])
        ctl = build_dreamer(config="dreamer22_disassembly", interface=iface,
                            single_threaded=mode)
        with ctl:
            ctl.start()
            for _ in range(50):
                ctl.runtime.servo_update()
                ctl.clock.tick()
                if not mode:
                    time.sleep(0.001)   # let the workers converge
            commands[mode] = iface.last_effort
    assert np.abs(commands[True] - commands[False]).max() < 1e-12


# -- stress (short version; the acceptance suite runs the long one) ---------------------

def test_randomized_stress_no_blocking_no_losses():
    rng = np.random.default_rng(0)
    iface = FrozenInterface(1)
    ctl = build_pend(interface=iface,
                     worker_delay=lambda: float(rng.uniform(0.0, 0.0004)))
    with ctl:
        ctl.start()
        first = ctl.runtime.active.seq
        for _ in range(3000):
            ctl.runtime.servo_update()
            ctl.clock.tick()
        assert ctl.runtime.stats.servo_blocking_acquires == 0
        assert ctl.runtime.stats.lost_task_updates == 0
        assert ctl.runtime.stats.model_swaps > 0
        # every swap installed the next reply: none skipped, none twice
        assert ctl.runtime.active.seq == first + ctl.runtime.stats.model_swaps


def test_phase_stats_recorded():
    ctl = build_pend(single_threaded=True)
    with ctl:
        ctl.start()
        ctl.run(cycles=50)
        stats = ctl.runtime.phase_stats()
    for phase in ("read", "update_model", "compute_command", "emit_events",
                  "write", "total", "compute_command_cpu"):
        assert phase in stats
        median, p99 = stats[phase]
        assert 0.0 <= median <= p99


# -- reuse of the effort, yielding, and goals between model swaps ---------------------

def record_yields(monkeypatch):
    """Counts time.sleep(0) calls made by this (the servo) thread."""
    yields = []
    sleep = time.sleep
    servo = threading.get_ident()

    def recording(seconds):
        if seconds == 0 and threading.get_ident() == servo:
            yields.append(seconds)
        sleep(seconds)

    monkeypatch.setattr(time, "sleep", recording)
    return yields


def test_single_threaded_recomputes_every_cycle(monkeypatch, ladder_calls):
    yields = record_yields(monkeypatch)
    ctl = build_pend(single_threaded=True)
    with ctl:
        ctl.start()
        for _ in range(20):
            ctl.run(cycles=1)
            # a publisher more than BEHIND entries behind is handed the GIL
            # by enqueue, a yield of its own; draining it between cycles
            # leaves only the servo's quiet-cycle yield to count
            assert ctl.publisher.flush()
    assert len(ladder_calls) == 20
    assert yields == []


def held_model_worker():
    """A multi-threaded pend1 controller whose model worker waits at its
    gate until the returned event is set: no model is ever swapped."""
    gate = threading.Event()
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface,
                     hooks=ServoHooks(model_worker_gate=lambda: gate.wait(5.0)))
    return ctl, iface, gate


def run_until(ctl, done, cycles=2000):
    for _ in range(cycles):
        result = ctl.runtime.servo_update()
        ctl.clock.tick()
        if done(result):
            return result
        time.sleep(1e-4)
    return None


def test_goal_reaches_command_without_model_swap():
    ctl, iface, gate = held_model_worker()
    with ctl:
        try:
            ctl.start()
            ctl.run(cycles=5)
            before = iface.last_effort.copy()
            ctl.bus.publish("goals/posture", np.array([0.6]))
            result = ctl.runtime.servo_update()     # drains the goal
            assert result.goals_updated and not result.suppressed
            assert not np.array_equal(iface.last_effort, before)
            assert ctl.runtime.stats.model_swaps == 0
            assert not ctl.runtime.model_worker.idle()
        finally:
            gate.set()


# the right elbow 0.1 rad off the posture goal, so that the posture and the
# right-hand tasks have an error for a gain to act on
POSE = [0.08, 0.08, -0.3, -0.15, 0.0, -1.2, 0, 0, 0,
        -0.3, 0.15, 0.0, -1.3, 0, 0, 0]

INPUTS = {
    "goal": ("rightHandPosition.goalPosition",
             lambda value: value + np.array([0.0, 0.0, 0.05])),
    "gain": ("posture.kp", lambda value: 0.5 * value),
    "enabled": ("leftHandOrientation.enabled", lambda value: not value),
}


@pytest.mark.parametrize("kind", INPUTS)
def test_input_is_in_the_command_of_the_cycle_that_drains_it(kind):
    """Multi-threaded with the model worker held, so nothing is swapped,
    against single-threaded at the same frozen state: the input staged
    before a cycle is in that cycle's command in both."""
    name, change = INPUTS[kind]
    gate = threading.Event()
    multi = build_dreamer(
        config="dreamer22_disassembly", interface=FrozenInterface(16, POSE),
        hooks=ServoHooks(model_worker_gate=lambda: gate.wait(5.0)))
    single = build_dreamer(config="dreamer22_disassembly",
                           interface=FrozenInterface(16, POSE),
                           single_threaded=True)
    with multi, single:
        try:
            for ctl in (multi, single):
                ctl.start()
                ctl.run(cycles=5)
            before = single.runtime.last_result.command.effort.copy()
            for ctl in (multi, single):
                ctl.registry.stage_input(
                    name, change(ctl.registry.require(name).value))
                result = ctl.runtime.servo_update()
                assert result.goals_updated and not result.suppressed
            effort = single.runtime.last_result.command.effort
            assert not np.allclose(effort, before)
            np.testing.assert_allclose(
                multi.runtime.last_result.command.effort, effort,
                rtol=0, atol=1e-12)
            assert multi.runtime.stats.model_swaps == 0
        finally:
            gate.set()


REFUSED = {
    "kp-length": ("posture.kp", [1.0, 2.0]),
    "kp-negative": ("posture.kp", [-1.0]),
    "goal-length": ("posture.goalPosition", [0.1, 0.2]),
}


@pytest.mark.parametrize("single_threaded", [True, False],
                         ids=["single", "multi"])
@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_is_skipped_and_the_loop_keeps_cycling(case,
                                                             single_threaded):
    name, value = REFUSED[case]
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface, single_threaded=single_threaded)
    warnings = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/warnings", warnings.append)
        ctl.run(cycles=5)
        good = iface.last_effort.copy()
        kept = ctl.registry.require(name).value.copy()
        ctl.registry.stage_input(name, value)
        ctl.run(cycles=20)
        assert ctl.runtime.cycle_count == 25
        assert ctl.runtime.stats.suppressed_commands == 0
        assert np.array_equal(iface.last_effort, good)
        np.testing.assert_array_equal(ctl.registry.require(name).value, kept)
        assert ctl.registry.refused_inputs == 1
        assert ctl.flush()
    assert [w for w in warnings if w.startswith(f"input {name!r} refused")]


def test_reused_cycles_yield_to_a_running_worker(monkeypatch, ladder_calls):
    ctl, iface, gate = held_model_worker()
    with ctl:
        try:
            ctl.start()
            ctl.run(cycles=1)       # stages a model round: the worker waits
            del ladder_calls[:]
            yields = record_yields(monkeypatch)
            quiet = 0
            for _ in range(10):
                before = len(yields)
                result = ctl.runtime.servo_update()
                ctl.clock.tick()
                if not (result.goals_updated or result.model_swapped):
                    quiet += 1
                    assert len(yields) == before + 1
            assert quiet and len(yields) == quiet
            # a quiet cycle reuses the last effort
            assert len(ladder_calls) == 10 - quiet
        finally:
            gate.set()


GIL_RELEASING = ((np, "dot"), (np.linalg, "norm"), (np.linalg, "svd"),
                 (np.linalg, "eigh"))


def test_quiet_cycle_hands_the_gil_over_only_at_its_yield(monkeypatch,
                                                          ladder_calls):
    ctl, iface, gate = held_model_worker()
    runtime = ctl.runtime
    servo = threading.get_ident()
    releasing = []
    for owner, name in GIL_RELEASING:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            if threading.get_ident() == servo:
                releasing.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    received = {topic: [] for topic in runtime._diagnostics_topics}
    for topic, values in received.items():
        ctl.bus.subscribe(topic, values.append)
    with ctl:
        try:
            ctl.start()
            ctl.run(cycles=1)       # stages a model round: the worker waits
            assert ctl.publisher.flush()
            for values in received.values():
                del values[:]
            del ladder_calls[:], releasing[:]
            enqueued = []
            enqueue = ctl.publisher.enqueue

            def counting_enqueue(sink, topic, value, owner=None):
                if threading.get_ident() == servo:
                    enqueued.append(topic)
                enqueue(sink, topic, value, owner)

            monkeypatch.setattr(ctl.publisher, "enqueue", counting_enqueue)
            yields = record_yields(monkeypatch)
            expected = {topic: [] for topic in received}
            cycles = 50
            for k in range(1, cycles + 1):
                result = runtime.servo_update()
                idx = result.cycle % runtime._history_len
                now = ctl.clock.now()
                for topic, value in zip(runtime._diagnostics_topics, (
                        runtime._frequency[idx], runtime._cycle_latency[idx],
                        now - runtime.last_model_swap_time,
                        runtime.active.model.G, iface.state.position,
                        iface.last_effort)):
                    expected[topic].append(value)
                ctl.clock.tick()
                assert not (result.goals_updated or result.model_swapped)
                assert len(yields) == len(enqueued) == k
            assert ladder_calls == []       # every cycle reused the effort
            assert releasing == []
            assert enqueued == [runtime._diagnostics_topics] * cycles
            assert ctl.publisher.flush()
            for topic, values in received.items():
                assert len(values) == cycles, topic
                for got, want in zip(values, expected[topic]):
                    np.testing.assert_array_equal(got, want)
        finally:
            gate.set()


def test_nan_task_suppressed_every_cycle_and_last_command_held():
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface)
    with ctl:
        ctl.start()
        ctl.run(cycles=5)
        good = iface.last_effort.copy()
        ctl.bus.publish("goals/posture", np.array([np.nan]))
        first = run_until(ctl, lambda r: r.suppressed)
        assert first is not None, "the NaN goal never reached the controller"
        for _ in range(50):
            result = ctl.runtime.servo_update()
            ctl.clock.tick()
            assert result.suppressed and result.command is None
            assert np.array_equal(iface.last_effort, good)
            time.sleep(1e-4)
        assert ctl.runtime.stats.suppressed_commands >= 51


# -- worker failures ---------------------------------------------------------------

def run_until_error(ctl, errors, prefix, cycles=2000):
    for _ in range(cycles):
        ctl.runtime.servo_update()
        ctl.clock.tick()
        ctl.flush()
        if any(e.startswith(prefix) for e in errors):
            return True
        time.sleep(1e-4)
    return False


@pytest.mark.parametrize("single_threaded", [True, False],
                         ids=["single", "multi"])
def test_task_update_failure_publishes_and_updates_keep_landing(
        single_threaded):
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface, single_threaded=single_threaded)
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=5)
        good = iface.last_effort.copy()

        def broken(state, dt):
            raise RuntimeError("sensor frame missing")

        ctl.compound.task("posture")._update_goal = broken
        ctl.bus.publish("goals/posture", np.array([0.6]))
        result = ctl.runtime.servo_update()     # drains the goal
        ctl.clock.tick()
        assert result.suppressed
        assert ctl.flush()
        assert errors == ["task 'posture' update failed: sensor frame missing"]
        # the goal half stays due: every later cycle is suppressed too,
        # while model updates still land
        updated = ctl.runtime.last_model_swap_time
        for _ in range(2000):
            result = ctl.runtime.servo_update()
            ctl.clock.tick()
            assert result.suppressed
            if ctl.runtime.last_model_swap_time > updated:
                break
            time.sleep(1e-4)
        assert ctl.runtime.last_model_swap_time > updated
        assert np.array_equal(iface.last_effort, good)


def test_model_update_failure_publishes_and_swaps_nothing():
    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]))
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=5)

        def broken(q_act, qd_act, stamp):
            raise RuntimeError("joint state out of range")

        for servo_model in (ctl.runtime.buffers.active,
                            ctl.runtime.buffers.inactive):
            servo_model.update = broken
        # a round that began before the break may still land once
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        swaps = ctl.runtime.stats.model_swaps
        rounds = ctl.runtime.model_worker.rounds
        assert run_until_error(ctl, errors, "model update failed")
        assert "model update failed: joint state out of range" in errors
        ctl.run(cycles=50)
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        assert ctl.runtime.stats.model_swaps == swaps
        assert not ctl.runtime.buffers.update_ready
        assert ctl.runtime.model_worker.rounds > rounds


# -- the model process ----------------------------------------------------------------

def test_second_start_raises_and_starts_nothing():
    before = set(threading.enumerate())
    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]))
    with ctl:
        ctl.start()
        process = ctl.runtime.model_process
        with pytest.raises(ServoError):
            ctl.start()
        with pytest.raises(ServoError):
            ctl.runtime.servo_init()
        assert ctl.runtime.model_process is process
        assert [p.pid for p in multiprocessing.active_children()] \
            == [process.pid]
        names = [t.name for t in threading.enumerate() if t not in before]
        assert names.count("model-updater") == 1
        ctl.run(cycles=5)


def assert_exited(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_close_ends_the_model_process_and_stop_is_idempotent():
    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]))
    with ctl:
        ctl.start()
        ctl.run(cycles=20)
        pid = ctl.runtime.model_process.pid
        assert [p.pid for p in multiprocessing.active_children()] == [pid]
    assert multiprocessing.active_children() == []
    assert_exited(pid)
    ctl.runtime.stop()
    ctl.close()
    assert multiprocessing.active_children() == []


def test_run_matrix_ends_every_model_process():
    from wbosc.bench import run_matrix
    children = []

    def progress(text):
        if text == "round 1/20":
            children.extend(p.pid for p in multiprocessing.active_children())

    run_matrix(fixtures.robot_path("dreamer22"), cycles=20, progress=progress)
    assert len(children) == 6       # one per multi-threaded cell, all at once
    assert multiprocessing.active_children() == []
    for pid in children:
        assert_exited(pid)


class OfflineSensorConstraint(Constraint):
    """A constraint whose Jacobian cannot be read; added disabled."""

    type_name = "OfflineSensorConstraint"
    constrained_dof_count = 1

    def jacobian(self, model, out=None):
        raise RuntimeError("contact sensor offline")


def assert_model_failure_is_contained(ctl, iface, errors, expected):
    """The next model rounds fail with ``expected``: nothing is swapped,
    the servo never blocks and keeps cycling on the last good command."""
    runtime = ctl.runtime
    good = iface.last_effort.copy()
    # a round that began before the break may still land once
    assert runtime.wait_idle()
    ctl.run(cycles=1)
    swaps = runtime.stats.model_swaps
    rounds = runtime.model_worker.rounds
    cycles = runtime.cycle_count
    assert run_until_error(ctl, errors, "model update failed")
    assert f"model update failed: {expected}" in errors
    ctl.run(cycles=50)
    assert runtime.wait_idle()
    ctl.run(cycles=1)
    assert runtime.stats.model_swaps == swaps
    assert not runtime.buffers.update_ready
    assert runtime.model_worker.rounds > rounds
    assert runtime.cycle_count > cycles + 50
    assert runtime.stats.servo_blocking_acquires == 0
    assert np.isfinite(iface.last_effort).all()
    assert np.array_equal(iface.last_effort, good)


def test_model_process_update_error_is_published():
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface)
    offline = OfflineSensorConstraint("footSensor")
    offline.enabled = False
    for servo_model in ctl.model_pair:
        servo_model.constraints.add(offline)
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=5)
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        # the constraint objects travel with each request, so the flag
        # set here reaches the model process
        offline.enabled = True
        assert_model_failure_is_contained(ctl, iface, errors,
                                          "contact sensor offline")
        assert [p.pid for p in multiprocessing.active_children()] \
            == [ctl.runtime.model_process.pid]


def test_killed_model_process_is_published():
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface)
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=5)
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        os.kill(ctl.runtime.model_process.pid, signal.SIGKILL)
        assert_model_failure_is_contained(ctl, iface, errors,
                                          "the model process has exited")
    assert multiprocessing.active_children() == []


def test_constraint_parameters_reach_both_model_copies():
    posture = load_config(fixtures.read_config("dreamer22_posture")) \
        .task("posture").parameters["goalPosition"]
    multi = build_dreamer(interface=FrozenInterface(16, posture))
    single = build_dreamer(interface=FrozenInterface(16, posture),
                           single_threaded=True)
    with multi, single:
        multi.start()
        single.start()
        multi.run(cycles=5)
        for inputs, rows in (({"transmissionRatio": 2.0, "enabled": False}, 6),
                             ({"enabled": True}, 7)):
            for ctl in (multi, single):
                for name, value in inputs.items():
                    ctl.registry.stage_input(f"torsoTransmission.{name}",
                                             value)
                ctl.run(cycles=1)
            reference = single.runtime.last_result.command.effort
            # each settled cycle swaps in the other copy, updated after the
            # inputs were applied
            for _ in range(6):
                assert multi.runtime.wait_idle()
                multi.run(cycles=1)
            for _ in range(4):
                assert multi.runtime.wait_idle()
                swaps = multi.runtime.stats.model_swaps
                multi.run(cycles=1)
                assert multi.runtime.stats.model_swaps > swaps
                assert multi.runtime.active.constraints.J_c.shape[0] == rows
                np.testing.assert_allclose(
                    multi.runtime.last_result.command.effort, reference,
                    rtol=0, atol=1e-12)
