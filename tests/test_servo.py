import copy
import errno
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import socket
import struct
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from conftest import StubSocket, receive_all
from wbosc import fixtures
from wbosc import servo as servo_module
from wbosc.assembly import build_from_files
from wbosc.config import ReconfigAction, load_config
from wbosc.constraints import Constraint
from wbosc.controller import WboscImpedance, enforce_limits
from wbosc.model import RobotState
from wbosc.params import Event
from wbosc.servo import (LockstepClock, MonotonicClock, ReplyReader,
                         ServoError, ServoHooks, make_clock)
from wbosc.transports import KIND_PUBLISH, decode_message, encode_message


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
               frequency=None, udp_port=None, framework=(), effort_limit=None,
               error_peer=None):
    """pend1_posture; ``framework`` sets ``controlit`` settings,
    ``effort_limit`` replaces the joint's 40 N*m and ``error_peer``, a
    (host, port), sends ``posture.error`` there over UDP instead of on the
    bus."""
    text = fixtures.read_config("pend1_posture")
    if error_peer is not None:
        bus_output = "topic: errors/posture\n    transport_type: intra"
        assert bus_output in text
        text = text.replace(bus_output, (
            "topic: errors/posture\n    transport_type: udp\n"
            "    properties:\n      - host: {}\n      - port: {}"
        ).format(*error_peer))
    if frequency is not None:
        text = text.replace("servo_frequency: 1000",
                            f"servo_frequency: {frequency}")
    robot = fixtures.read_robot("pend1")
    if effort_limit is not None:
        robot = robot.replace("effort: 40.0", f"effort: {effort_limit}")
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    spec = load_config(text)
    for key, value in dict(framework).items():
        setattr(spec.framework, key, value)
    description = load_description(robot)
    return AssembledController(description, spec, interface=interface,
                               single_threaded=single_threaded, hooks=hooks,
                               udp_port=udp_port)


def delayed(seconds):
    """A seam that sleeps ``seconds()`` in the model process before each
    round."""
    return ServoHooks(model_round=lambda: time.sleep(seconds()))


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
        assert ctl.runtime.task_worker is None
        assert ctl.runtime.model_process is None
        ctl.run(cycles=5)
        assert multiprocessing.active_children() == []


def test_single_threaded_pend1_cycle_makes_four_linalg_calls(monkeypatch):
    """One lockstep cycle, the plant step included: inv(A) and one eigh of
    Phi in the constraint set, one svd in the one-level ladder (no qr: it
    has no head), and solve in the plant."""
    ctl = build_pend(single_threaded=True)
    calls = []
    with ctl:
        ctl.start()
        ctl.run(cycles=3)
        for name in dir(np.linalg):
            fn = getattr(np.linalg, name)
            if name.startswith("_") or isinstance(fn, type) \
                    or not callable(fn):
                continue

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        ctl.run(cycles=1)
    assert sorted(calls) == ["eigh", "inv", "solve", "svd"]


def test_multi_threaded_first_cycle_fresh_model():
    ctl = build_dreamer()
    with ctl:
        ctl.start()
        result = ctl.runtime.servo_update()
        assert not result.suppressed
        assert ctl.runtime.clock.now() - ctl.runtime.last_model_swap_time \
            <= ctl.runtime.period + 1e-12


THREAD_NAMES = ("publisher", "udp-transport")


def test_close_stops_every_thread():
    before = set(threading.enumerate())
    ctl = build_pend(udp_port=0)
    with ctl:
        ctl.start()
        ctl.run(cycles=5)
        started = [t for t in threading.enumerate() if t not in before]
        # no thread for the model: the servo drives the one child itself
        assert sorted(t.name for t in started) == sorted(THREAD_NAMES)
        assert len(multiprocessing.active_children()) == 1
    alive = [t.name for t in started if t.is_alive()]
    assert alive == []


def test_missing_robot_description_fails_before_start(tmp_path):
    from wbosc.assembly import build_from_files
    with pytest.raises(FileNotFoundError):
        build_from_files(fixtures.config_path("pend1_posture"),
                         tmp_path / "missing.yaml")


# -- cycle behavior -----------------------------------------------------------------

def test_busy_model_worker_never_blocks_cycle():
    ctl = build_pend(hooks=delayed(lambda: 0.25))
    with ctl:
        ctl.start()
        latencies = []
        for _ in range(5):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            latencies.append(ctl.clock.now()
                             - ctl.runtime.last_model_swap_time)
        # the child is still sleeping: no swaps, staleness grows by a period
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
    # model round delays below one period: the active model is swapped at most
    # two periods after the state it was computed from was read
    ctl = build_pend(hooks=delayed(lambda: 0.002), frequency=100)
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


PUBLISHER_YIELD = "wbosc.transports.PublisherWorker.enqueue"


class ModelIO:
    """Records each call the servo thread makes through which it could wait
    on the model process or hand the GIL over: the reply reader's polls
    (timeout, whether bytes were ready) and reads, ``Connection.recv``,
    ``time.sleep``, and each request sent (whether one was in flight)."""

    def __init__(self, monkeypatch, runtime):
        self.calls = calls = []
        servo = threading.get_ident()
        process = runtime.model_process
        poller = process.reader._poller
        read, recv, sleep, send = (os.read, multiprocessing.connection
                                   .Connection.recv, time.sleep, process.send)

        def record(call):
            if threading.get_ident() == servo:
                calls.append(call)

        class Poller:
            def poll(self, timeout):
                events = poller.poll(timeout)
                record(("poll", timeout, bool(events)))
                return events

        def recording_read(fd, n):
            record(("read",))
            return read(fd, n)

        def recording_recv(conn):
            record(("recv",))
            return recv(conn)

        def recording_sleep(seconds):
            caller = sys._getframe(1)
            record(("sleep", seconds, f"{caller.f_globals['__name__']}."
                                      f"{caller.f_code.co_qualname}"))
            sleep(seconds)

        def recording_send(*args):
            record(("send", runtime._in_flight))
            send(*args)

        monkeypatch.setattr(process.reader, "_poller", Poller())
        monkeypatch.setattr(os, "read", recording_read)
        monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                            recording_recv)
        monkeypatch.setattr(time, "sleep", recording_sleep)
        monkeypatch.setattr(process, "send", recording_send)

    def count(self, kind):
        return sum(call[0] == kind for call in self.calls)

    def waits(self):
        """The calls that could have waited on the model process: any recv,
        any sleep but the publisher's own hand-off (see
        ``PublisherWorker``), a poll with a timeout, a read not right after
        a poll that found bytes ready, and a request sent while another was
        in flight."""
        waits = []
        previous = None
        for call in self.calls:
            if call[0] == "recv" \
                    or call[0] == "sleep" and call[2] != PUBLISHER_YIELD \
                    or call[0] == "poll" and call[1] != 0 \
                    or call[0] == "read" and previous != ("poll", 0, True) \
                    or call == ("send", True):
                waits.append(call)
            previous = call
        return waits


def run_two_stagings_before_a_round(monkeypatch):
    """Stages again while the model process waits at its seam with the
    first request, so a second round is due while the first is in flight.
    Returns (whether the later stagings were skipped and sent nothing, the
    lost-update count after the swap, the swapped reply's sequence step)."""
    fork = multiprocessing.get_context("fork")
    arrived = fork.Event()
    gate = fork.Event()

    def hold():
        arrived.set()
        gate.wait(5.0)

    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]),
                     hooks=ServoHooks(model_round=hold))
    with ctl:
        ctl.start()
        runtime = ctl.runtime
        io = ModelIO(monkeypatch, runtime)
        try:
            first = runtime.active.seq
            ctl.run(cycles=1)           # sends the first request
            assert arrived.wait(5.0)
            skips = runtime.stats.staging_skips
            ctl.run(cycles=3)           # the child is held at its seam
            refused = io.count("send") == 1 \
                and runtime.stats.staging_skips == skips + 3 \
                and runtime.stats.model_swaps == 0
            assert io.waits() == []
        finally:
            gate.set()
        assert runtime.wait_idle()
        del io.calls[:]                 # wait_idle waits, outside the cycle
        result = runtime.servo_update()
        assert result.model_swapped
        assert io.waits() == []
        return refused, runtime.stats.lost_task_updates, \
            runtime.active.seq - first


def test_a_waiting_reply_is_never_overwritten(monkeypatch):
    refused, lost, step = run_two_stagings_before_a_round(monkeypatch)
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
                    time.sleep(0.001)   # let the model process converge
            commands[mode] = iface.last_effort
    assert np.abs(commands[True] - commands[False]).max() < 1e-12


# -- stress (short version; the acceptance suite runs the long one) ---------------------

def test_randomized_stress_no_blocking_no_losses(monkeypatch):
    rng = np.random.default_rng(0)
    iface = FrozenInterface(1)
    ctl = build_pend(interface=iface,
                     hooks=delayed(lambda: float(rng.uniform(0.0, 0.0004))))
    with ctl:
        ctl.start()
        # the first cycle sends a request; once its reply is whole, the
        # first counted cycle has a reply to read on a host of any speed
        ctl.runtime.servo_update()
        ctl.clock.tick()
        assert ctl.runtime.wait_idle()
        io = ModelIO(monkeypatch, ctl.runtime)
        first = ctl.runtime.active.seq
        for _ in range(3000):
            ctl.runtime.servo_update()
            ctl.clock.tick()
        assert io.waits() == []
        assert io.count("read") > 0
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


# -- reuse of the effort, the GIL, and goals between model swaps ---------------------

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
            # leaves any other yield to count
            assert ctl.publisher.flush()
    assert len(ladder_calls) == 20
    assert yields == []


def held_model_process(**kwargs):
    """A multi-threaded pend1 controller whose model process waits at its
    seam until the returned event is set: no model is ever swapped.
    ``kwargs`` go to build_pend."""
    gate = multiprocessing.get_context("fork").Event()
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface,
                     hooks=ServoHooks(model_round=lambda: gate.wait(5.0)),
                     **kwargs)
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
    ctl, iface, gate = held_model_process()
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
            assert not ctl.runtime.wait_idle(timeout=0)   # still held
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
    """Multi-threaded with the model process held, so nothing is swapped,
    against single-threaded at the same frozen state: the input staged
    before a cycle is in that cycle's command in both."""
    name, change = INPUTS[kind]
    gate = multiprocessing.get_context("fork").Event()
    multi = build_dreamer(
        config="dreamer22_disassembly", interface=FrozenInterface(16, POSE),
        hooks=ServoHooks(model_round=lambda: gate.wait(5.0)))
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


# POSE with the right shoulder and elbow moved
MOVED = POSE[:2] + [-0.1, -0.05, 0.0, -1.0] + POSE[6:]


@pytest.mark.parametrize("swaps", [2, 3], ids=["even", "odd"])
def test_task_enabled_again_runs_its_goal_half_on_the_latest_state(swaps):
    """A hand task disabled while the arm moves and enabled again after
    ``swaps`` model swaps: its error is against the state swapped in last,
    whatever the parity of the swap count, and the command equals a
    single-threaded controller's at the same states."""
    efforts = {}
    for single_threaded in (True, False):
        iface = FrozenInterface(16, POSE)
        ctl = build_dreamer(config="dreamer22_disassembly", interface=iface,
                            single_threaded=single_threaded)
        runtime = ctl.runtime

        def cycle():
            # each cycle after the first swaps in the previous one's reply
            assert runtime.wait_idle()
            ctl.run(cycles=1)

        with ctl:
            ctl.start()
            for _ in range(3):
                cycle()
            ctl.apply_actions([ReconfigAction("disable_task",
                                              "rightHandPosition")])
            iface.state.position[:] = MOVED
            first = runtime.stats.model_swaps
            for _ in range(swaps - 1):
                cycle()
            ctl.apply_actions([ReconfigAction("enable_task",
                                              "rightHandPosition")])
            cycle()
            if not single_threaded:
                assert runtime.stats.model_swaps - first == swaps
            task = ctl.tasks["rightHandPosition"]
            state = task.active_state
            np.testing.assert_array_equal(
                state.error, task.goals["goalPosition"] - state.current)
            efforts[single_threaded] = iface.last_effort
    np.testing.assert_allclose(efforts[False], efforts[True], rtol=0,
                               atol=1e-12)


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


def test_quiet_cycles_reuse_the_effort_and_never_sleep(monkeypatch,
                                                      ladder_calls):
    ctl, iface, gate = held_model_process()
    with ctl:
        try:
            ctl.start()
            ctl.run(cycles=1)       # sends a request: the child waits
            del ladder_calls[:]
            io = ModelIO(monkeypatch, ctl.runtime)
            quiet = 0
            for _ in range(10):
                before = len(io.calls)
                result = ctl.runtime.servo_update()
                ctl.clock.tick()
                if not (result.goals_updated or result.model_swapped):
                    quiet += 1
                    # one poll that finds nothing, and no sleep
                    assert io.calls[before:] == [("poll", 0, False)]
            assert quiet and io.count("sleep") == 0
            # a quiet cycle reuses the last effort
            assert len(ladder_calls) == 10 - quiet
        finally:
            gate.set()


GIL_RELEASING = ((np, "dot"), (np.linalg, "norm"), (np.linalg, "svd"),
                 (np.linalg, "eigh"))


def test_quiet_cycle_hands_the_gil_over_only_at_its_poll(monkeypatch,
                                                         ladder_calls):
    ctl, iface, gate = held_model_process()
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
            ctl.run(cycles=1)       # sends a request: the child waits
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
            io = ModelIO(monkeypatch, runtime)
            expected = {topic: [] for topic in received}
            cycles = 50
            for k in range(1, cycles + 1):
                before = len(io.calls)
                previous = runtime._prev_cycle_start
                result = runtime.servo_update()
                calls = io.calls[before:]
                idx = result.cycle % runtime._history_len
                now = ctl.clock.now()
                for topic, value in zip(runtime._diagnostics_topics, (
                        1.0 / (now - previous), runtime._cycle_latency[idx],
                        now - runtime.last_model_swap_time,
                        runtime.active.model.G, iface.state.position,
                        iface.last_effort)):
                    expected[topic].append(value)
                ctl.clock.tick()
                assert not (result.goals_updated or result.model_swapped)
                # the cycle's only GIL hand-off: a poll that found nothing
                assert calls == [("poll", 0, False)]
                assert len(enqueued) == k
                # a publisher more than BEHIND entries behind is handed the
                # GIL by enqueue, a yield of its own; drained between
                # cycles, it never is
                assert ctl.publisher.flush()
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


# -- a reused effort reuses its limit verdict ---------------------------------------

# the posture effort at q = 0.2 is about 1.6 N*m, over a 0.5 N*m limit
EFFORT_LIMITED = dict(framework={"enforce_effort_limits": True},
                      effort_limit=0.5)
TRUNCATED = ["effort command for joint 'shoulder' truncated to 0.5"]


@pytest.fixture
def limit_checks(monkeypatch):
    """Records every enforce_limits call the servo makes."""
    calls = []
    enforce = servo_module.enforce_limits

    def counting(command, limits):
        calls.append(command.effort.copy())
        return enforce(command, limits)

    monkeypatch.setattr(servo_module, "enforce_limits", counting)
    return calls


def run_limited(ctl, iface, cycles):
    """The first cycle, which computes the effort, then ``cycles`` quiet
    ones; returns the warnings published and the effort written by each."""
    warnings = []
    ctl.bus.subscribe("pend/diagnostics/warnings", warnings.append)
    ctl.start()
    per_cycle = []
    for k in range(cycles + 1):
        result = ctl.runtime.servo_update()
        ctl.clock.tick()
        assert not (result.goals_updated or result.model_swapped)
        assert ctl.flush()
        per_cycle.append((warnings[:], iface.last_effort.copy()))
        del warnings[:]
    return per_cycle


def test_quiet_cycles_reuse_the_limit_verdict_of_a_reused_effort(
        limit_checks, ladder_calls):
    ctl, iface, gate = held_model_process(**EFFORT_LIMITED)
    runtime = ctl.runtime
    with ctl:
        try:
            per_cycle = run_limited(ctl, iface, 50)
            assert len(ladder_calls) == 1 and len(limit_checks) == 1
            # the memoised effort stays unclipped
            memo = runtime.wbc.compute(runtime.active.model,
                                       runtime.active.constraints,
                                       runtime.compound, iface.read()).effort
        finally:
            gate.set()
    assert abs(memo[0]) > 0.5
    np.testing.assert_array_equal(limit_checks[0], memo)
    first_warnings, clipped = per_cycle[0]
    assert first_warnings == TRUNCATED and abs(clipped[0]) == 0.5
    for warnings, effort in per_cycle[1:]:
        assert warnings == first_warnings
        assert effort.tobytes() == clipped.tobytes()


def test_position_limits_are_checked_every_cycle(limit_checks):
    framework = dict(EFFORT_LIMITED["framework"], enforce_position_limits=True)
    ctl, iface, gate = held_model_process(framework=framework,
                                          effort_limit=0.5)
    with ctl:
        try:
            per_cycle = run_limited(ctl, iface, 50)
        finally:
            gate.set()
    assert len(limit_checks) == 51
    assert all(warnings == TRUNCATED and abs(effort[0]) == 0.5
               for warnings, effort in per_cycle)


def test_impedance_commands_equal_a_check_every_cycle(monkeypatch):
    """200 cycles of WBOSC_Impedance over its effort limit, against the
    same controller checked every cycle: bit for bit."""
    framework = dict(EFFORT_LIMITED["framework"],
                     whole_body_controller_type="WBOSC_Impedance")
    ctl, iface, gate = held_model_process(framework=framework,
                                          effort_limit=0.5)
    runtime = ctl.runtime
    reference = copy.deepcopy(ctl.wbc)
    written = []
    monkeypatch.setattr(iface, "write",
                        lambda command: written.append(command.copy()))
    fields = ("position", "velocity", "effort", "position_kp", "position_kd")
    with ctl:
        try:
            ctl.start()
            for _ in range(200):
                result = runtime.servo_update()
                assert not (result.suppressed or result.model_swapped)
                want = reference.compute(
                    runtime.active.model, runtime.active.constraints,
                    runtime.compound, iface.read(), dt=runtime.period)
                unclipped = want.effort.copy()
                enforce_limits(want, runtime.limits)
                ctl.clock.tick()
                assert abs(unclipped[0]) > 0.5
                for field in fields:
                    assert getattr(written[-1], field).tobytes() \
                        == getattr(want, field).tobytes(), field
        finally:
            gate.set()
    assert isinstance(ctl.wbc, WboscImpedance)
    # the internal state moved: each cycle integrated the unclipped effort
    assert written[0].position.tobytes() != written[-1].position.tobytes()


def servo_thread_enqueues(monkeypatch, ctl):
    """Records the topics of every publisher entry the calling thread
    enqueues."""
    enqueued = []
    servo = threading.get_ident()
    enqueue = ctl.publisher.enqueue

    def counting_enqueue(sink, topic, value, owner=None):
        if threading.get_ident() == servo:
            enqueued.append(topic)
        enqueue(sink, topic, value, owner)

    monkeypatch.setattr(ctl.publisher, "enqueue", counting_enqueue)
    return enqueued


@pytest.fixture
def evaluated(monkeypatch):
    """Records the name of every event evaluated."""
    names = []
    evaluate = Event.evaluate

    def counting(event, resolver):
        names.append(event.name)
        return evaluate(event, resolver)

    monkeypatch.setattr(Event, "evaluate", counting)
    return names


def test_unsubscribed_quiet_cycles_enqueue_nothing_and_evaluate_no_event(
        monkeypatch, evaluated):
    ctl, iface, gate = held_model_process()
    runtime = ctl.runtime
    with ctl:
        try:
            ctl.start()
            ctl.run(cycles=1)       # sends a request: the child waits
            assert evaluated == ["postureConverged"]    # servo_init's error
            del evaluated[:]
            enqueued = servo_thread_enqueues(monkeypatch, ctl)
            for _ in range(50):
                result = runtime.servo_update()
                ctl.clock.tick()
                assert not (result.goals_updated or result.model_swapped)
            assert enqueued == []
            assert evaluated == []
        finally:
            gate.set()


def test_a_subscription_made_mid_run_gets_the_next_cycles_diagnostics(
        monkeypatch):
    ctl, iface, gate = held_model_process()
    runtime = ctl.runtime
    received = {topic: [] for topic in runtime._diagnostics_topics}
    with ctl:
        try:
            ctl.start()
            enqueued = servo_thread_enqueues(monkeypatch, ctl)
            ctl.run(cycles=20)
            assert ctl.flush()
            assert enqueued == []
            # subscribed on another thread, between two cycles
            subscriber = threading.Thread(target=lambda: [
                ctl.bus.subscribe(topic, values.append)
                for topic, values in received.items()])
            subscriber.start()
            subscriber.join()
            previous = runtime._prev_cycle_start
            result = runtime.servo_update()
            now = ctl.clock.now()
            expected = (1.0 / (now - previous),
                        runtime._cycle_latency[
                            result.cycle % runtime._history_len],
                        now - runtime.last_model_swap_time,
                        runtime.active.model.G, iface.state.position,
                        iface.last_effort)
            ctl.clock.tick()
            assert not (result.goals_updated or result.model_swapped)
            assert enqueued == [runtime._diagnostics_topics]
            assert ctl.flush()
            for (topic, values), want in zip(received.items(), expected):
                assert len(values) == 1, topic
                np.testing.assert_array_equal(values[0], want)
        finally:
            gate.set()


def test_events_see_a_goal_half_a_direct_set_and_a_late_event(evaluated):
    """The next emit sees each write: the error a goal half sets after a
    copy-in (no input applied), a direct Parameter.set, and an event added
    after start."""
    ctl, iface, gate = held_model_process()
    runtime = ctl.runtime
    fired = []
    with ctl:
        try:
            ctl.start()
            ctl.bus.subscribe("pend/events", fired.append)
            ctl.registry.add_event("stiff", "norm(posture.kp) > 100")
            ctl.run(cycles=2)

            def cycle():
                del evaluated[:], fired[:]
                result = runtime.servo_update()
                ctl.clock.tick()
                assert ctl.flush()
                return result

            assert not cycle().goals_updated
            assert evaluated == [] and fired == []
            # a direct set between two cycles
            ctl.registry.require("posture.kp").set([200.0])
            assert not cycle().goals_updated
            assert "stiff" in evaluated and fired == ["stiff"]
            cycle()
            assert evaluated == [] and fired == []
            # an event added between two cycles
            ctl.registry.add_event("late", "norm(posture.kp) > 150")
            assert not cycle().goals_updated
            assert "late" in evaluated and fired == ["late"]
            cycle()
            assert evaluated == [] and fired == []
            # a goal half: the joint reaches the goal while a request waits
            iface.state.position[:] = 0.0
            gate.set()
            for _ in range(3):
                assert runtime.wait_idle()
                result = cycle()
                assert result.model_swapped and result.goals_updated
                if fired:
                    break
            assert fired == ["postureConverged"]
            assert ctl.registry.require("posture.error").value == [0.0]
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


# -- UDP outputs send from the servo thread -----------------------------------------

@pytest.fixture
def error_receiver():
    """A non-blocking socket on 127.0.0.1 for ``posture.error`` datagrams."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    yield sock
    sock.close()


def error_binding(ctl):
    return next(b for b in ctl.binding_manager.bindings
                if b.topic == "errors/posture")


def decoded_errors(datagrams):
    values = []
    for data in datagrams:
        kind, name, value, _ = decode_message(data)
        assert (kind, name) == (KIND_PUBLISH, "errors/posture")
        values.append(value)
    return values


def test_udp_output_binding_sends_from_the_servo_thread(monkeypatch,
                                                        error_receiver):
    """Each cycle's error goes out in that cycle, as one datagram sent by
    the servo thread, and the publisher queue sees none of them."""
    ctl = build_pend(single_threaded=True,
                     error_peer=error_receiver.getsockname())
    enqueued = []
    with ctl:
        enqueue = ctl.publisher.enqueue

        def counting_enqueue(sink, topic, value, owner=None):
            enqueued.append(topic)
            enqueue(sink, topic, value, owner)

        monkeypatch.setattr(ctl.publisher, "enqueue", counting_enqueue)
        ctl.registry.stage_input("posture.goalPosition", np.array([0.3]))
        error = ctl.registry.require("posture.error")
        ctl.start()             # its goal halves publish the first error
        errors, datagrams = [error.value.copy()], []
        for _ in range(200):
            ctl.run(cycles=1)
            errors.append(error.value.copy())
            datagrams += receive_all(error_receiver, 1, timeout=0.0)
        binding = error_binding(ctl)
        datagrams += receive_all(error_receiver,
                                 binding.published - len(datagrams))
        assert receive_all(error_receiver, 1, timeout=0.05) == []
    assert enqueued == []
    assert binding.published == 201 and binding.dropped == 0
    received = decoded_errors(datagrams)
    assert len(received) == binding.published
    for got, want in zip(received, errors):
        assert got.tobytes() == want.tobytes()
    assert len({e.tobytes() for e in errors}) > 100     # the errors moved


def test_udp_send_failures_are_dropped_values_not_command_errors(
        error_receiver):
    """A send that would block and one that fails are dropped values on the
    binding; neither reaches the cycle."""
    ctl = build_pend(single_threaded=True,
                     error_peer=error_receiver.getsockname())
    with ctl:
        ctl.start()
        stub = StubSocket(ctl.udp.socket, {
            50: BlockingIOError(errno.EAGAIN, "would block"),
            120: OSError(errno.ENETUNREACH, "network unreachable")})
        ctl.udp.socket = stub
        datagrams = []
        for _ in range(200):
            result = ctl.runtime.servo_update()
            ctl.clock.tick()
            assert not result.suppressed
            datagrams += receive_all(error_receiver, 1, timeout=0.0)
        binding = error_binding(ctl)
        datagrams += receive_all(error_receiver,
                                 binding.published - 2 - len(datagrams))
        assert receive_all(error_receiver, 1, timeout=0.05) == []
        assert ctl.runtime.stats.suppressed_commands == 0
    assert len(stub.sent_to) == binding.published - 1 == 200   # 1: start()
    assert binding.dropped == 2
    assert binding.published == len(decoded_errors(datagrams)) \
        + binding.dropped


def test_udp_output_peer_is_resolved_once_when_bound(monkeypatch,
                                                     error_receiver):
    port = error_receiver.getsockname()[1]
    ctl = build_pend(single_threaded=True, error_peer=("localhost", port))
    lookups = []
    getaddrinfo = socket.getaddrinfo

    def counting(*args, **kwargs):
        lookups.append(args)
        return getaddrinfo(*args, **kwargs)

    with ctl:
        ctl.start()
        stub = StubSocket(ctl.udp.socket)
        ctl.udp.socket = stub
        monkeypatch.setattr(socket, "getaddrinfo", counting)
        ctl.run(cycles=100)
    assert lookups == []
    # a numeric address: the kernel's sendto resolves nothing either
    assert set(stub.sent_to) == {("127.0.0.1", port)}


def test_udp_remote_command_that_would_block_is_counted_not_waited_for():
    text = fixtures.read_config("pend1_posture").replace(
        "robot_interface_type: sim-lockstep",
        "robot_interface_type: udp-remote")
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    ctl = AssembledController(load_description(fixtures.read_robot("pend1")),
                              load_config(text), single_threaded=True,
                              udp_port=0)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.bind(("127.0.0.1", 0))
    try:
        ctl.start()
        stub = StubSocket(ctl.udp.socket, {
            0: BlockingIOError(errno.EAGAIN, "would block")})
        ctl.udp.socket = stub
        state = encode_message(KIND_PUBLISH, "robot/state",
                               np.array([0.0, 0.1, 0.0, 0.0]))
        client.sendto(state, ("127.0.0.1", ctl.udp.port))
        deadline = time.monotonic() + 2.0
        while ctl.interface._peer is None and time.monotonic() < deadline:
            time.sleep(0.001)
        result = ctl.runtime.servo_update()
        assert not result.suppressed
        assert ctl.runtime.stats.suppressed_commands == 0
        assert stub.sent_to == [client.getsockname()]
        assert ctl.interface.dropped == 1
    finally:
        client.close()
        ctl.close()


# -- update failures ---------------------------------------------------------------

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
    broken = multiprocessing.get_context("fork").Event()

    def model_round():
        if broken.is_set():
            raise RuntimeError("joint state out of range")

    ctl = build_pend(interface=FrozenInterface(1, position=[0.2]),
                     hooks=ServoHooks(model_round=model_round))
    errors = []
    with ctl:
        ctl.start()
        ctl.bus.subscribe("pend/diagnostics/errors", errors.append)
        ctl.run(cycles=5)
        broken.set()        # every later round in the child raises
        # a round that began before the break may still land once
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        swaps = ctl.runtime.stats.model_swaps
        assert run_until_error(ctl, errors, "model update failed")
        assert "model update failed: joint state out of range" in errors
        ctl.run(cycles=50)
        assert ctl.runtime.wait_idle()
        ctl.run(cycles=1)
        assert ctl.runtime.stats.model_swaps == swaps
        # the servo kept sending rounds, and each one failed
        assert ctl.flush()
        assert errors.count("model update failed: joint state out of range") > 1


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
        assert names == ["publisher"]
        ctl.run(cycles=5)


def test_reply_reader_takes_only_bytes_already_there(monkeypatch):
    parent, child = socket.socketpair()
    with parent, child:
        reader = ReplyReader(parent.fileno())
        message = {"arrays": bytes(40_000)}
        body = pickle.dumps(message)
        half = len(body) // 2
        assert len(body) > 16384    # sent as a header and a body write
        child.sendall(struct.pack("!i", len(body)) + body[:half])
        # a reader that waits for the rest is released after 2 s, and fails
        rest = threading.Timer(2.0, child.sendall, [body[half:]])
        rest.start()
        started = time.perf_counter()
        whole = reader.ready()
        waited = time.perf_counter() - started
        rest.cancel()
        assert not whole and waited < 0.5
        child.sendall(body[half:])
        assert reader.ready()
        assert reader.take() == message
        # a message already whole, header and body, comes in with one read
        reads = []
        read = os.read
        monkeypatch.setattr(os, "read",
                            lambda fd, n: reads.append(n) or read(fd, n))
        child.sendall(struct.pack("!i", len(body)) + body)
        assert reader.ready()
        assert len(reads) == 1
        assert reader.take() == message
        child.close()
        with pytest.raises(ServoError, match="the model process has exited"):
            reader.ready()


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
    cycles = runtime.cycle_count
    assert run_until_error(ctl, errors, "model update failed")
    assert f"model update failed: {expected}" in errors
    ctl.run(cycles=50)
    assert runtime.wait_idle()
    ctl.run(cycles=1)
    assert runtime.stats.model_swaps == swaps
    # the servo kept reaching the model process, and each round failed
    assert ctl.flush()
    assert errors.count(f"model update failed: {expected}") > 1
    assert runtime.cycle_count > cycles + 50
    assert runtime.stats.servo_blocking_acquires == 0
    assert np.isfinite(iface.last_effort).all()
    assert np.array_equal(iface.last_effort, good)


def test_model_process_update_error_is_published():
    iface = FrozenInterface(1, position=[0.2])
    ctl = build_pend(interface=iface)
    offline = OfflineSensorConstraint("footSensor")
    offline.enabled = False
    ctl.servo_model.constraints.add(offline)
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


def test_constraint_parameters_reach_the_model_process():
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
            # each settled cycle copies in a reply of a round sent after the
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
