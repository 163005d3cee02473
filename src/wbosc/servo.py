"""Servo runtime: clocks, the model process, and the coordinator loop.

Execution model
---------------
Multi-threaded mode runs one servo thread and one child process.  The parent
process owns the servo executor (whoever calls servo_update), one model copy
and the publisher.  The model copy (ServoModel) is one update epoch: the
model, its constraint set and the state half of every compound task against
that model (see ``tasks``).

The update passes run in the child, a ModelProcess forked by servo_init
once the parent's copy is primed; it owns a fork-time copy of it.  The
servo thread is its only client and never waits on it.  At staging, with
no request in flight, the servo sends the joint state and the parent's
constraint objects; with one in flight it counts a staging skip.  The child
updates its copy and every task's state half and sends one reply.  At each
check the servo reads only the reply bytes already in the pipe
(``ReplyReader``); the check that completes the reply copies it into the
parent's copy, in place, between two cycles' reads of it.  So a copy-in
installs a model and task states of one epoch, and the update passes never
hold the parent's GIL.  The child is
forked rather than spawned because a fresh interpreter importing wbosc
takes longer than a whole set-up; it is forked after the publisher thread
has started, which is why it touches only numpy, its copy and its pipe:
never a goal, a gain, a parameter or a binding.  From Python 3.12 on,
forking a process that has threads is deprecated and warns.  stop() ends
the child before the caller closes the UDP socket, whose descriptor it
inherits.

One servo cycle: apply staged inputs, read robot state, check for a whole
reply (copy it in), stage joint state for the child when no request is in
flight, run the task goal halves when due, compute the command, emit
events (evaluated after a parameter write, and a failing one every cycle),
write, publish diagnostics (while they have a subscriber).

A task's goal half (error, PID command, the ``error`` parameter) runs on the
servo thread, for an enabled task whose state is fresh (``TaskState``) or
in a cycle whose parameter drain applied an input (a goal, gain or enable
flag).  So an input drained in cycle k is in cycle k's command with no
request to the child, and the PID integrator stays in the parent.  The
controller reuses its last effort while the model, each task's goal-half
version and the enabled/priority configuration are unchanged (see
``Wbosc.compute``), so any other cycle does almost no numpy work.  A reused
effort also reuses its limit verdict: the effort as clipped, the warnings
and the NaN check of the cycle that computed it (``_check_limits``), which
depend on the effort alone while only effort limits are enforced.  With
position or velocity limits enforced, which read the state, every cycle is
checked.  The controller's memoised effort stays unclipped.

The rule: a quiet cycle's only GIL hand-off is the check's zero-timeout
poll; a cycle whose goal half sets a UDP-bound parameter hands it over once
more, at that binding's non-blocking sendto, which it makes itself instead
of waking the publisher.  Every release lets another thread (the publisher,
the UDP receiver) run for up to a switch interval (5 ms) before the servo
thread gets the GIL back, so the quiet path calls nothing else that
releases it: events take their norm with a 1-D ``@``, and joint limits,
when checked, against arrays built once.  A quiet cycle with no subscriber to its diagnostics hands the
publisher nothing: the cycle's diagnostics go to it as one queue entry only
while one of their topics has a subscriber (one lock-free read of a
``TopicWatch``; a subscription takes effect from the next cycle).  Nor does
it evaluate events: they are evaluated only after a parameter write, and a
failing one every cycle (``ParameterRegistry.emit_events``).  The one
exception is the publisher: when more than ``PublisherWorker.BEHIND``
entries wait, enqueue hands it the GIL too, since a single-threaded servo
never polls at all.

Measured with numpy 2.4.6 and OpenBLAS 0.3.31 on a 2-core x86-64 host,
with a thread looping the call: ``np.dot`` and ``np.linalg.norm`` release
the GIL at any size; ``svd`` from 6x6, ``eigh`` from 22x22, and 2-D ``@``,
``inv``, ``einsum`` and reductions from 64x64; 1-D ``@``, ``solve`` and
ufuncs on small arrays did not.

Single-threaded mode replaces the check and staging with an inline update
of the copy, which runs every task's state half, so every enabled goal half
runs and the effort is recomputed every cycle; nothing is forked.
"""

import multiprocessing
import os
import pickle
import select
import signal
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .controller import CommandError, WboscImpedance, enforce_limits

PHASES = ("read", "update_model", "compute_command", "emit_events", "write")
# published under <name>/diagnostics/, in this order, every cycle while one
# of them has a subscriber; the command is left out on a suppressed cycle
CYCLE_DIAGNOSTICS = ("servoFrequency", "servoComputeLatency", "modelLatency",
                     "gravityVector", "jointState", "command")


class ServoError(RuntimeError):
    pass


# -- clocks ------------------------------------------------------------------

class LockstepClock:
    """Simulated clock: exactly one period per tick, no jitter."""

    kind = "simulated-lockstep"

    def __init__(self, frequency):
        if frequency <= 0:
            raise ServoError("frequency must be positive")
        self.frequency = frequency
        self.period = 1.0 / frequency
        self._ticks = 0

    def now(self):
        return self._ticks * self.period

    def tick(self):
        self._ticks += 1


class MonotonicClock:
    """Wall clock: sleeps to the next period boundary, records overruns."""

    kind = "monotonic"

    def __init__(self, frequency):
        if frequency <= 0:
            raise ServoError("frequency must be positive")
        self.frequency = frequency
        self.period = 1.0 / frequency
        self.overruns = 0
        self._deadline = None

    def now(self):
        return time.monotonic()

    def tick(self):
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + self.period
            return
        if now > self._deadline:
            self.overruns += 1
            self._deadline = now + self.period
            return
        time.sleep(self._deadline - now)
        self._deadline += self.period


def make_clock(kind, frequency):
    if kind in ("simulated-lockstep", "lockstep"):
        return LockstepClock(frequency)
    if kind == "monotonic":
        return MonotonicClock(frequency)
    raise ServoError(f"unknown servo clock type {kind!r}")


# -- instrumentation -----------------------------------------------------------

@dataclass
class RuntimeStats:
    # no lock is left for the servo thread to acquire: stays 0
    servo_blocking_acquires: int = 0
    lost_task_updates: int = 0      # gaps in the copied-in reply sequence
    model_swaps: int = 0
    staging_skips: int = 0          # stagings with a request in flight
    suppressed_commands: int = 0


@dataclass
class ServoHooks:
    """Optional test seam for deterministic interleaving tests."""

    model_round: object = None      # fn() in the model process before each
    #                                 round; an exception fails the round


# -- the model copy and the model process -----------------------------------------

class ServoModel:
    """One model copy, the constraint set derived from it, and the state
    half of every compound task against it: one update epoch.

    ``tasks`` is the compound's task list, set by the runtime; ``seq``
    counts the updates made."""

    def __init__(self, model, constraint_set):
        self.model = model
        self.constraints = constraint_set
        self.tasks = ()
        self.seq = 0

    def update(self, q_act, qd_act, stamp):
        q_full = self.model.full_from_actual(q_act)
        qd_full = self.model.full_from_actual(qd_act)
        self.model.update_kinematics(q_full, qd_full)
        self.model.stamp = stamp
        self.constraints.update(self.model)
        for task in self.tasks:
            task.update(self.model)
        self.seq += 1

    def updated(self):
        """What update wrote, ending with ``seq``: the reply of a
        ModelProcess."""
        return (self.model.updated(), self.constraints.updated(),
                [task.active_state.updated() for task in self.tasks],
                self.model.stamp, self.seq)

    def load_update(self, reply):
        """Copy in a reply; the copy must have been primed by update."""
        model_arrays, constraint_values, task_values, stamp, self.seq = reply
        self.model.load_update(model_arrays)
        self.model.stamp = stamp
        self.constraints.load_update(constraint_values)
        for task, flat in zip(self.tasks, task_values):
            task.active_state.load_update(flat, stamp)


class ReplyReader:
    """Collects one message sent by ``multiprocessing.Connection.send`` on
    ``fd`` without ever waiting for bytes that are not there yet.

    A Connection writes a 4-byte big-endian length and then the pickled
    body, in two writes once the body is over 16 KiB, so a ``recv`` after a
    ready ``poll`` can block between them.  ``ready`` reads only what a poll
    found ready, into a buffer, until the header's length is in.  Until the
    header is whole it asks for up to ``CHUNK`` bytes, so a message already
    there comes in with one read: the peer sends one message per request,
    so no later one can follow it.  Messages of 2 GiB or more (an 8-byte
    length) are not supported."""

    CHUNK = 65536

    def __init__(self, fd):
        self._fd = fd
        self._poller = select.poll()
        self._poller.register(fd, select.POLLIN)
        self._buffer = bytearray()

    def _wanted(self):
        """Bytes to ask for next; 0 once the message is whole."""
        if len(self._buffer) < 4:
            return self.CHUNK
        return 4 + struct.unpack_from("!i", self._buffer)[0] \
            - len(self._buffer)

    def ready(self, timeout=0):
        """Whether the whole message is in.  Each poll waits up to
        ``timeout`` ms, so with 0 this never waits; raises ServoError once
        the peer has closed its end."""
        while self._wanted() and self._poller.poll(timeout):
            try:
                chunk = os.read(self._fd, self._wanted())
            except OSError:     # a peer killed with a request unread
                chunk = b""
            if not chunk:
                raise ServoError("the model process has exited")
            self._buffer += chunk
        return not self._wanted()

    def take(self):
        """The whole message, unpickled; the buffer starts over."""
        message = pickle.loads(memoryview(self._buffer)[4:])
        self._buffer = bytearray()
        return message


class ModelProcess:
    """A forked child that runs ServoModel.update for the parent.

    The child owns a fork-time copy of the primed ServoModel, its tasks
    included.  A request is the joint state, its stamp and the parent's
    constraint objects, so every constraint and runtime parameter change is
    live in the child; the reply is what the update wrote
    (``ServoModel.updated``) or the error text, read through ``reader``.  Of
    a task the child runs only the state half, which reads the model and
    the task's fixed geometry: never a goal, a gain, a parameter or a
    binding.  ``before_round`` runs in the child before each round (a test
    seam).  The child touches only numpy, its copy and its end of the pipe,
    and exits on a stop request or end of file."""

    def __init__(self, servo_model, before_round=None):
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve_model,
            args=(child_end, self._conn, servo_model, before_round),
            name="model-process", daemon=True)
        self._process.start()
        child_end.close()
        self.pid = self._process.pid
        self.reader = ReplyReader(self._conn.fileno())

    def send(self, q_act, qd_act, stamp, constraints):
        """Sends one request: a few hundred bytes, well under the pipe's
        buffer, so the write does not wait on the child."""
        try:
            self._conn.send((q_act, qd_act, stamp, constraints))
        except OSError:
            raise ServoError("the model process has exited") from None

    def stop(self):
        if self._conn.closed:
            return
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._process.join(timeout=2.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()
        self._process.close()


def _serve_model(conn, parent_end, servo_model, before_round):
    """The model process's loop."""
    parent_end.close()
    # the parent's Ctrl-C reaches the whole process group; the parent's
    # stop request or its closed pipe ends this loop instead
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        q_act, qd_act, stamp, constraints = request
        servo_model.constraints.constraints = constraints
        try:
            if before_round is not None:
                before_round()
            servo_model.update(q_act, qd_act, stamp)
        except Exception as exc:
            conn.send(str(exc))
        else:
            conn.send(servo_model.updated())


# -- coordinator -------------------------------------------------------------------

@dataclass
class CycleResult:
    cycle: int = 0
    command: object = None
    suppressed: bool = False
    model_swapped: bool = False
    goals_updated: bool = False


class ServoRuntime:
    """Owns the servo loop state machine, the model copy and the model
    process.

    ``publish(topics, values)`` hands values[i] for topics[i] off the servo
    thread as one unit, in order; ``watch(topics)`` returns a TopicWatch
    (``IntraBus.watch``); ``limits`` is the command's JointLimits."""

    def __init__(self, name, servo_model, compound, wbc, interface, clock,
                 registry, publish, watch, limits, single_threaded=False,
                 hooks=None, history=2048):
        self.name = name
        self.compound = compound
        self.wbc = wbc
        self.interface = interface
        self.clock = clock
        self.registry = registry
        self._publish = publish
        self.limits = limits
        self._diagnostics_topics = tuple(
            f"{name}/diagnostics/{topic}" for topic in CYCLE_DIAGNOSTICS)
        self._diagnostics = watch(self._diagnostics_topics)
        self.single_threaded = single_threaded
        self.hooks = hooks or ServoHooks()
        self.stats = RuntimeStats()
        self.active = servo_model       # the parent's one copy
        servo_model.tasks = compound.tasks()
        self.task_worker = None     # always None: the model process runs
        #                             the task state halves
        self.model_process = None
        self._in_flight = False     # a request sent, its reply not copied in
        self._goals_due = False     # an applied input or a failed goal half
        self.cycle_count = 0
        self._initialized = False
        self._last_command = None
        self._limit_verdict = None  # _check_limits of the last effort
        self._prev_cycle_start = None
        self.last_model_swap_time = 0.0
        self.last_result = CycleResult()
        n = len(PHASES)
        self._history_len = history
        self._phase_history = np.zeros((n, history))
        self._compute_cpu = np.zeros(history)     # servo-thread CPU time
        self._cycle_latency = np.zeros(history)
        self._snapshot_lock = threading.Lock()
        self._snapshot = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def period(self):
        return self.clock.period

    def servo_init(self):
        """Blocking read, prime the model copy, fork the model process.
        Runs once: a second call raises ServoError."""
        if self._initialized:
            raise ServoError("servo_init has already run")
        state = self.interface.read()
        now = self.clock.now()
        self.active.update(state.position, state.velocity, now)
        for task in self.active.tasks:
            task.update_goal(self.period)
        self.last_model_swap_time = now
        if not self.single_threaded:
            self.model_process = ModelProcess(self.active,
                                              self.hooks.model_round)
        self._initialized = True
        return self

    def stop(self):
        if self.model_process is not None:
            self.model_process.stop()

    def __enter__(self):
        if not self._initialized:
            self.servo_init()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- the model process and the copy-in ------------------------------------------

    def _model_failed(self, exc):
        self.publish("diagnostics/errors", f"model update failed: {exc}")

    def check_for_updates(self):
        """Copy a fresh model, with the task states of its epoch, into the
        parent's copy once the model process's whole reply is in.  Reads
        only bytes that are already in the pipe, so it never waits.  Returns
        whether it copied one in."""
        if not self._in_flight:
            return False
        reader = self.model_process.reader
        try:
            if not reader.ready():
                return False
            self._in_flight = False
            reply = reader.take()
            if isinstance(reply, str):
                raise ServoError(reply)
        except ServoError as exc:
            self._model_failed(exc)
            return False
        self.stats.lost_task_updates += reply[-1] - self.active.seq - 1
        self.active.load_update(reply)
        self.stats.model_swaps += 1
        self.last_model_swap_time = self.clock.now()
        return True

    def _stage_model_update(self, state):
        """Send the latest joint state to the model process, unless a
        request is in flight."""
        if self._in_flight:
            self.stats.staging_skips += 1
            return
        try:
            self.model_process.send(state.position, state.velocity,
                                    self.clock.now(),
                                    self.active.constraints.constraints)
        except ServoError as exc:
            self._model_failed(exc)
            return
        self._in_flight = True

    def _update_goals(self):
        """Goal halves: every enabled task after an applied input,
        otherwise each enabled task whose state is fresh (after a copy-in
        or an inline update, that is every one).  Returns whether any ran;
        a goal half that raises is a CommandError, and the goal halves stay
        due until they all succeed."""
        ran = False
        for task in self.active.tasks:
            if task.enabled and (self._goals_due or task.active_state.fresh):
                try:
                    task.update_goal(self.period)
                except Exception as exc:
                    self._goals_due = True
                    raise CommandError(
                        f"task {task.name!r} update failed: {exc}") from None
                ran = True
        self._goals_due = False
        return ran

    # -- the servo cycle --------------------------------------------------------

    def servo_update(self):
        if not self._initialized:
            raise ServoError("servo_init has not run")
        t_cycle = time.perf_counter()
        now = self.clock.now()
        if self.registry.drain_staged(warn=self._warn):
            # a new goal, gain or enable flag reaches this cycle's command
            self._goals_due = True

        t0 = time.perf_counter()
        state = self.interface.read()
        t_read = time.perf_counter() - t0

        result = self.last_result
        result.cycle = self.cycle_count
        result.suppressed = False
        result.model_swapped = False
        result.goals_updated = False

        t0 = time.perf_counter()
        if self.single_threaded:
            # the model and the task state halves, inline
            self.active.update(state.position, state.velocity, now)
            self.last_model_swap_time = now
        else:
            result.model_swapped = self.check_for_updates()
            self._stage_model_update(state)
        t_model = time.perf_counter() - t0

        t0 = time.perf_counter()
        c0 = time.thread_time()
        command = None
        try:
            result.goals_updated = self._update_goals()
            command = self._compute_command(state)
        except CommandError as exc:
            self.stats.suppressed_commands += 1
            result.suppressed = True
            self.publish("diagnostics/errors", str(exc))
        t_compute = time.perf_counter() - t0
        self._compute_cpu[self.cycle_count % self._history_len] = \
            time.thread_time() - c0

        t0 = time.perf_counter()
        for event_name in self.registry.emit_events(warn=self._warn):
            self.publish("events", event_name)
        t_events = time.perf_counter() - t0

        t0 = time.perf_counter()
        if command is not None:
            self.interface.write(command)
            self._last_command = command
        elif self._last_command is not None:
            # suppressed cycle: hold the last good command
            self.interface.write(self._last_command)
        t_write = time.perf_counter() - t0

        result.command = command
        self._record_cycle(t_cycle, t_read, t_model, t_compute, t_events,
                           t_write, now, state, command)
        self.cycle_count += 1
        return result

    def _compute_command(self, state):
        kwargs = {}
        if isinstance(self.wbc, WboscImpedance):
            kwargs["dt"] = self.period
        command = self.wbc.compute(self.active.model, self.active.constraints,
                                   self.compound, state, **kwargs)
        verdict = self._limit_verdict
        if verdict is None or verdict[0] != self.wbc.effort_version:
            verdict = self._check_limits(command)
        elif verdict[1] is not None:
            # a reused effort: its clipped values, like its warnings and
            # finiteness, are the last check's
            command.effort[:] = verdict[1]
        _, _, warnings, finite = verdict
        for text in warnings:
            self.publish("diagnostics/warnings", text)
        if not finite:
            raise CommandError("command includes NaN values")
        return command

    def _check_limits(self, command):
        """Enforce the limits on a command; returns its verdict (effort
        version, the clipped effort or None when no limit warned, warnings,
        whether the effort is finite).  The verdict is kept for the cycles
        that reuse the effort, unless position or velocity limits are
        enforced: those read the state."""
        _, warnings = enforce_limits(command, self.limits)
        # with no warning nothing was clipped: the effort is the reused one
        clipped = command.effort.copy() if warnings else None
        verdict = (self.wbc.effort_version, clipped, warnings,
                   bool(np.isfinite(command.effort).all()))
        if self.limits.position is None and self.limits.velocity is None:
            self._limit_verdict = verdict
        return verdict

    def _record_cycle(self, t_cycle, t_read, t_model, t_compute, t_events,
                      t_write, now, state, command):
        idx = self.cycle_count % self._history_len
        total = time.perf_counter() - t_cycle
        for row, value in enumerate((t_read, t_model, t_compute, t_events,
                                     t_write)):
            self._phase_history[row, idx] = value
        self._cycle_latency[idx] = total
        previous, self._prev_cycle_start = self._prev_cycle_start, now

        model_latency = now - self.last_model_swap_time
        if self._diagnostics.subscribed:
            # one queue entry for the cycle's diagnostics
            frequency = 0.0
            if previous is not None and now > previous:
                frequency = 1.0 / (now - previous)
            values = (frequency, total, model_latency,
                      self.active.model.G.copy(), state.position.copy())
            topics = self._diagnostics_topics
            if command is not None:
                values += (command.effort.copy(),)
            else:
                topics = topics[:-1]
            self._publish(topics, values)
        if self._snapshot_lock.acquire(blocking=False):
            try:
                self._snapshot = {
                    "cycle": self.cycle_count,
                    "state": state,
                    "command": command,
                    "model_latency": model_latency,
                }
            finally:
                self._snapshot_lock.release()

    def snapshot(self):
        """Most recent completed cycle, for out-of-context introspection."""
        with self._snapshot_lock:
            return dict(self._snapshot)

    def publish(self, topic, value):
        self._publish((f"{self.name}/{topic}",), (value,))

    def _warn(self, text):
        self.publish("diagnostics/warnings", text)

    # -- run helpers -------------------------------------------------------------

    def run(self, cycles=None, duration=None):
        if cycles is None:
            if duration is None:
                raise ServoError("run needs cycles or duration")
            cycles = int(round(duration * self.clock.frequency))
        if not self._initialized:
            self.servo_init()
        for _ in range(cycles):
            self.servo_update()
            self.clock.tick()
        return self.cycle_count

    def wait_idle(self, timeout=2.0):
        """Block, outside the servo cycle, until the in-flight reply is
        whole, so that the next cycle's check copies it in; False on
        timeout.  A failed child counts as idle: the check reports it."""
        if not self._in_flight:
            return True
        try:
            return self.model_process.reader.ready(timeout * 1000.0)
        except ServoError:
            return True

    def phase_stats(self, last_n=None):
        """(median, p99) per phase over the recorded window, in seconds.

        Wall times per phase plus "total" for the whole cycle, and
        "compute_command_cpu": the servo thread's own CPU time
        (time.thread_time) in the compute phase, which excludes time spent
        waiting for the GIL while another thread holds it."""
        n = min(self.cycle_count, self._history_len)
        if last_n is not None:
            n = min(n, last_n)
        if n == 0:
            return {}
        idx = [(self.cycle_count - 1 - k) % self._history_len for k in range(n)]
        windows = dict(zip(PHASES, self._phase_history[:, idx]))
        windows["total"] = self._cycle_latency[idx]
        windows["compute_command_cpu"] = self._compute_cpu[idx]
        return {name: (float(np.median(w)), float(np.percentile(w, 99)))
                for name, w in windows.items()}
