"""Servo runtime: clocks, the worker architecture, and the coordinator loop.

Execution model
---------------
Multi-threaded mode runs two threads and one child process.  The parent
process owns the servo executor (whoever calls servo_update), the model
worker thread, both model copies and the publisher.  A model copy
(ServoModel) is one update epoch: the model, its constraint set and the
state half of every compound task against that model (see ``tasks``).  The
copies share one guard, which the servo executor only ever try-acquires.

The update passes run in the child, a ModelProcess forked by servo_init
once both copies are primed; it owns a fork-time copy of one ServoModel.  A
model round sends it the staged joint state and the parent's constraint
objects, blocks in recv (which releases the GIL) while the child updates
its copy and every task's state half, and copies the one reply into the
inactive copy.  So a swap installs a model and task states of one epoch,
and the update passes never hold the parent's GIL.  The child is forked
rather than spawned because a fresh interpreter importing wbosc takes
longer than a whole set-up; it is forked after the publisher thread has
started, which is why it touches only numpy, its copy and its pipe: never
a goal, a gain, a parameter or a binding.  From Python 3.12 on, forking a
process that has threads is deprecated and warns.  stop() ends the child
before the caller closes the UDP socket, whose descriptor it inherits.

One servo cycle: apply staged inputs, read robot state, check for a fresh
copy, stage joint state for the model worker (try-acquire; skip on
contention or while a reply waits to be swapped, so none is overwritten),
check again, run the task goal halves when due, compute the command from
the active copy, emit events, write, publish diagnostics.

A task's goal half (error, PID command, the ``error`` parameter) runs on the
servo thread against the active copy's task state, for the enabled tasks,
in a cycle that swapped or whose parameter drain applied an input (a goal,
gain or enable flag).  So an input drained in cycle k is in cycle k's
command with no request to the child, and the PID integrator stays in the
parent.  The controller reuses its last effort while the active copy, each
task's goal-half version and the enabled/priority configuration are
unchanged (see ``Wbosc.compute``), so any other cycle does almost no numpy
work.  It ends with ``time.sleep(0)`` while the model worker has a round
running: that hands the worker the GIL, which it needs to send its request
and copy the reply in, and would otherwise wait out a switch interval for.

The rule: a quiet cycle's only GIL hand-off is that yield.  Every other
release lets a worker run for up to a switch interval (5 ms) before the
servo thread gets the GIL back, so the quiet path calls nothing that
releases it: events take their norm with a 1-D ``@``, the cycle's
diagnostics go to the publisher as one queue entry, and joint limits are
checked against arrays built once.  The one exception is the publisher:
when more than ``PublisherWorker.BEHIND`` entries wait, enqueue hands it
the GIL too, since a single-threaded servo never yields at all.

Measured with numpy 2.4.6 and OpenBLAS 0.3.31 on a 2-core x86-64 host,
with a thread looping the call: ``np.dot`` and ``np.linalg.norm`` release
the GIL at any size; ``svd`` from 6x6, ``eigh`` from 22x22, and 2-D ``@``,
``inv``, ``einsum`` and reductions from 64x64; 1-D ``@``, ``solve`` and
ufuncs on small arrays did not.

Single-threaded mode replaces the staging/check steps with an inline
update of the active copy and runs both task halves every cycle, so the
effort is recomputed every cycle, nothing yields and nothing is forked.
"""

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from .controller import CommandError, WboscImpedance, enforce_limits
from .tasks import TaskState

PHASES = ("read", "update_model", "compute_command", "emit_events", "write")
# published every cycle under <name>/diagnostics/, in this order; the command
# is left out on a suppressed cycle
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

class CountingLock:
    """Lock wrapper that counts blocking acquires made by the servo thread.

    The servo executor must never block; the counter turns that rule into a
    measurable property instead of a convention.
    """

    def __init__(self, stats):
        self._lock = threading.Lock()
        self._stats = stats

    def acquire(self, blocking=True):
        if blocking and self._stats is not None \
                and threading.get_ident() == self._stats.servo_thread_ident:
            self._stats.servo_blocking_acquires += 1
        return self._lock.acquire(blocking)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


@dataclass
class RuntimeStats:
    servo_thread_ident: int = 0
    servo_blocking_acquires: int = 0
    lost_task_updates: int = 0      # gaps in the swapped reply sequence
    model_swaps: int = 0
    staging_skips: int = 0
    suppressed_commands: int = 0


@dataclass
class ServoHooks:
    """Optional synchronization point for deterministic interleaving tests."""

    model_worker_gate: object = None    # fn() at the start of each worker round


# -- double-buffered model -----------------------------------------------------

class ServoModel:
    """One model copy, the constraint set derived from it, and the state
    half of every compound task against it: one update epoch.

    ``tasks`` holds (task, TaskState) pairs, set by the runtime; ``seq``
    counts the updates made.  With a ``process`` set, update runs in that
    ModelProcess and copies its result in here."""

    def __init__(self, model, constraint_set):
        self.model = model
        self.constraints = constraint_set
        self.tasks = ()
        self.seq = 0
        self.process = None

    def update(self, q_act, qd_act, stamp):
        if self.process is not None:
            self.process.update(self, q_act, qd_act, stamp)
            return
        q_full = self.model.full_from_actual(q_act)
        qd_full = self.model.full_from_actual(qd_act)
        self.model.update_kinematics(q_full, qd_full)
        self.model.stamp = stamp
        self.constraints.update(self.model)
        for task, state in self.tasks:
            task.update(self.model, state)
        self.seq += 1

    def updated(self):
        """What update wrote: the reply of a ModelProcess."""
        return (self.model.updated(), self.constraints.updated(),
                [state.updated() for _, state in self.tasks], self.seq)

    def load_update(self, reply, stamp):
        """Copy in a reply; the copy must have been primed by update."""
        model_arrays, constraint_values, task_values, self.seq = reply
        self.model.load_update(model_arrays)
        self.model.stamp = stamp
        self.constraints.load_update(constraint_values)
        for (_, state), flat in zip(self.tasks, task_values):
            state.load_update(flat, stamp)


class ModelProcess:
    """A forked child that runs ServoModel.update for the parent.

    The child owns a fork-time copy of one primed ServoModel, its tasks
    included.  A request is the joint state, its stamp and the parent's
    constraint objects, so every constraint and runtime parameter change is
    live in the child; the reply is what the update wrote
    (``ServoModel.updated``) or the error text.  Of a task the child runs
    only the state half, which reads the model and the task's fixed
    geometry: never a goal, a gain, a parameter or a binding.  The child
    touches only numpy, its copy and its end of the pipe, and exits on a
    stop request or end of file."""

    def __init__(self, servo_model):
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve_model, args=(child_end, self._conn, servo_model),
            name="model-process", daemon=True)
        self._process.start()
        child_end.close()
        self.pid = self._process.pid

    def update(self, servo_model, q_act, qd_act, stamp):
        """Blocks in recv, which releases the GIL, while the child works."""
        request = (q_act, qd_act, stamp, servo_model.constraints.constraints)
        try:
            self._conn.send(request)
            reply = self._conn.recv()
        except (EOFError, OSError):
            raise ServoError("the model process has exited") from None
        if isinstance(reply, str):
            raise ServoError(reply)
        servo_model.load_update(reply, stamp)

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


def _serve_model(conn, parent_end, servo_model):
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
            servo_model.update(q_act, qd_act, stamp)
        except Exception as exc:
            conn.send(str(exc))
        else:
            conn.send(servo_model.updated())


class DoubleBuffer:
    """Active/inactive pair; the servo side only try-acquires the guard."""

    def __init__(self, active, inactive, stats=None):
        self.active = active
        self.inactive = inactive
        self.guard = CountingLock(stats)
        self.update_ready = False
        self.last_update_timestamp = 0.0

    def swap(self, stamp):
        self.active, self.inactive = self.inactive, self.active
        self.update_ready = False
        self.last_update_timestamp = stamp


# -- workers ---------------------------------------------------------------------

class Worker:
    """One worker thread that runs ``step()`` each time it is triggered.

    A step that raises ends in ``on_error(exc)``.  ``gate`` and ``delay`` run
    before each round (test seams).  ``idle()`` is true when no round is
    running and none is triggered; the servo reads it without blocking, and
    only the servo triggers, so an idle reading stays true until the servo's
    next trigger."""

    def __init__(self, name, step, on_error, gate=None, delay=None):
        self._step = step
        self._gate = gate
        self._delay = delay
        self._on_error = on_error
        self.rounds = 0
        self._running = False
        self._trigger = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._trigger.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def trigger(self):
        self._trigger.set()

    def idle(self):
        return not (self._running or self._trigger.is_set())

    def _run(self):
        while not self._stop.is_set():
            if not self._trigger.wait(timeout=0.2):
                continue
            # running is raised before the trigger is cleared, so idle()
            # never reads true between the two
            self._running = True
            self._trigger.clear()
            if self._stop.is_set():
                return
            if self._gate is not None:
                self._gate()
            if self._delay is not None:
                time.sleep(self._delay())
            try:
                self._step()
            except Exception as exc:
                self._on_error(exc)
            self.rounds += 1
            self._running = False


# -- coordinator -------------------------------------------------------------------

@dataclass
class CycleResult:
    cycle: int = 0
    command: object = None
    suppressed: bool = False
    model_swapped: bool = False
    goals_updated: bool = False


class ServoRuntime:
    """Owns the servo loop state machine, the model worker and the model
    process.

    ``publish(topics, values)`` hands values[i] for topics[i] off the servo
    thread as one unit, in order; ``limits`` is a JointLimits for the
    command, or None."""

    def __init__(self, name, model_pair, compound, wbc, interface, clock,
                 registry=None, publish=None, limits=None,
                 single_threaded=False, hooks=None, worker_delay=None,
                 history=2048):
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
        self.single_threaded = single_threaded
        self.hooks = hooks or ServoHooks()
        self.stats = RuntimeStats()
        self.buffers = DoubleBuffer(model_pair[0], model_pair[1], self.stats)
        for servo_model in model_pair:
            servo_model.tasks = tuple(
                (task, TaskState(task.dimension, task.n_dofs))
                for task in compound.tasks())
        self.model_worker = None
        self.task_worker = None     # always None: the model process runs
        #                             the task state halves
        self.model_process = None
        n_joints = model_pair[0].model.n_joints
        self._staged_q = np.zeros(n_joints)     # written under the guard
        self._staged_qd = np.zeros(n_joints)
        self._staged_stamp = 0.0
        self._swapped_seq = 0       # seq of the last copy swapped in
        self._goals_due = False     # an applied input or a failed goal half
        self._worker_delay = worker_delay
        self.cycle_count = 0
        self._initialized = False
        self._last_command = None
        self._prev_cycle_start = None
        self.last_model_swap_time = 0.0
        self.last_result = CycleResult()
        n = len(PHASES)
        self._history_len = history
        self._phase_history = np.zeros((n, history))
        self._compute_cpu = np.zeros(history)     # servo-thread CPU time
        self._cycle_latency = np.zeros(history)
        self._frequency = np.zeros(history)
        self._snapshot_lock = threading.Lock()
        self._snapshot = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self):
        return self.buffers.active

    @property
    def period(self):
        return self.clock.period

    def servo_init(self):
        """Blocking read, prime both model copies, fork the model process,
        start idle workers.  Runs once: a second call raises ServoError."""
        if self._initialized:
            raise ServoError("servo_init has already run")
        self.stats.servo_thread_ident = threading.get_ident()
        state = self.interface.read()
        now = self.clock.now()
        for servo_model in (self.buffers.active, self.buffers.inactive):
            servo_model.update(state.position, state.velocity, now)
        self._swapped_seq = self.active.seq
        for task, task_state in self.active.tasks:
            task.update_goal(task_state, self.period)
        self.last_model_swap_time = now

        def worker_error(exc):
            self.publish("diagnostics/errors", f"model update failed: {exc}")

        if not self.single_threaded:
            self.model_process = ModelProcess(self.buffers.active)
            for servo_model in (self.buffers.active, self.buffers.inactive):
                servo_model.process = self.model_process
            self.model_worker = Worker("model-updater",
                                       self._update_inactive_model,
                                       worker_error,
                                       self.hooks.model_worker_gate,
                                       self._worker_delay)
            self.model_worker.start()
        self._initialized = True
        return self

    def stop(self):
        if self.model_worker is not None:
            self.model_worker.stop()
        if self.model_process is not None:
            self.model_process.stop()

    def __enter__(self):
        if not self._initialized:
            self.servo_init()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- the model worker and the swap ------------------------------------------

    def _update_inactive_model(self):
        """Model worker round: refresh the inactive copy from the staged
        state.  A trigger left over from a second staging before this round
        took the guard finds the reply of that round still waiting to be
        swapped; it already holds the staged state, so nothing is redone."""
        with self.buffers.guard:
            if self.buffers.update_ready:
                return
            self.buffers.inactive.update(self._staged_q, self._staged_qd,
                                         self._staged_stamp)
            self.buffers.update_ready = True

    def check_for_updates(self):
        """Swap in a fresh model copy, with the task states of its epoch,
        when one is ready.  Returns whether it swapped."""
        if not self.buffers.guard.acquire(blocking=False):
            return False
        try:
            if not self.buffers.update_ready:
                return False
            self.buffers.swap(self.clock.now())
        finally:
            self.buffers.guard.release()
        self.stats.model_swaps += 1
        self.last_model_swap_time = self.buffers.last_update_timestamp
        seq = self.active.seq
        self.stats.lost_task_updates += seq - self._swapped_seq - 1
        self._swapped_seq = seq
        return True

    def _stage_model_update(self, state):
        """Hand the latest joint state to the model worker without blocking.
        Skipped while a reply waits to be swapped, so no reply is ever
        overwritten before the servo has seen it."""
        if not self.buffers.guard.acquire(blocking=False):
            self.stats.staging_skips += 1
            return False
        try:
            if self.buffers.update_ready:
                self.stats.staging_skips += 1
                return False
            self._staged_q[:] = state.position
            self._staged_qd[:] = state.velocity
            self._staged_stamp = self.clock.now()
        finally:
            self.buffers.guard.release()
        self.model_worker.trigger()
        return True

    def _update_goals(self):
        """Goal halves against the active copy: every enabled task after an
        applied input, otherwise each enabled task whose active state is not
        the active copy's (after a swap, that is every one).  Returns
        whether any ran; a goal half that raises is a CommandError, and the
        goal halves stay due until they all succeed."""
        ran = False
        for task, state in self.active.tasks:
            if task.enabled and (self._goals_due
                                 or task.active_state is not state):
                try:
                    task.update_goal(state, self.period)
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
        if self.registry is not None \
                and self.registry.drain_staged(warn=self._warn):
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
            self._goals_due = True
        else:
            swapped = self.check_for_updates()
            self._stage_model_update(state)
            result.model_swapped = self.check_for_updates() or swapped
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
        fired = ()
        if self.registry is not None:
            fired = self.registry.emit_events(warn=self._warn)
            for event_name in fired:
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
        if not (result.goals_updated or result.model_swapped) \
                and self._worker_running():
            # the controller reused its effort and held the GIL for the
            # whole cycle; let the worker run before the next one
            time.sleep(0)

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
        if self.limits is not None:
            _, warnings = enforce_limits(command, self.limits)
            for text in warnings:
                self.publish("diagnostics/warnings", text)
        if not np.isfinite(command.effort).all():
            raise CommandError("command includes NaN values")
        return command

    def _record_cycle(self, t_cycle, t_read, t_model, t_compute, t_events,
                      t_write, now, state, command):
        idx = self.cycle_count % self._history_len
        total = time.perf_counter() - t_cycle
        for row, value in enumerate((t_read, t_model, t_compute, t_events,
                                     t_write)):
            self._phase_history[row, idx] = value
        self._cycle_latency[idx] = total
        if self._prev_cycle_start is not None:
            dt = now - self._prev_cycle_start
            self._frequency[idx] = (1.0 / dt) if dt > 0 else 0.0
        self._prev_cycle_start = now

        model_latency = now - self.last_model_swap_time
        if self._publish is not None:
            # one queue entry for the cycle's diagnostics
            values = (self._frequency[idx], total, model_latency,
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
        if self._publish is not None:
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
        """Block (outside the servo cycle) until the model worker is neither
        running nor triggered; False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self._worker_running():
                return True
            time.sleep(0.0005)
        return False

    def _worker_running(self):
        """The model worker has a round running or triggered."""
        return self.model_worker is not None and not self.model_worker.idle()

    def phase_stats(self, last_n=None):
        """(median, p99) per phase over the recorded window, in seconds.

        Wall times per phase plus "total" for the whole cycle, and
        "compute_command_cpu": the servo thread's own CPU time
        (time.thread_time) in the compute phase, which excludes time spent
        waiting for the GIL while a worker holds it."""
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
