"""Servo runtime: clocks, the worker architecture, and the coordinator loop.

Execution model
---------------
Multi-threaded mode runs three threads and one child process.  The parent
process owns the servo executor (whoever calls servo_update), the model
worker and task worker threads, both model copies, the task states and the
publisher.  Shared state is two model copies behind one guard, per-task
double buffers behind completion flags, and the worker trigger events.  The
servo executor only ever uses non-blocking try-acquire on the guard;
workers may block on their own triggers.

The model passes run in the child, a ModelProcess forked by servo_init once
both copies are primed.  It owns a fork-time copy of one model and its
constraint set and nothing else.  A model round sends it the staged joint
state plus the parent's constraint objects, blocks in recv (which releases
the GIL) while the child updates its copy, and copies the returned arrays
into the inactive copy.  So the model passes no longer hold the parent's
GIL, and the servo thread no longer waits behind one for it.  The child is
forked rather than spawned because a fresh interpreter importing wbosc
takes longer than a whole set-up; the fork happens after the publisher
thread has started, which is why the child touches only numpy, its copy and
its pipe.  From Python 3.12 on, forking a process that has threads is
deprecated and warns.  stop() ends the child before the caller closes the
UDP socket, whose descriptor the child inherits.

One servo cycle: read robot state, check for updates, stage joint state for
the model worker (try-acquire; skip on contention), check again, compute the
command from the active copies, emit events, write, publish diagnostics.

check_for_updates reads the task worker's idle state once, pulls the
completed task updates in one scan, then swaps the model pair when the
inactive copy is fresh.  A new task round, handed the active model, is
triggered only when that one reading, taken before the scan, was idle.  The
worker flags each task as it finishes it, so a round can end while the scan
is under way; a reading taken after the scan could then start a new round
before the scan had consumed a task it had already passed, and that round
would overwrite the pending update.  Read first, a round that ends mid-scan
simply waits for the next scan, and the trigger is deferred to the first
later check that reads the worker idle.  A cycle whose parameter drain
applied a staged input (a goal, gain or enable flag) also makes a task round
due, so the input reaches the task states without waiting for the next
swap.  Staging is skipped while the task worker is still reading the copy
that would be overwritten.

The controller reuses its last effort while the active model copy, the
active task states and the enabled/priority configuration are unchanged
(see ``Wbosc.compute``), so a cycle that swapped no model and consumed no
task update does almost no numpy work.  Such a cycle ends with
``time.sleep(0)`` while a worker has a round running: it hands the GIL to
that worker, which otherwise waits out a full switch interval and the model
and task states go stale.  The task worker computes under the GIL; the
model worker needs it only to send its request and copy the reply in, so
the yield now waits behind a task pass or a copy, not a model pass.

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

Single-threaded mode replaces the staging/check steps with direct inline
model and task updates every cycle, so the effort is recomputed every cycle,
nothing yields and nothing is forked.
"""

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .controller import CommandError, WboscImpedance, enforce_limits

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
    lost_task_updates: int = 0
    consumed_task_updates: int = 0
    model_swaps: int = 0
    staging_skips: int = 0
    suppressed_commands: int = 0


@dataclass
class ServoHooks:
    """Optional synchronization points for deterministic interleaving tests."""

    scan_step: object = None            # fn(task_index) after each scan check
    task_worker_gate: object = None     # fn() at the start of each worker round
    model_worker_gate: object = None
    after_task_trigger: object = None   # fn() right after the worker is triggered


# -- double-buffered model -----------------------------------------------------

class ServoModel:
    """One model copy plus the constraint set derived from it.

    With a ``process`` set, update runs in that ModelProcess and copies its
    result in here."""

    def __init__(self, model, constraint_set):
        self.model = model
        self.constraints = constraint_set
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


class ModelProcess:
    """A forked child that runs ServoModel.update for the parent.

    The child owns a fork-time copy of one primed ServoModel.  A request is
    the joint state, its stamp and the parent's constraint objects, so every
    constraint and runtime parameter change is live in the child; the reply
    is what the update wrote (``RobotModel.UPDATED`` and
    ``ConstraintSet.UPDATED``) or the error text.  The child touches only
    numpy, its copy and its end of the pipe, and exits on a stop request or
    end of file."""

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
        model_arrays, constraint_values = reply
        servo_model.model.load_update(model_arrays)
        servo_model.model.stamp = stamp
        servo_model.constraints.load_update(constraint_values)

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
            conn.send((servo_model.model.updated(),
                       servo_model.constraints.updated()))


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
    """One worker thread that runs a round each time it is triggered.

    ``body`` yields (label, step) pairs; a step that raises ends in
    ``on_error("<label> failed: <exc>")`` and the round goes on.  ``gate`` and
    ``delay`` run before each round (test seams).  ``idle()`` is true when no
    round is running and none is triggered; the servo reads it without
    blocking, and only the servo triggers, so an idle reading stays true
    until the servo's next trigger."""

    def __init__(self, name, body, gate=None, delay=None, on_error=None):
        self._body = body
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
            for label, step in self._body():
                try:
                    step()
                except Exception as exc:
                    if self._on_error is not None:
                        self._on_error(f"{label} failed: {exc}")
            self.rounds += 1
            self._running = False


# -- coordinator -------------------------------------------------------------------

@dataclass
class CycleResult:
    cycle: int = 0
    command: object = None
    suppressed: bool = False
    model_swapped: bool = False
    consumed_updates: int = 0


class ServoRuntime:
    """Owns the servo loop state machine and the two child workers.

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
        self.model_worker = None
        self.task_worker = None
        self.model_process = None
        n_joints = model_pair[0].model.n_joints
        self._staged_q = np.zeros(n_joints)     # written under the guard
        self._staged_qd = np.zeros(n_joints)
        self._staged_stamp = 0.0
        self._task_model = None     # the copy the task worker's round reads
        self._task_trigger_pending = False
        self._worker_delay = worker_delay
        self._last_task_seq = {}
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
        for task in self.compound.tasks():
            task.update(self.active.model, self.period)
            task.consume_update()
            self._last_task_seq[task.name] = task._update_seq
        self.last_model_swap_time = now

        def worker_error(text):
            self.publish("diagnostics/errors", text)

        if not self.single_threaded:
            self.model_process = ModelProcess(self.buffers.active)
            for servo_model in (self.buffers.active, self.buffers.inactive):
                servo_model.process = self.model_process
            self.model_worker = Worker("model-updater", self._model_round,
                                       self.hooks.model_worker_gate,
                                       self._worker_delay, worker_error)
            self.model_worker.start()
            self.task_worker = Worker("task-updater", self._task_round,
                                      self.hooks.task_worker_gate,
                                      self._worker_delay, worker_error)
            self.task_worker.start()
        self._initialized = True
        return self

    def stop(self):
        for worker in (self.model_worker, self.task_worker):
            if worker is not None:
                worker.stop()
        if self.model_process is not None:
            self.model_process.stop()

    def __enter__(self):
        if not self._initialized:
            self.servo_init()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- worker rounds ---------------------------------------------------------

    def _model_round(self):
        """Model worker: refresh the inactive copy from the staged state."""
        yield "model update", self._update_inactive_model

    def _update_inactive_model(self):
        with self.buffers.guard:
            self.buffers.inactive.update(self._staged_q, self._staged_qd,
                                         self._staged_stamp)
            self.buffers.update_ready = True

    def _task_round(self):
        """Task worker: update every enabled task against the handed copy.
        Each task flags its own completion; the round ends after the last."""
        model = self._task_model.model
        for task in self.compound.tasks():
            if task.enabled:
                yield (f"task {task.name!r} update",
                       partial(task.update, model, self.period))

    # -- update pulling -------------------------------------------------------

    def _scan_tasks(self):
        consumed = 0
        hook = self.hooks.scan_step
        for idx, task in enumerate(self.compound.tasks()):
            seq = task.consume_update()
            if seq is not None:
                consumed += 1
                last = self._last_task_seq.get(task.name, 0)
                if seq > last + 1:
                    self.stats.lost_task_updates += seq - last - 1
                self._last_task_seq[task.name] = seq
            if hook is not None:
                hook(idx)
        self.stats.consumed_task_updates += consumed
        return consumed

    def check_for_updates(self):
        """Pull task updates, then swap in a fresh model and hand it to the
        task worker when possible."""
        # read before the scan: if the worker was idle then, its last round
        # was complete and this scan consumes all of it before a new round
        # can overwrite any task's state
        tasks_idle = self.task_worker.idle()
        consumed = self._scan_tasks()
        swapped = False
        if self.buffers.guard.acquire(blocking=False):
            try:
                if self.buffers.update_ready:
                    self.buffers.swap(self.clock.now())
                    swapped = True
            finally:
                self.buffers.guard.release()
        if swapped:
            self.stats.model_swaps += 1
            self.last_model_swap_time = self.buffers.last_update_timestamp
            self._task_trigger_pending = True
        if self._task_trigger_pending and tasks_idle:
            self._task_model = self.active
            self.task_worker.trigger()
            self._task_trigger_pending = False
            if self.hooks.after_task_trigger is not None:
                self.hooks.after_task_trigger()
        return consumed, swapped

    def _stage_model_update(self, state):
        """Hand the latest joint state to the model worker without blocking."""
        if not self.task_worker.idle() \
                and self._task_model is self.buffers.inactive:
            # the worker is still reading the copy we would overwrite
            self.stats.staging_skips += 1
            return False
        if not self.buffers.guard.acquire(blocking=False):
            self.stats.staging_skips += 1
            return False
        try:
            self._staged_q[:] = state.position
            self._staged_qd[:] = state.velocity
            self._staged_stamp = self.clock.now()
        finally:
            self.buffers.guard.release()
        self.model_worker.trigger()
        return True

    # -- the servo cycle --------------------------------------------------------

    def servo_update(self):
        if not self._initialized:
            raise ServoError("servo_init has not run")
        t_cycle = time.perf_counter()
        now = self.clock.now()
        if self.registry is not None and self.registry.drain_staged():
            # a new goal, gain or enable flag reaches the task states only
            # through a task round, so one is due now, not at the next swap
            self._task_trigger_pending = True

        t0 = time.perf_counter()
        state = self.interface.read()
        t_read = time.perf_counter() - t0

        result = self.last_result
        result.cycle = self.cycle_count
        result.suppressed = False
        result.model_swapped = False
        result.consumed_updates = 0

        t0 = time.perf_counter()
        if self.single_threaded:
            self.active.update(state.position, state.velocity, now)
            self.last_model_swap_time = now
            # inline task state refresh counts as state-update work
            for task in self.compound.tasks():
                if task.enabled:
                    task.update(self.active.model, self.period)
                    task.consume_update()
        else:
            consumed, swapped = self.check_for_updates()
            result.consumed_updates += consumed
            result.model_swapped |= swapped
            self._stage_model_update(state)
            consumed, swapped = self.check_for_updates()
            result.consumed_updates += consumed
            result.model_swapped |= swapped
        t_model = time.perf_counter() - t0

        t0 = time.perf_counter()
        c0 = time.thread_time()
        command = None
        try:
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
            fired = self.registry.emit_events(
                warn=lambda msg: self.publish("diagnostics/warnings", msg))
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
        if not (result.consumed_updates or result.model_swapped) \
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
        """Block (outside the servo cycle) until neither worker is running
        or triggered; False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self._worker_running():
                return True
            time.sleep(0.0005)
        return False

    def _worker_running(self):
        """A worker has a round running or triggered."""
        return self.model_worker is not None \
            and not (self.model_worker.idle() and self.task_worker.idle())

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
