"""Spans around the program's public calls, recorded from outside it.

``Tracer.install`` replaces public methods and functions of the wbosc
modules with wrappers that time each call.  A span holds its name, start,
end, the calling thread's CPU time across it, the thread, the servo cycle it
began in and its parent span on the same thread.  Spans stay in memory and
are written to one ``.npz`` file when the run ends.  Nothing inside
``src/wbosc`` changes; the untraced run never installs the wrappers.
"""

import array
import itertools
import threading
import time

import numpy as np

import wbosc.controller
import wbosc.servo
from wbosc.assembly import AssembledController
from wbosc.constraints import ConstraintSet
from wbosc.controller import Wbosc
from wbosc.model import RobotModel
from wbosc.params import ParameterRegistry
from wbosc.plant import SimPlant
from wbosc.servo import ServoRuntime
from wbosc.tasks import (CartesianPositionTask, CompoundTask,
                         JointPositionTask, Orientation2DTask, Task)
from wbosc.transports import PublisherWorker, UdpTransport

# span name -> (owner, attribute, original); the original is looked up on
# the class that defines it, so a subclass gets its own span name
TARGETS = (
    ("servo.servo_update", ServoRuntime, "servo_update", ServoRuntime.servo_update),
    ("servo.check_for_updates", ServoRuntime, "check_for_updates",
     ServoRuntime.check_for_updates),
    ("assembly.servo_init", ServoRuntime, "servo_init", ServoRuntime.servo_init),
    ("assembly.build", AssembledController, "__init__", AssembledController.__init__),
    ("model.update_kinematics", RobotModel, "update_kinematics",
     RobotModel.update_kinematics),
    ("constraints.update", ConstraintSet, "update", ConstraintSet.update),
    ("tasks.update.cartesian", CartesianPositionTask, "update", Task.update),
    ("tasks.update.orientation2d", Orientation2DTask, "update", Task.update),
    ("tasks.update.joint", JointPositionTask, "update", Task.update),
    ("tasks.stack", CompoundTask, "stack", CompoundTask.stack),
    ("controller.compute", Wbosc, "compute", Wbosc.compute),
    ("controller.ladder_forces", wbosc.controller, "ladder_forces",
     wbosc.controller.ladder_forces),
    ("controller.enforce_limits", wbosc.servo, "enforce_limits",
     wbosc.servo.enforce_limits),
    ("params.drain_staged", ParameterRegistry, "drain_staged",
     ParameterRegistry.drain_staged),
    ("params.emit_events", ParameterRegistry, "emit_events",
     ParameterRegistry.emit_events),
    ("transports.enqueue", PublisherWorker, "enqueue", PublisherWorker.enqueue),
    ("transports.udp_send", UdpTransport, "send_publish", UdpTransport.send_publish),
    ("plant.step", SimPlant, "step", SimPlant.step),
)

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.  ``cycle`` is the servo cycle under way;
    spans on worker threads are tagged with it when they begin."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.cycle = -1
        self.applied_inputs = 0     # sum of drain_staged results
        self.events_fired = 0       # sum of emit_events results
        self._ids = itertools.count()
        # one flat row per span: id, name, thread, cycle, parent, start,
        # end, cpu; a single extend() per span keeps rows whole when
        # threads interleave
        self._rows = array.array("d")
        self._local = threading.local()
        self._threads = {}
        self._saved = []

    def install(self):
        for index, (name, owner, attr, original) in enumerate(TARGETS):
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(index, name, original))
        return self

    def uninstall(self):
        for owner, attr, previous in reversed(self._saved):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._saved.clear()

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [NO_PARENT]
            local.thread = self._threads.setdefault(threading.get_ident(),
                                                    len(self._threads))
        return local

    def _wrap(self, index, name, fn):
        tracer = self
        rows = self._rows
        perf, cpu = time.perf_counter, time.thread_time
        is_cycle = name == "servo.servo_update"
        is_drain = name == "params.drain_staged"
        is_events = name == "params.emit_events"

        def wrapper(*args, **kwargs):
            local = tracer._stack()
            span = next(tracer._ids)
            if is_cycle:
                tracer.cycle = args[0].cycle_count
            cycle = tracer.cycle
            parent = local.stack[-1]
            local.stack.append(span)
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                local.stack.pop()
                rows.extend((span, index, local.thread, cycle, parent,
                             t0, t1, c1 - c0))
            if is_drain:
                tracer.applied_inputs += result
            elif is_events:
                tracer.events_fired += len(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ---------------------------------------------------------------

    def spans(self):
        """Columns of every span so far, ordered by span id."""
        rows = np.frombuffer(self._rows, dtype=float).reshape(-1, 8)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        i = rows[:, :5].astype(np.int64)
        f = rows[:, 5:]
        ids = i[:, 0]
        parent_row = np.full(len(ids), NO_PARENT)
        has_parent = i[:, 4] != NO_PARENT
        parent_row[has_parent] = np.searchsorted(ids, i[has_parent, 4])
        duration = f[:, 1] - f[:, 0]
        child_time = np.zeros(len(ids))
        np.add.at(child_time, parent_row[has_parent], duration[has_parent])
        return {
            "id": ids, "name": i[:, 1], "thread": i[:, 2], "cycle": i[:, 3],
            "parent": parent_row, "start": f[:, 0], "end": f[:, 1],
            "cpu": f[:, 2], "duration": duration,
            "self": duration - child_time,
        }

    def save(self, path, spans):
        np.savez_compressed(path, names=np.array(self.names), **spans)
