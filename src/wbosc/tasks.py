"""Task library: PID task-space control law, concrete task types, and the
prioritized compound task.

A task update has two halves, both on the task's one TaskState,
``active_state``.  The state half, ``Task.update(model)``, reads the model
only: it writes the Jacobian, the current value, its rate ``J q̇`` and, for
Orientation2DTask, the plane basis, stamped with the model's stamp.  The
goal half, ``Task.update_goal(dt)``, writes the error and the PID command
from the goals and gains.  The compound task row-stacks the states of the
enabled tasks at one priority level, in declaration order.

Binding surface (dot-namespaced by task name, case-sensitive): goalPosition,
goalVelocity, goalAcceleration, goalOrientation, goalAngularVelocity,
goalVector, kp, ki, kd, error, enabled, currentAcceleration.

Each type declares its configuration keys, ``KEYS``, of which ``REQUIRED``
must be given; the configuration loader checks them.

Each task keeps its goals in one store, ``Task.goals``: a dict from the goal
parameter name to its vector, filled by the constructor.  Declaring the
parameters declares every entry as a VECTOR parameter whose setter replaces
the entry, so a goal set through the registry and a goal written into
``goals`` reach the next update the same way; only the registry path also
updates the parameter's value.  The setter refuses a vector of the wrong
length, and a refused value is never stored.
"""

import math
from functools import partial

import numpy as np

from .geometry import quat_conjugate, quat_multiply, quat_from_matrix
from .params import ParameterKind


class TaskError(ValueError):
    pass


class PIDGains:
    """Per-dimension non-negative gain vectors plus the integrator clamp."""

    def __init__(self, dimension, kp=0.0, ki=0.0, kd=0.0, integrator_limit=0.0):
        self.dimension = dimension
        self.kp = self._vec(kp)
        self.ki = self._vec(ki)
        self.kd = self._vec(kd)
        self.integrator_limit = self._vec(integrator_limit)
        for label, v in (("kp", self.kp), ("ki", self.ki), ("kd", self.kd),
                         ("integratorLimit", self.integrator_limit)):
            if np.any(v < 0.0):
                raise TaskError(f"{label} must be non-negative")

    def _vec(self, value):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full(self.dimension, float(arr))
        if arr.shape != (self.dimension,):
            raise TaskError(
                f"gain length {arr.shape} does not match task dimension "
                f"{self.dimension}")
        return arr.copy()


class PIDController:
    def __init__(self, gains):
        self.gains = gains
        self.integral = np.zeros(gains.dimension)

    def command(self, error, error_dot, feedforward, dt):
        if dt <= 0.0:
            raise TaskError("dt must be positive")
        g = self.gains
        if error.shape != (g.dimension,) or error_dot.shape != (g.dimension,):
            raise TaskError("error dimension mismatch")
        self.integral += error * dt
        np.clip(self.integral, -g.integrator_limit, g.integrator_limit,
                out=self.integral)
        return g.kp * error + g.ki * self.integral + g.kd * error_dot + feedforward


class TaskState:
    """One task's state against one model snapshot: the state half writes
    all but the error and the command, which the goal half writes.
    ``fresh`` is set by the state half and ``load_update`` and cleared by
    the goal half: the goal half has not yet seen this state."""

    __slots__ = ("jacobian", "current", "velocity", "basis", "model_stamp",
                 "command", "error", "fresh")

    def __init__(self, dimension, n_dofs):
        self.jacobian = np.zeros((dimension, n_dofs))
        self.current = self.velocity = self.basis = None
        self.model_stamp = 0.0
        self.command = np.zeros(dimension)
        self.error = np.zeros(dimension)
        self.fresh = False

    def _arrays(self):
        return [a for a in (self.jacobian, self.current, self.velocity,
                            self.basis) if a is not None]

    def updated(self):
        """What the state half wrote, as one flat vector: one array to
        pickle instead of four."""
        return np.concatenate([a.ravel() for a in self._arrays()])

    def load_update(self, flat, stamp):
        """Copy in ``updated()`` of a state of the same task; this state's
        fields already have their shapes."""
        start = 0
        for a in self._arrays():
            a[...] = flat[start:start + a.size].reshape(a.shape)
            start += a.size
        self.model_stamp = stamp
        self.fresh = True


class Task:
    """Base: the two update halves, the goal store and the parameter
    reflection surface."""

    type_name = "Task"
    KEYS = ("kp", "ki", "kd", "integratorLimit")
    REQUIRED = ()

    def __init__(self, name, dimension, n_dofs, gains, goals):
        self.name = name
        self.dimension = dimension
        self.n_dofs = n_dofs
        self.enabled = True
        self.goals = {key: np.array(value, dtype=float)
                      for key, value in goals.items()}
        self.gains = gains
        self.pid = PIDController(gains)
        self.active_state = TaskState(dimension, n_dofs)
        self.version = 0            # bumped by every goal half
        self._p_error = None

    def update(self, model):
        """State half: refresh the state from a model snapshot.  Reads the
        model and the task's fixed geometry only."""
        state = self.active_state
        self._update_state(model, state)
        state.model_stamp = model.stamp
        state.fresh = True

    def update_goal(self, dt):
        """Goal half: the error and the PID command from the state and the
        current goals and gains."""
        state = self.active_state
        self._update_goal(state, dt)
        state.fresh = False
        self.version += 1
        if self._p_error is not None:
            self._p_error.set(state.error)

    def _update_state(self, model, state):
        raise NotImplementedError

    def _update_goal(self, state, dt):
        raise NotImplementedError

    # -- parameters --------------------------------------------------------

    def declare_parameters(self, registry):
        registry.declare(self.name, "enabled", ParameterKind.BOOLEAN,
                         self.enabled,
                         setter=lambda v: setattr(self, "enabled", bool(v)))
        registry.declare(self.name, "kp", ParameterKind.VECTOR, self.gains.kp,
                         setter=lambda v: self._set_gain("kp", v))
        registry.declare(self.name, "ki", ParameterKind.VECTOR, self.gains.ki,
                         setter=lambda v: self._set_gain("ki", v))
        registry.declare(self.name, "kd", ParameterKind.VECTOR, self.gains.kd,
                         setter=lambda v: self._set_gain("kd", v))
        self._p_error = registry.declare(self.name, "error",
                                         ParameterKind.VECTOR,
                                         np.zeros(self.dimension),
                                         writable=False)
        for key, value in self.goals.items():
            registry.declare(self.name, key, ParameterKind.VECTOR, value,
                             setter=partial(self._set_goal, key))

    def _set_gain(self, which, value):
        arr = self.gains._vec(value)
        if np.any(arr < 0.0):
            raise TaskError(f"{which} must be non-negative")
        getattr(self.gains, which)[:] = arr

    def _set_goal(self, key, value):
        """Set one goal, from the config or the registry: it must keep its
        length, and a direction goal must be of unit norm."""
        if value.shape != self.goals[key].shape:
            raise TaskError(f"{self.name}.{key}: length {value.shape} does "
                            f"not match {self.goals[key].shape}")
        if key in ("goalOrientation", "goalVector") \
                and abs(np.linalg.norm(value) - 1.0) > 1e-6:
            raise TaskError(f"{self.name}.{key} must be of unit norm")
        self.goals[key] = value


class JointPositionTask(Task):
    """Posture objective over all real joints; J is the selection matrix U."""

    type_name = "JointPositionTask"
    KEYS = Task.KEYS + ("goalPosition", "goalVelocity", "goalAcceleration")

    def __init__(self, name, model, gains, goal_position=None,
                 goal_velocity=None, goal_acceleration=None):
        n = model.n_joints
        zero = np.zeros(n)
        super().__init__(name, n, model.n_dofs, gains, {
            "goalPosition": zero if goal_position is None else goal_position,
            "goalVelocity": zero if goal_velocity is None else goal_velocity,
            "goalAcceleration":
                zero if goal_acceleration is None else goal_acceleration})
        for v in self.goals.values():
            if v.shape != (n,):
                raise TaskError(f"goal length {v.shape} != n_joints {n}")
        self._p_current_acc = None

    def declare_parameters(self, registry):
        super().declare_parameters(registry)
        self._p_current_acc = registry.declare(
            self.name, "currentAcceleration", ParameterKind.VECTOR,
            np.zeros(self.dimension), writable=False)

    def _update_state(self, model, state):
        state.jacobian[:] = model.underactuation_matrix()
        state.current = model.q_actual().copy()
        state.velocity = model.qd_actual().copy()

    def _update_goal(self, state, dt):
        goal_qdd = self.goals["goalAcceleration"]
        np.subtract(self.goals["goalPosition"], state.current, out=state.error)
        state.command[:] = self.pid.command(
            state.error, self.goals["goalVelocity"] - state.velocity,
            goal_qdd, dt)
        if self._p_current_acc is not None:
            self._p_current_acc.set(goal_qdd)


class CartesianPositionTask(Task):
    """World-frame position of a body-frame control point on a link."""

    type_name = "CartesianPositionTask"
    KEYS = Task.KEYS + ("link", "controlPoint", "goalPosition")
    REQUIRED = ("link",)

    def __init__(self, name, model, gains, link, control_point=(0, 0, 0),
                 goal_position=None):
        super().__init__(name, 3, model.n_dofs, gains, {
            "goalPosition": np.zeros(3) if goal_position is None
            else goal_position,
            "goalVelocity": np.zeros(3), "goalAcceleration": np.zeros(3)})
        model.body_index(link)  # validate early
        self.link = link
        self.control_point = _vector3(control_point, "controlPoint")

    def current_position(self, model):
        T = model.link_transform(self.link)
        return T[:3, :3] @ self.control_point + T[:3, 3]

    def _update_state(self, model, state):
        model.point_jacobian(self.link, self.control_point, out=state.jacobian)
        state.current = self.current_position(model)
        state.velocity = state.jacobian @ model.qd_full

    def _update_goal(self, state, dt):
        goals = self.goals
        np.subtract(goals["goalPosition"], state.current, out=state.error)
        state.command[:] = self.pid.command(
            state.error, goals["goalVelocity"] - state.velocity,
            goals["goalAcceleration"], dt)


class Orientation3DTask(Task):
    """Full link orientation, goal given as a unit quaternion [w, x, y, z].

    The error is twice the vector part of goal * current^-1 with the sign
    chosen so the scalar part is non-negative (shortest path); both q and -q
    goals therefore produce the same command.
    """

    type_name = "Orientation3DTask"
    KEYS = Task.KEYS + ("link", "goalOrientation")
    REQUIRED = ("link",)

    def __init__(self, name, model, gains, link, goal_orientation=(1, 0, 0, 0)):
        super().__init__(name, 3, model.n_dofs, gains, {
            "goalOrientation": goal_orientation,
            "goalAngularVelocity": np.zeros(3)})
        model.body_index(link)
        self.link = link

    def _update_state(self, model, state):
        state.jacobian[:] = model.spatial_jacobian(self.link)[:3]
        state.current = quat_from_matrix(
            model.link_transform(self.link)[:3, :3])
        state.velocity = state.jacobian @ model.qd_full

    def _update_goal(self, state, dt):
        goal_q = self.goals["goalOrientation"]
        if abs(np.linalg.norm(goal_q) - 1.0) > 1e-6:
            raise TaskError(
                f"task {self.name!r}: goal quaternion is not unit norm")
        q_err = quat_multiply(goal_q, quat_conjugate(state.current))
        if q_err[0] < 0.0:
            q_err = -q_err
        state.error[:] = 2.0 * q_err[1:]
        state.command[:] = self.pid.command(
            state.error, self.goals["goalAngularVelocity"] - state.velocity,
            np.zeros(3), dt)


class Orientation2DTask(Task):
    """Points a body-fixed heading vector at a world goal direction.

    Two controlled dimensions: the error is the offset of the goal direction
    from the current heading, expressed in an orthonormal basis of the plane
    perpendicular to the heading (Gram-Schmidt against world z, falling back
    to world x when the heading is near vertical).  The goal velocity is
    fixed at zero.
    """

    type_name = "Orientation2DTask"
    KEYS = Task.KEYS + ("link", "bodyVector", "goalVector")
    REQUIRED = ("link",)

    def __init__(self, name, model, gains, link, body_vector=(0, 0, 1),
                 goal_vector=(0, 0, 1)):
        super().__init__(name, 2, model.n_dofs, gains, {
            "goalVector": _unit(np.asarray(goal_vector, dtype=float),
                                "goalVector")})
        model.body_index(link)
        self.link = link
        self.body_vector = _unit(_vector3(body_vector, "bodyVector"),
                                 "bodyVector")

    def heading(self, model):
        return model.link_transform(self.link)[:3, :3] @ self.body_vector

    def plane_basis(self, heading):
        """Rows b1 and b2 = heading x b1, in scalar arithmetic: numpy calls
        on 3-vectors cost more than the arithmetic."""
        hx, hy, hz = heading.tolist()
        # world z less its part along the heading, else world x
        x, y, z = -hz * hx, -hz * hy, 1.0 - hz * hz
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-6:
            x, y, z = 1.0 - hx * hx, -hx * hy, -hx * hz
            norm = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / norm, y / norm, z / norm
        return np.array(((x, y, z),
                         (hy * z - hz * y, hz * x - hx * z, hx * y - hy * x)))

    def _update_state(self, model, state):
        h = self.heading(model)
        state.current = h
        state.basis = self.plane_basis(h)
        # the heading's rate is w x h, so the rows are basis @ -skew(h),
        # which for a unit h and b2 = h x b1 is [b2; -b1]
        np.matmul(state.basis[::-1], model.spatial_jacobian(self.link)[:3],
                  out=state.jacobian)
        state.jacobian[1] *= -1.0
        state.velocity = state.jacobian @ model.qd_full

    def _update_goal(self, state, dt):
        goal = _unit(self.goals["goalVector"], "goalVector")
        h = state.current
        if h @ goal < -1.0 + 1e-9:
            raise TaskError(
                f"task {self.name!r}: heading anti-parallel to goal, "
                "direction undefined")
        state.error[:] = state.basis @ (goal - h)
        state.command[:] = self.pid.command(state.error, -state.velocity,
                                            np.zeros(2), dt)


class ComTask(Task):
    """Whole-robot center of mass position."""

    type_name = "COMTask"
    KEYS = Task.KEYS + ("goalPosition",)

    def __init__(self, name, model, gains, goal_position=None):
        super().__init__(name, 3, model.n_dofs, gains, {
            "goalPosition": np.zeros(3) if goal_position is None
            else goal_position})

    def _update_state(self, model, state):
        c, J = model.com()
        state.jacobian[:] = J
        state.current = np.array(c)
        state.velocity = state.jacobian @ model.qd_full

    def _update_goal(self, state, dt):
        np.subtract(self.goals["goalPosition"], state.current, out=state.error)
        state.command[:] = self.pid.command(state.error, -state.velocity,
                                            np.zeros(3), dt)


class CompoundTaskEntry:
    __slots__ = ("task", "priority")

    def __init__(self, task, priority):
        if priority < 0 or int(priority) != priority:
            raise TaskError("priority must be a non-negative integer")
        self.task = task
        self.priority = int(priority)


class TaskStack:
    """Enabled tasks row-stacked in priority order (declaration order within
    a level).  Rows starts[i]:starts[i + 1] belong to levels[i]; starts ends
    with the total row count.  same_level[r, c] is True when rows r and c
    belong to one level."""

    __slots__ = ("tasks", "levels", "starts", "same_level", "jacobian",
                 "command", "_rows")

    def __init__(self, entries):
        ordered = sorted(entries, key=lambda e: e.priority)
        priorities = [e.priority for e in ordered]
        self.tasks = tuple(e.task for e in ordered)
        self.levels = tuple(sorted(set(priorities)))
        bounds = np.cumsum([0] + [t.dimension for t in self.tasks])
        self._rows = tuple(zip(self.tasks, bounds[:-1], bounds[1:]))
        self.starts = np.append(
            bounds[[priorities.index(lv) for lv in self.levels]], bounds[-1])
        owner = np.repeat(np.arange(len(self.levels)), np.diff(self.starts))
        self.same_level = owner[:, None] == owner[None, :]
        self.jacobian = np.zeros((bounds[-1], self.tasks[0].n_dofs))
        self.command = np.zeros(bounds[-1])

    def fill(self):
        for task, r0, r1 in self._rows:
            state = task.active_state
            self.jacobian[r0:r1] = state.jacobian
            self.command[r0:r1] = state.command
        return self


class CompoundTask:
    """Prioritized task list; lower priority number = higher priority."""

    def __init__(self):
        self.entries = []
        self._stacks = {}

    def add(self, task, priority, enabled=True):
        task.enabled = enabled
        self.entries.append(CompoundTaskEntry(task, priority))

    def task(self, name):
        for e in self.entries:
            if e.task.name == name:
                return e.task
        raise TaskError(f"unknown task {name!r}")

    def set_priority(self, name, priority):
        for e in self.entries:
            if e.task.name == name:
                e.priority = int(priority)
                return
        raise TaskError(f"unknown task {name!r}")

    def tasks(self):
        return [e.task for e in self.entries]

    def stack(self):
        """The enabled tasks' active (jacobian, command) stacked once for the
        whole ladder; None when no task is enabled.  The stack layout is
        cached per enabled/priority configuration and its buffers reused."""
        key = tuple((e.priority, e.task.enabled) for e in self.entries)
        layout = self._stacks.get(key)
        if layout is None:
            enabled = [e for e in self.entries if e.task.enabled]
            if not enabled:
                return None
            layout = self._stacks[key] = TaskStack(enabled)
        return layout.fill()


def _vector3(value, label):
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise TaskError(f"{label} must be a 3-vector, got shape {v.shape}")
    return v


def _unit(v, label):
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-6:
        raise TaskError(f"{label} must be a unit vector")
    return v / n


TASK_TYPES = {
    cls.type_name: cls
    for cls in (JointPositionTask, CartesianPositionTask, Orientation3DTask,
                Orientation2DTask, ComTask)
}
