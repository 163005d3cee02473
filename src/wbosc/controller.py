"""Whole-body torque controllers over the constrained, prioritized task stack.

Let U select the actuated joints, N_c the constraint nullspace projector,
UNcBar the dynamically consistent inverse of U N_c, and

    Phi = (U N_c) Ainv (U N_c)'

the mobility metric of the actuated, constraint-consistent subsystem.  The
priority ladder walks levels in ascending priority number; for level k with
row-stacked aggregate (J_level, xdd_level):

    J*_k       = J_level UNcBar
    J*_{k|prev} = J*_k P_{k-1}                        (P_0 = I)
    Lambda*_k  = (J*_{k|prev} Phi J*_{k|prev}')^+      (tolerant)
    tau       += J*_{k|prev}' Lambda*_k xdd_level
    P_k        = P_{k-1} (I - Xbar J*_{k|prev}),
                 Xbar = Phi J*_{k|prev}' Lambda*_k

The Phi-weighted inverse in P_k makes lower levels consistent with every
higher level: J*_{j|prev} Phi J*_{k|prev}' vanishes for j < k.  The tolerant
inverse zeroes singular values of J*_{k|prev} Phi^(1/2) below tol times the
largest; a level whose largest one is below tol times the largest singular
value of its unprojected J*_k Phi^(1/2) is fully covered by the levels above
it and contributes nothing, rather than amplified roundoff.  Velocity and
gravity bias are compensated once, centrally, as UNcBar' (B + G), and an
internal-force reference enters through Lstar', which produces no motion of
the constrained system.

With Phi = L L' the projectors become orthogonal in the whitened
coordinates J* L (see ``ladder_forces``).  The ladder takes one of two
paths.  When there is a head (levels above the last), one QR decomposition
of the whole priority-ordered stack gives every level a common basis, and
when a norm bound proves every head level full rank and not covered, one
block-triangular inverse carries them all and only the last level is
projected on its own, so the work per cycle follows the number of task
rows, not the number of levels.  Otherwise every level is projected in
turn in the whitened rows themselves; a one-level stack needs no QR at all.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOLERANCE


class CommandError(RuntimeError):
    pass


@dataclass
class Command:
    """Per-joint output of one controller cycle (real joints, description
    order).  Position/velocity and their gains matter only to impedance-style
    joint controllers; pure torque robots read the effort vector."""

    position: np.ndarray
    velocity: np.ndarray
    effort: np.ndarray
    position_kp: np.ndarray
    position_kd: np.ndarray

    @classmethod
    def zeros(cls, n_joints):
        return cls(np.zeros(n_joints), np.zeros(n_joints), np.zeros(n_joints),
                   np.zeros(n_joints), np.zeros(n_joints))

    def copy(self):
        return Command(self.position.copy(), self.velocity.copy(),
                       self.effort.copy(), self.position_kp.copy(),
                       self.position_kd.copy())


@dataclass
class LimitFlags:
    """Per-class enforcement switches; each entry is a bool applied to every
    joint or a per-joint boolean sequence."""

    effort: object = False
    position: object = False
    velocity: object = False
    max_effort_command: object = None   # warn-only threshold, scalar or per joint


# -- the priority ladder in whitened coordinates --------------------------------

def ladder_forces(Jw, xdd, starts, tol, same_level):
    """Task forces g of the priority ladder: tau_tasks = (J UNcBar)' g.

    Jw = J UNcBar L is the priority-ordered task stack in whitened
    coordinates (Phi = L L'), where each Phi-weighted projector of the ladder
    is an orthogonal projector.  The levels are projected in a basis X of
    the row space, X X' = Jw Jw' (``project_levels``); level k's rows there
    are X[rows_k].

    When there is a head, levels above the last, one QR decomposition
    Jw' = Q R gives all levels the common basis X = R'.  While every level
    above k is full rank, those levels cover exactly the first starts[k]
    coordinates, so level k's projected rows are its diagonal block
    R[rows_k, rows_k]', and one inverse of the block triangular
    R[:head, :head] solves the whole head.  When the norms of that inverse
    prove every head level full rank and not covered, only the last level
    is projected on its own.  Otherwise, and always without a head, every
    level is projected in turn in X = Jw, and no QR is needed.
    ``same_level`` marks the entries of R whose row and column belong to one
    level (``TaskStack.same_level``).
    """
    n_levels = len(starts) - 1
    rows2 = np.einsum("ij,ij->i", Jw, Jw)
    # Frobenius norm of each unprojected level, >= its largest singular value
    frob = np.sqrt(np.add.reduceat(rows2, starts[:-1]))
    first = n_levels - 1
    head = int(starts[first])
    X = Jw
    if head:
        R = np.linalg.qr(Jw.T, mode="r")
        inverse = _head_inverse(R, head, same_level)
        # Each diagonal block R_jj of the head has s_min >= 1/|Dinv|_F, and
        # |Jw[:head]|_F bounds both its s_max and that of the level's
        # unprojected rows, so tol |Jw[:head]|_F |Dinv|_F < 1 proves every
        # one of them full rank and not covered.  When it does not, every
        # level is projected in turn.
        if inverse is None or (tol ** 2 * rows2[:head].sum()
                               * (inverse[1] ** 2).sum() >= 1.0):
            first = head = 0
        else:
            X = R.T

    tail = project_levels(X, starts, frob, tol, first,
                          np.eye(X.shape[1])[:, head:])
    g = np.zeros(len(xdd))
    a = 0.0             # sum over later levels of X[rows_j]' g_j
    for j in range(n_levels - 1, first - 1, -1):
        u, sv, vt = tail[j - first]
        rows = slice(starts[j], starts[j + 1])
        f = (u.T @ xdd[rows]) / sv ** 2
        if j + 1 < n_levels:
            f -= (vt @ a) / sv
        g[rows] = u @ f
        if j:
            a = a + X[rows].T @ g[rows]
    if head:
        Rinv, Dinv = inverse
        g[:head] = Rinv @ (Dinv.T @ xdd[:head] - a[:head])
    return g


def _head_inverse(R, head, same_level):
    """(R_h^-1, its diagonal blocks) for the block upper triangular
    R_h = R[:head, :head]; the diagonal blocks of R_h^-1 are the inverses
    R_jj^-1 of those of R_h.  None when R_h is singular or not square."""
    try:
        Rinv = np.linalg.inv(R[:head, :head])
    except np.linalg.LinAlgError:
        return None
    return Rinv, np.where(same_level[:head, :head], Rinv, 0.0)


def project_levels(X, starts, frob, tol, first, free):
    """Per-level SVD (u, s, vt) of the projected whitened rows, levels
    first..end, in a basis X with X X' = Jw Jw' (see ``ladder_forces``).

    ``free`` is an orthonormal basis of the directions the levels above
    ``first`` leave free; each level's rows X[rows_j] are projected onto
    it, and its kept right singular vectors (returned in X's basis) are
    removed from it for the levels below.  Singular values below tol times
    the largest are dropped; a level whose largest is below tol times that
    of its unprojected rows is fully covered and keeps none.
    """
    out = []
    n_levels = len(starts) - 1
    for j in range(first, n_levels):
        jk = X[starts[j]:starts[j + 1]]
        u, s, vt = np.linalg.svd(jk @ free, full_matrices=j + 1 < n_levels)
        s_max = s[0] if s.size else 0.0
        rank = int(np.count_nonzero(s > tol * s_max))
        if s_max < tol * frob[j] and s_max < tol * np.linalg.norm(jk, 2):
            rank = 0
        out.append((u[:, :rank], s[:rank], vt[:rank] @ free.T))
        if j + 1 < n_levels:
            free = free @ vt[rank:].T
    return out


class _LadderRecord:
    """What one cycle's ladder needs to be rebuilt level by level on demand."""

    __slots__ = ("levels", "starts", "J", "UNcBar", "Jw", "tol")

    def __init__(self, levels, starts, J, UNcBar, Jw, tol):
        self.levels, self.starts, self.J, self.UNcBar = levels, starts, J, UNcBar
        self.Jw, self.tol = Jw, tol

    def build(self):
        """[(level, J*_{k|prev}, Lambda*_k)], each level projected in turn
        in the whitened rows Jw = J* L: J*_{k|prev} = J*_k - (J*_k L) Z_k
        with Z_k = sum over j < k of (J*_{j|prev} L)^+ J*_{j|prev}."""
        Jw, starts = self.Jw, self.starts
        J_star = self.J @ self.UNcBar
        frob = np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", Jw, Jw),
                                       starts[:-1]))
        per_level = project_levels(Jw, starts, frob, self.tol, 0,
                                   np.eye(Jw.shape[1]))
        Z = np.zeros((Jw.shape[1], J_star.shape[1]))
        out = []
        for j, (u, s, vt) in enumerate(per_level):
            rows = slice(starts[j], starts[j + 1])
            J_proj = J_star[rows] - Jw[rows] @ Z
            Z += vt.T @ ((u.T @ J_proj) / s[:, None])
            out.append((self.levels[j], J_proj, (u / s ** 2) @ u.T))
        return out


class Wbosc:
    """Effort-only whole-body controller (the priority ladder above).

    The effort of the last successful call without an internal-force
    reference is kept with the versions of its inputs, and reused while
    they stay the same: in multi-threaded servo mode most cycles bring
    neither a new model nor a new goal half.  A failed call stores
    nothing, so a bad input raises on every call that sees it.
    ``effort_version`` counts the calls that did not reuse the effort, so
    a caller can tell a reused effort from a new one."""

    def __init__(self, n_dofs, n_joints, tolerance=DEFAULT_TOLERANCE,
                 gravity_mask=None):
        self.n_dofs = n_dofs
        self.n_joints = n_joints
        self.tolerance = tolerance
        # gravity_mask[i] True = joint i receives no gravity compensation
        self.gravity_mask = (np.zeros(n_joints, dtype=bool) if gravity_mask is None
                             else np.asarray(gravity_mask, dtype=bool))
        self._record = None
        self._ladder = None
        self._memo_key = None       # _inputs_key of _memo_tau, or None
        self._memo_tau = None
        self.effort_version = 0

    @property
    def last_ladder(self):
        """[(level, J_projected, Lambda)] of the last cycle, built on read."""
        if self._ladder is None:
            self._ladder = [] if self._record is None else self._record.build()
        return self._ladder

    def compute(self, model, constraint_set, compound, robot_state,
                internal_force_ref=None):
        """The command for the active task states.  The effort is reused
        while its inputs keep their versions (see ``_inputs_key``); a call
        with an internal-force reference always recomputes it."""
        key = None if internal_force_ref is not None \
            else self._inputs_key(model, constraint_set, compound)
        if key is not None and key == self._memo_key:
            tau = self._memo_tau.copy()
        else:
            # _record is replaced below, so the memo no longer matches it
            self._memo_key = None
            self.effort_version += 1
            tau = self._effort(model, constraint_set, compound,
                               internal_force_ref)
            if key is not None:
                self._memo_key, self._memo_tau = key, tau.copy()
        return Command(np.array(robot_state.position, dtype=float),
                       np.array(robot_state.velocity, dtype=float), tau,
                       np.zeros(self.n_joints), np.zeros(self.n_joints))

    @staticmethod
    def _inputs_key(model, constraint_set, compound):
        """Versions of everything the effort depends on: the model and
        constraint set by identity and update count, and each task entry's
        priority, enabled flag and goal-half version."""
        return (model, model.version, constraint_set, constraint_set.version,
                compound, tuple((e.priority, e.task.enabled, e.task.version)
                                for e in compound.entries))

    def _effort(self, model, constraint_set, compound, internal_force_ref):
        stack = compound.stack()
        if stack is None:
            raise CommandError("compound task has no enabled tasks")
        J, xdd = stack.jacobian, stack.command
        if not (np.isfinite(J).all() and np.isfinite(xdd).all()):
            raise CommandError(
                f"non-finite task aggregate: {self._offending_tasks(stack)}")
        UNcBar = constraint_set.UNcBar
        Jw = J @ constraint_set.UNcBarL
        g = ladder_forces(Jw, xdd, stack.starts, self.tolerance,
                          stack.same_level)
        self._record = _LadderRecord(stack.levels, stack.starts, J.copy(),
                                     UNcBar, Jw, self.tolerance)
        self._ladder = None

        tau = UNcBar.T @ (J.T @ g + model.B)
        grav = UNcBar.T @ model.G
        grav[self.gravity_mask] = 0.0
        tau += grav
        if internal_force_ref is not None:
            tau += constraint_set.Lstar.T @ internal_force_ref

        if not np.isfinite(tau).all():
            raise CommandError("non-finite effort command")
        return tau

    @staticmethod
    def _offending_tasks(stack):
        bad = [task.name for task in stack.tasks
               if not (np.isfinite(task.active_state.jacobian).all()
                       and np.isfinite(task.active_state.command).all())]
        return bad or [task.name for task in stack.tasks]


class WboscImpedance(Wbosc):
    """Effort controller plus an internal joint-space model.

    The effort command is fed through the constrained forward dynamics of the
    actuated subsystem; the resulting accelerations integrate an internal
    (q_i, qd_i) state semi-implicitly, which is then relaxed toward the
    measured state by a per-cycle factor.  The command carries the internal
    position/velocity and the configured joint impedance gains.
    """

    def __init__(self, n_dofs, n_joints, tolerance=DEFAULT_TOLERANCE,
                 gravity_mask=None, position_kp=0.0, position_kd=0.0,
                 relaxation=0.05):
        super().__init__(n_dofs, n_joints, tolerance, gravity_mask)
        self.position_kp = np.broadcast_to(
            np.asarray(position_kp, dtype=float), (n_joints,)).copy()
        self.position_kd = np.broadcast_to(
            np.asarray(position_kd, dtype=float), (n_joints,)).copy()
        if not 0.0 <= relaxation <= 1.0:
            raise ValueError("relaxation must be in [0, 1]")
        self.relaxation = relaxation
        self._qi = None
        self._qdi = None

    def compute(self, model, constraint_set, compound, robot_state,
                internal_force_ref=None, dt=None):
        if dt is None or dt <= 0.0:
            raise CommandError("impedance controller requires dt > 0")
        cmd = super().compute(model, constraint_set, compound, robot_state,
                              internal_force_ref)
        if self._qi is None:
            self._qi = np.array(robot_state.position, dtype=float)
            self._qdi = np.array(robot_state.velocity, dtype=float)
        qdd_full = constrained_joint_accel(model, constraint_set, cmd.effort)
        qdd = qdd_full[len(model.ordering.virtual_indices):]
        self._qdi += qdd * dt
        self._qi += self._qdi * dt
        a = self.relaxation
        self._qi += a * (robot_state.position - self._qi)
        self._qdi += a * (robot_state.velocity - self._qdi)
        cmd.position[:] = self._qi
        cmd.velocity[:] = self._qdi
        cmd.position_kp[:] = self.position_kp
        cmd.position_kd[:] = self.position_kd
        return cmd


def constrained_joint_accel(model, constraint_set, effort):
    """Forward dynamics of the constraint-consistent subsystem.

    Solves the reduced system over the admissible motion basis E of the
    constraint set:  (E' A E) eta_dd = E' (U' tau - B - G)  and maps back to
    generalized accelerations.
    """
    E = constraint_set.motion_basis()
    if E.shape[1] == 0:
        return np.zeros(model.n_dofs)
    U = model.underactuation_matrix()
    rhs = E.T @ (U.T @ effort - model.B - model.G)
    M = E.T @ model.A @ E
    return E @ np.linalg.solve(M, rhs)


class JointLimits:
    """The description's limits under the enforcement flags, as per-joint
    arrays built once.  A joint that does not enforce a class, or has no
    limit of that class, gets an infinite bound; a class that no joint
    enforces is None.  Raises ValueError naming the configuration key when a
    per-joint list has the wrong length."""

    def __init__(self, description, joint_names, flags):
        n = len(joint_names)
        self.joints = [description.joint(name) for name in joint_names]
        self.none_over = np.zeros(n, bool)

        def enforced(flag, key, limit):
            on = _flag_mask(flag, n, key)
            return [getattr(j, limit) if o else None
                    for j, o in zip(self.joints, on)]

        self.effort = _bounds(enforced(flags.effort, "enforce_effort_limits",
                                       "effort_limit"), np.inf)
        self.velocity = _bounds(enforced(flags.velocity,
                                         "enforce_velocity_limits",
                                         "velocity_limit"), np.inf)
        position = enforced(flags.position, "enforce_position_limits",
                            "position_limits")
        self.position = None
        if any(p is not None for p in position):
            self.position = (np.array([p is not None for p in position]),
                             _bounds([p and p[0] for p in position], -np.inf),
                             _bounds([p and p[1] for p in position], np.inf))
        self.max_effort = None
        if flags.max_effort_command is not None:
            max_cmd = np.asarray(flags.max_effort_command, dtype=float)
            if max_cmd.ndim and max_cmd.shape != (n,):
                raise ValueError(f"max_effort_command lists {max_cmd.size} "
                                 f"values for {n} joints")
            self.max_effort = np.broadcast_to(max_cmd, (n,)).copy()


def _bounds(values, missing):
    """Array of the given bounds with ``missing`` for None; None if all are."""
    if all(v is None for v in values):
        return None
    return np.array([missing if v is None else v for v in values], float)


def enforce_limits(command, limits):
    """Truncate command entries to ``limits`` (a JointLimits).

    Every truncation emits one warning naming the joint, joint by joint in
    order.  The max_effort_command threshold never truncates, it only warns.
    Returns (command, warnings).
    """
    eff_over = pos_over = vel_over = max_over = limits.none_over
    over = False
    # bounds are infinite where a joint enforces nothing, so clipping every
    # entry changes exactly the ones over their limit, and a class with
    # none over needs no clip
    if limits.effort is not None:
        eff_over = np.abs(command.effort) > limits.effort
        if eff_over.any():
            over = True
            np.clip(command.effort, -limits.effort, limits.effort,
                    out=command.effort)
    if limits.position is not None:
        mask, lo, hi = limits.position
        pos_over = mask & ~((lo <= command.position)
                            & (command.position <= hi))
        if pos_over.any():
            over = True
            np.clip(command.position, lo, hi, out=command.position)
    if limits.velocity is not None:
        vel_over = np.abs(command.velocity) > limits.velocity
        if vel_over.any():
            over = True
            np.clip(command.velocity, -limits.velocity, limits.velocity,
                    out=command.velocity)
    if limits.max_effort is not None:
        max_over = np.abs(command.effort) > limits.max_effort
        over = over or max_over.any()
    if not over:
        return command, []
    warnings = []
    for i in np.flatnonzero(eff_over | pos_over | vel_over | max_over):
        joint = limits.joints[i]
        name = joint.name
        if eff_over[i]:
            warnings.append(f"effort command for joint {name!r} truncated to "
                            f"{joint.effort_limit}")
        if pos_over[i]:
            warnings.append(f"position command for joint {name!r} truncated")
        if vel_over[i]:
            warnings.append(f"velocity command for joint {name!r} truncated "
                            f"to {joint.velocity_limit}")
        if max_over[i]:
            warnings.append(f"effort command for joint {name!r} exceeds "
                            f"max_effort_command {limits.max_effort[i]}")
    return command, warnings


def _flag_mask(flag, n, key):
    if isinstance(flag, (bool, np.bool_)):
        return np.full(n, bool(flag))
    mask = np.asarray(flag, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"{key} lists {mask.size} values for {n} joints")
    return mask


CONTROLLER_TYPES = {
    "WBOSC": Wbosc,
    "WBOSC_Impedance": WboscImpedance,
}
