"""Kinematics and dynamics of a branched floating-base robot.

Generalized coordinate layout
-----------------------------
When the description has a floating joint it is expanded into six virtual
single-DOF joints placed first in the generalized vector: three prismatic
(world x, y, z translation) followed by three revolute (Euler x-y-z
rotations), chained through massless intermediate bodies.  Real joints follow
in description order.  Fixed-base robots have no virtual DOFs.

Spatial algebra
---------------
All spatial quantities are expressed in world coordinates at the world-origin
Plucker frame, angular block above linear.  With every body referred to one
common frame the sweeps below need no per-joint coordinate transforms:

- motion subspace of a revolute DOF at world point p with world axis w:
  S = [w; p x w]; of a prismatic DOF: S = [0; w]
- spatial inertia of a body with mass m, world com c, world rotational
  inertia I_c about the com:  [[I_c + m*cx*cx^T, m*cx], [m*cx^T, m*E]]

A, B and G come from one forward and one backward sweep over the moving
bodies (Featherstone, Rigid Body Dynamics Algorithms, ch. 5-6).  Parents
first, the forward sweep computes each body's transform, S, world com c,
spatial inertia I and bias motion v = v_parent + S qd, a = a_parent +
v x (S qd), and writes the block W = [I | I a + v x* I v | [c x m g; m g]].
Children first, the backward sweep sums each block into its parent's; for
the body of DOF d the one row S_d' W_sum is [F' | B_d | -G_d], where
F = I_composite S_d gives A[d, e] = S_e' F for each DOF e on the body's
root path.  ``inverse_dynamics`` keeps its own per-body RNEA, an
independent oracle for all three.

Jacobians
---------
The constant path mask P[body, dof] is 1 when the DOF lies on the body's
root path.  With S = [S_ang; S_lin] per DOF, every Jacobian column is a
masked expression of S and the joint type is read only where FK builds S:

- angular column of DOF d:  P[body, d] S_ang[d]
- linear column at world point x:  P[body, d] (S_lin[d] + S_ang[d] x x)
- COM column:  ((P^T m)_d S_lin[d] + S_ang[d] x (P^T (m c))_d) / sum(m)
"""

import math
from dataclasses import dataclass

import numpy as np

from .description import RobotDescription
from .geometry import axis_angle_matrix, make_transform, rpy_matrix, skew

_VIRTUAL_SPECS = (
    ("_virtual_tx", "prismatic", np.array([1.0, 0.0, 0.0])),
    ("_virtual_ty", "prismatic", np.array([0.0, 1.0, 0.0])),
    ("_virtual_tz", "prismatic", np.array([0.0, 0.0, 1.0])),
    ("_virtual_rx", "revolute", np.array([1.0, 0.0, 0.0])),
    ("_virtual_ry", "revolute", np.array([0.0, 1.0, 0.0])),
    ("_virtual_rz", "revolute", np.array([0.0, 0.0, 1.0])),
)


class ModelError(ValueError):
    pass


@dataclass
class RobotState:
    """Measured joint state for the real joints, in description order."""

    timestamp: float
    position: np.ndarray
    velocity: np.ndarray
    effort: np.ndarray

    def copy(self):
        return RobotState(self.timestamp, self.position.copy(),
                          self.velocity.copy(), self.effort.copy())


@dataclass
class JointOrdering:
    """Index bookkeeping between generalized DOFs and real/actuated joints."""

    virtual_indices: list
    real_indices: list
    actuated_indices: list
    real_joint_names: list


class _Body:
    """One node of the compiled tree (real link or virtual intermediate)."""

    __slots__ = ("name", "parent", "origin", "jtype", "axis", "dof",
                 "mass", "com", "inertia")

    def __init__(self, name, parent, origin, jtype, axis, dof, mass, com, inertia):
        self.name = name
        self.parent = parent          # body index, -1 for the world
        self.origin = origin          # constant parent_T_joint
        self.jtype = jtype            # revolute | prismatic | fixed
        self.axis = axis
        self.dof = dof                # generalized index or None
        self.mass = mass
        self.com = com
        self.inertia = inertia


class RobotModel:
    """Kinematic/dynamic state for one configuration of a robot description.

    Call :meth:`update_kinematics` before reading any configuration-dependent
    quantity.  Instances are single-writer: the servo thread writes the
    servo runtime's copy, and this class makes no cross-thread guarantees.
    """

    def __init__(self, description: RobotDescription):
        self.description = description
        self._bodies = []
        self._body_index = {}
        self._build()
        n = self.n_dofs
        L = len(self._bodies)

        self.q_full = np.zeros(n)
        self.qd_full = np.zeros(n)
        self.A = np.zeros((n, n))
        self.B = np.zeros(n)
        self.G = np.zeros(n)
        self.stamp = 0.0              # set by the runtime; staleness = now - stamp
        self.version = 0              # bumped by every update_kinematics
        self._fresh = False

        # preallocated workspaces (sized once, reused every update); the
        # forward sweep fills W[i] = [I | bias wrench | gravity wrench]
        self._T = np.zeros((L, 4, 4))
        self._com_w = np.zeros((L, 3))
        self._W = np.zeros((L, 6, 8))
        self._I_w = self._W[:, :, :6]
        self._acc = np.zeros((L, 6, 8))
        self._S = np.zeros((n, 6))
        self._S_ang = self._S[:, :3].T    # 3 x n views of the S rows
        self._S_lin = self._S[:, 3:].T
        self._v = np.zeros((L, 6))
        self._a = np.zeros((L, 6))
        self._f = np.zeros((L, 6))
        self._a0 = np.zeros(6)
        self._zero6 = np.zeros(6)
        self._vj = np.zeros(6)
        self._eye4 = np.eye(4)
        self._eye3 = np.eye(3)
        self._jointT = np.eye(4)
        self._motion = np.eye(4)
        self._U = self._build_underactuation()

        # constant topology: P[body, dof] marks the DOFs on the body's root
        # path; the COM Jacobian's P^T m is constant too
        self._P = np.zeros((L, n), dtype=bool)
        for i, body in enumerate(self._bodies):
            if body.parent >= 0:
                self._P[i] = self._P[body.parent]
            if body.dof is not None:
                self._P[i, body.dof] = True
        self._mass = np.array([b.mass for b in self._bodies])
        self._total_mass = float(self._mass.sum())
        self._path_mass = self._mass @ self._P
        # the constant parts of W: m E and the gravity force m g
        g = self.description.gravity
        for i, body in enumerate(self._bodies):
            self._W[i, 3:, 3:6] = body.mass * self._eye3
            self._W[i, 3:, 7] = body.mass * g

        # a body with no DOF on its root path never moves: its transform,
        # COM and spatial inertia are filled once here.  The sweeps visit
        # only the other bodies, as (index, body, parent), where a parent
        # that never moves counts as the world: its velocity and bias
        # acceleration are zero, and no generalized force reads its wrench
        moving = self._P.any(axis=1)
        self._moving = [
            (i, body, body.parent if body.parent >= 0
             and moving[body.parent] else -1)
            for i, body in enumerate(self._bodies) if moving[i]]
        self._forward_sweep([(i, body, body.parent)
                             for i, body in enumerate(self._bodies)
                             if not moving[i]])

    # -- construction ----------------------------------------------------

    def _build(self):
        desc = self.description
        root = desc.root_link_name
        dof_counter = 0
        order = []

        fj = desc.floating_joint
        if fj is not None:
            parent_idx = -1
            base_origin = make_transform(
                rpy_matrix(*fj.origin_rpy), fj.origin_xyz)
            for k, (vname, vtype, vaxis) in enumerate(_VIRTUAL_SPECS):
                origin = base_origin if k == 0 else np.eye(4)
                last = k == len(_VIRTUAL_SPECS) - 1
                link = desc.link(root) if last else None
                body = _Body(
                    name=root if last else vname,
                    parent=parent_idx,
                    origin=origin,
                    jtype=vtype,
                    axis=vaxis,
                    dof=dof_counter,
                    mass=link.mass if last else 0.0,
                    com=link.com if last else np.zeros(3),
                    inertia=link.inertia if last else np.zeros((3, 3)),
                )
                parent_idx = len(self._bodies)
                self._bodies.append(body)
                dof_counter += 1
            self._body_index[root] = parent_idx
            self._n_virtual = 6
        else:
            link = desc.link(root)
            self._bodies.append(_Body(root, -1, np.eye(4), "fixed",
                                      np.zeros(3), None,
                                      link.mass, link.com, link.inertia))
            self._body_index[root] = 0
            self._n_virtual = 0

        # attach remaining links in joint-description order; a tree guarantees
        # this terminates, but parents may appear later in the list so iterate
        pending = [j for j in desc.joints if j.type != "floating"]
        real_names = []
        progress = True
        while pending and progress:
            progress = False
            remaining = []
            for j in pending:
                if j.parent not in self._body_index:
                    remaining.append(j)
                    continue
                link = desc.link(j.child)
                dof = None
                if j.type in ("revolute", "prismatic"):
                    dof = self._n_virtual + len(real_names)
                    real_names.append(j.name)
                body = _Body(
                    name=j.child,
                    parent=self._body_index[j.parent],
                    origin=make_transform(rpy_matrix(*j.origin_rpy), j.origin_xyz),
                    jtype=j.type if dof is not None else "fixed",
                    axis=j.axis,
                    dof=dof,
                    mass=link.mass,
                    com=link.com,
                    inertia=link.inertia,
                )
                self._body_index[j.child] = len(self._bodies)
                self._bodies.append(body)
                progress = True
            pending = remaining
        if pending:
            raise ModelError(
                f"unreachable joints: {[j.name for j in pending]}")
        order.extend(real_names)

        n_real = len(real_names)
        self.n_dofs = self._n_virtual + n_real
        self.n_joints = n_real
        self.ordering = JointOrdering(
            virtual_indices=list(range(self._n_virtual)),
            real_indices=list(range(self._n_virtual, self.n_dofs)),
            actuated_indices=list(range(self._n_virtual, self.n_dofs)),
            real_joint_names=real_names,
        )
        self._joint_dof = {name: self._n_virtual + i
                           for i, name in enumerate(real_names)}

    def _build_underactuation(self):
        U = np.zeros((self.n_joints, self.n_dofs))
        for row, idx in enumerate(self.ordering.real_indices):
            U[row, idx] = 1.0
        return U

    # -- basic accessors -------------------------------------------------

    def body_index(self, link_name):
        try:
            return self._body_index[link_name]
        except KeyError:
            raise ModelError(f"unknown link {link_name!r}") from None

    def joint_dof_index(self, joint_name):
        try:
            return self._joint_dof[joint_name]
        except KeyError:
            raise ModelError(f"unknown joint {joint_name!r}") from None

    def link_transform(self, link_name):
        self._require_fresh()
        return self._T[self.body_index(link_name)]

    def underactuation_matrix(self):
        """Selection matrix U with U @ q_full == q_actual (one 1 per row)."""
        return self._U

    @property
    def gravity(self):
        return self.description.gravity

    def q_actual(self):
        return self.q_full[self._n_virtual:]

    def qd_actual(self):
        return self.qd_full[self._n_virtual:]

    def full_from_actual(self, q_act, out=None):
        if out is None:
            out = np.zeros(self.n_dofs)
        out[:self._n_virtual] = 0.0
        out[self._n_virtual:] = q_act
        return out

    def _require_fresh(self):
        if not self._fresh:
            raise ModelError("update_kinematics has not been called")

    # -- kinematics ------------------------------------------------------

    # the arrays update_kinematics fills that readers use (_S backs the
    # _S_ang/_S_lin views); the other workspaces are scratch
    UPDATED = ("q_full", "qd_full", "A", "B", "G", "_T", "_com_w", "_I_w",
               "_S")

    def updated(self):
        return tuple(getattr(self, name) for name in self.UPDATED)

    def load_update(self, arrays):
        """Copy in another model's updated(), as if update_kinematics
        had run here on the same description and state."""
        for name, value in zip(self.UPDATED, arrays):
            np.copyto(getattr(self, name), value)
        self._fresh = True
        self.version += 1

    def update_kinematics(self, q_full, qd_full):
        """Recompute world transforms, S vectors, A, B and G in one
        forward and one backward sweep."""
        q_full = np.asarray(q_full, dtype=float)
        qd_full = np.asarray(qd_full, dtype=float)
        if q_full.shape != (self.n_dofs,) or qd_full.shape != (self.n_dofs,):
            raise ModelError(
                f"expected state vectors of length {self.n_dofs}, got "
                f"{q_full.shape} / {qd_full.shape}")
        self.q_full[:] = q_full
        self.qd_full[:] = qd_full
        self._forward_sweep(self._moving)
        self._backward_sweep()
        self._fresh = True
        self.version += 1
        return self

    def _forward_sweep(self, bodies):
        """Each body's transform, S vector, world COM and block W[i] =
        [I | bias wrench | gravity wrench], parents first."""
        T, S, W, v, a = self._T, self._S, self._W, self._v, self._a
        q, qd = self.q_full, self.qd_full
        eye4, joint_T, motion, vj = (self._eye4, self._jointT, self._motion,
                                     self._vj)
        zero6 = self._zero6
        for i, body, parent in bodies:
            np.matmul(eye4 if body.parent < 0 else T[body.parent],
                      body.origin, out=joint_T)
            pv = zero6 if parent < 0 else v[parent]
            pa = zero6 if parent < 0 else a[parent]
            if body.dof is None:
                T[i] = joint_T
                v[i] = pv
                a[i] = pa
            else:
                d = body.dof
                Sd = S[d]
                w = joint_T[:3, :3] @ body.axis
                if body.jtype == "revolute":
                    _axis_rotation_into(body.axis, q[d], motion)
                    Sd[:3] = w
                    _cross3(joint_T[:3, 3], w, Sd[3:])
                else:
                    motion[:3, :3] = self._eye3
                    np.multiply(body.axis, q[d], out=motion[:3, 3])
                    Sd[:3] = 0.0
                    Sd[3:] = w
                np.matmul(joint_T, motion, out=T[i])
                # bias velocity and acceleration: v = v_parent + S qd,
                # a = a_parent + v x (S qd)
                np.multiply(Sd, qd[d], out=vj)
                np.add(pv, vj, out=v[i])
                _crm_into(v[i], vj, a[i])
                a[i] += pa
            c = self._com_w[i]
            R = T[i, :3, :3]
            np.matmul(R, body.com, out=c)
            c += T[i, :3, 3]
            if body.mass == 0.0 and not body.inertia.any():
                continue        # W[i] stays zero
            m = body.mass
            Wi = W[i]
            cx = skew(c)
            Wi[:3, :3] = R @ body.inertia @ R.T + m * (cx @ cx.T)
            Wi[:3, 3:6] = m * cx
            Wi[3:, :3] = Wi[:3, 3:6].T
            f = Wi[:, 6]
            np.matmul(Wi[:, :6], a[i], out=f)
            _crf_add(v[i], Wi[:, :6] @ v[i], f)
            _cross3(c, Wi[3:, 7], Wi[:3, 7])

    def _backward_sweep(self):
        """Accumulate the blocks over each subtree, children first: a DOF
        d's row S_d' acc reads [row of A at d | B_d | -G_d]."""
        acc, S, P, A = self._acc, self._S, self._P, self.A
        np.copyto(acc, self._W)
        for i, body, parent in reversed(self._moving):
            if parent >= 0:
                acc[parent] += acc[i]
            if body.dof is None:
                continue
            d = body.dof
            row = S[d] @ acc[i]
            path = P[i]
            A[d, path] = S[path] @ row[:6]
            A[path, d] = A[d, path]
            self.B[d] = row[6]
            self.G[d] = -row[7]

    def _rnea(self, qd, qdd, with_gravity, out):
        """Inverse dynamics in world coordinates; writes generalized forces
        for the given motion into ``out`` (length n_dofs)."""
        v, a, f, S = self._v, self._a, self._f, self._S
        a0 = self._a0
        a0[:] = 0.0
        if with_gravity:
            a0[3:] = -self.description.gravity
        zero6 = self._zero6
        for i, body, parent in self._moving:
            pv = zero6 if parent < 0 else v[parent]
            pa = a0 if parent < 0 else a[parent]
            if body.dof is None:
                v[i] = pv
                a[i] = pa
            else:
                d = body.dof
                qd_d = 0.0 if qd is None else qd[d]
                vi, ai, Sd = v[i], a[i], S[d]
                np.multiply(Sd, qd_d, out=self._vj)
                np.add(pv, self._vj, out=vi)
                _crm_into(vi, self._vj, ai)
                ai += pa
                if qdd is not None:
                    ai += Sd * qdd[d]
            Iv = self._I_w[i] @ v[i]
            fi = self._I_w[i] @ a[i]
            _crf_add(v[i], Iv, fi)
            f[i] = fi
        out[:] = 0.0
        for i, body, parent in reversed(self._moving):
            if body.dof is not None:
                out[body.dof] = S[body.dof] @ f[i]
            if parent >= 0:
                f[parent] += f[i]
        return out

    def inverse_dynamics(self, qdd, qd=None, gravity=True):
        """Generalized forces for the given acceleration at the current
        configuration.  ``qd=None`` means zero velocity (the current joint
        velocities are not implied)."""
        self._require_fresh()
        qdd = np.asarray(qdd, dtype=float)
        if qdd.shape != (self.n_dofs,):
            raise ModelError(f"qdd must have length {self.n_dofs}")
        if qd is not None:
            qd = np.asarray(qd, dtype=float)
        out = np.zeros(self.n_dofs)
        return self._rnea(qd, qdd, gravity, out)

    # -- jacobians -------------------------------------------------------

    def point_jacobian(self, link_name, point=None, out=None):
        """World-frame linear-velocity Jacobian of a link-frame point."""
        self._require_fresh()
        idx = self.body_index(link_name)
        T = self._T[idx]
        if point is None:
            x = T[:3, 3]
        else:
            x = T[:3, :3] @ np.asarray(point, dtype=float) + T[:3, 3]
        if out is None:
            out = np.empty((3, self.n_dofs))
        return self._linear_columns(x, self._P[idx], out)

    def spatial_jacobian(self, link_name, out=None):
        """6 x n_dofs Jacobian of a link frame, angular rows above linear."""
        self._require_fresh()
        idx = self.body_index(link_name)
        path = self._P[idx]
        if out is None:
            out = np.empty((6, self.n_dofs))
        np.multiply(self._S_ang, path, out=out[:3])
        self._linear_columns(self._T[idx, :3, 3], path, out[3:])
        return out

    def _linear_columns(self, x, path, out):
        """S_lin + S_ang x x for the DOFs on the path, zero elsewhere."""
        np.matmul(skew(x), self._S_ang, out=out)   # x x S_ang = -(S_ang x x)
        np.subtract(self._S_lin, out, out=out)
        np.multiply(out, path, out=out)
        return out

    def com(self):
        """Whole-robot center of mass and its 3 x n_dofs Jacobian."""
        self._require_fresh()
        total = self._total_mass
        if total <= 0.0:
            raise ModelError("zero total mass")
        mc = self._mass[:, None] * self._com_w
        # P^T (m c): the first mass moment of each DOF's subtree, 3 x n
        b = mc.T @ self._P
        a = self._S_ang
        J = self._S_lin * self._path_mass
        J[0] += a[1] * b[2] - a[2] * b[1]
        J[1] += a[2] * b[0] - a[0] * b[2]
        J[2] += a[0] * b[1] - a[1] * b[0]
        J /= total
        return mc.sum(axis=0) / total, J


def _axis_rotation_into(axis, angle, T):
    """Write the joint rotation into the 3x3 block of a scratch transform."""
    c, s = math.cos(angle), math.sin(angle)
    a0, a1, a2 = axis[0], axis[1], axis[2]
    if a0 == 1.0 and a1 == 0.0 and a2 == 0.0:
        T[0, 0] = 1.0; T[0, 1] = 0.0; T[0, 2] = 0.0
        T[1, 0] = 0.0; T[1, 1] = c; T[1, 2] = -s
        T[2, 0] = 0.0; T[2, 1] = s; T[2, 2] = c
    elif a0 == 0.0 and a1 == 1.0 and a2 == 0.0:
        T[0, 0] = c; T[0, 1] = 0.0; T[0, 2] = s
        T[1, 0] = 0.0; T[1, 1] = 1.0; T[1, 2] = 0.0
        T[2, 0] = -s; T[2, 1] = 0.0; T[2, 2] = c
    elif a0 == 0.0 and a1 == 0.0 and a2 == 1.0:
        T[0, 0] = c; T[0, 1] = -s; T[0, 2] = 0.0
        T[1, 0] = s; T[1, 1] = c; T[1, 2] = 0.0
        T[2, 0] = 0.0; T[2, 1] = 0.0; T[2, 2] = 1.0
    else:
        T[:3, :3] = axis_angle_matrix(axis, angle)
    T[0, 3] = 0.0
    T[1, 3] = 0.0
    T[2, 3] = 0.0
    return T


def _cross3(a, b, out):
    """3-vector cross product into a preallocated output.

    np.cross carries tens of microseconds of axis bookkeeping per call in the
    servo hot path; this stays under a microsecond.  The helpers read their
    inputs with ``tolist``: arithmetic on Python floats is faster than on
    numpy scalars, and gives the same bits.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    out[0] = a1 * b2 - a2 * b1
    out[1] = a2 * b0 - a0 * b2
    out[2] = a0 * b1 - a1 * b0
    return out


def _crm_into(v, u, out):
    """Spatial motion cross product v x u (angular-first blocks)."""
    w0, w1, w2, v0, v1, v2 = v.tolist()
    u0, u1, u2, u3, u4, u5 = u.tolist()
    out[:] = (w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0,
              v1 * u2 - v2 * u1 + w1 * u5 - w2 * u4,
              v2 * u0 - v0 * u2 + w2 * u3 - w0 * u5,
              v0 * u1 - v1 * u0 + w0 * u4 - w1 * u3)
    return out


def _crf_add(v, u, out):
    """Accumulate the spatial force cross product v x* u into out."""
    w0, w1, w2, v0, v1, v2 = v.tolist()
    u0, u1, u2, u3, u4, u5 = u.tolist()
    out += (w1 * u2 - w2 * u1 + v1 * u5 - v2 * u4,
            w2 * u0 - w0 * u2 + v2 * u3 - v0 * u5,
            w0 * u1 - w1 * u0 + v0 * u4 - v1 * u3,
            w1 * u5 - w2 * u4, w2 * u3 - w0 * u5, w0 * u4 - w1 * u3)
    return out
