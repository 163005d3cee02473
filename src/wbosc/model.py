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
- spatial inertia of a body whose world pseudo-inertia is
  J = [[Sigma, h], [h', m]] (Sigma its second mass moment about the world
  origin, h = m c for its world com c):  [[tr(Sigma) E - Sigma, hx], [hx^T, m*E]]

What the tree and the joints fix is built once, with the model:

- joint bases: a DOF's local transform (parent frame to body frame) is its
  coefficients [1, sin q, cos q, q] times four constant 4 x 4 matrices, the
  origin times Rodrigues' formula for a revolute joint or times a
  translation along the axis for a prismatic one; a fixed joint's is its
  origin;
- each body's pseudo-inertia J_b about its own origin, whose world form is
  J = T J_b T', and one 16 -> 48 map from J to the body's block W below,
  less its bias column;
- the path mask P (see Jacobians) and its transpose Desc[dof, body], which
  marks the bodies of each DOF's subtree.

A, B and G come from one forward sweep and three masked products
(Featherstone, Rigid Body Dynamics Algorithms, ch. 5-6).  Parents first,
the forward sweep forms each moving body's transform T = T_parent local,
its S, and its bias motion v = v_parent + S qd, a = a_parent + v x (S qd).
Then, for every body at once, T J_b T' and the map give the block
W = [I | I a + v x* I v | -[c x m g; m g]], whose last column is the wrench
that holds the body against gravity.  The backward sweep is three products:
the composite blocks Desc W of each DOF's subtree; their rows
S_d' (Desc W)_d = [F_d' | B_d | G_d]; and A = sym(path * (F S')), where
the path mask keeps A[d, e] = F_d' S_e for each DOF e on the root path of
d's body.  ``inverse_dynamics`` keeps its own per-body RNEA, an
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

from dataclasses import dataclass

import numpy as np

from .description import RobotDescription
from .geometry import make_transform, rpy_matrix, skew

_VIRTUAL_SPECS = (
    ("_virtual_tx", "prismatic", np.array([1.0, 0.0, 0.0])),
    ("_virtual_ty", "prismatic", np.array([0.0, 1.0, 0.0])),
    ("_virtual_tz", "prismatic", np.array([0.0, 0.0, 1.0])),
    ("_virtual_rx", "revolute", np.array([1.0, 0.0, 0.0])),
    ("_virtual_ry", "revolute", np.array([0.0, 1.0, 0.0])),
    ("_virtual_rz", "revolute", np.array([0.0, 0.0, 1.0])),
)


_ZERO6 = (0.0,) * 6
# the rotation and the translation block of a 4 x 4 transform
_ROTATION = np.zeros((4, 4))
_ROTATION[:3, :3] = 1.0
_TRANSLATION = np.zeros((4, 4))
_TRANSLATION[:3, 3] = 1.0
_REST = (0.0,) * 12               # v and a of a body that does not move


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

        # the joint-basis coefficients [1, sin q, cos q, q] of every DOF;
        # q_full is their last row, zero until the first update
        self._coef = np.zeros((4, n))
        self._coef[0] = 1.0
        self.q_full = self._coef[3]
        self.qd_full = np.zeros(n)
        self.A = np.zeros((n, n))
        # each DOF's row [F_d' | B_d | G_d] of the backward sweep; B and G
        # are views of its last two columns
        self._rows = np.zeros((n, 1, 8))
        self.B, self.G = self._rows[:, 0, 6], self._rows[:, 0, 7]
        self.stamp = 0.0              # set by the runtime; staleness = now - stamp
        self.version = 0              # bumped by every update_kinematics
        self._fresh = False

        # preallocated workspaces (sized once, reused every update); the
        # forward sweep fills W[i] = [I | bias wrench | gravity-holding wrench]
        self._T = np.zeros((L, 4, 4))
        self._TJ = np.zeros((L, 4, 5))
        self._com_w = self._TJ[:, :3, 4]
        self._W = np.zeros((L, 6, 8))
        self._I_w = self._W[:, :, :6]
        self._S = np.zeros((n, 6))
        self._S_ang = self._S[:, :3].T    # 3 x n views of the S rows
        self._S_lin = self._S[:, 3:].T
        self._va = np.zeros((L, 2, 6))   # each body's v above its a
        self._v, self._a = self._va[:, 0], self._va[:, 1]
        self._va_rows = self._va.reshape(L, 12)
        self._f = np.zeros((L, 6))
        self._a0 = np.zeros(6)
        self._zero6 = np.zeros(6)
        self._vj = np.zeros(6)
        self._S_rows = [_ZERO6] * n
        self._vas = [_REST] * L       # v + a of each body, as float tuples
        self._eye4 = np.eye(4)
        self._local = np.zeros((n, 1, 16))
        # views of each body's T and each DOF's local transform: a list
        # lookup costs less than indexing the array, once per body and update
        self._Ts = list(self._T)
        self._locals = list(self._local.reshape(n, 4, 4))
        self._J_w = np.zeros((L, 4, 4))
        self._Iva = np.zeros((L, 6, 2))  # [I v | I a] of each body
        self._Wc = np.zeros((n, 6, 8))
        self._FS = np.zeros((n, n))
        self._half = np.zeros((n, n))
        # the batched products' operands as views, made once: made on every
        # update, they cost pend1 about a sixth of its update time
        self._coef_rows = self._coef.T[:, None, :]
        self._TJ_rot = self._TJ[:, :, :4]
        self._T_t = self._T.transpose(0, 2, 1)
        self._J_w16 = self._J_w.reshape(L, 16)
        self._W48 = self._W.reshape(L, 48)
        self._va_cols = self._va.transpose(0, 2, 1)
        self._Wc48 = self._Wc.reshape(n, 48)
        self._S_rows3 = self._S[:, None, :]
        self._F = self._rows[:, 0, :6]
        self._S_t = self._S.T
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
        # the backward sweep's masks: Desc[d, body] marks the bodies of DOF
        # d's subtree, which are those with d on their root path, and
        # half[d, e] is 1 for each DOF e above d on the path of d's body
        # and 1/2 on the diagonal, so that A = X + X' for X = half * F S'
        self._Desc = self._P.T.astype(float)
        dof_body = [i for i, b in enumerate(self._bodies) if b.dof is not None]
        self._half[:] = self._P[dof_body]
        np.fill_diagonal(self._half, 0.5)

        self._build_constants()

        # a body with no DOF on its root path never moves: its transform,
        # COM and spatial inertia are filled once here.  The forward sweep
        # visits only the other bodies, as (index, body, parent), where a
        # parent that never moves counts as the world: its velocity and
        # bias acceleration are zero
        moving = self._P.any(axis=1)
        self._moving = [
            (i, body, body.parent if body.parent >= 0
             and moving[body.parent] else -1)
            for i, body in enumerate(self._bodies) if moving[i]]
        # (index, bias column of W, [I v | I a]) of each moving body with
        # inertia
        self._massive = [(i, self._W[i, :, 6], self._Iva[i])
                         for i, body, _ in self._moving
                         if body.mass or body.inertia.any()]
        self._forward_sweep([(i, body, body.parent)
                             for i, body in enumerate(self._bodies)
                             if not moving[i]])

    def _build_constants(self):
        """What the tree and the joints fix: each DOF's joint basis, each
        body's pseudo-inertia, and the map from world pseudo-inertias to W."""
        L = len(self._bodies)
        # joint bases: a body's transform relative to its parent is
        # origin (I + sin q K + (1 - cos q) K^2) for a revolute joint, with
        # K the cross-product matrix of its axis, and origin (I + q K) for a
        # prismatic one, with K moving the origin along the axis.  So each
        # DOF's local transform is its coefficients [1, sin q, cos q, q]
        # times the constant basis [origin + origin K^2, origin K,
        # -origin K^2, 0] or [origin, 0, 0, origin K]
        moving = [b for b in self._bodies if b.dof is not None]
        n = len(moving)
        origin = np.array([b.origin for b in moving]).reshape(n, 4, 4)
        a0, a1, a2 = np.array([b.axis for b in moving]).reshape(n, 3).T
        revolute = np.array([b.jtype == "revolute" for b in moving],
                            dtype=bool)[:, None, None]
        z = np.zeros(n)
        K = np.zeros((n, 4, 4))
        K[:, :3, :3] = np.stack([z, -a2, a1, a2, z, -a0, -a1, a0, z],
                                axis=1).reshape(n, 3, 3)
        K[:, :3, 3] = np.stack([a0, a1, a2], axis=1)
        K = np.where(revolute, K * _ROTATION, K * _TRANSLATION)
        oK = origin @ K
        oKK = -(oK @ K)               # zero for a prismatic joint
        self._basis = np.zeros((self.n_dofs, 4, 4, 4))
        self._basis[[b.dof for b in moving]] = np.stack(
            [origin - oKK, np.where(revolute, oK, 0.0), oKK,
             np.where(revolute, 0.0, oK)], axis=1)
        self._basis = self._basis.reshape(self.n_dofs, 4, 16)
        self._axes = [tuple(b.axis.tolist()) for b in self._bodies]
        # pseudo-inertia about the body origin, in the body frame,
        # [[Sigma, m c], [m c', m]] with Sigma = tr(I)/2 E - I + m c c'
        # for the rotational inertia I about the COM; a fifth column
        # [c; 1] carries the COM through the same product with T
        m = self._mass
        c = np.array([b.com for b in self._bodies])
        inertia = np.array([b.inertia for b in self._bodies])
        J = self._J_b = np.zeros((L, 4, 5))
        J[:, :3, :3] = (0.5 * np.trace(inertia, axis1=1, axis2=2)[:, None, None]
                        * np.eye(3) - inertia
                        + m[:, None, None] * (c[:, :, None] * c[:, None, :]))
        J[:, :3, 3] = J[:, 3, :3] = m[:, None] * c
        J[:, 3, 3] = m
        J[:, :3, 4] = c
        J[:, 3, 4] = 1.0
        self._inertia_map = _inertia_map(self.description.gravity)

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
        [I | bias wrench | wrench that holds it against gravity], parents
        first."""
        T, coef = self._T, self._coef
        np.sin(coef[3], out=coef[1])
        np.cos(coef[3], out=coef[2])
        np.matmul(self._coef_rows, self._basis, out=self._local)
        Ts, local = self._Ts, self._locals
        eye4, axes, vas = self._eye4, self._axes, self._vas
        S = self._S_rows
        qd = self.qd_full.tolist()
        for i, body, parent in bodies:
            d = body.dof
            Ti = Ts[i]
            np.matmul(eye4 if body.parent < 0 else Ts[body.parent],
                      body.origin if d is None else local[d], out=Ti)
            pva = _REST if parent < 0 else vas[parent]
            if d is None:
                vas[i] = pva
                continue
            # the joint leaves its axis fixed: in world coordinates it is
            # the body's rotation times the local axis, through the origin
            (r0, r1, r2, p0), (r3, r4, r5, p1), (r6, r7, r8, p2), _ = \
                Ti.tolist()
            x, y, z = axes[i]
            w0 = r0 * x + r1 * y + r2 * z
            w1 = r3 * x + r4 * y + r5 * z
            w2 = r6 * x + r7 * y + r8 * z
            if body.jtype == "revolute":
                S[d] = (w0, w1, w2, p1 * w2 - p2 * w1, p2 * w0 - p0 * w2,
                        p0 * w1 - p1 * w0)
            else:
                S[d] = (0.0, 0.0, 0.0, w0, w1, w2)
            vas[i] = _bias_motion(pva, S[d], qd[d])
        if S:
            self._S[:] = S
        self._va_rows[:] = vas
        # for every body at once: T [J_b | c; 1] gives the world COM in
        # its fifth column, and the world pseudo-inertia T J_b T' gives the
        # inertia and gravity columns of W[i] through the constant map
        np.matmul(T, self._J_b, out=self._TJ)
        np.matmul(self._TJ_rot, self._T_t, out=self._J_w)
        np.matmul(self._J_w16, self._inertia_map, out=self._W48)
        # the bias wrench I a + v x* I v, zero on a body without inertia
        np.matmul(self._I_w, self._va_cols, out=self._Iva)
        for i, bias, Iva in self._massive:
            bias[:] = _bias_wrench(vas[i], Iva.tolist())

    def _backward_sweep(self):
        """Sum each DOF's subtree of blocks with the subtree mask; the DOF's
        row S_d' of that sum reads [F_d' | B_d | G_d], and A[d, e] =
        F_d' S_e for each DOF e on the root path of d's body."""
        FS = self._FS
        np.matmul(self._Desc, self._W48, out=self._Wc48)
        np.matmul(self._S_rows3, self._Wc, out=self._rows)
        # np.dot, unlike np.matmul on small operands, releases the GIL: a
        # thread waiting behind a looping update gets in once per update,
        # not after the 5 ms switch interval
        np.dot(self._F, self._S_t, out=FS)
        np.multiply(FS, self._half, out=FS)
        np.add(FS, FS.T, out=self.A)

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


def _inertia_map(g):
    """The constant 16 x 48 map from a body's world pseudo-inertia
    J = [[Sigma, h], [h', m]] (h = m c, row-major) to its block W (6 x 8,
    row-major) less the bias column: the spatial inertia
    [[tr(Sigma) E - Sigma, h x], [(h x)', m E]] and the wrench
    -[h x g; m g] that holds the body against gravity."""
    M = np.zeros((4, 4, 6, 8))
    eps = np.zeros((3, 3, 3))         # Levi-Civita: (h x)[i, j] = -eps[i, j, k] h_k
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for k in range(3):
            M[k, k, i, i] = 1.0
            M[i, k, i, k] -= 1.0
        M[3, 3, 3 + i, 3 + i] = 1.0
        M[3, 3, 3 + i, 7] = -g[i]
    M[:3, 3, :3, 3:6] = -eps.transpose(2, 0, 1)
    M[:3, 3, 3:6, :3] = -eps.transpose(2, 1, 0)
    M[:3, 3, :3, 7] = -np.einsum("ijk,k->ji", eps, g)
    return M.reshape(16, 48)


# The spatial cross products below work on Python floats: np.cross carries
# tens of microseconds of axis bookkeeping per call, and arithmetic on Python
# floats is faster than on numpy scalars, with the same bits.

def _bias_motion(pva, s, qd):
    """v + a, one 12-tuple of floats, with v = pv + s qd and
    a = pa + v x (s qd), from the parent's pva = pv + pa."""
    u0, u1, u2, u3, u4, u5 = s[0] * qd, s[1] * qd, s[2] * qd, s[3] * qd, \
        s[4] * qd, s[5] * qd
    w0, w1, w2 = pva[0] + u0, pva[1] + u1, pva[2] + u2
    v0, v1, v2 = pva[3] + u3, pva[4] + u4, pva[5] + u5
    return (w0, w1, w2, v0, v1, v2,
            pva[6] + w1 * u2 - w2 * u1, pva[7] + w2 * u0 - w0 * u2,
            pva[8] + w0 * u1 - w1 * u0,
            pva[9] + v1 * u2 - v2 * u1 + w1 * u5 - w2 * u4,
            pva[10] + v2 * u0 - v0 * u2 + w2 * u3 - w0 * u5,
            pva[11] + v0 * u1 - v1 * u0 + w0 * u4 - w1 * u3)


def _crm_into(v, u, out):
    """Spatial motion cross product v x u (angular-first blocks)."""
    w0, w1, w2, v0, v1, v2 = v.tolist()
    u0, u1, u2, u3, u4, u5 = u.tolist()
    out[:] = (w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0,
              v1 * u2 - v2 * u1 + w1 * u5 - w2 * u4,
              v2 * u0 - v0 * u2 + w2 * u3 - w0 * u5,
              v0 * u1 - v1 * u0 + w0 * u4 - w1 * u3)
    return out


def _bias_wrench(va, Iva):
    """I a + v x* I v from va = v + a and the rows [(I v)_k, (I a)_k] of
    [I v | I a]."""
    w0, w1, w2, v0, v1, v2 = va[:6]
    (u0, b0), (u1, b1), (u2, b2), (u3, b3), (u4, b4), (u5, b5) = Iva
    return (b0 + (w1 * u2 - w2 * u1 + v1 * u5 - v2 * u4),
            b1 + (w2 * u0 - w0 * u2 + v2 * u3 - v0 * u5),
            b2 + (w0 * u1 - w1 * u0 + v0 * u4 - v1 * u3),
            b3 + (w1 * u5 - w2 * u4), b4 + (w2 * u3 - w0 * u5),
            b5 + (w0 * u4 - w1 * u3))


def _crf_add(v, u, out):
    """Accumulate the spatial force cross product v x* u into out."""
    w0, w1, w2, v0, v1, v2 = v.tolist()
    u0, u1, u2, u3, u4, u5 = u.tolist()
    out += (w1 * u2 - w2 * u1 + v1 * u5 - v2 * u4,
            w2 * u0 - w0 * u2 + v2 * u3 - v0 * u5,
            w0 * u1 - w1 * u0 + v0 * u4 - v1 * u3,
            w1 * u5 - w2 * u4, w2 * u3 - w0 * u5, w0 * u4 - w1 * u3)
    return out
