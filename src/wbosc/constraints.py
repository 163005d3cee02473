"""Contact and transmission constraints and the constraint-set projector.

The constraint set stacks the Jacobians of the enabled constraints into J_c,
forms the dynamically consistent nullspace projector

    N_c = I - Jbar_c J_c ,   Jbar_c = Ainv J_c' (J_c Ainv J_c')^+

and the projected actuation map UNcBar (the dynamically consistent inverse of
U N_c).  The internal-force projector

    Lstar = I_{n_joints} - (U N_c) UNcBar

is formed from them only when read: only an internal-force reference needs
it.  Torques of the form Lstar' w produce no motion of the constrained system.
The set also holds the mobility metric Phi = (U N_c) Ainv (U N_c)' of the
actuated, constraint-consistent subsystem and UNcBar L, where Phi = L L' is
a rank-revealing square root (one column of L per nonzero eigenvalue);
UNcBar L maps task Jacobians straight into the whitened coordinates the
priority ladder works in.  Both depend on the model only, so they are built
here, in the model process, rather than on every servo cycle.
"""

import numpy as np

from .linalg import DEFAULT_TOLERANCE, dyn_consistent_pinv, eigh_pinv


class ConstraintError(ValueError):
    pass


class Constraint:
    """Base contact/transmission constraint contributing rows to J_c.
    ``KEYS`` are a type's configuration keys, of which ``REQUIRED`` must be
    given; the configuration loader checks them."""

    type_name = "Constraint"
    KEYS = REQUIRED = ()

    def __init__(self, name):
        self.name = name
        self.enabled = True

    @property
    def constrained_dof_count(self):
        raise NotImplementedError

    def jacobian(self, model, out=None):
        raise NotImplementedError

    def declare_parameters(self, registry):
        from .params import ParameterKind
        registry.declare(self.name, "enabled", ParameterKind.BOOLEAN, True,
                         setter=lambda v: setattr(self, "enabled", bool(v)))


class FlatContactConstraint(Constraint):
    """Welds a link: both translation and rotation are constrained."""

    type_name = "FlatContactConstraint"
    KEYS = REQUIRED = ("link",)
    constrained_dof_count = 6

    def __init__(self, name, link):
        super().__init__(name)
        self.link = link

    def jacobian(self, model, out=None):
        return model.spatial_jacobian(self.link, out=out)


class PointContactConstraint(Constraint):
    """Pins a link-frame point: translation only."""

    type_name = "PointContactConstraint"
    KEYS = ("link", "point")
    REQUIRED = ("link",)
    constrained_dof_count = 3

    def __init__(self, name, link, point=(0.0, 0.0, 0.0)):
        super().__init__(name)
        self.link = link
        self.point = np.asarray(point, dtype=float)

    def jacobian(self, model, out=None):
        return model.point_jacobian(self.link, self.point, out=out)


class CoactuationConstraint(Constraint):
    """Two joints sharing one actuator: qd_slave = ratio * qd_master.

    The Jacobian row carries +1 in the slave column and minus the
    transmission ratio in the master column.
    """

    type_name = "CoactuationConstraint"
    KEYS = ("masterJoint", "slaveJoint", "transmissionRatio")
    REQUIRED = ("masterJoint", "slaveJoint")
    constrained_dof_count = 1

    def __init__(self, name, master_joint, slave_joint, transmission_ratio=1.0):
        if master_joint == slave_joint:
            raise ConstraintError(
                f"master and slave joint {master_joint!r} must differ")
        super().__init__(name)
        self.master_joint = master_joint
        self.slave_joint = slave_joint
        self.transmission_ratio = float(transmission_ratio)

    def jacobian(self, model, out=None):
        if out is None:
            out = np.zeros((1, model.n_dofs))
        else:
            out[:] = 0.0
        out[0, model.joint_dof_index(self.slave_joint)] = 1.0
        out[0, model.joint_dof_index(self.master_joint)] = -self.transmission_ratio
        return out

    def declare_parameters(self, registry):
        from .params import ParameterKind
        super().declare_parameters(registry)
        registry.declare(self.name, "transmissionRatio", ParameterKind.SCALAR,
                         self.transmission_ratio,
                         setter=lambda v: setattr(self, "transmission_ratio", float(v)))


class ConstraintSet:
    """Ordered constraints plus the projectors derived from them.

    update() recomputes J_c, N_c, UNcBar, Phi and UNcBar L against a
    freshly updated model; the servo runtime calls it as part of the model
    update so the projectors always match the model configuration they are
    used with.  Ainv is local to update, and Lstar is formed from N_c and
    UNcBar on read, so neither is part of ``updated()``.
    """

    def __init__(self, constraints=(), tolerance=DEFAULT_TOLERANCE):
        self.constraints = list(constraints)
        self.tolerance = tolerance
        self.J_c = None
        self.N_c = None
        self.UNcBar = None
        self.Phi = None
        self.UNcBarL = None
        self._U = None              # the model's constant U, kept by update
        self.version = 0            # bumped by every update

    def add(self, constraint):
        self.constraints.append(constraint)

    def constraint(self, name):
        for c in self.constraints:
            if c.name == name:
                return c
        raise ConstraintError(f"unknown constraint {name!r}")

    def enabled_constraints(self):
        return [c for c in self.constraints if c.enabled]

    def total_constrained_dofs(self):
        return sum(c.constrained_dof_count for c in self.enabled_constraints())

    # everything update fills
    UPDATED = ("J_c", "N_c", "UNcBar", "Phi", "UNcBarL")

    def updated(self):
        return tuple(getattr(self, name) for name in self.UPDATED)

    def load_update(self, values):
        """Take another set's updated(), as if update had run here
        with the same constraints and model state."""
        for name, value in zip(self.UPDATED, values):
            setattr(self, name, value)
        self.version += 1

    def update(self, model):
        n = model.n_dofs
        nj = model.n_joints
        U = self._U = model.underactuation_matrix()
        Ainv = np.linalg.inv(model.A)
        enabled = self.enabled_constraints()
        rows = self.total_constrained_dofs()
        if self.J_c is None or self.J_c.shape != (rows, n):
            self.J_c = np.zeros((rows, n))
        r = 0
        for c in enabled:
            c.jacobian(model, out=self.J_c[r:r + c.constrained_dof_count])
            r += c.constrained_dof_count
        if rows == 0:
            self.N_c = np.eye(n)
            UNc = U
        else:
            Jbar = dyn_consistent_pinv(self.J_c, Ainv, self.tolerance)
            self.N_c = np.eye(n) - Jbar @ self.J_c
            UNc = U @ self.N_c
        # one eigendecomposition of Phi gives both the tolerant inverse in
        # UNcBar (dyn_consistent_pinv's, cutoff tol^2) and L (cutoff nj eps)
        AiUt = Ainv @ UNc.T
        self.Phi = UNc @ AiUt
        w, V = np.linalg.eigh(self.Phi)
        tol = self.tolerance
        self.UNcBar = AiUt @ eigh_pinv(w, V, tol * tol)
        keep = w > w[-1] * nj * np.finfo(float).eps
        self.UNcBarL = self.UNcBar @ (V[:, keep] * np.sqrt(w[keep]))
        self.version += 1
        return self

    @property
    def Lstar(self):
        """The internal-force projector I - (U N_c) UNcBar, formed on read
        from the last update's N_c and UNcBar."""
        UNc = self._U @ self.N_c
        return np.eye(UNc.shape[0]) - UNc @ self.UNcBar

    def motion_basis(self):
        """Orthonormal basis of null(J_c): the admissible motion directions."""
        n = self.N_c.shape[0]
        if self.J_c is None or self.J_c.shape[0] == 0:
            return np.eye(n)
        _, s, Vt = np.linalg.svd(self.J_c)
        rank = int(np.sum(s > self.tolerance * s[0])) if s.size and s[0] > 0 else 0
        return Vt[rank:].T


CONSTRAINT_TYPES = {
    cls.type_name: cls
    for cls in (FlatContactConstraint, PointContactConstraint,
                CoactuationConstraint)
}

