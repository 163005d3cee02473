import numpy as np
import pytest

from conftest import (FIXTURE_ROBOTS, assert_jacobian_close, fd_angular_jacobian,
                      fd_jacobian, random_configuration)
from wbosc.description import DescriptionError, load_description
from wbosc.geometry import axis_angle_matrix, skew
from wbosc.model import ModelError, RobotModel

# the fixture robots plus conftest's synthetic branched description
ALL_ROBOTS = FIXTURE_ROBOTS + ("branched",)


# -- description loading --------------------------------------------------

def test_pend1_loads_minimal_chain(descriptions):
    desc = descriptions["pend1"]
    assert len(desc.real_joint_names) == 1
    assert not desc.floating
    model = RobotModel(desc)
    assert model.n_dofs == 1
    assert model.ordering.virtual_indices == []


def test_dreamer22_dimensions(descriptions):
    desc = descriptions["dreamer22"]
    model = RobotModel(desc)
    assert model.n_joints == 16
    assert model.n_dofs == 22
    assert model.ordering.virtual_indices == list(range(6))
    assert model.ordering.real_indices == list(range(6, 22))


def test_cycle_is_rejected():
    doc = """
name: bad
links:
  - {name: a, mass: 1.0}
  - {name: b, mass: 1.0}
  - {name: c, mass: 1.0}
joints:
  - {name: j1, type: revolute, parent: a, child: b, axis: [0, 0, 1]}
  - {name: j2, type: revolute, parent: b, child: c, axis: [0, 0, 1]}
  - {name: j3, type: revolute, parent: c, child: a, axis: [0, 0, 1]}
"""
    with pytest.raises(DescriptionError):
        load_description(doc)


def test_duplicate_and_nonunit_axis_rejected():
    with pytest.raises(DescriptionError, match="duplicate"):
        load_description("""
name: dup
links:
  - {name: a, mass: 1.0}
  - {name: a, mass: 1.0}
""")
    with pytest.raises(DescriptionError, match="non-unit axis"):
        load_description("""
name: ax
links:
  - {name: a, mass: 1.0}
  - {name: b, mass: 1.0}
joints:
  - {name: j, type: revolute, parent: a, child: b, axis: [0, 0, 2]}
""")


def test_parse_error_reports_position():
    with pytest.raises(DescriptionError, match="line"):
        load_description("links:\n  - {name: a, mass: [unclosed\n")


# -- gravity vector -------------------------------------------------------

def test_pend1_gravity_magnitude(make_model):
    model = make_model("pend1")
    assert abs(model.G[0]) == pytest.approx(9.81 * 1.0 * 0.5, abs=1e-12)


def test_pend1_gravity_vanishes_level_arm(make_model):
    model = make_model("pend1", q=[np.pi / 2])
    assert abs(model.G[0]) < 1e-12


# -- planar two-link closed form ------------------------------------------

def planar2_closed_form(q, qd):
    """Textbook two-link planar arm dynamics, written from the equations and
    the fixture constants, independent of the recursive implementations."""
    m1, m2 = 1.2, 0.9
    l1 = 0.6
    lc1, lc2 = 0.3, 0.25
    I1, I2 = 0.02, 0.015
    g = 9.81
    q1, q2 = q
    qd1, qd2 = qd
    c2 = np.cos(q2)
    s2 = np.sin(q2)
    A = np.array([
        [m1 * lc1 ** 2 + I1 + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * c2) + I2,
         m2 * (lc2 ** 2 + l1 * lc2 * c2) + I2],
        [m2 * (lc2 ** 2 + l1 * lc2 * c2) + I2,
         m2 * lc2 ** 2 + I2],
    ])
    h = m2 * l1 * lc2 * s2
    B = np.array([
        -h * (2.0 * qd1 * qd2 + qd2 ** 2),
        h * qd1 ** 2,
    ])
    G = np.array([
        (m1 * lc1 + m2 * l1) * g * np.cos(q1) + m2 * lc2 * g * np.cos(q1 + q2),
        m2 * lc2 * g * np.cos(q1 + q2),
    ])
    return A, B, G


def test_planar2_matches_closed_form(make_model):
    rng = np.random.default_rng(7)
    model = make_model("planar2")
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        model.update_kinematics(q, qd)
        A_ref, B_ref, G_ref = planar2_closed_form(q, qd)
        assert np.abs(model.A - A_ref).max() < 1e-9
        assert np.abs(model.B - B_ref).max() < 1e-9
        assert np.abs(model.G - G_ref).max() < 1e-9


# -- mass matrix cross-oracle ----------------------------------------------

@pytest.mark.parametrize("name", ALL_ROBOTS)
def test_crba_matches_inverse_dynamics_columns(name, make_model):
    rng = np.random.default_rng(11)
    model = make_model(name)
    for _ in range(10):
        q, qd = random_configuration(model, rng)
        model.update_kinematics(q, qd)
        A = model.A.copy()
        assert np.abs(A - A.T).max() < 1e-10
        assert np.linalg.eigvalsh(A).min() > 0.0
        for j in range(model.n_dofs):
            e = np.zeros(model.n_dofs)
            e[j] = 1.0
            col = model.inverse_dynamics(e, qd=None, gravity=False)
            assert np.abs(col - A[:, j]).max() < 1e-10


@pytest.mark.parametrize("name", ALL_ROBOTS)
def test_bias_and_gravity_match_inverse_dynamics(name, make_model):
    """B and G from the two sweeps against the per-body RNEA: B is the
    gravity-free force at zero acceleration, G the static gravity force.
    Both are compared relative to the larger of the two, since pend1's B
    is zero up to roundoff."""
    rng = np.random.default_rng(13)
    model = make_model(name)
    zero = np.zeros(model.n_dofs)
    for _ in range(20):
        q, qd = random_configuration(model, rng)
        model.update_kinematics(q, qd)
        B = model.inverse_dynamics(zero, qd, gravity=False)
        G = model.inverse_dynamics(zero, None, gravity=True)
        scale = max(np.abs(B).max(), np.abs(G).max())
        assert np.abs(model.B - B).max() <= 1e-12 * scale
        assert np.abs(model.G - G).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", ALL_ROBOTS)
def test_transforms_and_inertias_match_the_link_data(name, descriptions):
    """Each body's world transform, COM and spatial inertia against the
    joint origins, axes and link data, chained body by body with
    axis_angle_matrix and R I R' + m cx cx'.  The RNEA oracle reads the
    model's own S and I_w, so it cannot see a fault in either."""
    rng = np.random.default_rng(31)
    model = RobotModel(descriptions[name])
    n = model.n_dofs
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, n)
        model.update_kinematics(q, rng.uniform(-1.0, 1.0, n))
        T_ref = []
        for i, body in enumerate(model._bodies):
            motion = np.eye(4)
            if body.jtype == "revolute":
                motion[:3, :3] = axis_angle_matrix(body.axis, q[body.dof])
            elif body.jtype == "prismatic":
                motion[:3, 3] = body.axis * q[body.dof]
            parent_T = np.eye(4) if body.parent < 0 else T_ref[body.parent]
            T_ref.append(parent_T @ body.origin @ motion)
            R, c = T_ref[i][:3, :3], T_ref[i][:3, :3] @ body.com + T_ref[i][:3, 3]
            m, cx = body.mass, skew(c)
            I_ref = np.block([[R @ body.inertia @ R.T + m * cx @ cx.T, m * cx],
                              [m * cx.T, m * np.eye(3)]])
            scale = max(1.0, np.abs(I_ref).max())
            assert np.abs(model._T[i] - T_ref[i]).max() <= 1e-13
            assert np.abs(model._com_w[i] - c).max() <= 1e-13
            assert np.abs(model._I_w[i] - I_ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("name", ALL_ROBOTS)
def test_passes_that_skip_bodies_that_never_move_change_no_bit(name,
                                                               descriptions):
    """The sweeps visit only the bodies with a DOF on their root path; a
    model whose sweeps visit every body, each with its own parent, gives
    the same bits."""
    rng = np.random.default_rng(29)
    model = RobotModel(descriptions[name])
    every = RobotModel(descriptions[name])
    every._moving = [(i, body, body.parent)
                     for i, body in enumerate(every._bodies)]
    if name == "pend1":
        assert len(model._moving) < len(every._moving)
    for _ in range(50):
        q, qd = random_configuration(model, rng)
        qdd = rng.uniform(-1.0, 1.0, model.n_dofs)
        for m in (model, every):
            m.update_kinematics(q, qd)
        for got, want in zip(model.updated(), every.updated()):
            np.testing.assert_array_equal(got, want)
        for args in ((qdd, qd), (qdd,), (qdd, None, False)):
            np.testing.assert_array_equal(model.inverse_dynamics(*args),
                                          every.inverse_dynamics(*args))


# -- jacobians --------------------------------------------------------------

def test_pend1_tip_jacobian_column(make_model):
    model = make_model("pend1")
    J = model.point_jacobian("arm", np.array([1.0, 0.0, 0.0]))
    assert np.allclose(J[:, 0], [0.0, 0.0, -1.0], atol=1e-12)


def test_base_point_jacobian_zero_for_fixed_base(make_model):
    model = make_model("planar2")
    J = model.point_jacobian("base", np.array([0.1, 0.2, 0.3]))
    assert np.abs(J).max() == 0.0


def test_point_jacobian_matches_finite_differences(make_model):
    rng = np.random.default_rng(3)
    model = make_model("planar2")
    point = np.array([0.5, 0.0, 0.0])
    for _ in range(5):
        q, _ = random_configuration(model, rng, scale=np.pi)
        model.update_kinematics(q, np.zeros(2))
        J = model.point_jacobian("lower", point).copy()
        J_fd = fd_jacobian(
            model, q,
            lambda m: m.link_transform("lower")[:3, :3] @ point
            + m.link_transform("lower")[:3, 3])
        assert_jacobian_close(J, J_fd)


def test_floating_base_spatial_jacobian_virtual_block(make_model):
    model = make_model("dreamer22")
    J = model.spatial_jacobian("torso_base")
    # at identity base pose the virtual columns pair each DOF with its world
    # direction: translations hit the linear rows, rotations the angular rows
    expected = np.zeros((6, 6))
    expected[3:, :3] = np.eye(3)
    expected[:3, 3:] = np.eye(3)
    assert np.allclose(J[:, :6], expected, atol=1e-12)
    assert np.abs(J[:, 6:]).max() == 0.0


def test_pend1_spatial_jacobian_angular_row(make_model):
    model = make_model("pend1", q=[0.7])
    J = model.spatial_jacobian("arm")
    assert np.allclose(J[:3, 0], [0.0, 1.0, 0.0], atol=1e-12)


def test_dreamer22_wrist_spatial_jacobian_finite_differences(make_model):
    rng = np.random.default_rng(5)
    model = make_model("dreamer22")
    for _ in range(3):
        q, _ = random_configuration(model, rng, scale=0.8)
        model.update_kinematics(q, np.zeros(22))
        J = model.spatial_jacobian("right_hand").copy()
        J_lin_fd = fd_jacobian(
            model, q, lambda m: m.link_transform("right_hand")[:3, 3])
        J_ang_fd = fd_angular_jacobian(model, q, "right_hand")
        assert_jacobian_close(J[3:], J_lin_fd)
        assert_jacobian_close(J[:3], J_ang_fd)


# -- center of mass ----------------------------------------------------------

def test_single_link_com(make_model):
    model = make_model("pend1", q=[0.4])
    c, _ = model.com()
    T = model.link_transform("arm")
    assert np.allclose(c, T[:3, :3] @ [0.5, 0.0, 0.0] + T[:3, 3], atol=1e-12)


def test_symmetric_masses_com_at_origin():
    doc = """
name: twin
links:
  - {name: trunk, mass: 0.0}
  - {name: lobe_a, mass: 2.0, com: [0.0, 0.0, 0.0]}
  - {name: lobe_b, mass: 2.0, com: [0.0, 0.0, 0.0]}
joints:
  - name: ja
    type: fixed
    parent: trunk
    child: lobe_a
    origin: {xyz: [1.0, 0.0, 0.0]}
  - name: jb
    type: fixed
    parent: trunk
    child: lobe_b
    origin: {xyz: [-1.0, 0.0, 0.0]}
"""
    model = RobotModel(load_description(doc))
    model.update_kinematics(np.zeros(0), np.zeros(0))
    c, _ = model.com()
    assert np.allclose(c, 0.0, atol=1e-15)


def test_com_jacobian_matches_finite_differences(make_model):
    rng = np.random.default_rng(9)
    model = make_model("planar2")
    for _ in range(5):
        q, _ = random_configuration(model, rng, scale=np.pi)
        model.update_kinematics(q, np.zeros(2))
        _, J = model.com()
        J = J.copy()
        J_fd = fd_jacobian(model, q, lambda m: m.com()[0])
        assert_jacobian_close(J, J_fd)


# -- masked jacobians against the per-DOF loops --------------------------------

class JacobiansByDof:
    """The per-DOF loops that the masked Jacobians replaced, kept as
    reference.  Joint axes, origins and root paths are walked from the body
    tree and the world transforms, not read from S or the path mask."""

    def __init__(self, model):
        self.model = model
        bodies = model._bodies
        self.axis, self.origin, self.kind = {}, {}, {}
        for i, body in enumerate(bodies):
            if body.dof is None:
                continue
            parent_T = np.eye(4) if body.parent < 0 else model._T[body.parent]
            joint_T = parent_T @ body.origin
            self.axis[body.dof] = joint_T[:3, :3] @ body.axis
            self.origin[body.dof] = joint_T[:3, 3]
            self.kind[body.dof] = body.jtype

    def path(self, idx):
        dofs = []
        while idx >= 0:
            body = self.model._bodies[idx]
            if body.dof is not None:
                dofs.append(body.dof)
            idx = body.parent
        return dofs[::-1]

    def linear_column(self, d, x):
        if self.kind[d] == "revolute":
            return np.cross(self.axis[d], x - self.origin[d])
        return self.axis[d]

    def point_jacobian(self, link, point):
        idx = self.model.body_index(link)
        T = self.model._T[idx]
        x = T[:3, 3] if point is None else T[:3, :3] @ point + T[:3, 3]
        J = np.zeros((3, self.model.n_dofs))
        for d in self.path(idx):
            J[:, d] = self.linear_column(d, x)
        return J

    def spatial_jacobian(self, link):
        idx = self.model.body_index(link)
        o = self.model._T[idx, :3, 3]
        J = np.zeros((6, self.model.n_dofs))
        for d in self.path(idx):
            if self.kind[d] == "revolute":
                J[:3, d] = self.axis[d]
            J[3:, d] = self.linear_column(d, o)
        return J

    def com(self):
        model = self.model
        total = sum(b.mass for b in model._bodies)
        c = np.zeros(3)
        J = np.zeros((3, model.n_dofs))
        for i, body in enumerate(model._bodies):
            if body.mass == 0.0:
                continue
            w = body.mass / total
            x = model._T[i, :3, :3] @ body.com + model._T[i, :3, 3]
            c += w * x
            for d in self.path(i):
                J[:, d] += w * self.linear_column(d, x)
        return c, J


@pytest.mark.parametrize("name", ALL_ROBOTS)
def test_jacobians_match_the_per_dof_loops(name, descriptions):
    rng = np.random.default_rng(17)
    model = RobotModel(descriptions[name])
    n = model.n_dofs
    links = [b.name for b in model._bodies if not b.name.startswith("_virtual")]
    for _ in range(20):
        # the virtual DOFs move too: every floating-base column is exercised
        model.update_kinematics(rng.uniform(-np.pi, np.pi, n),
                                rng.uniform(-1.0, 1.0, n))
        ref = JacobiansByDof(model)
        for link in links:
            off = np.ones(n, dtype=bool)
            off[ref.path(model.body_index(link))] = False
            for point in (None, rng.uniform(-0.5, 0.5, 3)):
                J = model.point_jacobian(link, point)
                assert np.abs(J - ref.point_jacobian(link, point)).max() <= 1e-13
                assert np.all(J[:, off] == 0.0)
            J6 = model.spatial_jacobian(link)
            assert np.abs(J6 - ref.spatial_jacobian(link)).max() <= 1e-13
            assert np.all(J6[:, off] == 0.0)
        c, J = model.com()
        c_ref, J_ref = ref.com()
        assert np.abs(c - c_ref).max() <= 1e-13
        assert np.abs(J - J_ref).max() <= 1e-13


def test_jacobian_out_receives_the_returned_values(make_model):
    rng = np.random.default_rng(23)
    model = make_model("dreamer22")
    q = rng.uniform(-1.0, 1.0, 22)
    model.update_kinematics(q, np.zeros(22))
    point = np.array([0.0, 0.0, -0.08])
    # views into a larger buffer, the way ConstraintSet.update passes rows
    buffer = np.full((12, 22), np.nan)
    J = model.point_jacobian("right_hand", point, out=buffer[:3])
    assert np.shares_memory(J, buffer)
    assert np.array_equal(buffer[:3], model.point_jacobian("right_hand", point))
    J6 = model.spatial_jacobian("left_hand", out=buffer[3:9])
    assert np.shares_memory(J6, buffer)
    assert np.array_equal(buffer[3:9], model.spatial_jacobian("left_hand"))
    assert np.isnan(buffer[9:]).all()


# -- underactuation matrix ---------------------------------------------------

def test_underactuation_dreamer22(make_model):
    model = make_model("dreamer22")
    U = model.underactuation_matrix()
    assert np.array_equal(U, np.hstack([np.zeros((16, 6)), np.eye(16)]))


@pytest.mark.parametrize("name", FIXTURE_ROBOTS)
def test_underactuation_selection_property(name, make_model):
    model = make_model(name)
    U = model.underactuation_matrix()
    assert np.array_equal(U @ U.T, np.eye(model.n_joints))
    rng = np.random.default_rng(1)
    q, _ = random_configuration(model, rng)
    model.update_kinematics(q, np.zeros(model.n_dofs))
    assert np.array_equal(U @ model.q_full, model.q_actual())


def test_fixed_base_underactuation_identity(make_model):
    model = make_model("pend1")
    assert np.array_equal(model.underactuation_matrix(), np.eye(1))


# -- energy consistency -------------------------------------------------------

def test_energy_rate_matches_power(make_model):
    """d/dt(0.5 qd' A qd) == qd' (tau - G) along an RK4-integrated trajectory.
    The integrator here is test-local and independent of the plant module."""
    model = make_model("planar2")

    def accel(q, qd, tau):
        model.update_kinematics(q, qd)
        return np.linalg.solve(model.A, tau - model.B - model.G)

    def energy(q, qd):
        model.update_kinematics(q, qd)
        return 0.5 * qd @ model.A @ qd

    rng = np.random.default_rng(2)
    q = rng.uniform(-1.0, 1.0, 2)
    qd = rng.uniform(-1.0, 1.0, 2)
    tau = np.array([0.7, -0.3])
    dt = 1e-4
    for _ in range(200):
        k1q, k1v = qd, accel(q, qd, tau)
        k2q, k2v = qd + 0.5 * dt * k1v, accel(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, tau)
        k3q, k3v = qd + 0.5 * dt * k2v, accel(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, tau)
        k4q, k4v = qd + dt * k3v, accel(q + dt * k3q, qd + dt * k3v, tau)
        q_next = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd_next = qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        e0 = energy(q, qd)
        e1 = energy(q_next, qd_next)
        model.update_kinematics(0.5 * (q + q_next), 0.5 * (qd + qd_next))
        qd_mid = 0.5 * (qd + qd_next)
        power = qd_mid @ (tau - model.G)
        assert abs((e1 - e0) / dt - power) < 1e-4 * max(1.0, abs(power))
        q, qd = q_next, qd_next


def test_a_new_model_reads_the_zero_configuration(descriptions):
    model = RobotModel(descriptions["dreamer22"])
    assert not model.q_full.any() and not model.qd_full.any()
    assert not model.q_actual().any()


# -- error handling ------------------------------------------------------------

def test_dimension_mismatch(make_model):
    model = make_model("planar2")
    with pytest.raises(ModelError):
        model.update_kinematics(np.zeros(3), np.zeros(3))


def test_unknown_link(make_model):
    model = make_model("planar2")
    with pytest.raises(ModelError):
        model.point_jacobian("nope", np.zeros(3))
