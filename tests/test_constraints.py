import numpy as np
import pytest

from conftest import random_configuration
from wbosc.constraints import (CoactuationConstraint, ConstraintError,
                               ConstraintSet, FlatContactConstraint,
                               PointContactConstraint)


def dreamer_constraint_set():
    return ConstraintSet([
        FlatContactConstraint("baseWeld", "torso_base"),
        CoactuationConstraint("torsoTransmission", "torso_lower_pitch",
                              "torso_upper_pitch", 1.0),
    ])


def test_flat_contact_rows_are_spatial_jacobian(make_model):
    model = make_model("dreamer22")
    cset = dreamer_constraint_set().update(model)
    assert np.allclose(cset.J_c[:6], model.spatial_jacobian("torso_base"))


def test_weld_zeroes_virtual_directions(make_model):
    # every projected velocity N_c @ qd has zero virtual components, i.e. the
    # virtual rows of N_c vanish: the weld removes all base motion
    model = make_model("dreamer22")
    cset = dreamer_constraint_set().update(model)
    rng = np.random.default_rng(0)
    for i in range(6):
        assert np.linalg.norm(cset.N_c[i, :]) < 1e-9
    for _ in range(5):
        qd = rng.normal(size=22)
        assert np.abs((cset.N_c @ qd)[:6]).max() < 1e-9


def test_weld_nullspace_matches_svd_oracle(make_model):
    rng = np.random.default_rng(21)
    model = make_model("dreamer22")
    cset = dreamer_constraint_set()
    for _ in range(5):
        q, qd = random_configuration(model, rng, scale=0.7)
        model.update_kinematics(q, qd)
        cset.update(model)
        # oracle: columns of V spanning null(J_c) from plain SVD
        _, s, Vt = np.linalg.svd(cset.J_c)
        null_basis = Vt[int(np.sum(s > 1e-10 * s[0])):].T
        # N_c restricted to the nullspace acts as identity on velocities
        assert np.abs(cset.N_c @ null_basis - null_basis).max() < 1e-8


def test_flat_contact_on_fixed_base_is_inert(make_model):
    model = make_model("planar2")
    cset = ConstraintSet([FlatContactConstraint("weld", "base")]).update(model)
    assert np.abs(cset.J_c).max() == 0.0
    assert np.allclose(cset.N_c, np.eye(2), atol=1e-12)


def test_duplicate_point_contact_changes_nothing(make_model):
    rng = np.random.default_rng(4)
    model = make_model("planar2")
    q, qd = random_configuration(model, rng, scale=1.2)
    model.update_kinematics(q, qd)
    tip = np.array([0.5, 0.0, 0.0])
    single = ConstraintSet([PointContactConstraint("c1", "lower", tip)]).update(model)
    double = ConstraintSet([
        PointContactConstraint("c1", "lower", tip),
        PointContactConstraint("c2", "lower", tip),
    ]).update(model)
    rank_single = np.linalg.matrix_rank(single.J_c, tol=1e-10)
    rank_double = np.linalg.matrix_rank(double.J_c, tol=1e-10)
    assert rank_single == rank_double
    assert np.abs(single.N_c - double.N_c).max() < 1e-9


def test_coactuation_row(make_model):
    model = make_model("dreamer22")
    row = CoactuationConstraint("t", "torso_lower_pitch", "torso_upper_pitch",
                                1.0).jacobian(model)
    slave = model.joint_dof_index("torso_upper_pitch")
    master = model.joint_dof_index("torso_lower_pitch")
    assert row[0, slave] == 1.0
    assert row[0, master] == -1.0
    assert np.count_nonzero(row) == 2

    row2 = CoactuationConstraint("t2", "torso_lower_pitch", "torso_upper_pitch",
                                 2.0).jacobian(model)
    assert row2[0, master] == -2.0


def test_coactuation_master_equals_slave_rejected():
    with pytest.raises(ConstraintError):
        CoactuationConstraint("bad", "j", "j", 1.0)


def test_empty_constraint_set(make_model):
    model = make_model("planar2")
    cset = ConstraintSet().update(model)
    assert np.allclose(cset.N_c, np.eye(2))
    # with N_c = I, UNcBar is the dynamically consistent inverse of U, which
    # for a fixed-base robot is the identity
    assert np.allclose(cset.UNcBar, np.eye(2), atol=1e-12)


def test_dreamer22_full_set_rank(make_model):
    model = make_model("dreamer22")
    cset = dreamer_constraint_set().update(model)
    _, s, _ = np.linalg.svd(cset.N_c)
    rank = int(np.sum(s > 1e-8))
    assert rank == 22 - 7


@pytest.mark.parametrize("name", ["planar2", "dreamer22"])
def test_projector_identities(name, make_model):
    rng = np.random.default_rng(13)
    model = make_model(name)
    if name == "dreamer22":
        cset = dreamer_constraint_set()
    else:
        cset = ConstraintSet([PointContactConstraint("tip", "lower",
                                                     [0.5, 0.0, 0.0])])
    U = model.underactuation_matrix()
    for _ in range(10):
        q, qd = random_configuration(model, rng)
        model.update_kinematics(q, qd)
        cset.update(model)
        Nc, Jc = cset.N_c, cset.J_c
        assert np.abs(Nc @ Nc - Nc).max() < 1e-9
        assert np.abs(Jc @ Nc).max() < 1e-8
        UNc = U @ Nc
        assert np.abs(UNc @ cset.UNcBar @ UNc - UNc).max() < 1e-8
        Ainv = np.linalg.inv(model.A)
        Jbar = Ainv @ Jc.T @ np.linalg.pinv(Jc @ Ainv @ Jc.T)
        assert np.abs(Jc @ Jbar @ Jc - Jc).max() < 1e-8
        assert np.abs(cset.Lstar @ UNc).max() < 1e-8
        # dynamic consistency: N_c' acts as identity on forces with no
        # admissible-motion component removed, i.e. v with J_c Ainv v = 0
        basis = cset.motion_basis()
        if basis.shape[1]:
            V = model.A @ basis
            assert np.abs(cset.N_c.T @ V - V).max() < 1e-8


def test_disabling_changes_row_count(make_model):
    model = make_model("dreamer22")
    cset = dreamer_constraint_set()
    cset.update(model)
    assert cset.J_c.shape[0] == 7
    cset.constraint("torsoTransmission").enabled = False
    cset.update(model)
    assert cset.J_c.shape[0] == 6
    cset.constraint("baseWeld").enabled = False
    cset.update(model)
    assert cset.J_c.shape[0] == 0
