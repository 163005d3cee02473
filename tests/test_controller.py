import sys

import numpy as np
import pytest

import wbosc.controller as controller_module
from conftest import random_configuration
from test_tasks import build_disassembly_compound, update_all, updated
from wbosc.constraints import (CoactuationConstraint, ConstraintSet,
                               FlatContactConstraint)
from wbosc.controller import (Command, CommandError, JointLimits, LimitFlags,
                              Wbosc, WboscImpedance, constrained_joint_accel,
                              enforce_limits)
from wbosc.description import load_description
from wbosc.linalg import DEFAULT_TOLERANCE, gram_pinv
from wbosc.model import RobotModel, RobotState
from wbosc.tasks import CartesianPositionTask, JointPositionTask, PIDGains

DT = 1e-3


def state_of(model):
    return RobotState(0.0, model.q_actual().copy(), model.qd_actual().copy(),
                      np.zeros(model.n_joints))


def dreamer_setup(make_model, orientation="2d", q=None):
    model = make_model("dreamer22", q=q)
    cset = ConstraintSet([
        FlatContactConstraint("baseWeld", "torso_base"),
        CoactuationConstraint("torsoTransmission", "torso_lower_pitch",
                              "torso_upper_pitch", 1.0),
    ]).update(model)
    compound = build_disassembly_compound(model, orientation)
    update_all(compound, model)
    return model, cset, compound


def test_zero_gravity_zero_error_zero_internal_gives_zero_effort():
    doc = """
name: zerog
gravity: [0.0, 0.0, 0.0]
links:
  - {name: base, mass: 0.0}
  - {name: arm, mass: 1.0, com: [0.5, 0.0, 0.0], inertia: [0.0, 0.02, 0.02, 0.0, 0.0, 0.0]}
joints:
  - name: shoulder
    type: revolute
    parent: base
    child: arm
    axis: [0.0, 1.0, 0.0]
"""
    model = RobotModel(load_description(doc))
    model.update_kinematics(np.zeros(1), np.zeros(1))
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    compound = CompoundTask()
    posture = JointPositionTask("posture", model, PIDGains(1, kp=60.0, kd=3.0))
    compound.add(posture, 0)
    update_all(compound, model)
    cmd = Wbosc(1, 1).compute(model, cset, compound, state_of(model))
    assert np.abs(cmd.effort).max() < 1e-12


def test_pend1_posture_gravity_hold(make_model):
    model = make_model("pend1")
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    compound = CompoundTask()
    compound.add(JointPositionTask("posture", model, PIDGains(1, kp=60.0, kd=3.0)), 0)
    update_all(compound, model)
    cmd = Wbosc(1, 1).compute(model, cset, compound, state_of(model))
    assert abs(cmd.effort[0]) == pytest.approx(9.81 * 0.5, abs=1e-10)
    # the command holds the arm: effort equals the gravity vector exactly
    assert cmd.effort[0] == pytest.approx(model.G[0], abs=1e-10)


def test_single_level_ladder_matches_direct_formula(make_model):
    rng = np.random.default_rng(23)
    model = make_model("planar2")
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, 2)
        qd = rng.uniform(-1.0, 1.0, 2)
        model.update_kinematics(q, qd)
        cset = ConstraintSet().update(model)
        from wbosc.tasks import CompoundTask
        compound = CompoundTask()
        cart = CartesianPositionTask("tip", model, PIDGains(3, kp=64.0, kd=3.0),
                                     link="lower", control_point=[0.5, 0.0, 0.0])
        cart.goals["goalPosition"] = (cart.current_position(model)
                                       + rng.uniform(-0.1, 0.1, 3))
        compound.add(cart, 0)
        update_all(compound, model)
        cmd = Wbosc(2, 2).compute(model, cset, compound, state_of(model))

        # direct one-level closed form, no ladder recursion, plain numpy pinv
        state = cart.active_state
        U = model.underactuation_matrix()
        Ainv = np.linalg.inv(model.A)
        UNc = U @ cset.N_c
        UNcBar = Ainv @ UNc.T @ np.linalg.pinv(UNc @ Ainv @ UNc.T)
        Phi = UNc @ Ainv @ UNc.T
        J_star = state.jacobian @ UNcBar
        tau_ref = (J_star.T @ np.linalg.pinv(J_star @ Phi @ J_star.T) @ state.command
                   + UNcBar.T @ (model.B + model.G))
        assert np.abs(cmd.effort - tau_ref).max() < 1e-10


def level_layouts():
    return {
        2: {"rightHandPosition": 0, "leftHandPosition": 0,
            "rightHandOrientation": 0, "leftHandOrientation": 0, "posture": 1},
        3: {"rightHandPosition": 0, "leftHandPosition": 0,
            "rightHandOrientation": 1, "leftHandOrientation": 1, "posture": 2},
        5: {"rightHandPosition": 0, "leftHandPosition": 1,
            "rightHandOrientation": 2, "leftHandOrientation": 3, "posture": 4},
    }


@pytest.mark.parametrize("n_levels", [2, 3, 5])
@pytest.mark.parametrize("orientation", ["2d", "3d"])
def test_priority_non_interference(n_levels, orientation, make_model):
    rng = np.random.default_rng(31)
    q = np.zeros(22)
    q[6:] = rng.uniform(-0.5, 0.5, 16)
    model, cset, compound = dreamer_setup(make_model, orientation, q=q)
    for name, prio in level_layouts()[n_levels].items():
        compound.set_priority(name, prio)
    update_all(compound, model)
    wbc = Wbosc(22, 16)
    wbc.compute(model, cset, compound, state_of(model))
    Phi = cset.Phi
    ladder = wbc.last_ladder
    assert len(ladder) == n_levels
    for j in range(len(ladder)):
        for k in range(j + 1, len(ladder)):
            _, Jj, _ = ladder[j]
            _, Jk, _ = ladder[k]
            coupling = np.abs(Jj @ Phi @ Jk.T).max()
            assert coupling < 1e-8, (j, k, coupling)


# -- the factored ladder against the per-level reference ----------------------------

def reference_ladder(model, cset, compound, tol=DEFAULT_TOLERANCE):
    """The priority ladder one level at a time, exactly as the controller
    module docstring writes it: explicit Phi-weighted projectors and one
    tolerant Gram pseudo-inverse per level.  A level whose projected
    operator J*_{k|prev} Phi^(1/2) has its largest singular value below tol
    times that of the unprojected J*_k Phi^(1/2) is fully covered and gets
    Lambda = 0.  Returns (tau, [(level, J_proj, Lambda, J_star)])."""
    UNc = model.underactuation_matrix() @ cset.N_c
    Phi = UNc @ np.linalg.inv(model.A) @ UNc.T
    eye = np.eye(Phi.shape[0])
    P = eye.copy()
    tau = cset.UNcBar.T @ (model.B + model.G)
    ladder = []
    stack = compound.stack()
    for i, level in enumerate(stack.levels):
        rows = slice(stack.starts[i], stack.starts[i + 1])
        J, xdd = stack.jacobian[rows], stack.command[rows]
        J_star = J @ cset.UNcBar
        J_proj = J_star @ P
        gram = J_proj @ Phi @ J_proj.T
        covered = (np.linalg.eigvalsh(gram)[-1]
                   < tol ** 2 * np.linalg.eigvalsh(J_star @ Phi @ J_star.T)[-1])
        Lam = np.zeros_like(gram) if covered else gram_pinv(gram, tol)
        tau += J_proj.T @ Lam @ xdd
        P = P @ (eye - Phi @ J_proj.T @ Lam @ J_proj)
        ladder.append((level, J_proj, Lam, J_star))
    return tau, ladder


def relative(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def assert_matches_reference(model, cset, compound):
    wbc = Wbosc(model.n_dofs, model.n_joints)
    tau = wbc.compute(model, cset, compound, state_of(model)).effort
    tau_ref, ladder_ref = reference_ladder(model, cset, compound)
    assert relative(tau, tau_ref) <= 1e-10
    assert len(wbc.last_ladder) == len(ladder_ref)
    for (lv, J_proj, Lam), (lv_ref, J_ref, Lam_ref, J_star) in zip(
            wbc.last_ladder, ladder_ref):
        assert lv == lv_ref
        # relative to the unprojected rows: a fully covered level projects
        # to roundoff, which only has to stay roundoff
        assert np.linalg.norm(J_proj - J_ref) <= 1e-10 * np.linalg.norm(J_star)
        assert np.linalg.norm(Lam - Lam_ref) <= 1e-10 * max(
            np.linalg.norm(Lam_ref), 1.0)
    return tau


def random_dreamer(make_model, orientation, layout, rng, right_hand_twice=False):
    q, qd = random_configuration(make_model("dreamer22"), rng)
    model, cset, compound = dreamer_setup(make_model, orientation, q=q)
    model.update_kinematics(q, qd)
    cset.update(model)
    if right_hand_twice:
        compound.task("leftHandPosition").link = "right_hand"
    for name, prio in layout.items():
        compound.set_priority(name, prio)
    update_all(compound, model)
    return model, cset, compound


@pytest.mark.parametrize("n_levels", [2, 3, 5])
@pytest.mark.parametrize("orientation", ["2d", "3d"])
def test_ladder_matches_per_level_reference(n_levels, orientation, make_model):
    rng = np.random.default_rng(41 + n_levels)
    for _ in range(5):
        assert_matches_reference(*random_dreamer(
            make_model, orientation, level_layouts()[n_levels], rng))


@pytest.mark.parametrize("n_levels", [2, 3, 5])
def test_ladder_matches_reference_with_rank_deficient_levels(n_levels,
                                                             make_model):
    # both position tasks on the right hand: with 2 or 3 levels the top
    # level is rank-deficient, with 5 levels the second is fully covered
    rng = np.random.default_rng(43 + n_levels)
    for orientation in ("2d", "3d"):
        for _ in range(3):
            assert_matches_reference(*random_dreamer(
                make_model, orientation, level_layouts()[n_levels], rng,
                right_hand_twice=True))


@pytest.mark.parametrize("robot", ["pend1", "planar2"])
def test_one_level_ladder_matches_reference_without_a_qr(robot, make_model,
                                                         monkeypatch):
    # a one-level stack has no head to invert, so it needs no QR basis;
    # on planar2 the level's five rows have rank 2
    qr_calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        qr_calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    rng = np.random.default_rng(61)
    from wbosc.tasks import CompoundTask
    for _ in range(5):
        model = make_model(robot)
        model.update_kinematics(*random_configuration(model, rng))
        cset = ConstraintSet().update(model)
        compound = CompoundTask()
        compound.add(JointPositionTask("posture", model,
                                       PIDGains(model.n_joints, kp=60.0,
                                                kd=3.0)), 0)
        if robot == "planar2":
            cart = CartesianPositionTask("tip", model,
                                         PIDGains(3, kp=64.0, kd=3.0),
                                         link="lower",
                                         control_point=[0.5, 0.0, 0.0])
            compound.add(cart, 0)
        update_all(compound, model)
        assert_matches_reference(model, cset, compound)
    assert qr_calls == []
    # two levels have a head: its block-triangular inverse needs the QR
    assert_matches_reference(*random_dreamer(make_model, "2d",
                                             level_layouts()[2], rng))
    assert len(qr_calls) == 1


def test_fully_covered_level_contributes_nothing(make_model):
    # posture first covers every actuated direction, so the hand tasks
    # below it are fully covered: their projected operator is roundoff
    posture_first = {"rightHandPosition": 1, "leftHandPosition": 1,
                     "rightHandOrientation": 1, "leftHandOrientation": 1,
                     "posture": 0}
    rng = np.random.default_rng(47)
    for orientation in ("2d", "3d"):
        model, cset, compound = random_dreamer(make_model, orientation,
                                               posture_first, rng)
        tau = assert_matches_reference(model, cset, compound)
        for name in ("rightHandPosition", "leftHandPosition",
                     "rightHandOrientation", "leftHandOrientation"):
            compound.task(name).enabled = False
        posture_only = Wbosc(22, 16).compute(model, cset, compound,
                                             state_of(model)).effort
        assert relative(tau, posture_only) <= 1e-10
        assert np.abs(tau).max() < 1e4


@pytest.mark.parametrize("orientation", ["2d", "3d"])
def test_ladder_matches_reference_when_the_norm_proof_fails(orientation,
                                                            make_model,
                                                            monkeypatch):
    # a weak top level keeps every level full rank, but tol |Jw_head|_F
    # |Dinv|_F reaches 1, so no level is proven and each is projected in turn
    firsts = []
    original = controller_module.project_levels

    def recording(R, starts, frob, tol, first, free):
        firsts.append(first)
        return original(R, starts, frob, tol, first, free)

    monkeypatch.setattr(controller_module, "project_levels", recording)
    rng = np.random.default_rng(59)
    for _ in range(3):
        model, cset, compound = random_dreamer(
            make_model, orientation, level_layouts()[5], rng)
        compound.task("rightHandPosition").active_state.jacobian *= 1e-5
        del firsts[:]
        assert_matches_reference(model, cset, compound)
        assert firsts[0] == 0       # the ladder's own call, from level 0


def count_calls(fn):
    """Python and C function calls made while fn() runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("orientation", ["2d", "3d"])
def test_ladder_work_does_not_grow_with_level_count(orientation, make_model,
                                                    ladder_calls):
    rng = np.random.default_rng(53)
    q, _ = random_configuration(make_model("dreamer22"), rng, scale=0.5)
    model, cset, compound = dreamer_setup(make_model, orientation, q=q)
    calls = {}
    for n_levels, layout in level_layouts().items():
        for name, prio in layout.items():
            compound.set_priority(name, prio)
        wbc = Wbosc(22, 16)
        state = state_of(model)
        wbc.compute(model, cset, compound, state)      # layout caches
        cset.update(model)      # a new constraint version: the ladder reruns
        del ladder_calls[:]
        calls[n_levels] = count_calls(
            lambda: wbc.compute(model, cset, compound, state))
        assert len(ladder_calls) == 1
        wbc.compute(model, cset, compound, state)      # same inputs: reused
        assert len(ladder_calls) == 1
    assert calls[2] == calls[3] == calls[5], calls


# -- reuse of the effort while its inputs are unchanged ----------------------------

def test_reused_effort_equals_fresh_controller(make_model, ladder_calls):
    model, cset, compound = dreamer_setup(make_model)
    wbc = Wbosc(22, 16)
    first = wbc.compute(model, cset, compound, state_of(model))
    first.effort[:] = 0.0       # the caller owns the command it gets
    reused = wbc.compute(model, cset, compound, state_of(model))
    assert len(ladder_calls) == 1
    fresh = Wbosc(22, 16).compute(model, cset, compound, state_of(model))
    assert np.array_equal(reused.effort, fresh.effort)
    assert len(wbc.last_ladder) == 2


def _update_model(model, cset, compound):
    model.update_kinematics(model.q_full.copy(), model.qd_full.copy())


def _update_constraints(model, cset, compound):
    cset.update(model)


def _update_task(model, cset, compound):
    task = compound.task("rightHandPosition")
    task.goals["goalPosition"] = task.goals["goalPosition"] + 0.01
    updated(task, model)


def _toggle_enabled(model, cset, compound):
    compound.task("leftHandOrientation").enabled = False


def _set_priority(model, cset, compound):
    compound.set_priority("leftHandPosition", 1)


@pytest.mark.parametrize("change", [_update_model, _update_constraints,
                                    _update_task, _toggle_enabled,
                                    _set_priority])
def test_each_input_version_forces_a_recompute(change, make_model,
                                               ladder_calls):
    model, cset, compound = dreamer_setup(make_model)
    wbc = Wbosc(22, 16)
    wbc.compute(model, cset, compound, state_of(model))
    change(model, cset, compound)
    tau = wbc.compute(model, cset, compound, state_of(model)).effort
    assert len(ladder_calls) == 2
    fresh = Wbosc(22, 16).compute(model, cset, compound, state_of(model))
    assert np.array_equal(tau, fresh.effort)


def test_internal_force_reference_always_recomputes(make_model, ladder_calls):
    model, cset, compound = dreamer_setup(make_model)
    wbc = Wbosc(22, 16)
    base = wbc.compute(model, cset, compound, state_of(model)).effort
    w = np.full(16, 0.5)
    for _ in range(2):
        tau = wbc.compute(model, cset, compound, state_of(model),
                          internal_force_ref=w).effort
        assert np.allclose(tau, base + cset.Lstar.T @ w, rtol=0, atol=1e-9)
    assert len(ladder_calls) == 3
    # the reference is not kept: the next call without one recomputes
    assert np.array_equal(
        wbc.compute(model, cset, compound, state_of(model)).effort, base)
    assert len(ladder_calls) == 4


def test_non_finite_task_raises_on_every_call(make_model):
    model, cset, compound = dreamer_setup(make_model)
    wbc = Wbosc(22, 16)
    wbc.compute(model, cset, compound, state_of(model))
    task = compound.task("rightHandPosition")
    task.goals["goalPosition"] = np.full(3, np.nan)
    updated(task, model)
    for _ in range(3):
        with pytest.raises(CommandError, match="rightHandPosition"):
            wbc.compute(model, cset, compound, state_of(model))


def test_internal_force_reference_is_motion_inert(make_model):
    rng = np.random.default_rng(37)
    model, cset, compound = dreamer_setup(make_model)
    wbc = Wbosc(22, 16)
    base = wbc.compute(model, cset, compound, state_of(model))
    Phi = cset.Phi
    J0 = wbc.last_ladder[0][1]
    for _ in range(5):
        w = rng.normal(size=16)
        tau = cset.Lstar.T @ w
        assert np.abs(J0 @ Phi @ tau).max() < 1e-8 * max(1.0, np.linalg.norm(w))
        # and through the full command path
        cmd = wbc.compute(model, cset, compound, state_of(model),
                          internal_force_ref=w)
        qdd_base = constrained_joint_accel(model, cset, base.effort)
        qdd = constrained_joint_accel(model, cset, cmd.effort)
        assert np.abs(qdd - qdd_base).max() < 1e-6 * max(1.0, np.linalg.norm(w))


def test_empty_compound_rejected(make_model):
    model = make_model("pend1")
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    with pytest.raises(CommandError):
        Wbosc(1, 1).compute(model, cset, CompoundTask(), state_of(model))


def test_nan_aggregate_names_task(make_model):
    model, cset, compound = dreamer_setup(make_model)
    task = compound.task("rightHandPosition")
    task.active_state.command[0] = np.nan
    with pytest.raises(CommandError, match="rightHandPosition"):
        Wbosc(22, 16).compute(model, cset, compound, state_of(model))


def test_gravity_mask_zeroes_compensation(make_model):
    model = make_model("pend1")
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    compound = CompoundTask()
    compound.add(JointPositionTask("posture", model, PIDGains(1, kp=60.0, kd=3.0)), 0)
    update_all(compound, model)
    cmd = Wbosc(1, 1, gravity_mask=[True]).compute(model, cset, compound,
                                                   state_of(model))
    assert cmd.effort[0] == pytest.approx(0.0, abs=1e-12)


# -- impedance variant ---------------------------------------------------------

def test_impedance_full_relaxation_tracks_measured(make_model):
    model, cset, compound = dreamer_setup(make_model)
    wbc = WboscImpedance(22, 16, relaxation=1.0, position_kp=10.0, position_kd=1.0)
    st = state_of(model)
    st.position += 0.01
    cmd = wbc.compute(model, cset, compound, st, dt=DT)
    assert np.allclose(cmd.position, st.position, atol=1e-12)
    assert np.allclose(cmd.velocity, st.velocity, atol=1e-12)
    assert np.allclose(cmd.position_kp, 10.0)


def test_impedance_integrates_on_reused_effort(make_model, ladder_calls):
    model, cset, compound = dreamer_setup(make_model)
    st = state_of(model)
    st.position += 0.01
    reused, recomputed = (WboscImpedance(22, 16, relaxation=0.05)
                          for _ in range(2))
    other = ConstraintSet(cset.constraints)
    positions = []
    for _ in range(5):
        a = reused.compute(model, cset, compound, st, dt=DT)
        other.update(model)         # same values, new version: no reuse
        b = recomputed.compute(model, other, compound, st, dt=DT)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)
        assert np.array_equal(a.effort, b.effort)
        positions.append(a.position)
    assert len(ladder_calls) == 1 + 5
    assert all(np.abs(p - positions[0]).max() > 0 for p in positions[1:])


def test_impedance_zero_torque_zero_gravity_at_rest_unchanged():
    doc = """
name: zerog
gravity: [0.0, 0.0, 0.0]
links:
  - {name: base, mass: 0.0}
  - {name: arm, mass: 1.0, com: [0.5, 0.0, 0.0], inertia: [0.0, 0.02, 0.02, 0.0, 0.0, 0.0]}
joints:
  - name: shoulder
    type: revolute
    parent: base
    child: arm
    axis: [0.0, 1.0, 0.0]
"""
    model = RobotModel(load_description(doc))
    model.update_kinematics(np.zeros(1), np.zeros(1))
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    compound = CompoundTask()
    compound.add(JointPositionTask("posture", model, PIDGains(1)), 0)
    update_all(compound, model)
    wbc = WboscImpedance(1, 1, relaxation=0.05)
    st = state_of(model)
    for _ in range(100):
        cmd = wbc.compute(model, cset, compound, st, dt=DT)
    assert np.abs(cmd.position).max() < 1e-12
    assert np.abs(cmd.velocity).max() < 1e-12


def test_impedance_gravity_hold_internal_velocity_stays_small(make_model):
    model = make_model("pend1")
    cset = ConstraintSet().update(model)
    from wbosc.tasks import CompoundTask
    compound = CompoundTask()
    compound.add(JointPositionTask("posture", model, PIDGains(1, kp=60.0, kd=3.0)), 0)
    update_all(compound, model)
    wbc = WboscImpedance(1, 1, relaxation=0.05)
    st = state_of(model)
    for _ in range(1000):   # 1 simulated second
        cmd = wbc.compute(model, cset, compound, st, dt=DT)
        assert abs(cmd.velocity[0]) < 1e-6


# -- limit enforcement -----------------------------------------------------------

def test_effort_truncation(make_model, descriptions):
    model = make_model("pend1")
    cmd = Command.zeros(1)
    cmd.effort[0] = 100.0
    out, warnings = enforce_limits(cmd, JointLimits(
        descriptions["pend1"], ["shoulder"], LimitFlags(effort=True)))
    assert out.effort[0] == 40.0
    assert len(warnings) == 1 and "shoulder" in warnings[0]


def test_within_limits_identity(make_model, descriptions):
    cmd = Command.zeros(1)
    cmd.effort[0] = 10.0
    out, warnings = enforce_limits(cmd, JointLimits(
        descriptions["pend1"], ["shoulder"],
        LimitFlags(effort=True, position=True, velocity=True)))
    assert out.effort[0] == 10.0
    assert warnings == []


def test_disabled_enforcement_warns_only_on_max_effort(descriptions):
    cmd = Command.zeros(1)
    cmd.effort[0] = 100.0
    out, warnings = enforce_limits(cmd, JointLimits(
        descriptions["pend1"], ["shoulder"],
        LimitFlags(effort=False, max_effort_command=50.0)))
    assert out.effort[0] == 100.0   # no truncation
    assert len(warnings) == 1 and "max_effort_command" in warnings[0]


def enforce_limits_by_joint(command, description, joint_names, flags):
    """The per-joint loop that enforce_limits replaced, kept as reference."""
    n = len(joint_names)

    def mask(flag):
        return np.full(n, bool(flag)) if isinstance(flag, bool) \
            else np.asarray(flag, dtype=bool)

    eff_mask, pos_mask, vel_mask = (mask(flags.effort), mask(flags.position),
                                    mask(flags.velocity))
    max_cmd = flags.max_effort_command
    if max_cmd is not None:
        max_cmd = np.broadcast_to(np.asarray(max_cmd, dtype=float), (n,))
    warnings = []
    for i, name in enumerate(joint_names):
        joint = description.joint(name)
        if eff_mask[i] and joint.effort_limit is not None:
            lim = joint.effort_limit
            if abs(command.effort[i]) > lim:
                warnings.append(
                    f"effort command for joint {name!r} truncated to {lim}")
                command.effort[i] = np.clip(command.effort[i], -lim, lim)
        if pos_mask[i] and joint.position_limits is not None:
            lo, hi = joint.position_limits
            if not lo <= command.position[i] <= hi:
                warnings.append(
                    f"position command for joint {name!r} truncated")
                command.position[i] = np.clip(command.position[i], lo, hi)
        if vel_mask[i] and joint.velocity_limit is not None:
            lim = joint.velocity_limit
            if abs(command.velocity[i]) > lim:
                warnings.append(
                    f"velocity command for joint {name!r} truncated to {lim}")
                command.velocity[i] = np.clip(command.velocity[i], -lim, lim)
        if max_cmd is not None and abs(command.effort[i]) > max_cmd[i]:
            warnings.append(f"effort command for joint {name!r} exceeds "
                            f"max_effort_command {max_cmd[i]}")
    return command, warnings


def test_enforce_limits_matches_the_joint_loop(descriptions):
    description = descriptions["dreamer22"]
    names = description.real_joint_names
    n = len(names)
    rng = np.random.default_rng(5)
    for trial in range(200):
        def flag():
            return bool(rng.integers(2)) if rng.integers(2) \
                else list(rng.integers(2, size=n).astype(bool))
        max_cmd = (None, float(rng.uniform(5, 60)),
                   list(rng.uniform(5, 60, n)))[trial % 3]
        flags = LimitFlags(effort=flag(), position=flag(), velocity=flag(),
                           max_effort_command=max_cmd)
        cmd = Command.zeros(n)
        cmd.effort[:] = rng.uniform(-150, 150, n)
        cmd.position[:] = rng.uniform(-4, 4, n)
        cmd.velocity[:] = rng.uniform(-15, 15, n)
        for array in (cmd.effort, cmd.position, cmd.velocity):
            array[rng.integers(n)] = (np.nan, np.inf, -np.inf)[trial % 3]
        expected, expected_warnings = enforce_limits_by_joint(
            cmd.copy(), description, names, flags)
        out, warnings = enforce_limits(cmd, JointLimits(description, names,
                                                        flags))
        assert warnings == expected_warnings
        for got, want in ((out.effort, expected.effort),
                          (out.position, expected.position),
                          (out.velocity, expected.velocity)):
            np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(out.effort),
                              np.signbit(expected.effort))


@pytest.mark.parametrize("flags, key", [
    (LimitFlags(effort=[True, False]), "enforce_effort_limits"),
    (LimitFlags(position=[True, False, True]), "enforce_position_limits"),
    (LimitFlags(velocity=[]), "enforce_velocity_limits"),
    (LimitFlags(max_effort_command=[1.0, 2.0]), "max_effort_command"),
])
def test_joint_limits_reject_a_wrong_length_list(descriptions, flags, key):
    with pytest.raises(ValueError, match=f"{key} lists .* values for 1 "
                                         f"joints"):
        JointLimits(descriptions["pend1"], ["shoulder"], flags)
