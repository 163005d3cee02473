import numpy as np
import pytest

from conftest import assert_jacobian_close, fd_jacobian
from wbosc.geometry import axis_angle_matrix, quat_from_matrix
from wbosc.params import ParameterKind, ParameterRegistry
from wbosc.tasks import (CartesianPositionTask, CompoundTask, ComTask,
                         JointPositionTask, Orientation2DTask,
                         Orientation3DTask, PIDController, PIDGains, TaskError)

DT = 1e-3


def updated(task, model, dt=DT):
    """Both halves of a task update against ``model``."""
    task.update(model)
    task.update_goal(dt)
    return task.active_state


# -- PID ----------------------------------------------------------------------

def test_pid_zero_everything():
    pid = PIDController(PIDGains(2, kp=10.0, ki=1.0, kd=2.0, integrator_limit=1.0))
    out = pid.command(np.zeros(2), np.zeros(2), np.zeros(2), 0.01)
    assert np.abs(out).max() == 0.0


def test_pid_proportional_derivative_arithmetic():
    pid = PIDController(PIDGains(1, kp=60.0, ki=0.0, kd=3.0))
    out = pid.command(np.array([0.1]), np.array([-0.2]), np.zeros(1), 0.01)
    assert out[0] == pytest.approx(60 * 0.1 + 3 * -0.2, abs=1e-12)


def test_pid_integrator_clamp():
    pid = PIDController(PIDGains(1, ki=1.0, integrator_limit=0.05))
    for _ in range(100):
        out = pid.command(np.array([1.0]), np.zeros(1), np.zeros(1), 0.01)
    assert out[0] == pytest.approx(0.05, abs=1e-12)
    assert np.abs(pid.integral).max() <= 0.05


def test_pid_rejects_bad_dt_and_dims():
    pid = PIDController(PIDGains(2, kp=1.0))
    with pytest.raises(TaskError):
        pid.command(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(TaskError):
        pid.command(np.zeros(3), np.zeros(3), np.zeros(3), 0.01)


def test_gains_must_be_nonnegative():
    with pytest.raises(TaskError):
        PIDGains(1, kp=-1.0)


# -- joint position -------------------------------------------------------------

def test_joint_task_zero_at_goal(make_model):
    model = make_model("planar2", q=[0.3, -0.2])
    task = JointPositionTask("posture", model, PIDGains(2, kp=60.0, kd=3.0),
                             goal_position=[0.3, -0.2])
    state = updated(task, model)
    assert np.abs(state.command).max() == 0.0
    assert np.abs(state.error).max() == 0.0


def test_joint_task_jacobian_is_selection(make_model):
    model = make_model("dreamer22")
    task = JointPositionTask("posture", model, PIDGains(16, kp=60.0))
    state = updated(task, model)
    assert state.jacobian.shape == (16, 22)
    assert np.array_equal(state.jacobian, model.underactuation_matrix())


def test_joint_task_pure_feedforward(make_model):
    model = make_model("planar2")
    accel = np.array([0.5, -1.5])
    task = JointPositionTask("posture", model, PIDGains(2, kp=60.0, kd=3.0),
                             goal_acceleration=accel)
    state = updated(task, model)
    assert np.allclose(state.command, accel, atol=1e-12)


# -- cartesian position ----------------------------------------------------------

def test_cartesian_zero_at_goal(make_model):
    model = make_model("pend1")
    task = CartesianPositionTask("tip", model, PIDGains(3, kp=64.0, kd=3.0),
                                 link="arm", control_point=[1.0, 0.0, 0.0])
    task.goals["goalPosition"] = task.current_position(model).copy()
    state = updated(task, model)
    assert np.abs(state.command).max() < 1e-12


def test_cartesian_gain_arithmetic(make_model):
    model = make_model("pend1")
    task = CartesianPositionTask("tip", model, PIDGains(3, kp=64.0, kd=3.0),
                                 link="arm", control_point=[1.0, 0.0, 0.0])
    task.goals["goalPosition"] = (task.current_position(model)
                                  + [0.0, 0.0, 0.1])
    state = updated(task, model)
    assert np.allclose(state.command, [0.0, 0.0, 6.4], atol=1e-12)


def test_cartesian_unknown_link(make_model):
    model = make_model("pend1")
    with pytest.raises(Exception):
        CartesianPositionTask("tip", model, PIDGains(3, kp=1.0), link="missing")


# -- 3d orientation ---------------------------------------------------------------

def test_orientation3d_zero_at_goal(make_model):
    model = make_model("dreamer22")
    R = model.link_transform("right_hand")[:3, :3]
    task = Orientation3DTask("wrist", model, PIDGains(3, kp=60.0, kd=3.0),
                             link="right_hand",
                             goal_orientation=quat_from_matrix(R))
    state = updated(task, model)
    assert np.abs(state.error).max() < 1e-12


def test_orientation3d_small_rotation_error(make_model):
    model = make_model("dreamer22")
    R = model.link_transform("right_hand")[:3, :3]
    theta = 0.2
    R_goal = axis_angle_matrix(np.array([0.0, 0.0, 1.0]), theta) @ R
    task = Orientation3DTask("wrist", model, PIDGains(3, kp=1.0),
                             link="right_hand",
                             goal_orientation=quat_from_matrix(R_goal))
    state = updated(task, model)
    assert np.abs(state.error - [0.0, 0.0, theta]).max() < 1e-3


def test_orientation3d_double_cover(make_model):
    model = make_model("dreamer22")
    R = model.link_transform("right_hand")[:3, :3]
    q_goal = quat_from_matrix(axis_angle_matrix(np.array([1.0, 0.0, 0.0]), 0.4) @ R)
    t1 = Orientation3DTask("a", model, PIDGains(3, kp=1.0), link="right_hand",
                           goal_orientation=q_goal)
    t2 = Orientation3DTask("b", model, PIDGains(3, kp=1.0), link="right_hand",
                           goal_orientation=-q_goal)
    s1 = updated(t1, model)
    s2 = updated(t2, model)
    assert np.allclose(s1.error, s2.error, atol=1e-12)


def test_orientation3d_nonunit_goal_rejected(make_model):
    model = make_model("dreamer22")
    task = Orientation3DTask("wrist", model, PIDGains(3, kp=1.0),
                             link="right_hand",
                             goal_orientation=[1.0, 0.0, 0.0, 0.0])
    task.goals["goalOrientation"] = np.array([1.0, 0.1, 0.0, 0.0])
    with pytest.raises(TaskError, match="unit"):
        updated(task, model)


# -- 2d orientation -----------------------------------------------------------------

def test_orientation2d_zero_when_aligned(make_model):
    model = make_model("dreamer22")
    h = Orientation2DTask("head", model, PIDGains(2, kp=1.0),
                          link="right_hand", body_vector=[0, 0, 1],
                          goal_vector=[0, 0, 1])
    h.goals["goalVector"] = h.heading(model).copy()
    state = updated(h, model)
    assert np.abs(state.error).max() < 1e-9


def test_orientation2d_quarter_turn_unit_error(make_model):
    # fixture whose heading is +x at zero configuration: pend1 arm x-axis
    model = make_model("pend1")
    task = Orientation2DTask("point", model, PIDGains(2, kp=1.0), link="arm",
                             body_vector=[1, 0, 0], goal_vector=[0, 1, 0])
    state = updated(task, model)
    assert np.linalg.norm(state.error) == pytest.approx(1.0, abs=1e-9)


def test_orientation2d_antiparallel_raises(make_model):
    model = make_model("pend1")
    task = Orientation2DTask("point", model, PIDGains(2, kp=1.0), link="arm",
                             body_vector=[1, 0, 0], goal_vector=[-1, 0, 0])
    with pytest.raises(TaskError, match="anti-parallel"):
        updated(task, model)


def test_orientation2d_jacobian_matches_frozen_plane_map(make_model):
    rng = np.random.default_rng(17)
    model = make_model("dreamer22")
    task = Orientation2DTask("palm", model, PIDGains(2, kp=1.0),
                             link="right_hand", body_vector=[0, 0, 1],
                             goal_vector=[1, 0, 0])
    q = np.zeros(22)
    q[6:] = rng.uniform(-0.6, 0.6, 16)
    model.update_kinematics(q, np.zeros(22))
    state = updated(task, model)
    B = task.plane_basis(task.heading(model))
    J_fd = fd_jacobian(model, q, lambda m: B @ task.heading(m))
    assert_jacobian_close(state.jacobian, J_fd)


# -- com -------------------------------------------------------------------------

def test_com_zero_at_goal(make_model):
    model = make_model("planar2")
    c, _ = model.com()
    task = ComTask("balance", model, PIDGains(3, kp=10.0), goal_position=c)
    state = updated(task, model)
    assert np.abs(state.command).max() < 1e-12


def test_com_jacobian_matches_fd(make_model):
    model = make_model("planar2", q=[0.4, -0.7])
    task = ComTask("balance", model, PIDGains(3, kp=10.0))
    state = updated(task, model)
    J_fd = fd_jacobian(model, np.array([0.4, -0.7]), lambda m: m.com()[0])
    assert_jacobian_close(state.jacobian, J_fd)


# -- compound task ----------------------------------------------------------------

def build_disassembly_compound(model, orientation="2d"):
    kp = PIDGains(3, kp=64.0, kd=3.0)
    compound = CompoundTask()
    right = CartesianPositionTask("rightHandPosition", model,
                                  PIDGains(3, kp=64.0, kd=3.0),
                                  link="right_hand")
    left = CartesianPositionTask("leftHandPosition", model,
                                 PIDGains(3, kp=64.0, kd=3.0),
                                 link="left_hand")
    if orientation == "2d":
        r_ori = Orientation2DTask("rightHandOrientation", model,
                                  PIDGains(2, kp=60.0, kd=3.0),
                                  link="right_hand", body_vector=[0, 0, 1])
        l_ori = Orientation2DTask("leftHandOrientation", model,
                                  PIDGains(2, kp=60.0, kd=3.0),
                                  link="left_hand", body_vector=[0, 0, 1])
    else:
        r_ori = Orientation3DTask("rightHandOrientation", model,
                                  PIDGains(3, kp=60.0, kd=3.0),
                                  link="right_hand")
        l_ori = Orientation3DTask("leftHandOrientation", model,
                                  PIDGains(3, kp=60.0, kd=3.0),
                                  link="left_hand")
    posture = JointPositionTask("posture", model, PIDGains(16, kp=60.0, kd=3.0))
    for t in (right, left, r_ori, l_ori):
        compound.add(t, 0)
    compound.add(posture, 1)
    return compound


def update_all(compound, model, dt=DT):
    for task in compound.tasks():
        updated(task, model, dt)


def level_block(compound, level):
    """The stacked (jacobian, command) rows of one priority level."""
    stack = compound.stack()
    i = stack.levels.index(level)
    rows = slice(stack.starts[i], stack.starts[i + 1])
    return stack.jacobian[rows], stack.command[rows]


def test_aggregate_shapes(make_model):
    model = make_model("dreamer22")
    compound = build_disassembly_compound(model, "2d")
    update_all(compound, model)
    J, x = level_block(compound, 0)
    assert J.shape == (10, 22)
    assert x.shape == (10,)
    J1, _ = level_block(compound, 1)
    assert J1.shape == (16, 22)

    compound3d = build_disassembly_compound(model, "3d")
    update_all(compound3d, model)
    J, x = level_block(compound3d, 0)
    assert J.shape == (12, 22)


def test_aggregate_skips_disabled(make_model):
    model = make_model("dreamer22")
    compound = build_disassembly_compound(model, "2d")
    update_all(compound, model)
    compound.task("leftHandPosition").enabled = False
    compound.task("leftHandOrientation").enabled = False
    J, _ = level_block(compound, 0)
    assert J.shape == (5, 22)


def test_empty_level_signaled(make_model):
    model = make_model("dreamer22")
    compound = build_disassembly_compound(model, "2d")
    update_all(compound, model)
    for name in ("rightHandPosition", "leftHandPosition",
                 "rightHandOrientation", "leftHandOrientation"):
        compound.task(name).enabled = False
    assert compound.stack().levels == (1,)


def test_row_count_matches_enabled_dimensions(make_model):
    model = make_model("dreamer22")
    compound = build_disassembly_compound(model, "2d")
    update_all(compound, model)
    for level in compound.stack().levels:
        J, x = level_block(compound, level)
        expected = sum(e.task.dimension for e in compound.entries
                       if e.priority == level and e.task.enabled)
        assert J.shape[0] == expected == x.shape[0]


# -- goals through the registry ---------------------------------------------------

def _turned_quaternion(model):
    R = model.link_transform("right_hand")[:3, :3]
    return quat_from_matrix(
        axis_angle_matrix(np.array([0.0, 1.0, 0.0]), 0.3) @ R)


# per task type: robot, constructor, and each goal parameter with the
# constructor keyword that takes it (None: the goal store at construction)
# and a goal value that changes the update
GOAL_CASES = {
    "JointPositionTask": ("planar2", lambda m, **kw: JointPositionTask(
        "t", m, PIDGains(2, kp=50.0, kd=3.0), **kw), {
        "goalPosition": ("goal_position", lambda m: [0.4, -0.3]),
        "goalVelocity": ("goal_velocity", lambda m: [0.2, 0.1]),
        "goalAcceleration": ("goal_acceleration", lambda m: [1.0, -2.0])}),
    "CartesianPositionTask": ("pend1", lambda m, **kw: CartesianPositionTask(
        "t", m, PIDGains(3, kp=50.0, kd=3.0), link="arm",
        control_point=[1.0, 0.0, 0.0], **kw), {
        "goalPosition": ("goal_position", lambda m: [0.5, 0.1, 0.3]),
        "goalVelocity": (None, lambda m: [0.1, 0.0, 0.2]),
        "goalAcceleration": (None, lambda m: [0.0, 0.3, 1.0])}),
    "Orientation3DTask": ("dreamer22", lambda m, **kw: Orientation3DTask(
        "t", m, PIDGains(3, kp=50.0, kd=3.0), link="right_hand", **kw), {
        "goalOrientation": ("goal_orientation", _turned_quaternion),
        "goalAngularVelocity": (None, lambda m: [0.1, 0.2, 0.3])}),
    "Orientation2DTask": ("pend1", lambda m, **kw: Orientation2DTask(
        "t", m, PIDGains(2, kp=50.0, kd=3.0), link="arm",
        body_vector=[1, 0, 0], **kw), {
        "goalVector": ("goal_vector", lambda m: [0.0, 1.0, 0.0])}),
    "COMTask": ("planar2", lambda m, **kw: ComTask(
        "t", m, PIDGains(3, kp=50.0, kd=3.0), **kw), {
        "goalPosition": ("goal_position", lambda m: [0.1, 0.2, 0.3])}),
}

BASE_PARAMETERS = {"enabled", "kp", "ki", "kd", "error"}


@pytest.mark.parametrize("type_name", sorted(GOAL_CASES))
def test_registry_goal_matches_constructor_goal(make_model, type_name):
    robot, build, goals = GOAL_CASES[type_name]
    model = make_model(robot, q=[0.3, -0.2] if robot == "planar2" else None)
    for name, (keyword, make_goal) in goals.items():
        goal = np.asarray(make_goal(model), dtype=float)
        if keyword is None:
            reference = build(model)
            reference.goals[name] = goal
        else:
            reference = build(model, **{keyword: goal})
        expected = updated(reference, model)

        task = build(model)
        registry = ParameterRegistry()
        task.declare_parameters(registry)
        before = updated(task, model).command.copy()
        registry.require(f"t.{name}").set(goal)
        state = updated(task, model)
        assert not np.array_equal(state.command, before), name
        assert np.array_equal(state.command, expected.command), name
        assert np.array_equal(state.error, expected.error), name


@pytest.mark.parametrize("type_name", sorted(GOAL_CASES))
def test_declared_parameter_names_per_type(make_model, type_name):
    robot, build, goals = GOAL_CASES[type_name]
    task = build(make_model(robot))
    registry = ParameterRegistry()
    task.declare_parameters(registry)
    extra = {"currentAcceleration"} if type_name == "JointPositionTask" \
        else set()
    assert set(registry.names()) == {
        f"t.{n}" for n in BASE_PARAMETERS | set(goals) | extra}
    for name in goals:
        param = registry.require(f"t.{name}")
        assert param.kind is ParameterKind.VECTOR and param.writable
