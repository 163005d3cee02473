import threading
import time

import numpy as np
import pytest

from wbosc import fixtures
from wbosc.assembly import ServiceError, build_from_files
from wbosc.config import load_config, spec_diff
from wbosc.transports import UdpTransport


def build(config="dreamer22_disassembly", robot="dreamer22", **kwargs):
    return build_from_files(fixtures.config_path(config),
                            fixtures.robot_path(robot),
                            single_threaded=kwargs.pop("single_threaded", True),
                            **kwargs)


def test_get_real_joint_indices_sixteen_names():
    with build() as ctl:
        response = ctl.introspect("getRealJointIndices")
        assert len(response["joints"]) == 16
        assert response["joints"][0] == "torso_lower_pitch"
        assert ctl.introspect("getActuableJointIndices") == response
        assert ctl.introspect("getCmdJointIndices") == response


def test_get_task_parameters_reflects_current_values():
    with build() as ctl:
        ctl.start()
        ctl.registry.require("rightHandPosition.goalPosition").set(
            np.array([0.3, 0.1, 0.2]))
        response = ctl.introspect("getTaskParameters")
        by_name = {t["name"]: t for t in response["tasks"]}
        assert by_name["rightHandPosition"]["parameters"]["goalPosition"] \
            == [0.3, 0.1, 0.2]
        assert by_name["posture"]["type"] == "JointPositionTask"
        assert set(by_name) == {"rightHandPosition", "leftHandPosition",
                                "rightHandOrientation", "leftHandOrientation",
                                "posture"}


def test_get_constraint_parameters_and_jacobians():
    with build() as ctl:
        ctl.start()
        ctl.run(cycles=2)
        response = ctl.introspect("getConstraintParameters")
        by_name = {c["name"]: c for c in response["constraints"]}
        assert by_name["torsoTransmission"]["parameters"]["transmissionRatio"] == 1.0
        jac = ctl.introspect("getConstraintJacobianMatrices")
        by_name = {c["name"]: c for c in jac["constraints"]}
        assert len(by_name["baseWeld"]["jacobian"]) == 6
        assert len(by_name["torsoTransmission"]["jacobian"]) == 1
        assert len(by_name["baseWeld"]["jacobian"][0]) == 22


def test_get_controller_configuration():
    with build() as ctl:
        response = ctl.introspect("getControllerConfiguration")
        priorities = {e["name"]: e["priority"]
                      for e in response["compound_task"]}
        assert priorities["posture"] == 1
        cset = {c["name"]: c for c in response["constraint_set"]}
        assert cset["baseWeld"]["type"] == "FlatContactConstraint"


def test_get_framework_parameters():
    with build() as ctl:
        response = ctl.introspect("getControlItParameters")
        assert response["servo_frequency"] == 1000.0
        assert response["whole_body_controller_type"] == "WBOSC"


def test_unknown_service_rejected():
    with build() as ctl:
        with pytest.raises(ServiceError, match="unknown service"):
            ctl.introspect("getSecrets")


def test_input_binding_visible_before_next_cycle_use():
    with build() as ctl:
        ctl.start()
        ctl.run(cycles=2)
        goal = np.array([0.35, -0.3, 0.35])
        ctl.bus.publish("goals/rightHand", goal)
        ctl.run(cycles=1)   # drained at cycle start
        assert np.array_equal(
            ctl.registry.require("rightHandPosition.goalPosition").value, goal)


def test_apply_reconfiguration_actions():
    with build() as ctl:
        ctl.start()
        old = load_config(fixtures.read_config("dreamer22_disassembly"))
        new_text = fixtures.read_config("dreamer22_disassembly").replace(
            """  - name: posture
    priority: 1
    operational_state: enable""",
            """  - name: posture
    priority: 1
    operational_state: disable""")
        actions = spec_diff(old, load_config(new_text))
        ctl.apply_actions(actions)
        assert not ctl.tasks["posture"].enabled
        assert ctl.compound.stack().levels == (0,)
        ctl.run(cycles=2)   # still runs with the remaining level


def test_udp_service_path_against_running_controller():
    ctl = build_from_files(fixtures.config_path("dreamer22_disassembly"),
                           fixtures.robot_path("dreamer22"),
                           single_threaded=True, udp_port=0)
    client = UdpTransport(default_peer=("127.0.0.1", ctl.udp.port))
    try:
        ctl.start()
        ctl.run(cycles=2)
        response = client.request("getRealJointIndices", {})
        assert len(response["joints"]) == 16
        response = client.request("getSecrets", {})
        assert "error" in response
    finally:
        client.close()
        ctl.close()


def test_udp_remote_interface_round_trip():
    text = fixtures.read_config("pend1_posture").replace(
        "robot_interface_type: sim-lockstep",
        "robot_interface_type: udp-remote")
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    spec = load_config(text)
    description = load_description(fixtures.read_robot("pend1"))
    ctl = AssembledController(description, spec, single_threaded=True,
                              udp_port=0)
    assert ctl.plant is None   # the external process is the plant
    commands = []
    client = UdpTransport(default_peer=("127.0.0.1", ctl.udp.port))
    client.register_input("robot/command", commands.append)
    try:
        ctl.start()
        # external plant publishes state; controller should answer with effort
        state = np.concatenate([[0.0], [0.1], [0.0], [0.0]])
        client.send_publish("robot/state", state)
        deadline = time.monotonic() + 2.0
        while not commands and time.monotonic() < deadline:
            ctl.runtime.servo_update()
            ctl.clock.tick()
            time.sleep(0.002)
        assert commands, "no command datagram received"
        assert len(commands[0]) == 3   # effort, position, velocity
    finally:
        client.close()
        ctl.close()


def test_udp_output_binding_without_a_peer_fails_at_build():
    text = fixtures.read_config("pend1_posture").replace(
        "topic: errors/posture\n    transport_type: intra",
        "topic: errors/posture\n    transport_type: udp")
    assert "transport_type: udp" in text
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    before = set(threading.enumerate())
    with pytest.raises(AssemblyError, match="posture.error.*no port"):
        AssembledController(load_description(fixtures.read_robot("pend1")),
                            load_config(text), single_threaded=True)
    # the transport and publisher threads it started are stopped
    left = [t for t in threading.enumerate()
            if t not in before and t.is_alive()]
    assert left == []


def test_impedance_controller_end_to_end():
    text = fixtures.read_config("dreamer22_posture").replace(
        "whole_body_controller_type: WBOSC",
        "whole_body_controller_type: WBOSC_Impedance")
    from wbosc.assembly import AssembledController
    from wbosc.controller import WboscImpedance
    from wbosc.description import load_description
    spec = load_config(text)
    description = load_description(fixtures.read_robot("dreamer22"))
    ctl = AssembledController(description, spec, single_threaded=True)
    with ctl:
        assert isinstance(ctl.wbc, WboscImpedance)
        ctl.start()
        ctl.run(cycles=500)   # 0.5 s gravity hold through the internal model
        cmd = ctl.runtime.last_result.command
        state = ctl.interface.read()
        assert np.abs(state.velocity).max() < 1e-3
        assert np.abs(cmd.position - state.position).max() < 1e-3
        assert np.abs(cmd.velocity).max() < 1e-3


def test_freerun_interface_runs_with_monotonic_clock():
    text = fixtures.read_config("pend1_posture").replace(
        "robot_interface_type: sim-lockstep",
        "robot_interface_type: sim-freerun").replace(
        "servo_clock_type: simulated-lockstep",
        "servo_clock_type: monotonic").replace(
        "servo_frequency: 1000", "servo_frequency: 200")
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    spec = load_config(text)
    description = load_description(fixtures.read_robot("pend1"))
    ctl = AssembledController(description, spec, single_threaded=True)
    try:
        ctl.start()
        ctl.run(cycles=40)   # 0.2 s of wall time at 200 Hz
        state = ctl.interface.read()
        assert np.isfinite(state.position).all()
        assert ctl.runtime.stats.servo_blocking_acquires == 0
    finally:
        ctl.close()


def test_goal_beyond_workspace_stays_stable():
    with build() as ctl:
        ctl.start()
        ctl.run(cycles=100)
        # 2 m ahead is far outside the arm's reach
        ctl.bus.publish("goals/rightHand", np.array([2.0, -0.3, 0.3]))
        max_effort = 0.0
        for _ in range(1500):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            eff = ctl.runtime.last_result.command
            assert eff is not None and np.isfinite(eff.effort).all()
            max_effort = max(max_effort, float(np.abs(eff.effort).max()))
        err = np.linalg.norm(ctl.tasks["rightHandPosition"].active_state.error)
        assert err > 0.5           # elevated steady error, as expected
        assert max_effort <= 80.0  # description effort limits enforced
        assert ctl.runtime.stats.suppressed_commands == 0


def test_floating_base_without_weld_rejected():
    text = fixtures.read_config("dreamer22_posture").replace(
        """constraint_set:
  - name: baseWeld
    type: FlatContactConstraint
    operational_state: enable
  - name: torsoTransmission
    type: CoactuationConstraint
    operational_state: enable""",
        """constraint_set:
  - name: baseWeld
    type: FlatContactConstraint
    operational_state: disable
  - name: torsoTransmission
    type: CoactuationConstraint
    operational_state: enable""")
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    spec = load_config(text)
    description = load_description(fixtures.read_robot("dreamer22"))
    with pytest.raises(AssemblyError, match="flat contact"):
        AssembledController(description, spec, single_threaded=True)


@pytest.mark.parametrize("line, key", [
    ("enforce_effort_limits: [true, false]", "enforce_effort_limits"),
    ("enforce_velocity_limits: [true, true, true]", "enforce_velocity_limits"),
    ("max_effort_command: [10.0, 20.0]", "max_effort_command"),
])
def test_wrong_length_limit_list_rejected_at_build(line, key):
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    text = fixtures.read_config("pend1_posture").replace(
        "controlit:\n", f"controlit:\n  {line}\n")
    spec = load_config(text)
    description = load_description(fixtures.read_robot("pend1"))
    with pytest.raises(AssemblyError, match=f"{key} lists .* values for 1 "
                                            f"joints"):
        AssembledController(description, spec, single_threaded=True)


def test_plant_holds_the_enabled_constraints_of_the_config():
    from wbosc.assembly import AssembledController
    from wbosc.description import load_description
    # torso_upper_pitch = 2 * torso_lower_pitch satisfies the ratio-2 drive
    spec = load_config("""
tasks:
  - name: posture
    type: JointPositionTask
    kp: 10.0
    goalPosition: [0.05, 0.1,
                   -0.3, -0.15, 0.0, -1.3, 0.0, 0.0, 0.0,
                   -0.3, 0.15, 0.0, -1.3, 0.0, 0.0, 0.0]
constraints:
  - {name: baseWeld, type: FlatContactConstraint, link: torso_base}
  - {name: leftHandFlat, type: FlatContactConstraint, link: left_hand}
  - {name: rightHandPoint, type: PointContactConstraint, link: right_hand,
     point: [0.0, 0.01, -0.08]}
  - {name: forearmFlat, type: FlatContactConstraint, link: right_forearm}
  - {name: torsoTransmission, type: CoactuationConstraint,
     masterJoint: torso_lower_pitch, slaveJoint: torso_upper_pitch,
     transmissionRatio: 2.0}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
constraint_set:
  - {name: forearmFlat, operational_state: disable}
""")
    description = load_description(fixtures.read_robot("dreamer22"))
    with AssembledController(description, spec, single_threaded=True) as ctl:
        plant = ctl.plant
        assert [c.name for c in plant.constraints] == [
            "baseWeld", "leftHandFlat", "rightHandPoint", "torsoTransmission"]
        transmission = plant.constraints[-1]
        assert transmission.transmission_ratio == 2.0
        np.testing.assert_array_equal(plant.constraints[2].point,
                                      [0.0, 0.01, -0.08])
        # the plant holds copies: a runtime change to the controller's
        # parameters does not reach the simulated robot
        ctl.registry.require("torsoTransmission.transmissionRatio").set(3.0)
        assert ctl.servo_model.constraints.constraint(
            "torsoTransmission").transmission_ratio == 3.0
        assert transmission.transmission_ratio == 2.0


def test_floating_base_without_weld_is_refused_in_simulation():
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    text = fixtures.read_config("dreamer22_disassembly")
    enabled = ("  - name: baseWeld\n    type: FlatContactConstraint\n"
               "    operational_state: enable")
    assert enabled in text
    spec = load_config(text.replace(enabled, enabled.replace("enable",
                                                             "disable")))
    assert spec.framework.robot_interface_type == "sim-lockstep"
    description = load_description(fixtures.read_robot("dreamer22"))
    with pytest.raises(AssemblyError,
                       match=r"free-floating simulation is not supported"):
        AssembledController(description, spec, single_threaded=True)


# A config goal is checked when the controller is built, as the same goal
# set through the registry would be: (config, robot, text replaced, new
# text, the task the error names).
_RIGHT_HAND = "    link: right_hand\n    controlPoint: [0.0, 0.0, -0.08]\n"
_RIGHT_HEADING = "    link: right_hand\n    bodyVector: [0.0, 0.0, -1.0]\n"
_EXTRA_TASK = """  - name: extra
    type: {type}
    {key}: {value}
constraints:"""
BAD_CONFIG_GOALS = {
    "cartesian goal of 2": (
        "dreamer22_disassembly", "dreamer22", _RIGHT_HAND,
        _RIGHT_HAND + "    goalPosition: [0.1, 0.2]\n", "rightHandPosition"),
    "cartesian goal of 4": (
        "dreamer22_disassembly", "dreamer22", _RIGHT_HAND,
        _RIGHT_HAND + "    goalPosition: [0.1, 0.2, 0.3, 0.4]\n",
        "rightHandPosition"),
    "goal vector of 2": (
        "dreamer22_disassembly", "dreamer22", _RIGHT_HEADING,
        _RIGHT_HEADING + "    goalVector: [0.0, 1.0]\n",
        "rightHandOrientation"),
    "non-unit goal vector": (
        "dreamer22_disassembly", "dreamer22", _RIGHT_HEADING,
        _RIGHT_HEADING + "    goalVector: [0.0, 0.0, -2.0]\n",
        "rightHandOrientation"),
    "control point of 2": (
        "dreamer22_disassembly", "dreamer22", _RIGHT_HAND,
        "    link: right_hand\n    controlPoint: [0.0, -0.08]\n",
        "rightHandPosition"),
    "goal orientation of 3": (
        "dreamer22_disassembly", "dreamer22", "constraints:",
        _EXTRA_TASK.format(type="Orientation3DTask", key="link: torso_upper\n"
                           "    goalOrientation", value="[1.0, 0.0, 0.0]"),
        "extra"),
    "non-unit goal orientation": (
        "dreamer22_disassembly", "dreamer22", "constraints:",
        _EXTRA_TASK.format(type="Orientation3DTask", key="link: torso_upper\n"
                           "    goalOrientation", value="[2.0, 0.0, 0.0, 0.0]"),
        "extra"),
    "COM goal of 2": (
        "dreamer22_disassembly", "dreamer22", "constraints:",
        _EXTRA_TASK.format(type="COMTask", key="goalPosition",
                           value="[0.0, 0.1]"),
        "extra"),
    "posture goal of 2": (
        "pend1_posture", "pend1", "goalPosition: [0.0]",
        "goalPosition: [0.0, 0.0]", "posture"),
}


@pytest.mark.parametrize("case", BAD_CONFIG_GOALS)
def test_bad_config_goal_fails_at_build_naming_its_task(case):
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    config, robot, old, new, task = BAD_CONFIG_GOALS[case]
    text = fixtures.read_config(config)
    assert text.count(old) == 1
    spec = load_config(text.replace(old, new))
    description = load_description(fixtures.read_robot(robot))
    before = set(threading.enumerate())
    with pytest.raises(AssemblyError, match=f"task '{task}'"):
        AssembledController(description, spec, single_threaded=True)
    assert [t for t in threading.enumerate()
            if t not in before and t.is_alive()] == []


# A constraint spec is checked against the model when the controller is
# built: (text replaced, new text, the constraint the error names).
BAD_CONSTRAINTS = {
    "unknown link": ("link: torso_base", "link: torso_bse", "baseWeld"),
    "master is slave": ("masterJoint: torso_lower_pitch",
                        "masterJoint: torso_upper_pitch",
                        "torsoTransmission"),
    "unknown joint": ("slaveJoint: torso_upper_pitch",
                      "slaveJoint: torso_uper_pitch", "torsoTransmission"),
    "contact point of 2": ("constraints:\n",
                           "constraints:\n"
                           "  - name: handContact\n"
                           "    type: PointContactConstraint\n"
                           "    link: right_hand\n"
                           "    point: [0.0, 0.1]\n", "handContact"),
}


@pytest.mark.parametrize("case", BAD_CONSTRAINTS)
def test_bad_constraint_fails_at_build_naming_it(case):
    from wbosc.assembly import AssembledController, AssemblyError
    from wbosc.description import load_description
    old, new, constraint = BAD_CONSTRAINTS[case]
    text = fixtures.read_config("dreamer22_disassembly")
    assert text.count(old) == 1
    spec = load_config(text.replace(old, new))
    description = load_description(fixtures.read_robot("dreamer22"))
    before = set(threading.enumerate())
    with pytest.raises(AssemblyError, match=f"constraint '{constraint}'"):
        AssembledController(description, spec, single_threaded=True)
    assert [t for t in threading.enumerate()
            if t not in before and t.is_alive()] == []


def test_non_unit_goal_vector_from_the_registry_is_refused():
    """The registry refuses what a config refuses: a non-unit goal vector
    leaves the goal as it was, and no cycle is suppressed."""
    name = "rightHandOrientation.goalVector"
    with build() as ctl:
        ctl.start()
        ctl.run(cycles=5)
        task = ctl.tasks["rightHandOrientation"]
        kept = task.goals["goalVector"].copy()
        ctl.registry.stage_input(name, [0.0, 0.0, -2.0])
        ctl.run(cycles=20)
        assert ctl.registry.refused_inputs == 1
        np.testing.assert_array_equal(task.goals["goalVector"], kept)
        np.testing.assert_array_equal(ctl.registry.require(name).value, kept)
        assert ctl.runtime.stats.suppressed_commands == 0
