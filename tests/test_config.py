import pytest
import yaml

from wbosc import fixtures
from wbosc.config import (ConfigError, load_config, serialize_config,
                          spec_diff)
from wbosc.description import DescriptionError, load_description, parse_yaml

GOLDEN = ("dreamer22_disassembly", "dreamer22_posture", "pend1_posture")


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_configs_load_without_warnings(name):
    spec = load_config(fixtures.read_config(name))
    assert spec.warnings == []
    assert any(e.enabled for e in spec.compound)


def test_disassembly_structure():
    spec = load_config(fixtures.read_config("dreamer22_disassembly"))
    assert len(spec.tasks) == 5
    assert len(spec.constraints) == 2
    levels = {e.name: e.priority for e in spec.compound}
    assert levels["posture"] == 1
    assert sum(1 for e in spec.compound if e.priority == 0) == 4
    assert spec.framework.servo_frequency == 1000.0
    assert spec.framework.whole_body_controller_type == "WBOSC"


def test_defaults_applied():
    spec = load_config("""
tasks:
  - {name: posture, type: JointPositionTask, goalPosition: [0.0]}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
""")
    assert spec.framework.servo_frequency == 1000.0
    assert spec.framework.world_gravity == (0.0, 0.0, -9.81)
    assert spec.framework.single_threaded_model is False


@pytest.mark.parametrize("name", GOLDEN)
def test_parse_serialize_parse_fixpoint(name):
    spec = load_config(fixtures.read_config(name))
    text = serialize_config(spec)
    again = load_config(text)
    assert serialize_config(again) == text
    assert again.tasks == spec.tasks
    assert again.constraints == spec.constraints
    assert again.compound == spec.compound
    assert again.constraint_set == spec.constraint_set
    assert again.bindings == spec.bindings
    assert again.events == spec.events
    assert again.framework == spec.framework


# -- documented error classes -----------------------------------------------------------

MINIMAL = """
tasks:
  - {name: posture, type: JointPositionTask, goalPosition: [0.0]}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
"""


def test_parse_error():
    with pytest.raises(ConfigError, match="parse error"):
        load_config("tasks:\n  - {name: [unclosed\n")


def test_dangling_task_reference_names_it():
    with pytest.raises(ConfigError, match="ghost"):
        load_config(MINIMAL + """
  - {name: ghost, priority: 1, operational_state: enable}
""")


def test_empty_compound_task_rejected():
    with pytest.raises(ConfigError, match="at least one"):
        load_config("""
tasks:
  - {name: posture, type: JointPositionTask}
""")


def test_all_disabled_rejected():
    with pytest.raises(ConfigError, match="enable at least one"):
        load_config("""
tasks:
  - {name: posture, type: JointPositionTask}
compound_task:
  - {name: posture, priority: 0, operational_state: disable}
""")


def test_unknown_task_type():
    with pytest.raises(ConfigError, match="unknown task type"):
        load_config("""
tasks:
  - {name: x, type: TeleportTask}
compound_task:
  - {name: x, priority: 0, operational_state: enable}
""")


def test_unknown_constraint_type():
    with pytest.raises(ConfigError, match="unknown constraint type"):
        load_config(MINIMAL + """
constraints:
  - {name: c, type: MagnetConstraint}
""")


def test_unknown_transport_type():
    with pytest.raises(ConfigError, match="unknown transport"):
        load_config(MINIMAL + """
bindings:
  - {parameter: posture.error, direction: output, topic: t, transport_type: carrier-pigeon}
""")


def test_bad_expression_fails_eagerly():
    with pytest.raises(ConfigError, match="bad expression"):
        load_config(MINIMAL + """
events:
  - {name: broken, expression: "a && (b"}
""")


def test_unknown_keys_rejected_with_location():
    with pytest.raises(ConfigError, match=r"compound_task\[0\]"):
        load_config("""
tasks:
  - {name: posture, type: JointPositionTask}
compound_task:
  - {name: posture, priority: 0, operational_state: enable, color: red}
""")
    with pytest.raises(ConfigError, match="top-level"):
        load_config(MINIMAL + "\nextras: {}\n")
    with pytest.raises(ConfigError, match="controlit"):
        load_config(MINIMAL + """
controlit:
  servo_frequenzy: 100
""")


@pytest.mark.parametrize("text, where, key", [
    (MINIMAL.replace("goalPosition", "goalPositon"), r"tasks\[0\]",
     "goalPositon"),
    (MINIMAL.replace("goalPosition: [0.0]", "goalPosition: [0.0], kpp: 1.0"),
     r"tasks\[0\]", "kpp"),
    (MINIMAL + "constraints:\n  - {name: c, type: CoactuationConstraint, "
     "masterJoint: a, slaveJoint: b, ratio: 2}\n", r"constraints\[0\]",
     "ratio"),
    (MINIMAL.replace("compound_task:", "  - {name: hand, type: "
                     "CartesianPositionTask, kp: 1.0}\ncompound_task:"),
     r"tasks\[1\]", "link"),
    (MINIMAL + "constraints:\n  - {name: c, type: CoactuationConstraint, "
     "masterJoint: a}\n", r"constraints\[0\]", "slaveJoint"),
], ids=["misspelt goal", "unknown gain", "unknown constraint key",
        "missing link", "missing slave joint"])
def test_task_and_constraint_keys_checked_at_load(text, where, key):
    with pytest.raises(ConfigError, match=f"{where}.*{key}"):
        load_config(text)


def test_negative_priority_rejected():
    with pytest.raises(ConfigError, match="priority"):
        load_config("""
tasks:
  - {name: posture, type: JointPositionTask}
compound_task:
  - {name: posture, priority: -1, operational_state: enable}
""")


def test_bad_operational_state():
    with pytest.raises(ConfigError, match="operational_state"):
        load_config("""
tasks:
  - {name: posture, type: JointPositionTask}
compound_task:
  - {name: posture, priority: 0, operational_state: maybe}
""")


def test_constraint_set_type_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        load_config(MINIMAL + """
constraints:
  - {name: weld, type: FlatContactConstraint, link: base}
constraint_set:
  - {name: weld, type: CoactuationConstraint, operational_state: enable}
""")


def test_dangling_constraint_set_reference():
    with pytest.raises(ConfigError, match="undeclared constraint"):
        load_config(MINIMAL + """
constraint_set:
  - {name: phantom, operational_state: enable}
""")


def test_ignored_framework_keys_warn():
    spec = load_config(MINIMAL + """
controlit:
  coupled_joint_groups: [[a, b]]
  log_fields: [file, line]
""")
    assert len(spec.warnings) == 2
    assert "coupled_joint_groups" in spec.warnings[0]


def test_bad_framework_values():
    for controlit in (
        "controlit: {servo_frequency: -5}",
        "controlit: {single_threaded_model: 3}",
        "controlit: {world_gravity: [0.0, -9.81]}",
        "controlit: {whole_body_controller_type: QPWBC}",
        "controlit: {robot_interface_type: holodeck}",
        "controlit: {servo_clock_type: sundial}",
        "controlit: {log_level: CHATTY}",
        "controlit: {gravity_compensation_mask: [1, 2]}",
    ):
        with pytest.raises(ConfigError):
            load_config(MINIMAL + "\n" + controlit)


def test_unequal_threading_keys_rejected():
    for keys in ("{single_threaded_model: true, single_threaded_tasks: false}",
                 "{single_threaded_model: false, single_threaded_tasks: true}",
                 "{single_threaded_tasks: true}"):
        with pytest.raises(ConfigError) as info:
            load_config(MINIMAL + "\ncontrolit: " + keys)
        assert "single_threaded_model" in str(info.value)
        assert "single_threaded_tasks" in str(info.value)
    spec = load_config(MINIMAL + "\ncontrolit: "
                       "{single_threaded_model: true, single_threaded_tasks: true}")
    assert spec.framework.single_threaded_model is True
    assert spec.framework.single_threaded_tasks is True


# -- reconfiguration diff -----------------------------------------------------------------

def test_diff_disable_posture():
    old = load_config(fixtures.read_config("dreamer22_disassembly"))
    new = load_config(fixtures.read_config("dreamer22_disassembly").replace(
        """  - name: posture
    priority: 1
    operational_state: enable""",
        """  - name: posture
    priority: 1
    operational_state: disable"""))
    actions = spec_diff(old, new)
    assert len(actions) == 1
    assert actions[0].kind == "disable_task"
    assert actions[0].name == "posture"


def test_diff_move_orientation_tasks_to_middle_level():
    text = fixtures.read_config("dreamer22_disassembly")
    old = load_config(text)
    moved = text.replace(
        """  - name: rightHandOrientation
    priority: 0""",
        """  - name: rightHandOrientation
    priority: 1""").replace(
        """  - name: leftHandOrientation
    priority: 0""",
        """  - name: leftHandOrientation
    priority: 1""").replace(
        """  - name: posture
    priority: 1""",
        """  - name: posture
    priority: 2""")
    new = load_config(moved)
    actions = spec_diff(old, new)
    kinds = sorted((a.kind, a.name) for a in actions)
    assert kinds == [("set_priority", "leftHandOrientation"),
                     ("set_priority", "posture"),
                     ("set_priority", "rightHandOrientation")]


def test_diff_rejects_new_task():
    old = load_config(MINIMAL)
    new = load_config("""
tasks:
  - {name: posture, type: JointPositionTask, goalPosition: [0.0]}
  - {name: extra, type: COMTask}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
  - {name: extra, priority: 1, operational_state: enable}
""")
    with pytest.raises(ConfigError, match="task set changed"):
        spec_diff(old, new)


def test_diff_rejects_parameter_changes():
    old = load_config(MINIMAL)
    new = load_config(MINIMAL.replace("[0.0]", "[0.5]"))
    with pytest.raises(ConfigError, match="definition changed"):
        spec_diff(old, new)


def test_diff_enable_disable_constraint():
    base = """
tasks:
  - {name: posture, type: JointPositionTask}
constraints:
  - {name: weld, type: FlatContactConstraint, link: base}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
constraint_set:
  - {name: weld, operational_state: %s}
"""
    old = load_config(base % "enable")
    new = load_config(base % "disable")
    actions = spec_diff(old, new)
    assert [(a.kind, a.name) for a in actions] == [("disable_constraint", "weld")]


FIXTURES = [fixtures.config_path(name) for name in GOLDEN] + [
    fixtures.robot_path(name) for name in ("dreamer22", "pend1", "planar2")
] + [fixtures.trajectory_path("right_hand_step")]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_every_fixture_parses_alike_with_both_loaders(path):
    text = path.read_text(encoding="utf-8")
    assert parse_yaml(text, ConfigError) == yaml.load(text,
                                                      Loader=yaml.SafeLoader)


@pytest.mark.parametrize("text", [
    "tasks:\n  - {name: [unclosed\n",       # test_parse_error
    "tasks:\n  - {name: [broken\n",         # criterion 11's mutation
])
def test_parse_error_names_its_line_and_column(text):
    with pytest.raises(ConfigError, match=r"parse error at line 3, column 1"):
        load_config(text)
    with pytest.raises(DescriptionError,
                       match=r"parse error at line 3, column 1"):
        load_description(text)
