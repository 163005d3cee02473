"""Controller configuration: parsing, validation, serialization, and diffs.

One YAML document holds six controller blocks plus the framework parameters:

    tasks:            - {name, type, ...task parameters}
    constraints:      - {name, type, ...constraint parameters}
    compound_task:    - {name, priority, operational_state: enable|disable}
    constraint_set:   - {name, type, operational_state: enable|disable}
    bindings:         - {parameter, direction, topic, transport_type,
                         properties: [- key: value ...]}
    events:           - {name, expression}
    controlit:        framework parameters (servo_frequency, ...)

Unknown keys are rejected with their location: silent typos in controller
configuration are dangerous.  Event expressions are compiled eagerly so a
bad expression fails the load, not the servo loop.
"""

from dataclasses import dataclass, field, fields

import yaml

from .constraints import CONSTRAINT_TYPES
from .controller import CONTROLLER_TYPES
from .description import parse_yaml
from .expressions import ExpressionError, parse_expression
from .tasks import TASK_TYPES
from .transports import BindingConfig, TransportError

TRANSPORT_TYPES = ("intra", "udp", "file")
INTERFACE_TYPES = ("sim-lockstep", "sim-freerun", "udp-remote")
CLOCK_TYPES = ("simulated-lockstep", "lockstep", "monotonic")
LOG_LEVELS = ("DEBUG", "INFO", "WARN", "ERROR", "FATAL")

_IGNORED_FRAMEWORK_KEYS = ("coupled_joint_groups", "log_fields",
                           "parameter_binding_factories")

_TOP_KEYS = {"tasks", "constraints", "compound_task", "constraint_set",
             "bindings", "events", "controlit"}


class ConfigError(ValueError):
    pass


@dataclass
class TaskSpec:
    name: str
    type: str
    parameters: dict = field(default_factory=dict)


@dataclass
class ConstraintSpec:
    name: str
    type: str
    parameters: dict = field(default_factory=dict)


@dataclass
class CompoundEntry:
    name: str
    priority: int
    enabled: bool = True


@dataclass
class ConstraintSetEntry:
    name: str
    enabled: bool = True


@dataclass
class EventSpec:
    name: str
    expression: str


@dataclass
class FrameworkParams:
    name: str = "controller"
    servo_frequency: float = 1000.0
    single_threaded_model: bool = False
    single_threaded_tasks: bool = False
    world_gravity: tuple = (0.0, 0.0, -9.81)
    gravity_compensation_mask: tuple = ()
    enforce_effort_limits: object = False
    enforce_position_limits: object = False
    enforce_velocity_limits: object = False
    max_effort_command: object = None
    whole_body_controller_type: str = "WBOSC"
    robot_interface_type: str = "sim-lockstep"
    servo_clock_type: str = "simulated-lockstep"
    log_level: str = "INFO"

    def as_dict(self):
        """The fields in declaration order, tuples as lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in values}


@dataclass
class ReconfigAction:
    kind: str          # enable_task | disable_task | set_priority |
    name: str          # enable_constraint | disable_constraint
    priority: int = None


@dataclass
class ControllerSpec:
    tasks: list
    constraints: list
    compound: list
    constraint_set: list
    bindings: list
    events: list
    framework: FrameworkParams
    warnings: list = field(default_factory=list)

    def task(self, name):
        for t in self.tasks:
            if t.name == name:
                return t
        raise ConfigError(f"unknown task {name!r}")

    def constraint(self, name):
        for c in self.constraints:
            if c.name == name:
                return c
        raise ConfigError(f"unknown constraint {name!r}")


def load_config(text):
    doc = parse_yaml(text, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")

    warnings = []
    tasks = [_parse_typed(d, f"tasks[{i}]", "task", TASK_TYPES, TaskSpec)
             for i, d in enumerate(doc.get("tasks", []) or [])]
    constraints = [_parse_typed(d, f"constraints[{i}]", "constraint",
                                CONSTRAINT_TYPES, ConstraintSpec)
                   for i, d in enumerate(doc.get("constraints", []) or [])]
    compound = [_parse_compound_entry(d, i)
                for i, d in enumerate(doc.get("compound_task", []) or [])]
    cset_entries = [_parse_cset_entry(d, i, constraints)
                    for i, d in enumerate(doc.get("constraint_set", []) or [])]
    bindings = [_parse_binding(d, i)
                for i, d in enumerate(doc.get("bindings", []) or [])]
    events = [_parse_event(d, i) for i, d in enumerate(doc.get("events", []) or [])]
    framework = _parse_framework(doc.get("controlit", {}) or {}, warnings)

    spec = ControllerSpec(tasks, constraints, compound, cset_entries,
                          bindings, events, framework, warnings)
    _validate(spec)
    return spec


def load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def serialize_config(spec):
    doc = {}
    if spec.tasks:
        doc["tasks"] = [{"name": t.name, "type": t.type, **t.parameters}
                        for t in spec.tasks]
    if spec.constraints:
        doc["constraints"] = [{"name": c.name, "type": c.type, **c.parameters}
                              for c in spec.constraints]
    if spec.compound:
        doc["compound_task"] = [
            {"name": e.name, "priority": e.priority,
             "operational_state": "enable" if e.enabled else "disable"}
            for e in spec.compound]
    if spec.constraint_set:
        doc["constraint_set"] = [
            {"name": e.name, "type": spec.constraint(e.name).type,
             "operational_state": "enable" if e.enabled else "disable"}
            for e in spec.constraint_set]
    if spec.bindings:
        doc["bindings"] = [
            {"parameter": b.parameter, "direction": b.direction,
             "topic": b.topic, "transport_type": b.transport_type,
             "properties": [{k: v} for k, v in b.properties.items()]}
            for b in spec.bindings]
    if spec.events:
        doc["events"] = [{"name": e.name, "expression": e.expression}
                         for e in spec.events]
    doc["controlit"] = spec.framework.as_dict()
    return yaml.safe_dump(doc, sort_keys=False)


# -- block parsers -----------------------------------------------------------------

def _as_mapping(d, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return d


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def _parse_typed(d, where, kind, types, spec_cls):
    """A task or constraint entry: its type's ``KEYS`` and ``REQUIRED``
    decide which parameters it may and must give."""
    _as_mapping(d, where)
    name = _require(d, "name", where)
    type_name = _require(d, "type", where)
    if type_name not in types:
        raise ConfigError(
            f"{where}: unknown {kind} type {type_name!r} "
            f"(known: {sorted(types)})")
    cls = types[type_name]
    params = {k: v for k, v in d.items() if k not in ("name", "type")}
    unknown = set(params) - set(cls.KEYS)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)} for {type_name}")
    for key in cls.REQUIRED:
        _require(params, key, where)
    return spec_cls(name, type_name, params)


def _parse_operational_state(d, where):
    state = d.get("operational_state", "enable")
    if state not in ("enable", "disable"):
        raise ConfigError(
            f"{where}: operational_state must be enable or disable, "
            f"got {state!r}")
    return state == "enable"


def _parse_compound_entry(d, index):
    where = f"compound_task[{index}]"
    _as_mapping(d, where)
    unknown = set(d) - {"name", "priority", "operational_state"}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    name = _require(d, "name", where)
    priority = _require(d, "priority", where)
    if not isinstance(priority, int) or priority < 0:
        raise ConfigError(
            f"{where}: priority must be a non-negative integer, got {priority!r}")
    return CompoundEntry(name, priority, _parse_operational_state(d, where))


def _parse_cset_entry(d, index, constraints):
    where = f"constraint_set[{index}]"
    _as_mapping(d, where)
    unknown = set(d) - {"name", "type", "operational_state"}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    name = _require(d, "name", where)
    declared_type = None
    for c in constraints:
        if c.name == name:
            declared_type = c.type
    if "type" in d and declared_type is not None and d["type"] != declared_type:
        raise ConfigError(
            f"{where}: type {d['type']!r} conflicts with declared constraint "
            f"type {declared_type!r}")
    return ConstraintSetEntry(name, _parse_operational_state(d, where))


def _parse_binding(d, index):
    where = f"bindings[{index}]"
    _as_mapping(d, where)
    unknown = set(d) - {"parameter", "direction", "topic", "transport_type",
                        "properties"}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    parameter = _require(d, "parameter", where)
    direction = _require(d, "direction", where)
    topic = _require(d, "topic", where)
    transport = _require(d, "transport_type", where)
    if transport not in TRANSPORT_TYPES:
        raise ConfigError(
            f"{where}: unknown transport type {transport!r} "
            f"(known: {TRANSPORT_TYPES})")
    props = {}
    raw = d.get("properties", []) or []
    if isinstance(raw, dict):
        props.update(raw)
    else:
        for entry in raw:
            if not isinstance(entry, dict) or len(entry) != 1:
                raise ConfigError(
                    f"{where}: properties entries must be single key: value "
                    f"pairs")
            props.update(entry)
    try:
        return BindingConfig(parameter, direction, transport, topic, props)
    except TransportError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_event(d, index):
    where = f"events[{index}]"
    _as_mapping(d, where)
    unknown = set(d) - {"name", "expression"}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    name = _require(d, "name", where)
    expression = _require(d, "expression", where)
    try:
        parse_expression(expression)
    except ExpressionError as exc:
        raise ConfigError(f"{where}: bad expression: {exc}") from exc
    return EventSpec(name, expression)


def _parse_framework(d, warnings):
    _as_mapping(d, "controlit")
    fw = FrameworkParams()
    known = set(fw.as_dict())
    for key in _IGNORED_FRAMEWORK_KEYS:
        if key in d:
            warnings.append(f"controlit: {key} is accepted but ignored")
    unknown = set(d) - known - set(_IGNORED_FRAMEWORK_KEYS)
    if unknown:
        raise ConfigError(f"controlit: unknown key(s) {sorted(unknown)}")

    if "name" in d:
        fw.name = str(d["name"])
    if "servo_frequency" in d:
        freq = float(d["servo_frequency"])
        if freq <= 0:
            raise ConfigError("controlit: servo_frequency must be positive")
        fw.servo_frequency = freq
    for key in ("single_threaded_model", "single_threaded_tasks"):
        if key in d:
            if not isinstance(d[key], bool):
                raise ConfigError(f"controlit: {key} must be a boolean")
            setattr(fw, key, d[key])
    if fw.single_threaded_model != fw.single_threaded_tasks:
        raise ConfigError(
            "controlit: single_threaded_model and single_threaded_tasks must "
            "be equal; mixed threading modes are not supported")
    if "world_gravity" in d:
        g = d["world_gravity"]
        if not isinstance(g, (list, tuple)) or len(g) != 3:
            raise ConfigError("controlit: world_gravity must be a 3-vector")
        fw.world_gravity = tuple(float(x) for x in g)
    if "gravity_compensation_mask" in d:
        mask = d["gravity_compensation_mask"]
        if not isinstance(mask, (list, tuple)) \
                or not all(isinstance(x, str) for x in mask):
            raise ConfigError(
                "controlit: gravity_compensation_mask must be a list of "
                "joint names")
        fw.gravity_compensation_mask = tuple(mask)
    for key in ("enforce_effort_limits", "enforce_position_limits",
                "enforce_velocity_limits"):
        if key in d:
            value = d[key]
            if not isinstance(value, bool) and not (
                    isinstance(value, list)
                    and all(isinstance(x, bool) for x in value)):
                raise ConfigError(
                    f"controlit: {key} must be a boolean or list of booleans")
            setattr(fw, key, value)
    if "max_effort_command" in d and d["max_effort_command"] is not None:
        value = d["max_effort_command"]
        if isinstance(value, (int, float)):
            fw.max_effort_command = float(value)
        elif isinstance(value, list):
            fw.max_effort_command = [float(x) for x in value]
        else:
            raise ConfigError(
                "controlit: max_effort_command must be a number or list")
    if "whole_body_controller_type" in d:
        value = d["whole_body_controller_type"]
        if value not in CONTROLLER_TYPES:
            raise ConfigError(
                f"controlit: unknown whole_body_controller_type {value!r} "
                f"(known: {sorted(CONTROLLER_TYPES)})")
        fw.whole_body_controller_type = value
    if "robot_interface_type" in d:
        value = d["robot_interface_type"]
        if value not in INTERFACE_TYPES:
            raise ConfigError(
                f"controlit: unknown robot_interface_type {value!r}")
        fw.robot_interface_type = value
    if "servo_clock_type" in d:
        value = d["servo_clock_type"]
        if value not in CLOCK_TYPES:
            raise ConfigError(f"controlit: unknown servo_clock_type {value!r}")
        fw.servo_clock_type = value
    if "log_level" in d:
        value = d["log_level"]
        if value not in LOG_LEVELS:
            raise ConfigError(f"controlit: log_level must be one of {LOG_LEVELS}")
        fw.log_level = value
    return fw


# -- validation ---------------------------------------------------------------------

def _validate(spec):
    task_names = [t.name for t in spec.tasks]
    if len(set(task_names)) != len(task_names):
        raise ConfigError("duplicate task names")
    constraint_names = [c.name for c in spec.constraints]
    if len(set(constraint_names)) != len(constraint_names):
        raise ConfigError("duplicate constraint names")

    compound_names = set()
    for entry in spec.compound:
        if entry.name not in task_names:
            raise ConfigError(
                f"compound_task references undeclared task {entry.name!r}")
        if entry.name in compound_names:
            raise ConfigError(
                f"compound_task lists task {entry.name!r} twice")
        compound_names.add(entry.name)
    if not spec.compound:
        raise ConfigError("compound_task must list at least one task")
    if not any(e.enabled for e in spec.compound):
        raise ConfigError("compound_task must enable at least one task")

    for entry in spec.constraint_set:
        if entry.name not in constraint_names:
            raise ConfigError(
                f"constraint_set references undeclared constraint "
                f"{entry.name!r}")


def spec_diff(old, new):
    """Runtime reconfiguration actions turning ``old`` into ``new``.

    Only enable/disable and priority changes are expressible; any other
    difference (new tasks, changed parameters, framework edits) is rejected.
    """
    if {t.name for t in old.tasks} != {t.name for t in new.tasks}:
        raise ConfigError("task set changed: not expressible as reconfiguration")
    if {c.name for c in old.constraints} != {c.name for c in new.constraints}:
        raise ConfigError(
            "constraint set changed: not expressible as reconfiguration")
    for t_new in new.tasks:
        t_old = old.task(t_new.name)
        if t_old.type != t_new.type or t_old.parameters != t_new.parameters:
            raise ConfigError(
                f"task {t_new.name!r} definition changed: not expressible "
                f"as reconfiguration")
    for c_new in new.constraints:
        c_old = old.constraint(c_new.name)
        if c_old.type != c_new.type or c_old.parameters != c_new.parameters:
            raise ConfigError(
                f"constraint {c_new.name!r} definition changed: not "
                f"expressible as reconfiguration")
    if old.framework != new.framework:
        raise ConfigError("framework parameters changed: not expressible "
                          "as reconfiguration")
    old_compound = {e.name: e for e in old.compound}
    actions = []
    for entry in new.compound:
        prev = old_compound.get(entry.name)
        if prev is None:
            raise ConfigError(
                f"compound_task entry {entry.name!r} added: not expressible")
        if entry.priority != prev.priority:
            actions.append(ReconfigAction("set_priority", entry.name,
                                          entry.priority))
        if entry.enabled != prev.enabled:
            kind = "enable_task" if entry.enabled else "disable_task"
            actions.append(ReconfigAction(kind, entry.name))
    if set(old_compound) - {e.name for e in new.compound}:
        raise ConfigError("compound_task entries removed: not expressible")
    old_cset = {e.name: e for e in old.constraint_set}
    for entry in new.constraint_set:
        prev = old_cset.get(entry.name)
        if prev is None:
            raise ConfigError(
                f"constraint_set entry {entry.name!r} added: not expressible")
        if entry.enabled != prev.enabled:
            kind = ("enable_constraint" if entry.enabled
                    else "disable_constraint")
            actions.append(ReconfigAction(kind, entry.name))
    if set(old_cset) - {e.name for e in new.constraint_set}:
        raise ConfigError("constraint_set entries removed: not expressible")
    return actions
