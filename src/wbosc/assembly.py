"""Controller assembly: from (robot description, controller spec) to a
running servo loop with parameters, bindings, events, plant, and services.

The assembled object owns every moving part: the controller's model copy,
task and constraint instances built from the spec, the parameter registry
and transports, the simulated plant behind a robot interface, the servo
runtime, and the introspection service table.
"""

import numpy as np

from .config import load_config_file
from .constraints import (CoactuationConstraint, ConstraintSet,
                          FlatContactConstraint, PointContactConstraint)
from .controller import CONTROLLER_TYPES, JointLimits, LimitFlags
from .description import load_description_file
from .geometry import quat_from_matrix
from .model import RobotModel, RobotState
from .params import ParameterRegistry
from .plant import (FreerunSimInterface, LockstepSimInterface, NoiseSpec,
                    PlantError, SimPlant)
from .servo import ServoModel, ServoRuntime, make_clock
from .tasks import (CartesianPositionTask, CompoundTask, ComTask,
                    JointPositionTask, Orientation2DTask, Orientation3DTask,
                    PIDGains)
from .transports import (BindingManager, FileBindingFactory, IntraBindingFactory,
                         IntraBus, PublisherWorker, TransportError,
                         UdpBindingFactory, UdpTransport)

SERVICES = (
    "getTaskParameters",
    "getConstraintParameters",
    "getRealJointIndices",
    "getActuableJointIndices",
    "getControllerConfiguration",
    "getConstraintJacobianMatrices",
    "getControlItParameters",
    "getCmdJointIndices",
)


class AssemblyError(ValueError):
    pass


class ServiceError(ValueError):
    pass


# -- spec -> objects ----------------------------------------------------------
# The loader has checked each spec's keys against its type's KEYS and
# REQUIRED.

def _gains(params, dimension):
    return PIDGains(dimension,
                    kp=params.get("kp", 0.0),
                    ki=params.get("ki", 0.0),
                    kd=params.get("kd", 0.0),
                    integrator_limit=params.get("integratorLimit", 0.0))


def _new_task(spec, model):
    """The task with its fixed geometry, its gains and default goals: the
    value at the model's state for a Cartesian, COM, orientation or heading
    goal, zero for the rest."""
    p = spec.parameters
    if spec.type == "JointPositionTask":
        return JointPositionTask(spec.name, model, _gains(p, model.n_joints))
    if spec.type == "CartesianPositionTask":
        task = CartesianPositionTask(
            spec.name, model, _gains(p, 3), link=p["link"],
            control_point=p.get("controlPoint", (0.0, 0.0, 0.0)))
        task.goals["goalPosition"] = task.current_position(model).copy()
        return task
    if spec.type == "Orientation3DTask":
        return Orientation3DTask(
            spec.name, model, _gains(p, 3), link=p["link"],
            goal_orientation=quat_from_matrix(
                model.link_transform(p["link"])[:3, :3]))
    if spec.type == "Orientation2DTask":
        task = Orientation2DTask(
            spec.name, model, _gains(p, 2), link=p["link"],
            body_vector=p.get("bodyVector", (0.0, 0.0, 1.0)))
        task.goals["goalVector"] = task.heading(model).copy()
        return task
    if spec.type == "COMTask":
        return ComTask(spec.name, model, _gains(p, 3),
                       goal_position=model.com()[0].copy())
    raise AssemblyError(f"unknown task type {spec.type!r}")


def build_task(spec, model):
    """The task a spec declares.  Each goal the spec gives is set through
    ``Task._set_goal``, as a goal from the registry is, so both refuse the
    same values; a failure names the task."""
    try:
        task = _new_task(spec, model)
        for key, value in spec.parameters.items():
            if key in task.goals:
                task._set_goal(key, np.asarray(value, dtype=float))
    except ValueError as exc:
        raise AssemblyError(f"task {spec.name!r}: {exc}") from None
    return task


def build_constraint(spec, model):
    """The constraint a spec declares, its link or joints checked against
    the model; a failure names the constraint."""
    p = spec.parameters
    try:
        if spec.type == "FlatContactConstraint":
            model.body_index(p["link"])
            return FlatContactConstraint(spec.name, p["link"])
        if spec.type == "PointContactConstraint":
            model.body_index(p["link"])
            return PointContactConstraint(spec.name, p["link"],
                                          p.get("point", (0.0, 0.0, 0.0)))
        if spec.type == "CoactuationConstraint":
            model.joint_dof_index(p["masterJoint"])
            model.joint_dof_index(p["slaveJoint"])
            return CoactuationConstraint(spec.name, p["masterJoint"],
                                         p["slaveJoint"],
                                         p.get("transmissionRatio", 1.0))
    except ValueError as exc:
        raise AssemblyError(f"constraint {spec.name!r}: {exc}") from None
    raise AssemblyError(
        f"constraint {spec.name!r}: unknown constraint type {spec.type!r}")


class AssembledController:
    """Everything needed to run and talk to one controller instance."""

    def __init__(self, description, spec, *, latency_cycles=0, noise=None,
                 seed=0, clock=None, interface=None, udp_port=None,
                 log_dir=None, single_threaded=None, hooks=None,
                 history=2048):
        self.spec = spec
        fw = spec.framework
        self.name = fw.name
        from .description import RobotDescription
        self.description = RobotDescription(
            description.name, fw.world_gravity, description.links,
            description.joints)

        if single_threaded is None:
            # the parser only accepts equal single_threaded_* keys
            single_threaded = fw.single_threaded_model

        self.clock = clock or make_clock(fw.servo_clock_type, fw.servo_frequency)

        # model, tasks, constraints -------------------------------------------
        model = RobotModel(self.description)
        enabled_constraints = {e.name: e.enabled for e in spec.constraint_set}
        constraints = []
        for cspec in spec.constraints:
            constraint = build_constraint(cspec, model)
            constraint.enabled = enabled_constraints.get(cspec.name, True)
            constraints.append(constraint)
        self.servo_model = ServoModel(model, ConstraintSet(constraints))

        posture_goal = self._posture_goal(spec, model.n_joints)
        model.update_kinematics(model.full_from_actual(posture_goal),
                                np.zeros(model.n_dofs))
        self.servo_model.constraints.update(model)

        self.registry = ParameterRegistry()
        self.compound = CompoundTask()
        priorities = {e.name: e.priority for e in spec.compound}
        enabled = {e.name: e.enabled for e in spec.compound}
        self.tasks = {}
        for tspec in spec.tasks:
            task = build_task(tspec, model)
            task.declare_parameters(self.registry)
            self.tasks[tspec.name] = task
            if tspec.name in priorities:
                self.compound.add(task, priorities[tspec.name],
                                  enabled[tspec.name])
        for constraint in constraints:
            constraint.declare_parameters(self.registry)
        for espec in spec.events:
            self.registry.add_event(espec.name, espec.expression)

        # controller -----------------------------------------------------------
        names = model.ordering.real_joint_names
        mask = np.array([n in fw.gravity_compensation_mask for n in names])
        self.wbc = CONTROLLER_TYPES[fw.whole_body_controller_type](
            model.n_dofs, model.n_joints, gravity_mask=mask)
        try:
            self.limits = JointLimits(self.description, names, LimitFlags(
                effort=fw.enforce_effort_limits,
                position=fw.enforce_position_limits,
                velocity=fw.enforce_velocity_limits,
                max_effort_command=fw.max_effort_command))
        except ValueError as exc:
            raise AssemblyError(f"controlit: {exc}") from None

        # transports come first: the udp-remote interface rides the transport
        self.udp = None
        if (udp_port is not None
                or fw.robot_interface_type == "udp-remote"
                or any(b.transport_type == "udp" for b in spec.bindings)):
            self.udp = UdpTransport(local_port=udp_port or 0)
            self.udp.set_service_handler(self.introspect)

        # plant + interface ------------------------------------------------------
        self.plant = None
        if interface is None:
            interface = self._build_interface(fw, posture_goal, latency_cycles,
                                              noise, seed)
        self.interface = interface

        self.bus = IntraBus()
        self.publisher = PublisherWorker()
        self.binding_manager = BindingManager()
        clock_fn = self.clock.now
        self.binding_manager.register_factory(
            IntraBindingFactory(self.bus, self.publisher, clock_fn))
        self.file_factory = FileBindingFactory(log_dir or ".", self.publisher,
                                               clock_fn)
        self.binding_manager.register_factory(self.file_factory)
        if self.udp is not None:
            self.binding_manager.register_factory(
                UdpBindingFactory(self.udp, clock_fn))
        try:
            for bcfg in spec.bindings:
                self.binding_manager.bind(self.registry, bcfg)
        except TransportError as exc:
            self._close_io()
            raise AssemblyError(f"bindings: {exc}") from None
        if self.udp is not None:
            # remote processes can set any input-bound parameter by name
            for bcfg in spec.bindings:
                if bcfg.direction != "input":
                    continue
                name = bcfg.parameter
                self.udp.register_input(
                    name, lambda v, n=name: self.registry.stage_input(n, v))

        def publish(topics, values):
            self.publisher.enqueue(self.bus.publish_each, topics, values)

        self.runtime = ServoRuntime(
            self.name, self.servo_model, self.compound, self.wbc,
            self.interface, self.clock, registry=self.registry,
            publish=publish, watch=self.bus.watch, limits=self.limits,
            single_threaded=single_threaded, hooks=hooks, history=history)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _posture_goal(spec, n_joints):
        """The first posture goal the spec gives, the plant's initial
        joint positions."""
        for tspec in spec.tasks:
            if tspec.type == "JointPositionTask":
                goal = tspec.parameters.get("goalPosition")
                if goal is not None:
                    goal = np.asarray(goal, dtype=float)
                    if goal.shape != (n_joints,):
                        raise AssemblyError(
                            f"task {tspec.name!r}: goalPosition length "
                            f"{goal.shape} does not match {(n_joints,)}")
                    return goal
        return np.zeros(n_joints)

    def _build_interface(self, fw, initial_q, latency_cycles, noise, seed):
        kind = fw.robot_interface_type
        if kind == "udp-remote":
            return _UdpRemoteInterface(self, self.servo_model.model.n_joints)
        if kind not in ("sim-lockstep", "sim-freerun"):
            raise AssemblyError(f"unknown robot_interface_type {kind!r}")
        try:
            self.plant = SimPlant(
                self.description,
                self.servo_model.constraints.enabled_constraints())
        except PlantError as exc:
            raise AssemblyError(str(exc)) from None
        self.plant.set_joint_state(initial_q)
        period = self.clock.period
        noise_spec = noise or NoiseSpec()
        if kind == "sim-lockstep":
            return LockstepSimInterface(self.plant, period,
                                        latency_cycles=latency_cycles,
                                        noise=noise_spec, seed=seed)
        return FreerunSimInterface(self.plant, period,
                                   noise=noise_spec, seed=seed).start()

    # -- lifecycle / control surface ----------------------------------------------

    def start(self):
        self.runtime.servo_init()
        return self

    def run(self, cycles=None, duration=None):
        return self.runtime.run(cycles=cycles, duration=duration)

    def close(self):
        self.runtime.stop()
        self._close_io()

    def _close_io(self):
        """Stop the interface's, publisher's and transports' threads and
        close their files and socket."""
        if isinstance(self.interface, FreerunSimInterface):
            self.interface.stop()
        self.publisher.stop()
        self.binding_manager.close()
        self.file_factory.close()
        if self.udp is not None:
            self.udp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def flush(self):
        """Wait for the publisher to drain; False on its timeout."""
        return self.publisher.flush()

    def apply_actions(self, actions):
        """Apply reconfiguration actions between servo cycles."""
        for action in actions:
            if action.kind == "enable_task":
                self.tasks[action.name].enabled = True
            elif action.kind == "disable_task":
                self.tasks[action.name].enabled = False
            elif action.kind == "set_priority":
                self.compound.set_priority(action.name, action.priority)
            elif action.kind in ("enable_constraint", "disable_constraint"):
                self.servo_model.constraints.constraint(action.name) \
                    .enabled = action.kind == "enable_constraint"
            else:
                raise AssemblyError(f"unknown action {action.kind!r}")

    # -- introspection services -------------------------------------------------------

    def introspect(self, service, args=None):
        if service not in SERVICES:
            raise ServiceError(f"unknown service {service!r}")
        return getattr(self, "_svc_" + service)(args or {})

    def _svc_getRealJointIndices(self, args):
        return {"joints": list(self.servo_model.model.ordering.real_joint_names)}

    def _svc_getActuableJointIndices(self, args):
        ordering = self.servo_model.model.ordering
        return {"joints": [ordering.real_joint_names[i - len(ordering.virtual_indices)]
                           for i in ordering.actuated_indices]}

    def _svc_getCmdJointIndices(self, args):
        return self._svc_getRealJointIndices(args)

    def _svc_getTaskParameters(self, args):
        out = []
        for name, task in self.tasks.items():
            params = {}
            prefix = name + "."
            for full, param in self.registry.items():
                if full.startswith(prefix):
                    params[full[len(prefix):]] = _jsonable(param.value)
            out.append({"name": name, "type": task.type_name,
                        "parameters": params})
        return {"tasks": out}

    def _svc_getConstraintParameters(self, args):
        out = []
        for constraint in self.servo_model.constraints.constraints:
            params = {}
            prefix = constraint.name + "."
            for full, param in self.registry.items():
                if full.startswith(prefix):
                    params[full[len(prefix):]] = _jsonable(param.value)
            out.append({"name": constraint.name, "type": constraint.type_name,
                        "parameters": params})
        return {"constraints": out}

    def _svc_getControllerConfiguration(self, args):
        compound = [{"name": e.task.name, "priority": e.priority,
                     "enabled": e.task.enabled}
                    for e in self.compound.entries]
        cset = [{"name": c.name, "type": c.type_name, "enabled": c.enabled}
                for c in self.servo_model.constraints.constraints]
        return {"compound_task": compound, "constraint_set": cset}

    def _svc_getConstraintJacobianMatrices(self, args):
        active = self.runtime.active.constraints
        out = []
        row = 0
        for constraint in active.enabled_constraints():
            rows = constraint.constrained_dof_count
            jac = active.J_c[row:row + rows] if active.J_c is not None else None
            out.append({"name": constraint.name,
                        "jacobian": _jsonable(jac)})
            row += rows
        return {"constraints": out}

    def _svc_getControlItParameters(self, args):
        return self.spec.framework.as_dict()


class _UdpRemoteInterface:
    """Speaks the wire format on robot/state and robot/command, letting an
    external process stand in for the plant.  A read timeout holds the last
    state and command; the warning is published by the runtime's channel.
    write() sends from the servo thread and never waits: a command whose
    send would block or fails is counted in ``dropped``."""

    def __init__(self, assembled, n_joints):
        self.assembled = assembled
        self.n_joints = n_joints
        self._state = RobotState(0.0, np.zeros(n_joints), np.zeros(n_joints),
                                 np.zeros(n_joints))
        self._fresh = False
        self._peer = None
        self.dropped = 0
        assembled.udp.register_input("robot/state", self._on_state,
                                     with_addr=True)

    def _on_state(self, vec, addr):
        n = self.n_joints
        if len(vec) != 1 + 3 * n:
            return
        self._state = RobotState(float(vec[0]), vec[1:1 + n].copy(),
                                 vec[1 + n:1 + 2 * n].copy(),
                                 vec[1 + 2 * n:].copy())
        self._peer = addr
        self._fresh = True

    def read(self):
        if not self._fresh:
            self.assembled.runtime.publish(
                "diagnostics/warnings", "robot/state timeout, holding last")
        self._fresh = False
        return self._state.copy()

    def write(self, command):
        if self._peer is None:
            return
        vec = np.concatenate([command.effort, command.position,
                              command.velocity])
        try:
            self.assembled.udp.send_publish("robot/command", vec, self._peer)
        except OSError:     # BlockingIOError included
            self.dropped += 1


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def build_from_files(config_path, robot_path, **kwargs):
    description = load_description_file(robot_path)
    spec = load_config_file(config_path)
    return AssembledController(description, spec, **kwargs)
