"""Controller assembly: from (robot description, controller spec) to a
running servo loop with parameters, bindings, events, plant, and services.

The assembled object owns every moving part: the double-buffered model pair,
task and constraint instances built from the spec, the parameter registry
and transports, the simulated plant behind a robot interface, the servo
runtime, and the introspection service table.
"""

import numpy as np

from .config import load_config_file
from .constraints import (CoactuationConstraint, ConstraintSet,
                          FlatContactConstraint, PointContactConstraint)
from .controller import (CONTROLLER_TYPES, JointLimits, LimitFlags, Wbosc,
                         WboscImpedance)
from .description import load_description_file
from .model import RobotModel
from .params import ParameterRegistry
from .plant import (FreerunSimInterface, LockstepSimInterface, NoiseSpec,
                    SimPlant, Transmission)
from .servo import ServoModel, ServoRuntime, make_clock
from .tasks import (CartesianPositionTask, CompoundTask, ComTask,
                    JointPositionTask, Orientation2DTask, Orientation3DTask,
                    PIDGains)
from .transports import (BindingManager, FileBindingFactory, IntraBindingFactory,
                         IntraBus, PublisherWorker, UdpBindingFactory,
                         UdpTransport)

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

_GAIN_KEYS = ("kp", "ki", "kd", "integratorLimit")


def _gains(params, dimension):
    return PIDGains(dimension,
                    kp=params.get("kp", 0.0),
                    ki=params.get("ki", 0.0),
                    kd=params.get("kd", 0.0),
                    integrator_limit=params.get("integratorLimit", 0.0))


def _check_keys(params, allowed, where):
    unknown = set(params) - set(allowed) - set(_GAIN_KEYS)
    if unknown:
        raise AssemblyError(f"{where}: unknown parameter(s) {sorted(unknown)}")


def build_task(spec, model):
    p = spec.parameters
    where = f"task {spec.name!r}"
    if spec.type == "JointPositionTask":
        _check_keys(p, ("goalPosition", "goalVelocity", "goalAcceleration"), where)
        return JointPositionTask(
            spec.name, model, _gains(p, model.n_joints),
            goal_position=p.get("goalPosition"),
            goal_velocity=p.get("goalVelocity"),
            goal_acceleration=p.get("goalAcceleration"))
    if spec.type == "CartesianPositionTask":
        _check_keys(p, ("link", "controlPoint", "goalPosition"), where)
        if "link" not in p:
            raise AssemblyError(f"{where}: missing link")
        task = CartesianPositionTask(
            spec.name, model, _gains(p, 3), link=p["link"],
            control_point=p.get("controlPoint", (0.0, 0.0, 0.0)))
        goal = p.get("goalPosition")
        task.goals["goalPosition"] = (task.current_position(model).copy()
                                      if goal is None
                                      else np.asarray(goal, dtype=float))
        return task
    if spec.type == "Orientation3DTask":
        _check_keys(p, ("link", "goalOrientation"), where)
        if "link" not in p:
            raise AssemblyError(f"{where}: missing link")
        task = Orientation3DTask(spec.name, model, _gains(p, 3), link=p["link"])
        goal = p.get("goalOrientation")
        if goal is None:
            from .geometry import quat_from_matrix
            goal = quat_from_matrix(model.link_transform(p["link"])[:3, :3])
        task.goals["goalOrientation"] = np.asarray(goal, dtype=float)
        return task
    if spec.type == "Orientation2DTask":
        _check_keys(p, ("link", "bodyVector", "goalVector"), where)
        if "link" not in p:
            raise AssemblyError(f"{where}: missing link")
        body = p.get("bodyVector", (0.0, 0.0, 1.0))
        task = Orientation2DTask(spec.name, model, _gains(p, 2),
                                 link=p["link"], body_vector=body,
                                 goal_vector=(0.0, 0.0, 1.0))
        goal = p.get("goalVector")
        task.goals["goalVector"] = (task.heading(model).copy() if goal is None
                                    else np.asarray(goal, dtype=float))
        return task
    if spec.type == "COMTask":
        _check_keys(p, ("goalPosition",), where)
        task = ComTask(spec.name, model, _gains(p, 3))
        goal = p.get("goalPosition")
        task.goals["goalPosition"] = (model.com()[0].copy() if goal is None
                                      else np.asarray(goal, dtype=float))
        return task
    raise AssemblyError(f"{where}: unknown task type {spec.type!r}")


def build_constraint(spec):
    p = spec.parameters
    where = f"constraint {spec.name!r}"
    if spec.type == "FlatContactConstraint":
        _check_keys(p, ("link",), where)
        if "link" not in p:
            raise AssemblyError(f"{where}: missing link")
        return FlatContactConstraint(spec.name, p["link"])
    if spec.type == "PointContactConstraint":
        _check_keys(p, ("link", "point"), where)
        if "link" not in p:
            raise AssemblyError(f"{where}: missing link")
        return PointContactConstraint(spec.name, p["link"],
                                      p.get("point", (0.0, 0.0, 0.0)))
    if spec.type == "CoactuationConstraint":
        _check_keys(p, ("masterJoint", "slaveJoint", "transmissionRatio"), where)
        for key in ("masterJoint", "slaveJoint"):
            if key not in p:
                raise AssemblyError(f"{where}: missing {key}")
        return CoactuationConstraint(spec.name, p["masterJoint"],
                                     p["slaveJoint"],
                                     p.get("transmissionRatio", 1.0))
    raise AssemblyError(f"{where}: unknown constraint type {spec.type!r}")


class AssembledController:
    """Everything needed to run and talk to one controller instance."""

    def __init__(self, description, spec, *, latency_cycles=0, noise=None,
                 seed=0, clock=None, interface=None, udp_port=None,
                 log_dir=None, single_threaded=None, hooks=None,
                 worker_delay=None, history=2048, publisher_queue=1024,
                 initial_posture=None):
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

        # model pair, tasks, constraints -------------------------------------
        models = (RobotModel(self.description), RobotModel(self.description))
        enabled_constraints = {e.name: e.enabled for e in spec.constraint_set}
        # one object per constraint, shared by both copies' sets, so that a
        # parameter set at runtime reaches both
        constraints = []
        for cspec in spec.constraints:
            constraint = build_constraint(cspec)
            constraint.enabled = enabled_constraints.get(cspec.name, True)
            constraints.append(constraint)
        pairs = [ServoModel(m, ConstraintSet(constraints)) for m in models]
        self.model_pair = tuple(pairs)

        posture_goal = self._posture_goal(spec, models[0].n_joints)
        if initial_posture is not None:
            posture_goal = np.asarray(initial_posture, dtype=float)
        self._initial_posture = posture_goal
        q0 = models[0].full_from_actual(posture_goal)
        for m in models:
            m.update_kinematics(q0, np.zeros(m.n_dofs))
        for pair in pairs:
            pair.constraints.update(pair.model)

        self.registry = ParameterRegistry()
        self.compound = CompoundTask()
        priorities = {e.name: e.priority for e in spec.compound}
        enabled = {e.name: e.enabled for e in spec.compound}
        self.tasks = {}
        for tspec in spec.tasks:
            task = build_task(tspec, models[0])
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
        names = models[0].ordering.real_joint_names
        mask = np.array([n in fw.gravity_compensation_mask for n in names])
        controller_cls = CONTROLLER_TYPES[fw.whole_body_controller_type]
        if controller_cls is WboscImpedance:
            self.wbc = WboscImpedance(models[0].n_dofs, models[0].n_joints,
                                      gravity_mask=mask)
        else:
            self.wbc = Wbosc(models[0].n_dofs, models[0].n_joints,
                             gravity_mask=mask)
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
        self.publisher = PublisherWorker(maxlen=publisher_queue)
        self.binding_manager = BindingManager()
        clock_fn = self.clock.now
        self.binding_manager.register_factory(
            IntraBindingFactory(self.bus, self.publisher, clock_fn))
        self.file_factory = FileBindingFactory(log_dir or ".", self.publisher,
                                               clock_fn)
        self.binding_manager.register_factory(self.file_factory)
        if self.udp is not None:
            self.binding_manager.register_factory(
                UdpBindingFactory(self.udp, self.publisher, clock_fn))
        for bcfg in spec.bindings:
            self.binding_manager.bind(self.registry, bcfg)
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
            self.name, self.model_pair, self.compound, self.wbc,
            self.interface, self.clock, registry=self.registry,
            publish=publish, limits=self.limits,
            single_threaded=single_threaded, hooks=hooks,
            worker_delay=worker_delay, history=history)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _posture_goal(spec, n_joints):
        for tspec in spec.tasks:
            if tspec.type == "JointPositionTask":
                goal = tspec.parameters.get("goalPosition")
                if goal is not None:
                    return np.asarray(goal, dtype=float)
        return np.zeros(n_joints)

    def _build_interface(self, fw, initial_q, latency_cycles, noise, seed):
        weld = None
        transmissions = []
        contacts = []
        proto = RobotModel(self.description)
        root = self.description.root_link_name
        for cspec in self.spec.constraints:
            enabled = {e.name: e.enabled for e in self.spec.constraint_set} \
                .get(cspec.name, True)
            if not enabled:
                continue
            if cspec.type == "CoactuationConstraint":
                transmissions.append(Transmission(
                    cspec.parameters["masterJoint"],
                    cspec.parameters["slaveJoint"],
                    cspec.parameters.get("transmissionRatio", 1.0)))
            elif cspec.type == "FlatContactConstraint":
                link = cspec.parameters["link"]
                if link == root:
                    weld = link
                else:
                    contacts.append((link, None))
            elif cspec.type == "PointContactConstraint":
                contacts.append((cspec.parameters["link"],
                                 np.asarray(cspec.parameters.get(
                                     "point", (0, 0, 0)), dtype=float)))
        if proto.ordering.virtual_indices and weld is None:
            raise AssemblyError(
                "floating-base robot needs a flat contact constraint on the "
                "base link (free-floating simulation is not supported)")
        self.plant = SimPlant(self.description, weld_base=weld,
                              transmissions=transmissions, contacts=contacts)
        self.plant.set_joint_state(initial_q)
        period = self.clock.period
        kind = fw.robot_interface_type
        noise_spec = noise or NoiseSpec()
        if kind == "sim-lockstep":
            return LockstepSimInterface(self.plant, period,
                                        latency_cycles=latency_cycles,
                                        noise=noise_spec, seed=seed)
        if kind == "sim-freerun":
            return FreerunSimInterface(self.plant, period,
                                       noise=noise_spec, seed=seed).start()
        if kind == "udp-remote":
            return _UdpRemoteInterface(self, proto.n_joints)
        raise AssemblyError(f"unknown robot_interface_type {kind!r}")

    # -- lifecycle / control surface ----------------------------------------------

    def start(self):
        self.runtime.servo_init()
        return self

    def run(self, cycles=None, duration=None):
        return self.runtime.run(cycles=cycles, duration=duration)

    def close(self):
        self.runtime.stop()
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
                self.model_pair[0].constraints.constraint(action.name) \
                    .enabled = action.kind == "enable_constraint"
            else:
                raise AssemblyError(f"unknown action {action.kind!r}")

    # -- introspection services -------------------------------------------------------

    def introspect(self, service, args=None):
        if service not in SERVICES:
            raise ServiceError(f"unknown service {service!r}")
        return getattr(self, "_svc_" + service)(args or {})

    def _svc_getRealJointIndices(self, args):
        return {"joints": list(self.model_pair[0].model.ordering.real_joint_names)}

    def _svc_getActuableJointIndices(self, args):
        ordering = self.model_pair[0].model.ordering
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
        for constraint in self.model_pair[0].constraints.constraints:
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
                for c in self.model_pair[0].constraints.constraints]
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
    state and command; the warning is published by the runtime's channel."""

    def __init__(self, assembled, n_joints):
        from .model import RobotState
        self.assembled = assembled
        self.n_joints = n_joints
        self._state = RobotState(0.0, np.zeros(n_joints), np.zeros(n_joints),
                                 np.zeros(n_joints))
        self._fresh = False
        self._peer = None
        assembled.udp.register_input("robot/state", self._on_state,
                                     with_addr=True)

    def _on_state(self, vec, addr):
        n = self.n_joints
        if len(vec) != 1 + 3 * n:
            return
        from .model import RobotState
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
        self.assembled.udp.send_publish("robot/command", vec, self._peer)


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
