"""The benchmark's three workloads.

``BENCHMARK.json`` gates ``paper_latency`` and ``binding_loop``.
``disassembly_tracking`` runs by name but is not gated: its cycle time
follows the host's speed, which swings by more than a 25% bound allows
(see ``README.md``).

Each workload makes its inputs from the seed, builds the controller through
the public API (``AssembledController``), runs servo cycles back to back for
the measured window while timing each one from outside, and then checks the
program's outputs with ``checks``.  A cycle is ``servo_update`` plus the
clock tick; in the closed loops the plant step runs inside ``servo_update``
(the lockstep interface steps the plant on ``write``).

Goals follow one protocol in every workload: the benchmark hands a goal to
an input binding, waits until a command has been computed with it, then
sends the next one ``goal_every`` cycles later.  Every goal is one operation
that either is applied within ``GOAL_TIMEOUT_S`` or fails.  A goal still
pending when the window closes is finished before the checks run, so every
run attempts whole rounds.
"""

import resource
import socket
import time

import numpy as np

import checks
from wbosc import fixtures
from wbosc.assembly import AssembledController
from wbosc.config import load_config
from wbosc.description import load_description
from wbosc.model import RobotModel, RobotState

SETUPS = 7              # set-ups per run; setup_s is their median
GOAL_TIMEOUT_S = 5.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


class FrozenRobot:
    """A robot interface whose joint state never changes (zero velocity)."""

    def __init__(self, position):
        self.position = np.array(position, dtype=float)

    def read(self):
        n = self.position.size
        return RobotState(0.0, self.position.copy(), np.zeros(n), np.zeros(n))

    def write(self, command):
        pass


class Workload:
    """Set-up timing, the measured window and the goal protocol."""

    name = None
    warmup = 200            # cycles run in every set-up before measuring
    goal_every = 100        # cycles between an applied goal and the next
    tail = 0                # cycles ``finish`` may run after the window
    max_rate = 5000         # cycles per second the per-cycle arrays are sized for
    received = 0            # output datagrams the benchmark read

    def __init__(self, seed, seconds):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.tally = checks.Tally()
        # cycle indices the window, a pending goal and finish() may reach
        self.window_cap = self.warmup + int(seconds * self.max_rate)
        self.pending_cap = self.window_cap + int(GOAL_TIMEOUT_S * self.max_rate)
        self.cap = self.pending_cap + self.tail + 1
        self.start = self.per_cycle()
        self.end = self.per_cycle()
        self.staged = self.per_cycle(dtype=np.int64)
        self.goal_latency = []
        self.goals_sent = 0
        self.pending = None
        self.next_goal_cycle = 0
        self.measuring = False
        self.ctl = None
        self.probes = []        # callables adding counters (the tracer's)

    def per_cycle(self, columns=(), dtype=float):
        """A zeroed array with one row per cycle index.  It is written
        through here, so the resident memory it takes is the same however
        many cycles the host gets through in the window."""
        return np.full((self.cap, *columns), 0, dtype=dtype)

    # -- hooks the workloads fill in ------------------------------------------

    def build(self):
        raise NotImplementedError

    def prepare(self):
        """Per-controller state, after each build."""

    def references(self):
        """Reference outputs, after set-up and before the window."""

    def next_goal(self):
        raise NotImplementedError

    def send_goal(self, goal):
        raise NotImplementedError

    def goal_applied(self, goal, c, result):
        raise NotImplementedError

    def record(self, c, result):
        """Per-cycle recording, outside the timed region."""

    def finish(self):
        """Cycles after the window that complete the last round."""

    def check(self):
        raise NotImplementedError

    # -- set-up and measurement --------------------------------------------------

    def run(self):
        try:
            self.setup()
            self.references()
            self.measure()
            self.check()
        finally:
            self.shutdown()

    def setup(self):
        """Build, start and warm up SETUPS times; the last one is measured."""
        self.setup_times = []
        self.setup_span = [time.perf_counter(), 0.0]
        for _ in range(SETUPS):
            self.close()
            t0 = time.perf_counter()
            self.ctl = self.build()
            self.ctl.start()
            self.runtime = self.ctl.runtime
            self.clock = self.ctl.clock
            self.prepare()
            for _ in range(self.warmup):
                self.cycle()
            self.setup_times.append(time.perf_counter() - t0)
        self.setup_span[1] = time.perf_counter()

    def close(self):
        if self.ctl is not None:
            self.ctl.close()
            self.ctl = None

    def shutdown(self):
        self.close()

    def cycle(self):
        runtime = self.runtime
        c = runtime.cycle_count
        if self.measuring and self.pending is None \
                and c >= self.next_goal_cycle:
            goal = self.next_goal()
            self.goals_sent += 1
            self.pending = (goal, time.perf_counter())
            self.send_goal(goal)
        t0 = time.perf_counter()
        result = runtime.servo_update()
        self.clock.tick()
        t1 = time.perf_counter()
        self.start[c] = t0
        self.end[c] = t1
        self.staged[c] = round(runtime.active.model.stamp * self.clock.frequency)
        self.record(c, result)
        if self.pending is not None:
            goal, sent = self.pending
            if self.goal_applied(goal, c, result):
                self.goal_latency.append(t1 - sent)
                self.tally.check(True, "")
                self.pending = None
                self.next_goal_cycle = c + 1 + self.goal_every
            elif t1 - sent > GOAL_TIMEOUT_S:
                self.tally.check(False, f"goal {self.goals_sent} not applied "
                                        f"within {GOAL_TIMEOUT_S} s")
                self.pending = None
                self.next_goal_cycle = c + 1 + self.goal_every
        return t1

    def measure(self):
        self.first = self.runtime.cycle_count
        self.next_goal_cycle = self.first
        self.window_start = time.perf_counter()
        stop = self.window_start + self.seconds
        before = self.counters()
        self.measuring = True
        while self.cycle() < stop \
                and self.runtime.cycle_count < self.window_cap:
            pass
        self.measuring = False
        self.stop_cycle = self.runtime.cycle_count
        self.window_end = self.end[self.stop_cycle - 1]
        self.window_counters = (before, self.counters())
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.phases = self.runtime.phase_stats(
            last_n=self.stop_cycle - self.first)
        while self.pending is not None \
                and self.runtime.cycle_count < self.pending_cap:
            self.cycle()
        if self.pending is not None:
            self.tally.check(False, f"goal {self.goals_sent} still pending "
                                    f"when the cycle arrays were full")
            self.pending = None
        self.finish()

    # -- metrics --------------------------------------------------------------------

    def window(self):
        return slice(self.first, self.stop_cycle)

    def cycle_ms(self):
        w = self.window()
        return (self.end[w] - self.start[w]) * 1e3

    def model_age_ms(self):
        """Wall time from the start of the cycle whose joint state the
        active model holds to the end of the cycle that used it."""
        w = self.window()
        return (self.end[w] - self.start[self.staged[w]]) * 1e3

    def end_to_end(self):
        """The gated metrics: steady from run to run on a shared host."""
        return {
            "setup_s": (_median(self.setup_times), "s"),
            "cycle_ms_p50": (_median(self.cycle_ms()), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def reference_figures(self):
        """Printed with every run but not gated: the throughput, the tails
        with their sample counts, the model age and the goal latency.  The
        last three follow the GIL hand-offs between threads, which swing
        with the load that other tenants put on a shared host."""
        w = self.window()
        out = {"cycles_per_s": {
            "value": (w.stop - w.start)
            / (self.end[w.stop - 1] - self.start[w.start]),
            "unit": "1/s"}}
        for label, values in (("cycle_ms", self.cycle_ms()),
                              ("model_age_ms", self.model_age_ms()),
                              ("goal_latency_ms",
                               np.array(self.goal_latency) * 1e3)):
            out[label] = {"unit": "ms", "n": int(len(values)),
                          "p50": _median(values),
                          "p90": _percentile(values, 90),
                          "p99": _percentile(values, 99),
                          "max": float(np.max(values)) if len(values) else 0.0}
        return out

    def counters(self):
        """Program counters read from public attributes (window deltas are
        taken by the caller)."""
        runtime = self.runtime
        worker = runtime.task_worker
        out = {
            "model_swaps": runtime.stats.model_swaps,
            "staging_skips": runtime.stats.staging_skips,
            "task_rounds": worker.rounds if worker is not None else 0,
            "publisher_drops": self.ctl.publisher.drops,
            "received": self.received,
        }
        for probe in self.probes:
            out.update(probe())
        return out


# -- paper_latency ----------------------------------------------------------------

def _dreamer():
    return (load_description(fixtures.read_robot("dreamer22")),
            fixtures.read_config("dreamer22_disassembly"))


def _transmission(spec):
    c = spec.constraint("torsoTransmission").parameters
    return c["masterJoint"], c["slaveJoint"], c.get("transmissionRatio", 1.0)


class PaperLatency(Workload):
    """The paper's latency study: five tasks on two priority levels,
    multi-threaded, robot state frozen at a seeded pose."""

    name = "paper_latency"
    warmup = 300
    goal_every = 100

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        self.description, self.config = _dreamer()
        spec = load_config(self.config)
        names = self.description.real_joint_names
        pose = np.array(spec.task("posture").parameters["goalPosition"])
        pose += self.rng.uniform(-0.05, 0.05, pose.size)
        master, slave, ratio = _transmission(spec)
        pose[names.index(slave)] = ratio * pose[names.index(master)]
        self.pose = pose
        self.offset = self.rng.uniform(-0.02, 0.02, 3)
        self.matched = self.per_cycle(dtype=np.int8)   # reference index or -1
        self.refs = ()          # set by references(), after the set-ups

    def build(self, single_threaded=False):
        return AssembledController(self.description, load_config(self.config),
                                   interface=FrozenRobot(self.pose),
                                   single_threaded=single_threaded)

    def prepare(self):
        self.nominal = self.ctl.registry.lookup(
            "rightHandPosition.goalPosition").value.copy()

    def references(self):
        """Commands of a single-threaded controller at the same state, for
        the nominal right-hand goal and the shifted one, each checked for
        realising the level-0 task accelerations."""
        self.goals = (self.nominal + self.offset, self.nominal)
        self.refs = []
        with self.build(single_threaded=True) as ref:
            ref.start()
            for goal in self.goals:
                ref.bus.publish("goals/rightHand", goal)
                ref.run(cycles=2)
                tau = ref.runtime.last_result.command.effort.copy()
                residual = self._level0_residual(ref, tau)
                self.tally.check(residual <= checks.REALISED_TOL,
                                 f"level-0 residual {residual:.3e}")
                self.refs.append(tau)

    @staticmethod
    def _level0_residual(ctl, tau):
        active = ctl.runtime.active
        model = active.model
        level0 = min(e.priority for e in ctl.compound.entries)
        top = [e.task for e in ctl.compound.entries if e.priority == level0]
        J0 = np.vstack([t.active_state.jacobian for t in top])
        xdd0 = np.concatenate([t.active_state.command for t in top])
        return checks.realised_task_residual(
            model.A, model.B, model.G, model.underactuation_matrix(),
            active.constraints.J_c, tau, J0, xdd0)

    def next_goal(self):
        return self.goals_sent % 2          # index into goals and refs

    def send_goal(self, goal):
        self.ctl.bus.publish("goals/rightHand", self.goals[goal])

    def goal_applied(self, goal, c, result):
        return self.matched[c] == goal

    def record(self, c, result):
        command = result.command
        self.matched[c] = -1 if command is None \
            else checks.reference_index(command.effort, self.refs)

    def check(self):
        for c in range(self.first, self.runtime.cycle_count):
            self.tally.check(self.matched[c] >= 0, f"cycle {c}: command "
                             f"matches no single-threaded reference")
        stats = self.runtime.stats
        self.tally.check(stats.servo_blocking_acquires == 0,
                         f"{stats.servo_blocking_acquires} blocking acquires")
        self.tally.check(stats.lost_task_updates == 0,
                         f"{stats.lost_task_updates} lost task updates")
        self.tally.check(stats.suppressed_commands == 0,
                         f"{stats.suppressed_commands} suppressed commands")


# -- disassembly_tracking -------------------------------------------------------------

class DisassemblyTracking(Workload):
    """The paper's demonstration: the product moves and both hands follow,
    single-threaded, over the lockstep simulated plant.

    The product sits at a seeded sequence of positions a few cm from the
    nominal pose.  A perception stream publishes where it sees the product
    every ``goal_every`` cycles, with a small bounded error, on the
    ``goals/rightHand`` and ``goals/leftHand`` input bindings.  The product
    stays where it is until both hands have reached it, then ``dwell``
    cycles more, and moves on.  After the window the exact last position is
    published and held until the hands settle."""

    name = "disassembly_tracking"
    warmup = 50
    goal_every = 10             # cycles between perceived product positions
    shift = 0.03                # product offsets per axis, m
    noise = 2e-4                # perception error per axis, m
    reach_tol = 0.005           # program's hand error that counts as reached, m
    reach_max = 4000            # cycles allowed to reach a position
    dwell = 100                 # cycles a reached position is held
    settle_tol = 0.001          # hand error once the last position settled, m
    tail = 10000                # cycles allowed for that
    max_rate = 1000

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        self.description, self.config = _dreamer()
        self.spec = load_config(self.config)
        names = self.description.real_joint_names
        master, slave, self.ratio = _transmission(self.spec)
        self.pair = [names.index(master), names.index(slave)]
        self.limits = np.array([self.description.joint(n).effort_limit
                                for n in names])
        self.tasks = ("rightHandPosition", "leftHandPosition")
        self.hands = [(self.spec.task(t).parameters["link"],
                       self.spec.task(t).parameters["controlPoint"])
                      for t in self.tasks]
        self.efforts = self.per_cycle((len(names),))
        self.torso = self.per_cycle((2,))
        self.reached = []       # (product goals, joint positions) when reached
        self.product_id = 0

    def build(self):
        return AssembledController(self.description, load_config(self.config),
                                   single_threaded=True)

    def prepare(self):
        reg = self.ctl.registry
        self.nominal = [reg.lookup(f"{t}.goalPosition").value.copy()
                        for t in self.tasks]
        self.goal_params = [reg.lookup(f"{t}.goalPosition") for t in self.tasks]
        self.error_params = [reg.lookup(f"{t}.error") for t in self.tasks]
        self.product = None

    def move_product(self, c):
        offset = self.rng.uniform(-self.shift, self.shift, 3)
        self.product = [p + offset for p in self.nominal]
        self.product_id += 1
        self.moved = c
        self.live = False       # a goal for this position has been applied
        self.reached_at = None

    def next_goal(self):
        if self.product is None:
            self.move_product(self.runtime.cycle_count)
        return (self.product_id,
                [p + self.rng.uniform(-self.noise, self.noise, 3)
                 for p in self.product])

    def send_goal(self, goal):
        self.ctl.bus.publish("goals/rightHand", goal[1][0])
        self.ctl.bus.publish("goals/leftHand", goal[1][1])

    def goal_applied(self, goal, c, result):
        applied = all(np.array_equal(p.value, g)
                      for p, g in zip(self.goal_params, goal[1]))
        if applied and goal[0] == self.product_id:
            self.live = True
        return applied

    def record(self, c, result):
        command = result.command
        self.efforts[c] = np.nan if command is None else command.effort
        position = self.runtime.snapshot()["state"].position
        self.torso[c] = position[self.pair]
        if not self.measuring or self.product is None or not self.live:
            return
        if self.reached_at is None:
            if max(np.linalg.norm(p.value) for p in self.error_params) \
                    < self.reach_tol:
                self.reached_at = c
                self.reached.append((self.product, position.copy()))
            elif c - self.moved > self.reach_max:
                self.tally.check(False, f"hands did not reach the product "
                                        f"in {self.reach_max} cycles")
                self.move_product(c)
        elif c - self.reached_at >= self.dwell:
            self.move_product(c)

    def hand_errors(self, goals, q, model):
        model.update_kinematics(model.full_from_actual(q),
                                np.zeros(model.n_dofs))
        return [float(np.linalg.norm(checks.control_point(model, link, cp) - g))
                for (link, cp), g in zip(self.hands, goals)]

    def finish(self):
        """Publish the exact last position and hold it until the hands
        settle."""
        goal = self.product
        self.send_goal((self.product_id, goal))
        model = RobotModel(self.description)
        for k in range(self.tail):
            if k % 50 == 0:
                state = self.ctl.plant.state()
                errors = self.hand_errors(goal, state.position, model)
                if max(errors) < self.settle_tol \
                        and np.max(np.abs(state.velocity)) < 1e-2:
                    break
            self.cycle()
        self.settled = (goal, self.ctl.plant.state().position)

    def check(self):
        model = RobotModel(self.description)
        # reached means within reach_tol of the perceived goal, which is
        # within noise of the product on every axis
        tol = self.reach_tol + np.sqrt(3.0) * self.noise
        for goals, q in self.reached:
            errors = self.hand_errors(goals, q, model)
            self.tally.check(max(errors) < tol,
                             f"hand error {max(errors):.4f} m where the "
                             f"program saw the product reached")
        errors = self.hand_errors(*self.settled, model)
        self.tally.check(max(errors) < self.settle_tol,
                         f"hands not settled: {max(errors):.5f} m")
        for c in range(self.first, self.runtime.cycle_count):
            tau = self.efforts[c]
            self.tally.check(np.isfinite(tau).all()
                             and np.all(np.abs(tau) <= self.limits),
                             f"cycle {c}: effort not finite or over its limit")
            master, slave = self.torso[c]
            self.tally.check(abs(slave - self.ratio * master)
                             <= checks.TRANSMISSION_TOL,
                             f"cycle {c}: torso pair off its ratio")


# -- binding_loop -----------------------------------------------------------------------

PEND_CONFIG = """
tasks:
  - name: posture
    type: JointPositionTask
    kp: {kp}
    kd: {kd}
    goalPosition: [0.0]
compound_task:
  - name: posture
    priority: 0
    operational_state: enable
bindings:
  - parameter: posture.goalPosition
    direction: input
    topic: goals/posture
    transport_type: udp
  - parameter: posture.error
    direction: output
    topic: errors/posture
    transport_type: udp
    properties:
      - host: 127.0.0.1
      - port: {port}
events:
  - name: postureConverged
    expression: norm(posture.error) < 0.01
controlit:
  name: pend
  servo_frequency: 1000
  whole_body_controller_type: WBOSC
  robot_interface_type: sim-lockstep
  servo_clock_type: simulated-lockstep
"""


class BindingLoop(Workload):
    """External-process path: goals in and errors out over UDP, one-joint
    pendulum, single-threaded, lockstep plant."""

    name = "binding_loop"
    warmup = 200
    goal_every = 10
    kp, kd = 60.0, 3.0

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        self.description = load_description(fixtures.read_robot("pend1"))
        arm = self.description.link("arm")
        self.mass = arm.mass
        self.lc = float(np.linalg.norm(arm.com))
        self.iyy = float(arm.inertia[1, 1])
        self.g = float(-self.description.gravity[2])
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self.config = PEND_CONFIG.format(kp=self.kp, kd=self.kd,
                                         port=self.sock.getsockname()[1])
        self.q = self.per_cycle()
        self.qd = self.per_cycle()
        self.goal = self.per_cycle()
        self.tau = self.per_cycle()

    def close(self):
        super().close()
        self._drain()           # whatever the closed controller still sent

    def shutdown(self):
        self.close()
        self.sock.close()

    def build(self):
        return AssembledController(self.description, load_config(self.config),
                                   single_threaded=True)

    def prepare(self):
        self.goal_param = self.ctl.registry.lookup("posture.goalPosition")
        self.output = next(b for b in self.ctl.binding_manager.bindings
                           if b.topic == "errors/posture")
        self.peer = ("127.0.0.1", self.ctl.udp.port)
        self.received = 0
        self.undecodable = []

    def _drain(self):
        received = 0
        while True:
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return received
            received += 1
            if self.ctl is None:
                continue
            try:
                name, value = checks.decode_publish(data)
                if name != "errors/posture" or np.shape(value) != (1,) \
                        or not np.isfinite(value).all():
                    raise ValueError(f"unexpected publish {name!r} {value!r}")
            except ValueError as exc:
                self.undecodable.append(str(exc))
            self.received += 1

    def next_goal(self):
        return float(self.rng.uniform(-0.5, 0.5))

    def send_goal(self, goal):
        self.sock.sendto(checks.encode_publish("goals/posture", [goal]),
                         self.peer)

    def goal_applied(self, goal, c, result):
        return self.goal[c] == goal

    def record(self, c, result):
        state = self.runtime.snapshot()["state"]
        self.q[c] = state.position[0]
        self.qd[c] = state.velocity[0]
        self.goal[c] = self.goal_param.value[0]
        self.tau[c] = result.command.effort[0]
        self._drain()

    def finish(self):
        """Deliver what the publisher still holds, then read datagrams until
        none has arrived for 50 ms."""
        self.ctl.flush()
        quiet = time.monotonic() + 0.05
        while time.monotonic() < quiet:
            if self._drain():
                quiet = time.monotonic() + 0.05
            time.sleep(0.002)

    def check(self):
        w = slice(self.first, self.runtime.cycle_count)
        expected = checks.pendulum_effort(self.q[w], self.qd[w], self.goal[w],
                                          self.kp, self.kd, self.mass,
                                          self.lc, self.iyy, self.g)
        for c, err in enumerate(np.abs(self.tau[w] - expected), self.first):
            self.tally.check(err <= checks.PENDULUM_TOL,
                             f"cycle {c}: effort off the closed form by {err:.3e}")
        for reason in self.undecodable:
            self.tally.check(False, f"datagram does not decode: {reason}")
        published, drops = self.output.published, self.ctl.publisher.drops
        self.tally.check(
            checks.datagrams_accounted(self.received, published, drops),
            f"{self.received} datagrams received, binding published "
            f"{published}, publisher dropped {drops} entries")


WORKLOADS = {w.name: w for w in (PaperLatency, DisassemblyTracking, BindingLoop)}
