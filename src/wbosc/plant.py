"""Simulated torque-controlled plant and the robot interface contract.

The plant integrates the welded-base, transmission-reduced dynamics in an
independent coordinate set: virtual DOFs are structurally frozen when the
base is welded, and each transmission slave is slaved to ratio * master, so
those constraints hold exactly by construction rather than by stabilization.
Contact constraints on other links contribute configuration-dependent rows
that are enforced by per-step projection of the reduced dynamics onto their
nullspace.

Robot interfaces expose read()/write() with an injectable cycle-count
latency budget split across the two directions (total latency equals the
configured cycle count end to end) and optional zero-mean Gaussian sensing
noise per channel.
"""

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import RobotModel, RobotState


class PlantError(ValueError):
    pass


@dataclass
class NoiseSpec:
    position: float = 0.0
    velocity: float = 0.0
    effort: float = 0.0

    def any(self):
        return self.position > 0.0 or self.velocity > 0.0 or self.effort > 0.0

    def applied(self, state, rng):
        """A copy of state with zero-mean Gaussian noise of each channel's
        standard deviation added, drawn channel by channel in field order."""
        out = state.copy()
        for channel in ("position", "velocity", "effort"):
            sigma = getattr(self, channel)
            if sigma > 0.0:
                values = getattr(out, channel)
                values += rng.normal(0.0, sigma, values.shape)
        return out


@dataclass
class Transmission:
    master: str
    slave: str
    ratio: float = 1.0


class SimPlant:
    """Reduced-coordinate forward dynamics of the simulated robot."""

    def __init__(self, description, weld_base=None, transmissions=(),
                 contacts=(), integrator="semi_implicit", enforce_limits=True):
        self.model = RobotModel(description)
        self.description = description
        self.weld_base = weld_base
        self.transmissions = list(transmissions)
        self.contacts = list(contacts)   # (link, point or None) pairs
        if integrator not in ("semi_implicit", "rk4"):
            raise PlantError(f"unknown integrator {integrator!r}")
        self.integrator = integrator
        self.enforce_limits = enforce_limits
        self.limit_hits = []
        self.time = 0.0

        n = self.model.n_dofs
        names = self.model.ordering.real_joint_names
        slave_of = {}
        for tr in self.transmissions:
            if tr.master not in names or tr.slave not in names:
                raise PlantError("transmission joints must be real joints")
            slave_of[tr.slave] = tr

        # columns of E span the independent coordinates; slaved and welded
        # DOFs are linear in them, so E is constant and the structural
        # constraints hold to machine precision at every step
        self._independent = ([] if weld_base is not None
                             else list(self.model.ordering.virtual_indices))
        for name in names:
            if name not in slave_of:
                self._independent.append(self.model.joint_dof_index(name))
        E = np.zeros((n, len(self._independent)))
        for col, dof in enumerate(self._independent):
            E[dof, col] = 1.0
        for tr in self.transmissions:
            slave_dof = self.model.joint_dof_index(tr.slave)
            master_dof = self.model.joint_dof_index(tr.master)
            col = self._independent.index(master_dof)
            E[slave_dof, col] = tr.ratio
        self._E = E
        self._q_r = np.zeros(E.shape[1])
        self._qd_r = np.zeros(E.shape[1])
        self._q_full = np.zeros(n)
        self._qd_full = np.zeros(n)

    @property
    def n_joints(self):
        return self.model.n_joints

    def set_joint_state(self, q_act, qd_act=None):
        """Initialize from actuated-joint vectors (slaves must be consistent)."""
        q_act = np.asarray(q_act, dtype=float)
        qd_act = np.zeros_like(q_act) if qd_act is None else np.asarray(qd_act, dtype=float)
        q_full = self.model.full_from_actual(q_act)
        qd_full = self.model.full_from_actual(qd_act)
        for tr in self.transmissions:
            s = self.model.joint_dof_index(tr.slave)
            m = self.model.joint_dof_index(tr.master)
            if abs(q_full[s] - tr.ratio * q_full[m]) > 1e-9:
                raise PlantError(
                    f"initial state violates transmission {tr.slave!r}")
        self._q_r[:] = q_full[self._independent]
        self._qd_r[:] = qd_full[self._independent]
        self._reconstruct()

    def _reconstruct(self):
        self._q_full[:] = self._E @ self._q_r
        self._qd_full[:] = self._E @ self._qd_r

    def state(self):
        self._reconstruct()
        virtual = len(self.model.ordering.virtual_indices)
        return RobotState(self.time,
                          self._q_full[virtual:].copy(),
                          self._qd_full[virtual:].copy(),
                          np.zeros(self.model.n_joints))

    def q_full(self):
        self._reconstruct()
        return self._q_full.copy()

    def qd_full(self):
        self._reconstruct()
        return self._qd_full.copy()

    def kinetic_energy(self):
        self._reconstruct()
        self.model.update_kinematics(self._q_full, self._qd_full)
        return 0.5 * self._qd_full @ self.model.A @ self._qd_full

    def _reduced_accel(self, q_r, qd_r):
        """(reduced acceleration, contact nullspace basis or None) at
        (q_r, qd_r) under the current effort."""
        self.model.update_kinematics(self._E @ q_r, self._E @ qd_r)
        U = self.model.underactuation_matrix()
        force = self._E.T @ (U.T @ self._tau - self.model.B - self.model.G)
        M = self._E.T @ self.model.A @ self._E
        Z = self._contact_nullspace()
        if Z is None:
            return np.linalg.solve(M, force), Z
        if Z.shape[1] == 0:
            return np.zeros_like(qd_r), Z
        return Z @ np.linalg.solve(Z.T @ M @ Z, Z.T @ force), Z

    def _contact_nullspace(self):
        if not self.contacts:
            return None
        rows = []
        for link, point in self.contacts:
            if point is None:
                rows.append(self.model.spatial_jacobian(link) @ self._E)
            else:
                rows.append(self.model.point_jacobian(link, point) @ self._E)
        Jr = np.vstack(rows)
        if not Jr.any():
            return None
        _, s, Vt = np.linalg.svd(Jr)
        rank = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0
        return Vt[rank:].T

    def step(self, effort, dt):
        """Advance the plant by dt under the given actuated effort command."""
        effort = np.asarray(effort, dtype=float)
        if effort.shape != (self.model.n_joints,):
            raise PlantError(
                f"command length {effort.shape} != n_joints {self.model.n_joints}")
        if not np.isfinite(effort).all():
            raise PlantError("non-finite effort command")
        self._tau = effort
        if self.integrator == "semi_implicit":
            acc, Z = self._reduced_accel(self._q_r, self._qd_r)
            if Z is not None:
                self._qd_r[:] = Z @ (Z.T @ self._qd_r)
            self._qd_r += acc * dt
            self._q_r += self._qd_r * dt
        else:
            def accel(q_r, qd_r):
                return self._reduced_accel(q_r, qd_r)[0]

            q0, v0 = self._q_r.copy(), self._qd_r.copy()
            k1q, k1v = v0, accel(q0, v0)
            k2q = v0 + 0.5 * dt * k1v
            k2v = accel(q0 + 0.5 * dt * k1q, k2q)
            k3q = v0 + 0.5 * dt * k2v
            k3v = accel(q0 + 0.5 * dt * k2q, k3q)
            k4q = v0 + dt * k3v
            k4v = accel(q0 + dt * k3q, k4q)
            self._q_r[:] = q0 + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
            self._qd_r[:] = v0 + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        self.time += dt
        if self.enforce_limits:
            self._clamp_limits()
        return self.state()

    def _clamp_limits(self):
        names = self.model.ordering.real_joint_names
        for col, dof in enumerate(self._independent):
            if dof in self.model.ordering.virtual_indices:
                continue
            name = names[dof - len(self.model.ordering.virtual_indices)]
            joint = self.description.joint(name)
            if joint.position_limits is None:
                continue
            lo, hi = joint.position_limits
            if self._q_r[col] < lo or self._q_r[col] > hi:
                self._q_r[col] = np.clip(self._q_r[col], lo, hi)
                self._qd_r[col] = 0.0
                self.limit_hits.append((self.time, name))


class RobotInterface:
    """read()/write() contract between the servo loop and a robot."""

    def read(self):
        raise NotImplementedError

    def write(self, command):
        raise NotImplementedError


class LockstepSimInterface(RobotInterface):
    """Deterministic interface: write() applies the (delayed) command and
    advances the plant exactly one servo period.

    latency_cycles is the total command-to-sensed-effect budget, split into a
    command-side delay of latency_cycles // 2 and a sensing-side delay of the
    remainder, so a 7-cycle budget at 1 kHz reproduces a 7 ms round trip.
    """

    def __init__(self, plant, period, latency_cycles=0, noise=None, seed=0):
        self.plant = plant
        self.period = period
        if latency_cycles < 0:
            raise PlantError("latency_cycles must be >= 0")
        self.command_delay = latency_cycles // 2
        self.sense_delay = latency_cycles - self.command_delay
        self.noise = noise or NoiseSpec()
        self._rng = np.random.default_rng(seed)
        hold = np.zeros(plant.n_joints)
        self._command_queue = deque([hold.copy() for _ in range(self.command_delay)],
                                    maxlen=self.command_delay + 1)
        self._state_queue = deque(maxlen=self.sense_delay + 1)
        self._state_queue.append(plant.state())
        self._last_effort = hold

    def read(self):
        return self.noise.applied(self._state_queue[0], self._rng)

    def write(self, command):
        if self.command_delay:
            self._command_queue.append(command.effort.copy())
            applied = self._command_queue.popleft()
        else:
            applied = command.effort
        self._last_effort = applied
        state = self.plant.step(applied, self.period)
        state.effort[:] = applied
        self._state_queue.append(state)
        while len(self._state_queue) > self.sense_delay + 1:
            self._state_queue.popleft()


class FreerunSimInterface(RobotInterface):
    """Plant running in its own thread with a bounded command mailbox; the
    servo side never blocks on it."""

    def __init__(self, plant, plant_period, noise=None, seed=0):
        self.plant = plant
        self.period = plant_period
        self.noise = noise or NoiseSpec()
        self._rng = np.random.default_rng(seed)
        self._command = plant.state().effort.copy()
        self._command_lock = threading.Lock()
        self._state = plant.state()
        self._state_lock = threading.Lock()
        self._last_read = self._state.copy()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="plant")

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def _run(self):
        import time as _time
        while not self._stop.is_set():
            with self._command_lock:
                effort = self._command.copy()
            state = self.plant.step(effort, self.period)
            with self._state_lock:
                self._state = state
            _time.sleep(self.period)

    def read(self):
        if self._state_lock.acquire(blocking=False):
            try:
                self._last_read = self._state.copy()
            finally:
                self._state_lock.release()
        out = self._last_read
        return self.noise.applied(out, self._rng) if self.noise.any() else out

    def write(self, command):
        if self._command_lock.acquire(blocking=False):
            try:
                self._command = command.effort.copy()
            finally:
                self._command_lock.release()
