import time

import numpy as np
import pytest

from wbosc.constraints import (CoactuationConstraint, FlatContactConstraint,
                               PointContactConstraint)
from wbosc.controller import Command
from wbosc.description import RobotDescription
from wbosc.plant import (FreerunSimInterface, LockstepSimInterface, NoiseSpec,
                         PlantError, SimPlant)

DT = 1e-3


def make_plant(descriptions, name, **kwargs):
    return SimPlant(descriptions[name], **kwargs)


def dreamer_plant(descriptions, **kwargs):
    return SimPlant(descriptions["dreamer22"], [
        FlatContactConstraint("baseWeld", "torso_base"),
        CoactuationConstraint("torsoTransmission", "torso_lower_pitch",
                              "torso_upper_pitch", 1.0)], **kwargs)


def test_pend1_gravity_hold(descriptions):
    plant = make_plant(descriptions, "pend1")
    plant.model.update_kinematics(np.zeros(1), np.zeros(1))
    tau = plant.model.G.copy()   # exact holding torque at q = 0
    for _ in range(1000):
        state = plant.step(tau, DT)
    assert abs(state.velocity[0]) < 1e-6
    assert abs(state.position[0]) < 1e-6


def test_zero_torque_zero_gravity_constant_state(descriptions):
    desc = descriptions["planar2"]
    zerog = RobotDescription(desc.name, (0.0, 0.0, 0.0), desc.links, desc.joints)
    plant = SimPlant(zerog)
    plant.set_joint_state([0.3, -0.4])
    for _ in range(200):
        state = plant.step(np.zeros(2), DT)
    assert np.allclose(state.position, [0.3, -0.4], atol=1e-12)
    assert np.abs(state.velocity).max() < 1e-12


def test_kinetic_energy_conservation_rk4(descriptions):
    # a 2 s horizon: energy drift under RK4 grows with it
    desc = descriptions["planar2"]
    zerog = RobotDescription(desc.name, (0.0, 0.0, 0.0), desc.links, desc.joints)
    plant = SimPlant(zerog, integrator="rk4", enforce_limits=False)
    plant.set_joint_state([0.2, -0.1], [1.5, -2.0])
    e0 = plant.kinetic_energy()
    for _ in range(2000):   # 2 s at 1 ms
        plant.step(np.zeros(2), DT)
    e1 = plant.kinetic_energy()
    assert abs(e1 - e0) / e0 < 1e-3


def test_transmission_locks_velocities(descriptions):
    rng = np.random.default_rng(3)
    plant = dreamer_plant(descriptions)
    master = plant.model.ordering.real_joint_names.index("torso_lower_pitch")
    slave = plant.model.ordering.real_joint_names.index("torso_upper_pitch")
    for k in range(500):
        tau = 2.0 * np.sin(0.01 * k) * rng.uniform(0.5, 1.0, 16)
        state = plant.step(tau, DT)
        assert abs(state.velocity[slave] - state.velocity[master]) < 1e-6
        assert abs(state.position[slave] - state.position[master]) < 1e-9


def test_welded_base_never_moves(descriptions):
    rng = np.random.default_rng(5)
    plant = dreamer_plant(descriptions)
    for _ in range(200):
        plant.step(rng.uniform(-5.0, 5.0, 16), DT)
    assert np.abs(plant.q_full()[:6]).max() == 0.0
    assert np.abs(plant.qd_full()[:6]).max() == 0.0


def test_point_contact_enforced_in_simulation(descriptions):
    plant = SimPlant(descriptions["planar2"], [
        PointContactConstraint("tip", "lower", [0.5, 0.0, 0.0])])
    plant.set_joint_state([0.4, -0.8], [0.0, 0.0])
    for k in range(200):
        plant.step(np.array([3.0 * np.sin(0.05 * k), -2.0]), DT)
        J = plant.model.point_jacobian("lower", [0.5, 0.0, 0.0])
        assert np.abs(J @ plant.qd_full()).max() < 1e-8


def test_nonfinite_command_rejected(descriptions):
    plant = make_plant(descriptions, "pend1")
    with pytest.raises(PlantError):
        plant.step(np.array([np.nan]), DT)
    with pytest.raises(PlantError):
        plant.step(np.zeros(3), DT)


def test_position_limit_clamp_flags(descriptions):
    plant = make_plant(descriptions, "pend1")
    for _ in range(3000):
        plant.step(np.array([40.0]), DT)
    assert plant.limit_hits
    assert plant.state().position[0] <= 3.1 + 1e-12


# -- interface ----------------------------------------------------------------

def run_interface(descriptions, latency, n_cycles, efforts):
    # zero gravity so the delayed pipeline's zero-effort preload is a no-op
    # and the injected latency appears as a pure time shift
    desc = descriptions["pend1"]
    zerog = RobotDescription(desc.name, (0.0, 0.0, 0.0), desc.links, desc.joints)
    plant = SimPlant(zerog)
    iface = LockstepSimInterface(plant, DT, latency_cycles=latency)
    reads = []
    for k in range(n_cycles):
        reads.append(iface.read())
        cmd = Command.zeros(1)
        cmd.effort[0] = efforts[k]
        iface.write(cmd)
    return reads


def test_zero_latency_read_matches_plant(descriptions):
    plant = make_plant(descriptions, "pend1")
    iface = LockstepSimInterface(plant, DT)
    cmd = Command.zeros(1)
    cmd.effort[0] = 1.0
    iface.write(cmd)
    read = iface.read()
    assert read.position[0] == plant.state().position[0]
    assert read.velocity[0] == plant.state().velocity[0]


def test_seven_cycle_latency_shifts_trajectory_by_seven(descriptions):
    rng = np.random.default_rng(11)
    efforts = rng.uniform(-2.0, 2.0, 60)
    base = run_interface(descriptions, 0, 60, efforts)
    delayed = run_interface(descriptions, 7, 60, efforts)
    for k in range(10, 60):
        assert delayed[k].position[0] == pytest.approx(
            base[k - 7].position[0], abs=1e-15)
        assert delayed[k].velocity[0] == pytest.approx(
            base[k - 7].velocity[0], abs=1e-15)


@pytest.mark.parametrize("interface", [LockstepSimInterface,
                                       FreerunSimInterface],
                         ids=["lockstep", "freerun"])
@pytest.mark.parametrize("channel", ["position", "velocity"])
def test_sensing_noise_statistics(descriptions, interface, channel):
    plant = make_plant(descriptions, "pend1")
    # the freerun interface's plant thread is never started: read() only
    iface = interface(plant, DT, noise=NoiseSpec(**{channel: 0.001}), seed=42)
    samples = np.array([getattr(iface.read(), channel)[0]
                        for _ in range(10000)])
    assert abs(samples.std() - 0.001) / 0.001 < 0.1
    assert abs(samples.mean()) < 1e-4


def test_freerun_plant_time_follows_wall_time(descriptions):
    # the plant thread steps on absolute deadlines, so plant time keeps up
    # with wall time
    plant = make_plant(descriptions, "pend1")
    iface = FreerunSimInterface(plant, DT)
    start = time.monotonic()
    iface.start()
    try:
        time.sleep(0.5)
    finally:
        iface.stop()
    elapsed = time.monotonic() - start
    assert plant.time >= 0.95 * elapsed, (plant.time, elapsed)
