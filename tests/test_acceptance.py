"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; tolerances are fixed here, not calibrated elsewhere.
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from conftest import FIXTURE_ROBOTS, random_configuration
from test_controller import count_calls, reference_ladder
from test_model import planar2_closed_form
from test_tasks import build_disassembly_compound, update_all
from wbosc import fixtures
from wbosc.assembly import build_from_files
from wbosc.config import ConfigError, load_config, serialize_config
from wbosc.constraints import (CoactuationConstraint, ConstraintSet,
                               FlatContactConstraint)
from wbosc.controller import Wbosc
from wbosc.description import load_description, load_description_file
from wbosc.model import RobotModel, RobotState


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def fresh_model(name):
    model = RobotModel(load_description(fixtures.read_robot(name)))
    model.update_kinematics(np.zeros(model.n_dofs), np.zeros(model.n_dofs))
    return model


def dreamer_constraints():
    return ConstraintSet([
        FlatContactConstraint("baseWeld", "torso_base"),
        CoactuationConstraint("torsoTransmission", "torso_lower_pitch",
                              "torso_upper_pitch", 1.0),
    ])


# -- 1: dynamics oracle -------------------------------------------------------------

def test_criterion_01_dynamics_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_column = 0.0
    for name in FIXTURE_ROBOTS:
        model = fresh_model(name)
        for _ in range(100):
            q, qd = random_configuration(model, rng)
            model.update_kinematics(q, qd)
            A = model.A.copy()
            for j in range(model.n_dofs):
                e = np.zeros(model.n_dofs)
                e[j] = 1.0
                col = model.inverse_dynamics(e, qd=None, gravity=False)
                worst_column = max(worst_column, np.abs(col - A[:, j]).max())
    worst_closed_form = 0.0
    model = fresh_model("planar2")
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        model.update_kinematics(q, qd)
        A_ref, B_ref, G_ref = planar2_closed_form(q, qd)
        worst_closed_form = max(
            worst_closed_form,
            np.abs(model.A - A_ref).max(),
            np.abs(model.B - B_ref).max(),
            np.abs(model.G - G_ref).max())
    elapsed = time.perf_counter() - started
    ok = worst_column < 1e-10 and worst_closed_form < 1e-9 and elapsed < 10.0
    assert report(1, ok,
                  f"mass-matrix columns vs inverse dynamics {worst_column:.2e} "
                  f"(<1e-10), closed form {worst_closed_form:.2e} (<1e-9), "
                  f"runtime {elapsed:.1f}s (<10s)")


# -- 2: jacobian suite ----------------------------------------------------------------

def fd_map(model, q, value_fn, h=1e-6):
    qd = np.zeros(model.n_dofs)
    cols = []
    for j in range(model.n_dofs):
        qp = q.copy()
        qp[j] += h
        model.update_kinematics(qp, qd)
        fp = np.array(value_fn(model), dtype=float)
        qm = q.copy()
        qm[j] -= h
        model.update_kinematics(qm, qd)
        fm = np.array(value_fn(model), dtype=float)
        cols.append((fp - fm) / (2 * h))
    model.update_kinematics(q, qd)
    return np.column_stack(cols)


def rel_err(J, J_fd):
    return np.abs(J - J_fd).max() / max(1.0, np.abs(J_fd).max())


def test_criterion_02_jacobian_suite():
    from conftest import fd_angular_jacobian
    rng = np.random.default_rng(202)
    worst = 0.0
    cases = {
        "pend1": ("arm", np.array([1.0, 0.0, 0.0])),
        "planar2": ("lower", np.array([0.5, 0.0, 0.0])),
        "dreamer22": ("right_hand", np.array([0.0, 0.0, -0.08])),
    }
    for name in FIXTURE_ROBOTS:
        model = fresh_model(name)
        link, point = cases[name]
        from wbosc.tasks import Orientation2DTask, PIDGains
        ori2d = Orientation2DTask("t2", model, PIDGains(2, kp=1.0), link=link,
                                  body_vector=[0, 0, 1], goal_vector=[1, 0, 0])
        for _ in range(50):
            q, _ = random_configuration(model, rng, scale=0.7)
            model.update_kinematics(q, np.zeros(model.n_dofs))
            # point jacobian (cartesian task / point contact rows)
            J = model.point_jacobian(link, point).copy()
            J_fd = fd_map(model, q, lambda m: m.link_transform(link)[:3, :3]
                          @ point + m.link_transform(link)[:3, 3])
            worst = max(worst, rel_err(J, J_fd))
            # spatial jacobian (flat contact rows / 3d orientation rows)
            J6 = model.spatial_jacobian(link).copy()
            J_fd = fd_map(model, q, lambda m: m.link_transform(link)[:3, 3])
            worst = max(worst, rel_err(J6[3:], J_fd))
            J_fd = fd_angular_jacobian(model, q, link)
            worst = max(worst, rel_err(J6[:3], J_fd))
            # com task jacobian
            _, Jc = model.com()
            Jc = Jc.copy()
            J_fd = fd_map(model, q, lambda m: m.com()[0])
            worst = max(worst, rel_err(Jc, J_fd))
            # 2d orientation task rows against the frozen-plane heading map
            ori2d.update(model)
            B = ori2d.plane_basis(ori2d.heading(model))
            J2 = ori2d.active_state.jacobian.copy()
            J_fd = fd_map(model, q, lambda m: B @ ori2d.heading(m))
            worst = max(worst, rel_err(J2, J_fd))
            # coactuation row: finite difference of q_slave - ratio*q_master
            if name == "dreamer22":
                row = CoactuationConstraint("t", "torso_lower_pitch",
                                            "torso_upper_pitch",
                                            1.0).jacobian(model)
                slave = model.joint_dof_index("torso_upper_pitch")
                master = model.joint_dof_index("torso_lower_pitch")
                J_fd = fd_map(model, q,
                              lambda m: [m.q_full[slave] - m.q_full[master]])
                worst = max(worst, rel_err(row, J_fd))
    ok = worst < 1e-5
    assert report(2, ok, f"worst jacobian FD relative error {worst:.2e} (<1e-5)")


# -- 3: projector algebra --------------------------------------------------------------

def test_criterion_03_projector_algebra():
    rng = np.random.default_rng(303)
    model = fresh_model("dreamer22")
    cset = dreamer_constraints()
    U = model.underactuation_matrix()
    worst = {"idem": 0.0, "annihilate": 0.0, "pinv": 0.0, "lstar": 0.0}
    for _ in range(100):
        q, qd = random_configuration(model, rng)
        model.update_kinematics(q, qd)
        cset.update(model)
        Nc, Jc = cset.N_c, cset.J_c
        worst["idem"] = max(worst["idem"], np.abs(Nc @ Nc - Nc).max())
        worst["annihilate"] = max(worst["annihilate"], np.abs(Jc @ Nc).max())
        UNc = U @ Nc
        worst["pinv"] = max(
            worst["pinv"],
            np.abs(UNc @ cset.UNcBar @ UNc - UNc).max())
        Ainv = np.linalg.inv(model.A)
        Jbar = Ainv @ Jc.T @ np.linalg.pinv(Jc @ Ainv @ Jc.T)
        worst["pinv"] = max(worst["pinv"], np.abs(Jc @ Jbar @ Jc - Jc).max())
        worst["lstar"] = max(worst["lstar"], np.abs(cset.Lstar @ UNc).max())
    ok = (worst["idem"] < 1e-9 and worst["annihilate"] < 1e-8
          and worst["pinv"] < 1e-8 and worst["lstar"] < 1e-8)
    assert report(3, ok,
                  f"N_c idempotence {worst['idem']:.2e} (<1e-9), J_c N_c "
                  f"{worst['annihilate']:.2e} (<1e-8), X Xbar X {worst['pinv']:.2e} "
                  f"(<1e-8), Lstar UN_c {worst['lstar']:.2e} (<1e-8)")


# -- 4: priority non-interference ----------------------------------------------------

LEVEL_LAYOUTS = {
    2: {"rightHandPosition": 0, "leftHandPosition": 0,
        "rightHandOrientation": 0, "leftHandOrientation": 0, "posture": 1},
    3: {"rightHandPosition": 0, "leftHandPosition": 0,
        "rightHandOrientation": 1, "leftHandOrientation": 1, "posture": 2},
    5: {"rightHandPosition": 0, "leftHandPosition": 1,
        "rightHandOrientation": 2, "leftHandOrientation": 3, "posture": 4},
}


def test_criterion_04_priority_non_interference():
    rng = np.random.default_rng(404)
    model = fresh_model("dreamer22")
    cset = dreamer_constraints()
    worst_coupling = 0.0
    for n_levels in (2, 3, 5):
        for orientation in ("2d", "3d"):
            q, _ = random_configuration(model, rng, scale=0.5)
            model.update_kinematics(q, np.zeros(22))
            cset.update(model)
            compound = build_disassembly_compound(model, orientation)
            for task_name, prio in LEVEL_LAYOUTS[n_levels].items():
                compound.set_priority(task_name, prio)
            update_all(compound, model)
            wbc = Wbosc(22, 16)
            state = RobotState(0.0, model.q_actual().copy(),
                               model.qd_actual().copy(), np.zeros(16))
            wbc.compute(model, cset, compound, state)
            Phi = cset.Phi
            ladder = wbc.last_ladder
            assert len(ladder) == n_levels
            for j in range(len(ladder)):
                for k in range(j + 1, len(ladder)):
                    coupling = np.abs(
                        ladder[j][1] @ Phi @ ladder[k][1].T).max()
                    worst_coupling = max(worst_coupling, coupling)

    # single-level ladder equals the direct closed form
    model2 = fresh_model("planar2")
    from wbosc.tasks import CartesianPositionTask, CompoundTask, PIDGains
    worst_direct = 0.0
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, 2)
        qd = rng.uniform(-1.0, 1.0, 2)
        model2.update_kinematics(q, qd)
        cset2 = ConstraintSet().update(model2)
        compound = CompoundTask()
        cart = CartesianPositionTask("tip", model2, PIDGains(3, kp=64.0, kd=3.0),
                                     link="lower", control_point=[0.5, 0, 0])
        cart.goals["goalPosition"] = cart.current_position(model2) \
            + rng.uniform(-0.1, 0.1, 3)
        compound.add(cart, 0)
        update_all(compound, model2)
        state = RobotState(0.0, model2.q_actual().copy(),
                           model2.qd_actual().copy(), np.zeros(2))
        cmd = Wbosc(2, 2).compute(model2, cset2, compound, state)
        ts = cart.active_state
        Ainv = np.linalg.inv(model2.A)
        UNc = model2.underactuation_matrix() @ cset2.N_c
        UNcBar = Ainv @ UNc.T @ np.linalg.pinv(UNc @ Ainv @ UNc.T)
        Phi = UNc @ Ainv @ UNc.T
        J_star = ts.jacobian @ UNcBar
        tau_ref = (J_star.T @ np.linalg.pinv(J_star @ Phi @ J_star.T)
                   @ ts.command + UNcBar.T @ (model2.B + model2.G))
        worst_direct = max(worst_direct, np.abs(cmd.effort - tau_ref).max())
    ok = worst_coupling < 1e-8 and worst_direct < 1e-10
    assert report(4, ok,
                  f"cross-level coupling {worst_coupling:.2e} (<1e-8), "
                  f"single-level vs direct {worst_direct:.2e} (<1e-10)")


# -- 5: gravity hold ---------------------------------------------------------------------

def run_gravity_hold(config, robot, seconds=5.0):
    ctl = build_from_files(fixtures.config_path(config),
                           fixtures.robot_path(robot), single_threaded=True)
    worst_speed = 0.0
    with ctl:
        ctl.start()
        cycles = int(seconds * ctl.spec.framework.servo_frequency)
        for _ in range(cycles):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            state = ctl.interface.read()
            worst_speed = max(worst_speed, float(np.abs(state.velocity).max()))
    return worst_speed


def test_criterion_05_gravity_hold():
    pend = run_gravity_hold("pend1_posture", "pend1")
    dreamer = run_gravity_hold("dreamer22_posture", "dreamer22")
    ok = pend < 1e-3 and dreamer < 1e-3
    assert report(5, ok,
                  f"max joint speed over 5 s: pend1 {pend:.2e}, dreamer22 "
                  f"{dreamer:.2e} (<1e-3 rad/s)")


# -- 6 + 7: closed-loop tracking and transmission lock -------------------------------------

def run_tracking(latency_cycles):
    ctl = build_from_files(fixtures.config_path("dreamer22_disassembly"),
                           fixtures.robot_path("dreamer22"),
                           single_threaded=True,
                           latency_cycles=latency_cycles)
    with ctl:
        ctl.start()
        ctl.run(cycles=300)
        goal = ctl.registry.require("rightHandPosition.goalPosition").value \
            + np.array([0.0, 0.0, 0.10])
        ctl.bus.publish("goals/rightHand", goal)
        names = ctl.servo_model.model.ordering.real_joint_names
        slave = names.index("torso_upper_pitch")
        master = names.index("torso_lower_pitch")
        worst_slip = 0.0
        for _ in range(4500):
            ctl.runtime.servo_update()
            ctl.clock.tick()
            state = ctl.interface.read()
            worst_slip = max(worst_slip, abs(state.velocity[slave]
                                             - state.velocity[master]))
        task = ctl.tasks["rightHandPosition"]
        terminal = float(np.linalg.norm(task.active_state.error))
    return terminal, worst_slip


def test_criterion_06_closed_loop_tracking():
    terminal_0, slip_0 = run_tracking(0)
    terminal_7, slip_7 = run_tracking(7)
    ok = terminal_0 < 1e-3 and terminal_7 < 1e-2
    assert report(6, ok,
                  f"terminal Cartesian error {terminal_0:.2e} m at zero "
                  f"latency (<1e-3), {terminal_7:.2e} m with 7-cycle latency "
                  f"(<1e-2)")
    test_criterion_06_closed_loop_tracking.slips = (slip_0, slip_7)


def test_criterion_07_transmission_lock():
    slips = getattr(test_criterion_06_closed_loop_tracking, "slips", None)
    if slips is None:
        _, slip = run_tracking(0)
        slips = (slip,)
    worst = max(slips)
    ok = worst < 1e-6
    assert report(7, ok,
                  f"|qd_slave - qd_master| stayed below {worst:.2e} (<1e-6) "
                  f"through the closed-loop runs")


# -- 8: concurrency --------------------------------------------------------------------

def test_criterion_08_concurrency(monkeypatch):
    from test_servo import (EPOCH_BUILDS, FrozenInterface, ModelIO,
                            build_pend, build_dreamer, delayed,
                            mixed_epoch_cycles,
                            run_two_stagings_before_a_round)
    # deterministic interleaving: while a request is in flight no other is
    # sent, and the swap sees no gap in the reply sequence
    with monkeypatch.context() as patch:
        refused, lost, step = run_two_stagings_before_a_round(patch)
    waiting_ok = refused and lost == 0 and step == 1

    # every command from a model copy and task states of one epoch
    mixed = {}
    for robot, build in EPOCH_BUILDS.items():
        with build() as ctl:
            ctl.start()
            mixed[robot] = mixed_epoch_cycles(ctl, 2000)

    # randomized scheduling stress; every call through which the servo
    # thread could wait on the model process is recorded (see ModelIO)
    rng = np.random.default_rng(808)
    iface = FrozenInterface(1)
    ctl = build_pend(interface=iface,
                     hooks=delayed(lambda: float(rng.uniform(0.0, 0.002))))
    with ctl, monkeypatch.context() as patch:
        ctl.start()
        io = ModelIO(patch, ctl.runtime)
        first = ctl.runtime.active.seq
        for _ in range(100_000):
            ctl.runtime.servo_update()
            ctl.clock.tick()
        waits = io.waits()
        reads = io.count("read")
        blocking = ctl.runtime.stats.servo_blocking_acquires
        lost_stress = ctl.runtime.stats.lost_task_updates
        # every swap installed the next reply: none skipped, none twice
        replies_ok = ctl.runtime.active.seq \
            == first + ctl.runtime.stats.model_swaps

    # frozen-state multi/single command equivalence
    import time as _time
    commands = {}
    posture = [0.08, 0.08, -0.3, -0.15, 0.0, -1.3, 0, 0, 0,
               -0.3, 0.15, 0.0, -1.3, 0, 0, 0]
    for mode in (True, False):
        iface = FrozenInterface(16, position=posture)
        ctl = build_dreamer(config="dreamer22_disassembly", interface=iface,
                            single_threaded=mode)
        with ctl:
            ctl.start()
            for _ in range(50):
                ctl.runtime.servo_update()
                ctl.clock.tick()
                if not mode:
                    _time.sleep(0.001)
            commands[mode] = iface.last_effort
    equivalence = float(np.abs(commands[True] - commands[False]).max())

    ok = (waiting_ok and not any(mixed.values()) and not waits and reads
          and blocking == 0 and lost_stress == 0 and replies_ok
          and equivalence < 1e-12)
    assert report(8, ok,
                  f"in-flight request {'kept' if waiting_ok else 'DOUBLED'}, "
                  f"mixed-epoch commands in 2000 cycles {mixed}, "
                  f"stress 1e5 cycles: {len(waits)} calls that could wait "
                  f"{waits[:3]} ({reads} reads, each after a ready "
                  f"zero-timeout poll), {blocking} blocking acquires, "
                  f"{lost_stress} lost updates, reply sequence "
                  f"{'whole' if replies_ok else 'BROKEN'}, multi/single "
                  f"equivalence {equivalence:.2e} (<1e-12)")


# -- 9: benchmark trends ----------------------------------------------------------------

# The level clause counts work instead of timing it: the Python and C calls
# the servo thread makes in the compute phase (goal halves, effort, limits)
# of a cycle that recomputes the effort, in the same bench cells, 5 levels
# against 2.  Timed medians measured noise: multi-threaded, the effort is
# recomputed on 1-2% of cycles, so the medians were the reused effort's
# (11-18 us against a 3-4 us margin); single-threaded, identical cells
# differed by up to 20%.  The counts are exact: identical cells, and every
# recomputing cycle of a cell, give the same count, and the ladder's count
# does not depend on the level count.  The per-level ladder
# (``reference_ladder``) makes 1.9 times the calls at 5 levels.  The
# margins stay those set when the clause timed CPU.
LEVEL_MARGIN = {"single": 0.10, "multi": 0.25}
COUNTED_CYCLES = 3


def compute_phase_calls(description, levels, orientation, mode):
    """Calls in the compute phase of each of COUNTED_CYCLES cycles that
    recompute the effort, in a bench cell after its warm-up.  Multi-threaded,
    each cycle first waits for the model reply, so its check copies it in."""
    from wbosc.bench import WARMUP, build_cell
    counts = []
    with build_cell(description, levels, orientation, mode,
                    history=WARMUP + COUNTED_CYCLES) as ctl:
        ctl.start()
        ctl.run(cycles=WARMUP)
        runtime = ctl.runtime
        spent = []
        for name in ("_update_goals", "_compute_command"):
            def counted(*args, _method=getattr(runtime, name)):
                out = []
                spent.append(count_calls(lambda: out.append(_method(*args))))
                return out[0]

            setattr(runtime, name, counted)
        for _ in range(COUNTED_CYCLES):
            runtime.wait_idle()
            del spent[:]
            version = runtime.wbc.effort_version
            runtime.servo_update()
            ctl.clock.tick()
            assert runtime.wbc.effort_version == version + 1
            counts.append(sum(spent))
    return counts


def level_call_ratios():
    """{(orientation, mode): 5-level over 2-level compute-phase calls}, and
    the counts."""
    description = load_description_file(fixtures.robot_path("dreamer22"))
    calls = {(lv, ori, mode): float(np.median(
                 compute_phase_calls(description, lv, ori, mode)))
             for lv in (2, 5) for ori in ("2d", "3d")
             for mode in ("multi", "single")}
    return {(ori, mode): calls[(5, ori, mode)] / calls[(2, ori, mode)]
            for ori in ("2d", "3d") for mode in ("multi", "single")}, calls


def levels_within_margin(ratios):
    return all(r <= 1.0 + LEVEL_MARGIN[mode] for (_, mode), r in ratios.items())


def test_criterion_09_benchmark_trends():
    from wbosc.bench import format_table, run_matrix
    started = time.perf_counter()
    cells = run_matrix(fixtures.robot_path("dreamer22"), cycles=1000)
    elapsed = time.perf_counter() - started
    print(format_table(cells))
    by = {(c.levels, c.orientation, c.threading): c for c in cells}

    def median(levels, orientation, mode, phase):
        return by[(levels, orientation, mode)].phases[phase][0]

    layouts = [(lv, ori) for lv in (2, 3, 5) for ori in ("2d", "3d")]
    multi_beats_single = all(
        median(lv, ori, "multi", "total") < median(lv, ori, "single", "total")
        for lv, ori in layouts)
    model_saving_dominant = all(
        (median(lv, ori, "single", "update_model")
         - median(lv, ori, "multi", "update_model"))
        > 0.5 * (median(lv, ori, "single", "total")
                 - median(lv, ori, "multi", "total"))
        for lv, ori in layouts)
    ratios, calls = level_call_ratios()
    levels_ok = levels_within_margin(ratios)

    measured = ", ".join(
        f"{ori}/{mode} {calls[(5, ori, mode)]:.0f}/"
        f"{calls[(2, ori, mode)]:.0f} = {r:.3f} "
        f"(<={1.0 + LEVEL_MARGIN[mode]:.2f}; CPU medians "
        f"{median(5, ori, mode, 'compute_command_cpu') * 1e3:.3f}/"
        f"{median(2, ori, mode, 'compute_command_cpu') * 1e3:.3f} ms)"
        for (ori, mode), r in ratios.items())
    reference = median(2, "2d", "multi", "total") * 1e3
    detail = (f"multi<single {multi_beats_single}, model-update saving "
              f"dominant {model_saving_dominant}, 5-level/2-level calls in "
              f"the compute phase of a recomputing cycle {measured}; "
              f"2-level/2d/multi total {reference:.3f} ms (reported, not "
              f"asserted), runtime {elapsed:.0f}s (<120s)")
    ok = multi_beats_single and model_saving_dominant and levels_ok \
        and elapsed < 120.0
    assert report(9, ok, detail), (
        "5-level/2-level compute-phase calls: "
        + ", ".join(f"{ori}/{mode} {r:.3f}" for (ori, mode), r in ratios.items())
        + f"; allowed up to 1 + {LEVEL_MARGIN} by threading mode")


def test_criterion_09_level_clause_rejects_a_per_level_ladder(monkeypatch):
    def per_level_effort(self, model, constraint_set, compound, _):
        return reference_ladder(model, constraint_set, compound)[0]

    monkeypatch.setattr(Wbosc, "_effort", per_level_effort)
    ratios, _ = level_call_ratios()
    assert not any(levels_within_margin({key: r})
                   for key, r in ratios.items()), ratios


# -- 10: events and bindings ---------------------------------------------------------------

def test_criterion_10_events_bindings():
    from wbosc.params import ParameterKind, ParameterRegistry
    from wbosc.transports import (BindingConfig, BindingManager,
                                  IntraBindingFactory, IntraBus, UdpTransport,
                                  encode_message, decode_message, KIND_PUBLISH)
    # fire-once semantics
    reg = ParameterRegistry()
    p = reg.declare("t", "x", ParameterKind.SCALAR, 0.0)
    reg.add_event("e", "t.x > 0.5")
    p.set(1.0)
    hold_fires = sum(len(reg.emit_events()) for _ in range(100))
    flap_fires = 0
    for value in (0.0, 1.0, 0.0, 1.0):
        p.set(value)
        flap_fires += len(reg.emit_events())
    events_ok = hold_fires == 1 and flap_fires == 2

    # udp round trip, bit-exact
    value = np.array([np.pi, -0.0, 1e-300, 3.0 / 7.0])
    server = UdpTransport()
    client = UdpTransport(default_peer=("127.0.0.1", server.port))
    received = []
    server.register_input("roundtrip", received.append)
    client.send_publish("roundtrip", value)
    deadline = time.monotonic() + 2.0
    while not received and time.monotonic() < deadline:
        time.sleep(0.002)
    client.close()
    server.close()
    udp_ok = bool(received) and received[0].tobytes() == value.tobytes()
    wire_ok = decode_message(encode_message(KIND_PUBLISH, "x", value))[2] \
        .tobytes() == value.tobytes()

    # latched delivery to a late subscriber
    reg2 = ParameterRegistry()
    gain = reg2.declare("t", "gain", ParameterKind.SCALAR, 2.5)
    bus = IntraBus()
    manager = BindingManager()
    manager.register_factory(IntraBindingFactory(bus, publisher=None))
    manager.bind(reg2, BindingConfig("t.gain", "output", "intra", "g",
                                     {"latched": True}))
    late = []
    bus.subscribe("g", late.append)
    latched_ok = late == [2.5]

    # rate limiting within +10%
    clock = {"t": 0.0}
    manager2 = BindingManager()
    manager2.register_factory(
        IntraBindingFactory(bus, publisher=None, clock=lambda: clock["t"]))
    reg3 = ParameterRegistry()
    fast = reg3.declare("t", "fast", ParameterKind.SCALAR, 0.0)
    manager2.bind(reg3, BindingConfig("t.fast", "output", "intra", "f",
                                      {"publish_rate": 10.0}))
    seen = []
    bus.subscribe("f", seen.append)
    for k in range(1000):
        clock["t"] = k * 0.001
        fast.set(float(k))
    rate_ok = len(seen) <= 11

    ok = events_ok and udp_ok and wire_ok and latched_ok and rate_ok
    assert report(10, ok,
                  f"fire-once hold={hold_fires} flaps={flap_fires}, udp "
                  f"bit-exact {udp_ok}, latched {latched_ok}, rate-limited "
                  f"publishes {len(seen)} (<=11)")


# -- 11: configuration ------------------------------------------------------------------

def test_criterion_11_configuration():
    golden_ok = True
    for name in ("dreamer22_disassembly", "dreamer22_posture", "pend1_posture"):
        spec = load_config(fixtures.read_config(name))
        golden_ok &= spec.warnings == []
        text = serialize_config(spec)
        again = load_config(text)
        golden_ok &= serialize_config(again) == text

    minimal = """
tasks:
  - {name: posture, type: JointPositionTask, goalPosition: [0.0]}
compound_task:
  - {name: posture, priority: 0, operational_state: enable}
"""
    mutations = {
        "parse error": "tasks:\n  - {name: [broken\n",
        "dangling reference": minimal
        + "  - {name: ghost, priority: 1, operational_state: enable}\n",
        "empty compound": "tasks:\n  - {name: p, type: JointPositionTask}\n",
        "unknown task type": minimal.replace("JointPositionTask", "WarpTask"),
        "unknown constraint type": minimal
        + "constraints:\n  - {name: c, type: GlueConstraint}\n",
        "unknown transport": minimal
        + ("bindings:\n  - {parameter: posture.error, direction: output, "
           "topic: t, transport_type: telepathy}\n"),
        "bad expression": minimal
        + 'events:\n  - {name: e, expression: "a && (b"}\n',
        "unknown key": minimal + "mystery: 1\n",
        "bad operational_state": minimal.replace("enable", "perhaps"),
        "negative priority": minimal.replace("priority: 0", "priority: -2"),
    }
    failures = []
    for label, text in mutations.items():
        try:
            load_config(text)
            failures.append(label)
        except ConfigError:
            pass
    ok = golden_ok and not failures
    assert report(11, ok,
                  f"golden configs load + fixpoint {golden_ok}, mutation "
                  f"classes all rejected (missed: {failures or 'none'})")


# -- 12: no allocation in the servo path ------------------------------------------------------

def test_criterion_12_no_allocation_in_servo_path():
    tracemalloc.start(5)
    try:
        ctl = build_from_files(fixtures.config_path("pend1_posture"),
                               fixtures.robot_path("pend1"),
                               single_threaded=True)
        with ctl:
            ctl.start()
            # two-stage warmup: interpreter caches and traced-object pools
            # settle during the first window, the second is measured
            ctl.run(cycles=1500)
            gc.collect()
            ctl.run(cycles=5000)
            # both snapshots see the publisher drained, so its backlog of
            # queued diagnostics is not counted as retained memory
            ctl.flush()
            gc.collect()
            before = tracemalloc.take_snapshot()
            ctl.run(cycles=10_000)
            ctl.flush()
            gc.collect()
            after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    flt = tracemalloc.Filter(True, "*/wbosc/*")
    diff = after.filter_traces([flt]).compare_to(
        before.filter_traces([flt]), "lineno")
    net_bytes = sum(d.size_diff for d in diff)
    net_blocks = sum(d.count_diff for d in diff)
    # CPython cannot execute without transient allocation; the property
    # asserted is zero *retained* growth across the window (small jitter
    # allowance for interpreter-internal dict resizes)
    ok = abs(net_blocks) <= 16 and abs(net_bytes) <= 4096
    assert report(12, ok,
                  f"net retained allocation over 10^4 cycles: {net_bytes} B "
                  f"in {net_blocks} blocks (|blocks|<=16, |bytes|<=4096)")
