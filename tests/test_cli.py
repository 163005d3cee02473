import csv
import json
import threading
import time

import pytest
import yaml

from wbosc import fixtures
from wbosc.cli import main


@pytest.mark.parametrize("clock_args", [[], ["--clock", "lockstep"]],
                         ids=["config-clock", "lockstep-clock"])
def test_run_golden_config_writes_logs(tmp_path, clock_args):
    rc = main(["run",
               "--config", str(fixtures.config_path("dreamer22_disassembly")),
               "--robot", str(fixtures.robot_path("dreamer22")),
               "--duration", "1.0",
               "--single-threaded",
               "--log-dir", str(tmp_path)] + clock_args)
    assert rc == 0
    log = tmp_path / "errors_rightHand.csv"
    assert log.exists()
    rows = list(csv.reader(log.open()))
    # 1 s at publish_rate 100 -> about 100 rows, within +10%
    assert 85 <= len(rows) <= 111
    assert all(len(r) == 2 + 3 for r in rows)   # timestamp, topic, 3 values


def test_run_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("tasks:\n  - {name: x, type: TeleportTask}\n")
    rc = main(["run", "--config", str(bad),
               "--robot", str(fixtures.robot_path("pend1"))])
    assert rc == 2


@pytest.mark.parametrize("config, robot, old, new", [
    ("dreamer22_disassembly", "dreamer22",
     "    link: right_hand\n    controlPoint: [0.0, 0.0, -0.08]\n",
     "    link: right_hand\n    controlPoint: [0.0, 0.0, -0.08]\n"
     "    goalPosition: [0.1, 0.2]\n"),
    ("pend1_posture", "pend1", "goalPosition: [0.0]",
     "goalPosition: [0.0, 0.0]"),
], ids=["dreamer22", "pend1"])
def test_run_config_goal_of_wrong_length_exits_2(tmp_path, capsys, config,
                                                  robot, old, new):
    bad = tmp_path / "bad.yaml"
    bad.write_text(fixtures.read_config(config).replace(old, new))
    rc = main(["run", "--config", str(bad),
               "--robot", str(fixtures.robot_path(robot)),
               "--duration", "0.01", "--single-threaded",
               "--log-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: task ")


@pytest.mark.parametrize("old, new", [
    ("link: torso_base", "link: torso_bse"),
    ("masterJoint: torso_lower_pitch", "masterJoint: torso_upper_pitch"),
], ids=["unknown-link", "master-is-slave"])
def test_run_bad_constraint_exits_2(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.yaml"
    bad.write_text(fixtures.read_config("dreamer22_disassembly")
                   .replace(old, new))
    rc = main(["run", "--config", str(bad),
               "--robot", str(fixtures.robot_path("dreamer22")),
               "--duration", "0.01", "--single-threaded",
               "--log-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: constraint ")


def test_run_invalid_robot_exits_2(tmp_path):
    bad = tmp_path / "bad_robot.yaml"
    bad.write_text("links:\n  - {name: a, mass: -1.0}\n")
    rc = main(["run", "--config", str(fixtures.config_path("pend1_posture")),
               "--robot", str(bad)])
    assert rc == 2


def test_traj_tracks_and_reports(tmp_path, capsys):
    # short custom trajectory against the pendulum posture goal
    traj = tmp_path / "traj.yaml"
    traj.write_text(yaml.safe_dump([
        {"parameter": "posture.goalPosition",
         "waypoints": [{"t": 0.0, "value": [0.0]},
                       {"t": 1.2, "value": [0.3]},
                       {"t": 2.4, "value": [0.0]}]},
    ]))
    rc = main(["traj",
               "--config", str(fixtures.config_path("pend1_posture")),
               "--robot", str(fixtures.robot_path("pend1")),
               "--trajectory", str(traj),
               "--settle", "3.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "posture" in out
    terminal = float(out.strip().splitlines()[-1].split()[-1])
    assert terminal < 1e-3


def test_traj_dimension_mismatch(tmp_path):
    traj = tmp_path / "traj.yaml"
    traj.write_text(yaml.safe_dump([
        {"parameter": "posture.goalPosition",
         "waypoints": [{"t": 0.0, "value": [0.0, 1.0]},
                       {"t": 1.0, "value": [1.0, 0.0]}]},
    ]))
    rc = main(["traj",
               "--config", str(fixtures.config_path("pend1_posture")),
               "--robot", str(fixtures.robot_path("pend1")),
               "--trajectory", str(traj)])
    assert rc == 2


def test_traj_empty_file(tmp_path):
    traj = tmp_path / "traj.yaml"
    traj.write_text("[]\n")
    rc = main(["traj",
               "--config", str(fixtures.config_path("pend1_posture")),
               "--robot", str(fixtures.robot_path("pend1")),
               "--trajectory", str(traj)])
    assert rc == 2


def test_bench_report_shape(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc = main(["bench", "--robot", str(fixtures.robot_path("dreamer22")),
               "--cycles", "20", "--csv", str(out_csv)])
    assert rc == 0
    rows = list(csv.reader(out_csv.open()))
    assert len(rows) == 13                  # header + 12 cells
    assert all(len(r) == 7 for r in rows)   # cell + 5 phases + total
    labels = {r[0] for r in rows[1:]}
    assert "5-level/3d/single" in labels


def test_introspect_and_send_over_udp(capsys):
    from wbosc.assembly import build_from_files
    ctl = build_from_files(fixtures.config_path("dreamer22_disassembly"),
                           fixtures.robot_path("dreamer22"),
                           single_threaded=True, udp_port=0)
    stop = threading.Event()

    def spin():
        ctl.start()
        while not stop.is_set():
            ctl.runtime.servo_update()
            ctl.clock.tick()
            time.sleep(0.001)

    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    try:
        time.sleep(0.1)
        peer = f"127.0.0.1:{ctl.udp.port}"
        rc = main(["introspect", "getRealJointIndices", "--udp", peer])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["joints"]) == 16

        rc = main(["send", "rightHandPosition.goalPosition",
                   "[0.3, 0.1, 0.2]", "--udp", peer])
        assert rc == 0
        goal = None
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            rc = main(["introspect", "getTaskParameters", "--udp", peer])
            assert rc == 0
            params = json.loads(capsys.readouterr().out)
            by_name = {t["name"]: t for t in params["tasks"]}
            goal = by_name["rightHandPosition"]["parameters"]["goalPosition"]
            if goal == [0.3, 0.1, 0.2]:
                break
            time.sleep(0.02)
        assert goal == [0.3, 0.1, 0.2]

        rc = main(["introspect", "getSecrets", "--udp", peer])
        out = json.loads(capsys.readouterr().out)
        assert rc != 0 and "error" in out
    finally:
        stop.set()
        thread.join(timeout=2.0)
        ctl.close()


def test_send_to_unbound_topic_is_harmless():
    from wbosc.assembly import build_from_files
    ctl = build_from_files(fixtures.config_path("pend1_posture"),
                           fixtures.robot_path("pend1"),
                           single_threaded=True, udp_port=0)
    try:
        ctl.start()
        rc = main(["send", "nowhere/topic", "1.5",
                   "--udp", f"127.0.0.1:{ctl.udp.port}"])
        assert rc == 0
        ctl.run(cycles=2)   # nothing staged, nothing breaks
    finally:
        ctl.close()


def test_introspect_timeout():
    rc = main(["introspect", "getRealJointIndices", "--udp", "127.0.0.1:9",
               "--timeout", "0.2"])
    assert rc == 1
