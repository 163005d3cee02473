import multiprocessing
import time

import numpy as np
import pytest

import wbosc.controller as controller_module
from wbosc import fixtures
from wbosc.description import load_description
from wbosc.model import RobotModel

FIXTURE_ROBOTS = ("pend1", "planar2", "dreamer22")


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fails a test that leaves a child process (a model process) running;
    the children it left are ended first, so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child processes left running: {left}")


@pytest.fixture(scope="session")
def descriptions():
    return {name: load_description(fixtures.read_robot(name))
            for name in FIXTURE_ROBOTS}


@pytest.fixture
def make_model(descriptions):
    def _make(name, q=None, qd=None):
        model = RobotModel(descriptions[name])
        n = model.n_dofs
        q = np.zeros(n) if q is None else np.asarray(q, dtype=float)
        qd = np.zeros(n) if qd is None else np.asarray(qd, dtype=float)
        model.update_kinematics(q, qd)
        return model
    return _make


@pytest.fixture
def ladder_calls(monkeypatch):
    """Records every call of the module-level ladder_forces."""
    calls = []
    original = controller_module.ladder_forces

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(controller_module, "ladder_forces", counting)
    return calls


def random_configuration(model, rng, scale=1.0):
    """Random generalized state; virtual DOFs stay at identity pose so that
    welded-base assumptions hold across fixtures."""
    q = rng.uniform(-scale, scale, model.n_dofs)
    qd = rng.uniform(-scale, scale, model.n_dofs)
    q[:len(model.ordering.virtual_indices)] = 0.0
    return q, qd


def fd_jacobian(model, q, task_value, h=1e-6):
    """Central finite differences of an arbitrary map q_full -> R^m.

    Independent of the analytic Jacobian paths: it only drives
    update_kinematics and the supplied value function.
    """
    qd = np.zeros(model.n_dofs)
    cols = []
    for j in range(model.n_dofs):
        qp = q.copy()
        qp[j] += h
        model.update_kinematics(qp, qd)
        fp = np.array(task_value(model), dtype=float)
        qm = q.copy()
        qm[j] -= h
        model.update_kinematics(qm, qd)
        fm = np.array(task_value(model), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    model.update_kinematics(q, qd)
    return np.column_stack(cols)


def rotation_difference_vector(R_next, R_prev):
    """Small-rotation vector w with R_next ~ (I + skew(w)) R_prev."""
    D = R_next @ R_prev.T
    return 0.5 * np.array([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]])


def fd_angular_jacobian(model, q, link, h=1e-6):
    qd = np.zeros(model.n_dofs)
    model.update_kinematics(q, qd)
    cols = []
    for j in range(model.n_dofs):
        qp = q.copy()
        qp[j] += h
        model.update_kinematics(qp, qd)
        Rp = model.link_transform(link)[:3, :3].copy()
        qm = q.copy()
        qm[j] -= h
        model.update_kinematics(qm, qd)
        Rm = model.link_transform(link)[:3, :3].copy()
        cols.append(rotation_difference_vector(Rp, Rm) / (2.0 * h))
    model.update_kinematics(q, qd)
    return np.column_stack(cols)


def assert_jacobian_close(J, J_fd, rel=1e-5):
    scale = max(1.0, np.abs(J_fd).max())
    assert np.abs(J - J_fd).max() < rel * scale


class StubSocket:
    """Stands in for a transport's socket: records each ``sendto`` address
    and raises ``failures[k]`` instead of the k-th send (counted from 0);
    every other call goes to the real socket."""

    def __init__(self, sock, failures=()):
        self._sock = sock
        self.failures = dict(failures)
        self.sent_to = []

    def sendto(self, data, addr):
        k = len(self.sent_to)
        self.sent_to.append(addr)
        if k in self.failures:
            raise self.failures[k]
        return self._sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def receive_all(sock, expected, timeout=1.0):
    """The datagrams on non-blocking ``sock``, read until ``expected`` of
    them have arrived or ``timeout`` seconds have passed without one."""
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < expected and time.monotonic() < deadline:
        try:
            got.append(sock.recv(65536))
            deadline = time.monotonic() + timeout
        except BlockingIOError:
            time.sleep(0.001)
    return got
