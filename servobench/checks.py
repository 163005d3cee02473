"""Output checks computed apart from the program, with numpy alone.

Each check takes what the benchmark recorded (commands, joint states, goals,
datagrams) plus the constants it generated or read from the robot
description, and says whether the program's output has a property that
follows from the physics or the protocol.  None of them compares with a
stored copy of an earlier run.
"""

import struct

import numpy as np

COMMAND_TOL = 1e-12        # multi- against single-threaded command, N*m
REALISED_TOL = 1e-9        # relative residual of J0 qdd = xdd0
PENDULUM_TOL = 1e-9        # closed-form pendulum effort, N*m
TRANSMISSION_TOL = 1e-9    # slave - ratio * master, rad


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def reference_index(effort, references, tol=COMMAND_TOL):
    """Index of the reference command that ``effort`` equals to ``tol``,
    or -1 when it equals none of them."""
    for k, ref in enumerate(references):
        if np.max(np.abs(effort - ref)) <= tol:
            return k
    return -1


def realised_task_residual(A, B, G, U, J_c, tau, J0, xdd0):
    """Relative residual of J0 qdd = xdd0 under the constrained dynamics.

    E spans null(J_c); the constrained forward dynamics are
    E' A E eta_dd = E' (U' tau - B - G) with qdd = E eta_dd.
    """
    _, s, Vt = np.linalg.svd(J_c)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    E = Vt[rank:].T
    eta_dd = np.linalg.solve(E.T @ A @ E, E.T @ (U.T @ tau - B - G))
    qdd = E @ eta_dd
    return float(np.max(np.abs(J0 @ qdd - xdd0))
                 / max(1.0, float(np.max(np.abs(xdd0)))))


def control_point(model, link, point):
    """World position of a point fixed in a link (model already updated)."""
    T = model.link_transform(link)
    return T[:3, :3] @ np.asarray(point, dtype=float) + T[:3, 3]


def pendulum_effort(q, qd, goal, kp, kd, mass, lc, iyy, g):
    """Effort of posture control on a one-joint pendulum, in closed form:
    tau = (m lc^2 + Iyy) (kp (q_goal - q) - kd qd) - m g lc cos q.
    The joint turns about +y, the centre of mass sits lc along the link's
    +x axis and gravity points along -z."""
    return ((mass * lc ** 2 + iyy) * (kp * (goal - q) - kd * qd)
            - mass * g * lc * np.cos(q))


def datagrams_accounted(received, published, drops):
    """Every value an output binding published arrived, or was one of the
    entries the publisher dropped (and counted) when its queue was full."""
    return 0 < received <= published and published - received <= drops


# -- the UDP wire format, written from its specification --------------------

_MAGIC = b"CIT1"


def encode_publish(name, vector):
    """A publish message carrying an f64 vector."""
    raw = name.encode("utf-8")
    vec = np.asarray(vector, dtype="<f8")
    return (_MAGIC + struct.pack("<BH", 0, len(raw)) + raw
            + struct.pack("<BI", 1, vec.size) + vec.tobytes())


def decode_publish(buf):
    """(name, value) of a publish message; ValueError when it does not
    decode exactly, trailing bytes included."""
    try:
        if buf[:4] != _MAGIC:
            raise ValueError("bad magic")
        kind, name_len = struct.unpack_from("<BH", buf, 4)
        if kind != 0:
            raise ValueError(f"message kind {kind} is not a publish")
        offset = 7 + name_len
        name = buf[7:offset].decode("utf-8")
        (vkind,) = struct.unpack_from("<B", buf, offset)
        offset += 1
        if vkind == 0:
            (value,) = struct.unpack_from("<d", buf, offset)
            offset += 8
        elif vkind == 1:
            (count,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            value = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
        else:
            raise ValueError(f"value kind {vkind} is not numeric")
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValueError(str(exc)) from None
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} trailing bytes")
    return name, value
