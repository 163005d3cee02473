"""Clamped cubic spline through timed waypoints, with zero endpoint velocity.

Interior knots are C2-continuous; evaluation outside the time range clamps to
the endpoints (where the velocity boundary condition makes the hold smooth).
Waypoint values may be vectors; each dimension is splined independently.
"""

import numpy as np


class SplineError(ValueError):
    pass


class TrajectorySpline:
    def __init__(self, waypoints):
        """waypoints: iterable of (time, value) with strictly increasing times
        and at least two entries; value is a scalar or fixed-length vector."""
        pts = [(float(t), np.atleast_1d(np.asarray(v, dtype=float)))
               for t, v in waypoints]
        if len(pts) < 2:
            raise SplineError("need at least two waypoints")
        self.times = np.array([t for t, _ in pts])
        if np.any(np.diff(self.times) <= 0.0):
            raise SplineError("waypoint times must be strictly increasing")
        dim = pts[0][1].shape[0]
        for t, v in pts:
            if v.shape[0] != dim:
                raise SplineError("waypoint dimensions differ")
        self.values = np.vstack([v for _, v in pts])
        self.dimension = dim
        self.velocities = self._solve_knot_velocities()

    def _solve_knot_velocities(self):
        # C2 continuity at interior knots gives a tridiagonal system in the
        # knot velocities; clamped ends pin v_0 = v_n = 0
        n = len(self.times)
        h = np.diff(self.times)
        M = np.zeros((n, n))
        rhs = np.zeros((n, self.dimension))
        M[0, 0] = 1.0
        M[-1, -1] = 1.0
        for i in range(1, n - 1):
            M[i, i - 1] = 1.0 / h[i - 1]
            M[i, i] = 2.0 * (1.0 / h[i - 1] + 1.0 / h[i])
            M[i, i + 1] = 1.0 / h[i]
            d_prev = (self.values[i] - self.values[i - 1]) / h[i - 1]
            d_next = (self.values[i + 1] - self.values[i]) / h[i]
            rhs[i] = 3.0 * (d_prev / h[i - 1] + d_next / h[i])
        return np.linalg.solve(M, rhs)

    @property
    def end_time(self):
        return self.times[-1]

    def eval(self, t):
        """Value, velocity and acceleration at time t (clamped to the range)."""
        t = float(np.clip(t, self.times[0], self.times[-1]))
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.times) - 2)
        h = self.times[i + 1] - self.times[i]
        s = (t - self.times[i]) / h
        p0, p1 = self.values[i], self.values[i + 1]
        v0, v1 = self.velocities[i] * h, self.velocities[i + 1] * h
        # Hermite basis in normalized coordinate s
        s2, s3 = s * s, s * s * s
        value = ((2 * s3 - 3 * s2 + 1) * p0 + (s3 - 2 * s2 + s) * v0
                 + (-2 * s3 + 3 * s2) * p1 + (s3 - s2) * v1)
        vel = ((6 * s2 - 6 * s) * p0 + (3 * s2 - 4 * s + 1) * v0
               + (-6 * s2 + 6 * s) * p1 + (3 * s2 - 2 * s) * v1) / h
        acc = ((12 * s - 6) * p0 + (6 * s - 4) * v0
               + (-12 * s + 6) * p1 + (6 * s - 2) * v1) / (h * h)
        return value, vel, acc
