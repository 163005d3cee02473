"""Servo latency benchmark: priority layout x orientation type x threading.

Each cell runs the five-task compound (two Cartesian position tasks, two
orientation tasks, one posture task) against a frozen robot state so the
numbers isolate controller cost.

The twelve cells are interleaved rather than run one after another: every
cell is built and warmed up first, then the measured cycles are split into
rounds, and each round runs a chunk of every cell in a freshly shuffled
order.  Before the next chunk starts, the previous cell's model reply is
read in and its diagnostics publisher left to go idle, so no cell pays for
another's background work.  Slow drifts in host load then spread over all cells
alike.  Each cell reports the median and the 99th percentile of every phase
(read, update model, compute command, emit events, write, and the whole
cycle) over its measured cycles, plus the servo thread's CPU time in the
compute phase.
"""

import contextlib
import io
import random
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledController
from .config import load_config
from .description import load_description_file
from .model import RobotState
from .servo import PHASES

LEVEL_LAYOUTS = {
    2: {"rightHandPosition": 0, "leftHandPosition": 0,
        "rightHandOrientation": 0, "leftHandOrientation": 0, "posture": 1},
    3: {"rightHandPosition": 0, "leftHandPosition": 0,
        "rightHandOrientation": 1, "leftHandOrientation": 1, "posture": 2},
    5: {"rightHandPosition": 0, "leftHandPosition": 1,
        "rightHandOrientation": 2, "leftHandOrientation": 3, "posture": 4},
}

_BASE_CONFIG = None


def _base_spec():
    global _BASE_CONFIG
    if _BASE_CONFIG is None:
        from . import fixtures
        _BASE_CONFIG = fixtures.read_config("dreamer22_disassembly")
    return load_config(_BASE_CONFIG)


def build_cell_spec(levels, orientation):
    spec = _base_spec()
    if orientation == "3d":
        for task in spec.tasks:
            if task.type == "Orientation2DTask":
                task.type = "Orientation3DTask"
                task.parameters = {"link": task.parameters["link"],
                                   "kp": task.parameters.get("kp", 60.0),
                                   "kd": task.parameters.get("kd", 3.0)}
    layout = LEVEL_LAYOUTS[levels]
    for entry in spec.compound:
        entry.priority = layout[entry.name]
    spec.bindings = []
    spec.events = []
    return spec


class _FrozenInterface:
    def __init__(self, position):
        self._state = RobotState(0.0, np.asarray(position, dtype=float),
                                 np.zeros(len(position)), np.zeros(len(position)))

    def read(self):
        return self._state.copy()

    def write(self, command):
        pass


ROUNDS = 20
WARMUP = 50


@dataclass
class BenchCell:
    levels: int
    orientation: str
    threading: str
    phases: dict      # phase -> (median_s, p99_s), see ServoRuntime.phase_stats

    @property
    def label(self):
        return f"{self.levels}-level/{self.orientation}/{self.threading}"


def build_cell(description, levels, orientation, threading_mode, history):
    spec = build_cell_spec(levels, orientation)
    posture = spec.task("posture").parameters["goalPosition"]
    return AssembledController(description, spec,
                               interface=_FrozenInterface(posture),
                               single_threaded=threading_mode == "single",
                               history=history)


def _settle(ctl):
    """Let the cell's model reply come in and its publisher go idle before
    another cell runs."""
    ctl.runtime.wait_idle()
    ctl.flush()


def run_matrix(robot_path, cycles=1000, progress=None):
    """All twelve cells, interleaved; ``cycles`` measured cycles each."""
    description = load_description_file(robot_path)
    keys = [(levels, orientation, mode) for levels in (2, 3, 5)
            for orientation in ("2d", "3d") for mode in ("multi", "single")]
    rng = random.Random(0)
    chunks = [cycles // ROUNDS + (r < cycles % ROUNDS) for r in range(ROUNDS)]
    with contextlib.ExitStack() as stack:
        controllers = {}
        for key in keys:
            if progress is not None:
                progress("warming up {}-level {} {}".format(*key))
            ctl = stack.enter_context(
                build_cell(description, *key, history=WARMUP + cycles))
            ctl.start()
            ctl.run(cycles=WARMUP)
            _settle(ctl)
            controllers[key] = ctl
        for r, chunk in enumerate(chunks):
            if progress is not None:
                progress(f"round {r + 1}/{ROUNDS}")
            order = list(keys)
            rng.shuffle(order)
            for key in order:
                controllers[key].run(cycles=chunk)
                _settle(controllers[key])
        return [BenchCell(*key, controllers[key].runtime.phase_stats(
                    last_n=cycles)) for key in keys]


def format_csv(cells):
    out = io.StringIO()
    out.write("cell," + ",".join(PHASES) + ",total\n")
    for cell in cells:
        row = [cell.label]
        for phase in PHASES + ("total",):
            median, p99 = cell.phases[phase]
            row.append(f"{median * 1e3:.4f}/{p99 * 1e3:.4f}")
        out.write(",".join(row) + "\n")
    return out.getvalue()


def format_table(cells):
    header = ["cell"] + [p for p in PHASES] + ["total"]
    rows = [header]
    for cell in cells:
        row = [cell.label]
        for phase in PHASES + ("total",):
            median, p99 = cell.phases[phase]
            row.append(f"{median * 1e3:.3f}/{p99 * 1e3:.3f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return ("\n".join(lines) + "\n(all values ms, median/p99 over the "
            "measured cycles of each cell, cells interleaved)")
