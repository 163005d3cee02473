"""Run one workload of the servo-loop benchmark and print its metrics.

    python3 servobench/run.py --workload paper_latency --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
installs the span wrappers (``tracing.py``) and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, and
in a traced run the spans, are also written under ``servobench/out/``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# layer prefix of every span name, for the self-time shares
LAYERS = ("servo", "model", "constraints", "tasks", "controller", "params",
          "transports", "plant")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "wbosc", "__init__.py")):
        sys.exit(f"servobench: no program sources at {SRC}; run from the "
                 f"root of a wbosc checkout")
    sys.path.insert(0, SRC)
    import wbosc
    if os.path.dirname(os.path.dirname(os.path.abspath(wbosc.__file__))) != SRC:
        sys.exit(f"servobench: imported wbosc from {wbosc.__file__}, not "
                 f"from {SRC}")


def host_facts(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


# -- per-layer metrics from the spans ------------------------------------------------

def per_layer(workload, tracer, spans):
    names = tracer.names
    w0, w1 = workload.window_start, workload.window_end
    n = workload.stop_cycle - workload.first
    in_window = ((spans["cycle"] >= workload.first)
                 & (spans["cycle"] < workload.stop_cycle)
                 & (spans["start"] >= w0) & (spans["start"] <= w1))

    def pick(name, window=True):
        mask = spans["name"] == names.index(name)
        return mask & in_window if window else mask

    def us(name, column="duration"):
        values = spans[column][pick(name)]
        return float(np.median(values)) * 1e6 if values.size else 0.0

    def per_cycle(*names_):
        return sum(int(pick(x).sum()) for x in names_) / n

    before, after = workload.window_counters
    per_kcycle = {k: (after[k] - before[k]) * 1e3 / n for k in before}
    servo = pick("servo.servo_update")
    phases = workload.phases
    setup = ((spans["start"] >= workload.setup_span[0])
             & (spans["end"] <= workload.setup_span[1]))

    def setup_s(name):
        values = spans["duration"][pick(name, window=False) & setup]
        return float(np.median(values)) if values.size else 0.0

    m = {
        "servo.cpu_us_p50": (float(np.median(spans["cpu"][servo])) * 1e6, "us"),
        "servo.wait_us_p50": (float(np.median(
            spans["duration"][servo] - spans["cpu"][servo])) * 1e6, "us"),
    }
    for phase in ("read", "update_model", "compute_command",
                  "compute_command_cpu", "emit_events", "write"):
        m[f"servo.phase.{phase}_us_p50"] = (phases[phase][0] * 1e6, "us")
    m.update({
        "servo.check_for_updates.us_p50": (us("servo.check_for_updates"), "us"),
        "servo.model_swaps_per_kcycle": (per_kcycle["model_swaps"], "1/kcycle"),
        "servo.staging_skips_per_kcycle": (per_kcycle["staging_skips"], "1/kcycle"),
        "servo.task_rounds_per_kcycle": (per_kcycle["task_rounds"], "1/kcycle"),
        "model.update_kinematics.us_p50": (us("model.update_kinematics"), "us"),
        "model.update_kinematics.cpu_us_p50": (
            us("model.update_kinematics", "cpu"), "us"),
        "model.update_kinematics.calls_per_cycle": (
            per_cycle("model.update_kinematics"), "1/cycle"),
        "constraints.update.us_p50": (us("constraints.update"), "us"),
        "constraints.update.calls_per_cycle": (
            per_cycle("constraints.update"), "1/cycle"),
        "tasks.update.cartesian_us_p50": (us("tasks.update.cartesian"), "us"),
        "tasks.update.orientation2d_us_p50": (
            us("tasks.update.orientation2d"), "us"),
        "tasks.update.joint_us_p50": (us("tasks.update.joint"), "us"),
        "tasks.update.calls_per_cycle": (per_cycle(
            "tasks.update.cartesian", "tasks.update.orientation2d",
            "tasks.update.joint"), "1/cycle"),
        "tasks.stack.us_p50": (us("tasks.stack"), "us"),
        "controller.compute.us_p50": (us("controller.compute"), "us"),
        "controller.compute.cpu_us_p50": (us("controller.compute", "cpu"), "us"),
        "controller.ladder_forces.us_p50": (us("controller.ladder_forces"), "us"),
        "controller.ladder_forces.calls_per_cycle": (
            per_cycle("controller.ladder_forces"), "1/cycle"),
        "controller.enforce_limits.us_p50": (
            us("controller.enforce_limits"), "us"),
        "params.drain_staged.us_p50": (us("params.drain_staged"), "us"),
        "params.emit_events.us_p50": (us("params.emit_events"), "us"),
        "params.inputs_applied_per_kcycle": (per_kcycle["applied_inputs"],
                                             "1/kcycle"),
        "params.events_fired": (after["events_fired"] - before["events_fired"],
                                "count"),
        "transports.enqueue.us_p50": (us("transports.enqueue"), "us"),
        "transports.enqueue.calls_per_cycle": (
            per_cycle("transports.enqueue"), "1/cycle"),
        "transports.publisher.drops": (
            after["publisher_drops"] - before["publisher_drops"], "count"),
        "transports.udp_send.us_p50": (us("transports.udp_send"), "us"),
        "transports.udp_send.calls_per_cycle": (
            per_cycle("transports.udp_send"), "1/cycle"),
        "transports.output.received_per_kcycle": (per_kcycle["received"],
                                                  "1/kcycle"),
        "plant.step.us_p50": (us("plant.step"), "us"),
        "plant.step.calls_per_cycle": (per_cycle("plant.step"), "1/cycle"),
        "assembly.build_s": (setup_s("assembly.build"), "s"),
        "assembly.servo_init_s": (setup_s("assembly.servo_init"), "s"),
        "trace.cycle_ms_p50": (float(np.median(workload.cycle_ms())), "ms"),
    })
    return m


def layer_shares(workload, tracer, spans):
    """Self time per layer over the window, as shares of the benchmark's
    cycle wall time (servo thread) and of the window (worker threads)."""
    in_window = ((spans["start"] >= workload.window_start)
                 & (spans["start"] <= workload.window_end))
    servo_id = tracer.names.index("servo.servo_update")
    servo_threads = set(spans["thread"][in_window
                                        & (spans["name"] == servo_id)])
    on_servo = np.isin(spans["thread"], list(servo_threads))
    cycle_total = float(np.sum(workload.cycle_ms())) / 1e3
    window = workload.window_end - workload.window_start
    layer_of = np.array([LAYERS.index(x.split(".")[0])
                         if x.split(".")[0] in LAYERS else -1
                         for x in tracer.names])
    out = {"servo_thread": {}, "other_threads": {}}
    for label, mask, total in (("servo_thread", on_servo, cycle_total),
                               ("other_threads", ~on_servo, window)):
        sel = in_window & mask
        for k, layer in enumerate(LAYERS):
            value = float(spans["self"][sel & (layer_of[spans["name"]] == k)]
                          .sum())
            if value:
                out[label][layer] = round(value / total, 4)
    traced = float(spans["duration"][in_window & on_servo
                                     & (spans["name"] == servo_id)].sum())
    out["servo_thread"]["outside_servo_update"] = round(
        1.0 - traced / cycle_total, 4)
    return out


# -- one run ---------------------------------------------------------------------------

def run(workload_name, seed, seconds, trace):
    import workloads
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer().install()
    workload = workloads.WORKLOADS[workload_name](seed, seconds)
    if tracer is not None:
        workload.probes.append(lambda: {
            "applied_inputs": tracer.applied_inputs,
            "events_fired": tracer.events_fired})
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"workload": workload_name, "trace": int(trace),
              "host": host_facts(seed),
              "reference": workload.reference_figures(),
              "failures": workload.tally.reasons}
    if tracer is None:
        metrics = workload.end_to_end()
    else:
        spans = tracer.spans()
        metrics = per_layer(workload, tracer, spans)
        result["layer_shares"] = layer_shares(workload, tracer, spans)
    os.makedirs(OUT, exist_ok=True)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"{workload_name}-seed{seed}-spans.npz"),
                    spans)
    summary = {"correct": workload.tally.failed == 0,
               "attempted": workload.tally.attempted,
               "failed": workload.tally.failed,
               "metrics": {k: {"value": float(v), "unit": u}
                           for k, (v, u) in metrics.items()}}
    result.update(summary)
    with open(os.path.join(OUT, f"{workload_name}-seed{seed}-trace{int(trace)}"
                                f".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_latency", "disassembly_tracking",
                                 "binding_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    print("host " + json.dumps(host_facts(args.seed)), flush=True)
    result, summary = run(args.workload, args.seed, args.seconds, args.trace)
    print("reference " + json.dumps(result["reference"]))
    if "layer_shares" in result:
        print("layer_shares " + json.dumps(result["layer_shares"]))
    for reason in result["failures"]:
        print("FAILED " + reason)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
