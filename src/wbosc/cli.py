"""Command line entry points: run, traj, bench, introspect, send."""

import argparse
import json
import sys

import numpy as np

from .assembly import AssembledController, AssemblyError, ServiceError
from .config import ConfigError, load_config_file
from .description import (DescriptionError, load_description_file,
                          parse_yaml)
from .servo import CYCLE_DIAGNOSTICS, make_clock
from .spline import SplineError, TrajectorySpline
from .transports import TransportError, UdpTransport

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

DIAGNOSTIC_TOPICS = CYCLE_DIAGNOSTICS + ("errors", "warnings")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DescriptionError, AssemblyError, SplineError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wbosc",
        description="Whole-body operational space controller runtime")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured controller")
    _common_run_flags(run)
    run.set_defaults(handler=cmd_run)

    traj = sub.add_parser("traj", help="replay spline goal trajectories")
    _common_run_flags(traj)
    traj.add_argument("--trajectory", required=True,
                      help="YAML list of {parameter, waypoints}")
    traj.add_argument("--settle", type=float, default=1.5,
                      help="extra settle time after the last waypoint [s]")
    traj.set_defaults(handler=cmd_traj)

    bench = sub.add_parser("bench", help="latency benchmark matrix")
    bench.add_argument("--robot", required=True)
    bench.add_argument("--cycles", type=int, default=1000)
    bench.add_argument("--csv", help="write the CSV report to this path")
    bench.set_defaults(handler=cmd_bench)

    intro = sub.add_parser("introspect", help="query a running controller")
    intro.add_argument("service")
    intro.add_argument("--args", default="{}", help="JSON service arguments")
    intro.add_argument("--udp", required=True, metavar="HOST:PORT")
    intro.add_argument("--timeout", type=float, default=2.0)
    intro.set_defaults(handler=cmd_introspect)

    send = sub.add_parser("send", help="publish one value to a topic")
    send.add_argument("topic")
    send.add_argument("value", help="JSON scalar, list, bool, or string")
    send.add_argument("--udp", required=True, metavar="HOST:PORT")
    send.set_defaults(handler=cmd_send)
    return parser


def _common_run_flags(sub):
    sub.add_argument("--config", required=True)
    sub.add_argument("--robot", required=True)
    sub.add_argument("--duration", type=float, default=2.0,
                     help="run time in (simulated) seconds")
    sub.add_argument("--single-threaded", action="store_true",
                     help="override both single_threaded_* parameters")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--clock", choices=("lockstep", "monotonic"))
    sub.add_argument("--log-dir")
    sub.add_argument("--udp-port", type=int)


def _build(args, **extra):
    kwargs = dict(single_threaded=True if args.single_threaded else None,
                  seed=args.seed, log_dir=args.log_dir,
                  udp_port=args.udp_port)
    kwargs.update(extra)
    description = load_description_file(args.robot)
    spec = load_config_file(args.config)
    if args.clock is not None:
        # bindings stamp and rate-limit on this clock, so it is built first
        kwargs["clock"] = make_clock(args.clock,
                                     spec.framework.servo_frequency)
    return AssembledController(description, spec, **kwargs)


def _attach_csv_logging(ctl):
    """Mirror every bound output topic and the diagnostics topics to CSV."""
    topics = {b.topic for b in ctl.spec.bindings if b.direction == "output"}
    topics.update(f"{ctl.name}/diagnostics/{t}" for t in DIAGNOSTIC_TOPICS)
    topics.add(f"{ctl.name}/events")
    factory = ctl.file_factory
    for topic in sorted(topics):
        ctl.bus.subscribe(topic,
                          lambda value, t=topic: factory.write_row(t, value))


def cmd_run(args):
    with _build(args) as ctl:
        if args.log_dir:
            _attach_csv_logging(ctl)
        ctl.start()
        try:
            ctl.run(duration=args.duration)
        except KeyboardInterrupt:
            pass
        ctl.flush()
        stats = ctl.runtime.phase_stats()
        median, p99 = stats.get("total", (0.0, 0.0))
        print(f"{ctl.runtime.cycle_count} cycles, cycle time median "
              f"{median * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms, "
              f"suppressed {ctl.runtime.stats.suppressed_commands}")
    return EXIT_OK


def load_trajectories(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_yaml(fh.read(), SplineError)
    if not isinstance(doc, list) or not doc:
        raise SplineError("trajectory file must be a non-empty list")
    out = []
    for entry in doc:
        parameter = entry["parameter"]
        waypoints = [(w["t"], w["value"]) for w in entry["waypoints"]]
        out.append((parameter, TrajectorySpline(waypoints)))
    return out


def cmd_traj(args):
    trajectories = load_trajectories(args.trajectory)
    with _build(args) as ctl:
        if args.log_dir:
            _attach_csv_logging(ctl)
        streams = []
        input_topics = {b.parameter: b.topic for b in ctl.spec.bindings
                        if b.direction == "input"}
        for parameter, spline in trajectories:
            param = ctl.registry.lookup(parameter)
            if param is None:
                raise ConfigError(f"unknown trajectory parameter {parameter!r}")
            if np.atleast_1d(param.value).shape[0] != spline.dimension:
                raise ConfigError(
                    f"waypoint dimension {spline.dimension} does not match "
                    f"parameter {parameter!r}")
            topic = input_topics.get(parameter)
            if topic is None:
                raise ConfigError(
                    f"parameter {parameter!r} has no input binding to stream to")
            streams.append((parameter, topic, spline))

        ctl.start()
        frequency = ctl.spec.framework.servo_frequency
        stream_every = max(1, int(round(frequency / 100.0)))   # 100 Hz goals
        end_time = max(s.end_time for _, _, s in streams)
        cycles = int(round((end_time + args.settle) * frequency))
        errors = {name: [] for name in ctl.tasks}
        for k in range(cycles):
            if k % stream_every == 0:
                t = ctl.clock.now()
                for _, topic, spline in streams:
                    value, _, _ = spline.eval(t)
                    ctl.bus.publish(topic, value)
            ctl.runtime.servo_update()
            ctl.clock.tick()
            for name, task in ctl.tasks.items():
                errors[name].append(
                    float(np.linalg.norm(task.active_state.error)))
        ctl.flush()
        print(f"{cycles} cycles at {frequency:.0f} Hz, goals streamed at "
              f"{frequency / stream_every:.0f} Hz")
        print(f"{'task':<24} {'mean err':>12} {'std':>12} {'terminal':>12}")
        for name, series in errors.items():
            arr = np.array(series)
            print(f"{name:<24} {arr.mean():>12.3e} {arr.std():>12.3e} "
                  f"{arr[-1]:>12.3e}")
    return EXIT_OK


def cmd_bench(args):
    from .bench import format_csv, format_table, run_matrix
    cells = run_matrix(args.robot, cycles=args.cycles,
                       progress=lambda label: print(label, file=sys.stderr))
    print(format_table(cells))
    csv_text = format_csv(cells)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print()
        print(csv_text)
    return EXIT_OK


def _parse_peer(text):
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def cmd_introspect(args):
    client = UdpTransport(default_peer=_parse_peer(args.udp))
    try:
        response = client.request(args.service, json.loads(args.args),
                                  timeout=args.timeout)
    finally:
        client.close()
    print(json.dumps(response, indent=2))
    return EXIT_RUNTIME if isinstance(response, dict) and "error" in response \
        else EXIT_OK


def cmd_send(args):
    value = json.loads(args.value)
    if isinstance(value, list):
        value = np.asarray(value, dtype=float)
    client = UdpTransport(default_peer=_parse_peer(args.udp))
    try:
        client.send_publish(args.topic, value)
    finally:
        client.close()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
