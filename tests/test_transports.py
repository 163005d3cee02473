import csv
import errno
import socket
import threading
import time

import numpy as np
import pytest

from conftest import StubSocket
from wbosc.params import ParameterKind, ParameterRegistry
from wbosc.transports import (BindingConfig, BindingManager, FileBindingFactory,
                              IntraBindingFactory, IntraBus, OutputBinding,
                              PublisherWorker, TransportError,
                              UdpBindingFactory, UdpTransport,
                              decode_message, encode_message,
                              KIND_PUBLISH)


# -- wire format -------------------------------------------------------------------

@pytest.mark.parametrize("value", [
    3.14159,
    np.array([1.0, -2.5, 1e-17, 3e8]),
    True,
    False,
    "hello topic",
])
def test_wire_roundtrip_bit_exact(value):
    data = encode_message(KIND_PUBLISH, "some/topic", value)
    kind, name, decoded, request_id = decode_message(data)
    assert kind == KIND_PUBLISH
    assert name == "some/topic"
    assert request_id is None
    if isinstance(value, np.ndarray):
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, value)   # bit-exact
    else:
        assert decoded == value


def test_wire_service_request_carries_id():
    data = encode_message(1, "getTaskParameters", "{}", request_id=42)
    kind, name, value, request_id = decode_message(data)
    assert (kind, name, value, request_id) == (1, "getTaskParameters", "{}", 42)


def test_wire_bad_magic_rejected():
    from wbosc.transports import WireError
    with pytest.raises(WireError):
        decode_message(b"NOPE" + b"\x00" * 10)


# -- intra bus ----------------------------------------------------------------------

def test_intra_pub_sub():
    bus = IntraBus()
    seen = []
    bus.subscribe("a/b", seen.append)
    bus.publish("a/b", 1.5)
    bus.publish("other", 9.9)
    assert seen == [1.5]


def test_latched_delivery_to_late_subscriber():
    bus = IntraBus()
    bus.publish("state", 7.0, latch=True)
    late = []
    bus.subscribe("state", late.append)
    assert late == [7.0]


# -- publisher worker -----------------------------------------------------------------

def test_publisher_drains_and_preserves_order():
    worker = PublisherWorker(maxlen=64)
    seen = []
    for i in range(20):
        worker.enqueue(lambda t, v: seen.append(v), "x", i)
    assert worker.flush()
    worker.stop()
    assert seen == list(range(20))


def test_publisher_overflow_drops_oldest_and_counts():
    worker = PublisherWorker(maxlen=4)
    worker._stop.set()   # freeze the drain to force overflow
    for i in range(10):
        worker.enqueue(lambda t, v: None, "x", i)
    assert worker.drops == 6
    assert [v for _, _, v, _ in worker._queue] == [6, 7, 8, 9]


def test_dropped_output_values_are_counted_on_their_binding():
    worker = PublisherWorker(maxlen=4)
    taken, release = threading.Event(), threading.Event()
    delivered = []

    def sink(topic, value):
        taken.set()
        release.wait(5.0)       # holds the drain loop on the first value
        delivered.append(value)

    binding = OutputBinding(BindingConfig("task.error", "output", "intra",
                                          "errors"), sink, worker)
    other = []
    try:
        binding.offer(0)
        assert taken.wait(5.0)
        for i in range(1, 10):
            binding.offer(i)
            # entries of other owners are counted by the worker only
            worker.enqueue(lambda t, v: other.append(v), "other", i)
        release.set()
        assert worker.flush()
    finally:
        release.set()
        worker.stop()
    assert binding.published == 10
    assert binding.dropped > 0
    assert binding.published == len(delivered) + binding.dropped
    assert worker.drops == binding.dropped + (9 - len(other))


def test_enqueue_hands_the_gil_to_a_drain_that_fell_behind():
    """A thread that never releases the GIL starves the drain thread unless
    enqueue hands it over; the sink releases it per value, as a socket send
    does, so the drain gets one value out per GIL slot."""
    worker = PublisherWorker(maxlen=256)
    delivered = []

    def sink(topic, value):
        time.sleep(0)
        delivered.append(value)

    try:
        for i in range(2000):
            worker.enqueue(sink, "x", i)
        assert worker.flush()
    finally:
        worker.stop()
    assert worker.drops == 0
    assert delivered == list(range(2000))


def test_a_raising_subscriber_or_sink_stops_no_other_delivery():
    bus = IntraBus()
    worker = PublisherWorker()
    got = []

    def bad(*args):
        raise RuntimeError("subscriber failed")

    bus.subscribe("a", bad)
    bus.subscribe("a", got.append)
    bus.subscribe("b", got.append)
    try:
        worker.enqueue(bus.publish_each, ("a", "b"), (1, 2))
        worker.enqueue(bad, "c", 3)
        worker.enqueue(bus.publish_each, ("b",), (4,))
        assert worker.flush()
    finally:
        worker.stop()
    assert got == [1, 2, 4]
    assert bus.failures == 1
    assert worker.failures == 1


def test_topic_watch_is_set_by_a_subscription_to_any_of_its_topics():
    bus = IntraBus()
    bus.subscribe("x", print)
    watch = bus.watch(("a", "b"))
    assert not watch.subscribed
    bus.subscribe("c", print)
    assert not watch.subscribed
    bus.subscribe("b", print)
    assert watch.subscribed
    assert bus.watch(("x",)).subscribed


# -- bindings ------------------------------------------------------------------------

def make_registry():
    reg = ParameterRegistry()
    reg.declare("task", "goal", ParameterKind.VECTOR, np.zeros(3))
    reg.declare("task", "error", ParameterKind.VECTOR, np.zeros(3))
    reg.declare("task", "gain", ParameterKind.SCALAR, 1.0)
    return reg


def test_intra_output_binding_delivers():
    reg = make_registry()
    bus = IntraBus()
    manager = BindingManager()
    manager.register_factory(IntraBindingFactory(bus, publisher=None))
    manager.bind(reg, BindingConfig("task.error", "output", "intra", "errors"))
    seen = []
    bus.subscribe("errors", seen.append)
    reg.require("task.error").set(np.array([1.0, 0.0, 0.0]))
    assert len(seen) == 1


def test_intra_input_binding_stages():
    reg = make_registry()
    bus = IntraBus()
    manager = BindingManager()
    manager.register_factory(IntraBindingFactory(bus, publisher=None))
    manager.bind(reg, BindingConfig("task.goal", "input", "intra", "goals"))
    bus.publish("goals", np.array([0.1, 0.2, 0.3]))
    reg.drain_staged()
    assert np.allclose(reg.require("task.goal").value, [0.1, 0.2, 0.3])


def test_unknown_transport_rejected():
    reg = make_registry()
    manager = BindingManager()
    with pytest.raises(TransportError, match="bogus"):
        manager.bind(reg, BindingConfig("task.goal", "input", "bogus", "t"))


def test_unknown_parameter_rejected():
    reg = make_registry()
    manager = BindingManager()
    manager.register_factory(IntraBindingFactory(IntraBus(), publisher=None))
    with pytest.raises(TransportError, match="ghost"):
        manager.bind(reg, BindingConfig("ghost", "output", "intra", "t"))


def test_file_transport_is_output_only(tmp_path):
    reg = make_registry()
    manager = BindingManager()
    manager.register_factory(FileBindingFactory(str(tmp_path), publisher=None))
    with pytest.raises(TransportError, match="output-only"):
        manager.bind(reg, BindingConfig("task.goal", "input", "file", "t"))


def test_file_transport_writes_csv_rows(tmp_path):
    reg = make_registry()
    manager = BindingManager()
    factory = FileBindingFactory(str(tmp_path), publisher=None,
                                 clock=lambda: 2.5)
    manager.register_factory(factory)
    manager.bind(reg, BindingConfig("task.error", "output", "file",
                                    "errors/right"))
    reg.require("task.error").set(np.array([0.5, 0.25, 0.0]))
    reg.require("task.error").set(np.array([0.1, 0.0, 0.0]))
    factory.close()
    path = tmp_path / "errors_right.csv"
    rows = list(csv.reader(path.open()))
    assert len(rows) == 2
    assert rows[0][1] == "errors/right"
    assert [float(x) for x in rows[0][2:]] == [0.5, 0.25, 0.0]
    # stamped on the factory's clock, in seconds
    assert float(rows[0][0]) == 2.5


def test_rate_limited_publishing():
    # a 1 kHz setter against a 10 Hz binding: at most 11 publishes per second
    reg = make_registry()
    bus = IntraBus()
    clock = {"t": 0.0}
    manager = BindingManager()
    manager.register_factory(
        IntraBindingFactory(bus, publisher=None, clock=lambda: clock["t"]))
    manager.bind(reg, BindingConfig("task.gain", "output", "intra", "g",
                                    {"publish_rate": 10.0}))
    seen = []
    bus.subscribe("g", seen.append)
    param = reg.require("task.gain")
    for k in range(1000):
        clock["t"] = k * 0.001
        param.set(float(k))
    assert len(seen) <= 11
    assert len(seen) >= 9


def test_latched_output_binding_sends_current_value_immediately():
    reg = make_registry()
    bus = IntraBus()
    manager = BindingManager()
    manager.register_factory(IntraBindingFactory(bus, publisher=None))
    reg.require("task.gain").set(3.5)
    manager.bind(reg, BindingConfig("task.gain", "output", "intra", "g",
                                    {"latched": True}))
    late = []
    bus.subscribe("g", late.append)
    assert late == [3.5]


# -- udp ----------------------------------------------------------------------------

def test_udp_roundtrip_bit_exact():
    reg = make_registry()
    server = UdpTransport()
    client = UdpTransport(default_peer=("127.0.0.1", server.port))
    try:
        manager = BindingManager()
        manager.register_factory(UdpBindingFactory(server))
        manager.bind(reg, BindingConfig("task.goal", "input", "udp", "goals"))
        value = np.array([0.1, -0.25, 1e-13])
        client.send_publish("goals", value)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if reg.drain_staged():
                break
            time.sleep(0.005)
        assert np.array_equal(reg.require("task.goal").value, value)
    finally:
        client.close()
        server.close()


def test_udp_echo_roundtrip_preserves_bits():
    # input binding on one topic, output on another: v in == v out, bit-exact
    reg = make_registry()
    server = UdpTransport()
    client = UdpTransport(default_peer=("127.0.0.1", server.port))
    received = []
    client.register_input("echo", received.append)
    try:
        manager = BindingManager()
        manager.register_factory(UdpBindingFactory(server))
        manager.bind(reg, BindingConfig("task.goal", "input", "udp", "goals"))
        manager.bind(reg, BindingConfig(
            "task.goal", "output", "udp", "echo",
            {"host": "127.0.0.1", "port": client.port}))
        value = np.array([np.pi, np.e, 1.0 / 3.0])
        client.send_publish("goals", value)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            reg.drain_staged()
            if received:
                break
            time.sleep(0.005)
        assert received and np.array_equal(received[0], value)
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("properties, match", [
    ({}, "no port and no default peer"),
    ({"port": 70000}, "port 70000 out of range"),
    ({"host": "unresolvable", "port": 9}, "cannot resolve"),
    ({"port": "9x"}, "port must be an integer, got '9x'"),
    ({"port": True}, "port must be an integer, got True"),
])
def test_udp_output_binding_without_a_usable_peer_fails_when_bound(
        monkeypatch, properties, match):
    def no_resolver(host, *args):
        # no name service is asked: only numeric hosts resolve
        if host != "127.0.0.1":
            raise socket.gaierror(socket.EAI_NONAME, "unknown host")
        return getaddrinfo(host, *args)

    getaddrinfo = socket.getaddrinfo
    monkeypatch.setattr(socket, "getaddrinfo", no_resolver)
    reg = make_registry()
    server = UdpTransport()
    try:
        manager = BindingManager()
        manager.register_factory(UdpBindingFactory(server))
        with pytest.raises(TransportError, match=f"task.error.*{match}"):
            manager.bind(reg, BindingConfig("task.error", "output", "udp",
                                            "errors", properties))
    finally:
        server.close()


def test_udp_service_response_that_cannot_be_sent_is_dropped():
    server = UdpTransport()
    server.set_service_handler(lambda name, args: {"service": name})
    server.socket = StubSocket(server.socket, {
        0: BlockingIOError(errno.EAGAIN, "would block")})
    client = UdpTransport(default_peer=("127.0.0.1", server.port))
    try:
        with pytest.raises(TransportError, match="timed out"):
            client.request("first", {}, timeout=0.2)
        # the receive thread lived on to answer the next request
        assert client.request("second", {}) == {"service": "second"}
    finally:
        client.close()
        server.close()


def test_udp_service_request_response():
    server = UdpTransport()
    server.set_service_handler(
        lambda name, args: {"service": name, "args": args})
    client = UdpTransport(default_peer=("127.0.0.1", server.port))
    try:
        response = client.request("getRealJointIndices", {"verbose": 1})
        assert response == {"service": "getRealJointIndices",
                            "args": {"verbose": 1}}
    finally:
        client.close()
        server.close()


def test_udp_request_timeout():
    client = UdpTransport(default_peer=("127.0.0.1", 1))   # nothing listening
    try:
        with pytest.raises(TransportError, match="timed out"):
            client.request("anything", {}, timeout=0.2)
    finally:
        client.close()
