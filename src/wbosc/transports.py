"""Parameter transports: in-process bus, UDP datagrams, CSV file sinks.

Wire format (little-endian), shared by publishes and services:

    magic   "CIT1"                      4 bytes
    kind    u8: 0 publish, 1 serviceRequest, 2 serviceResponse
    name    u16 length + UTF-8 bytes    (topic or service name)
    [id]    u32 request id              (kinds 1 and 2 only)
    vkind   u8: 0 f64 scalar, 1 f64 vector (u32 count + f64s),
            2 bool (u8), 3 UTF-8 string (u32 length + bytes)
    payload per vkind

A UDP output binding sends each value from the thread that sets its
parameter, with one non-blocking ``sendto`` to a peer resolved when the
binding is made; a send that would block or fails is counted as a dropped
value on its binding.  Intra-bus and CSV outputs, events and cycle
diagnostics, whose subscribers and file writes can block, go through a
bounded queue drained by a publisher worker thread; on overflow the oldest
entry is dropped and counted, and so is a dropped output-binding value, on
its binding.  Output bindings rate-limit at offer time against the runtime
clock, and CSV rows are stamped on it.
"""

import csv
import io
import json
import math
import os
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CIT1"
KIND_PUBLISH = 0
KIND_SERVICE_REQUEST = 1
KIND_SERVICE_RESPONSE = 2


class TransportError(ValueError):
    pass


class WireError(TransportError):
    pass


# -- wire format ----------------------------------------------------------------

def _encode_value(value):
    if isinstance(value, (bool, np.bool_)):
        return struct.pack("<BB", 2, 1 if value else 0)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack("<BI", 3, len(raw)) + raw
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return struct.pack("<Bd", 0, float(arr))
    if arr.ndim == 1:
        return struct.pack("<BI", 1, arr.shape[0]) + arr.astype("<f8").tobytes()
    raise WireError(f"cannot encode value of shape {arr.shape}")


def _decode_value(buf, offset):
    (vkind,) = struct.unpack_from("<B", buf, offset)
    offset += 1
    if vkind == 0:
        (value,) = struct.unpack_from("<d", buf, offset)
        return value, offset + 8
    if vkind == 1:
        (count,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        value = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).copy()
        return value, offset + 8 * count
    if vkind == 2:
        (raw,) = struct.unpack_from("<B", buf, offset)
        return bool(raw), offset + 1
    if vkind == 3:
        (length,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        return buf[offset:offset + length].decode("utf-8"), offset + length
    raise WireError(f"unknown value kind {vkind}")


def encode_message(kind, name, value, request_id=None):
    raw_name = name.encode("utf-8")
    head = MAGIC + struct.pack("<BH", kind, len(raw_name)) + raw_name
    if kind in (KIND_SERVICE_REQUEST, KIND_SERVICE_RESPONSE):
        if request_id is None:
            raise WireError("service messages need a request id")
        head += struct.pack("<I", request_id)
    return head + _encode_value(value)


def decode_message(buf):
    if buf[:4] != MAGIC:
        raise WireError("bad magic")
    kind, name_len = struct.unpack_from("<BH", buf, 4)
    offset = 7
    name = buf[offset:offset + name_len].decode("utf-8")
    offset += name_len
    request_id = None
    if kind in (KIND_SERVICE_REQUEST, KIND_SERVICE_RESPONSE):
        (request_id,) = struct.unpack_from("<I", buf, offset)
        offset += 4
    value, _ = _decode_value(buf, offset)
    return kind, name, value, request_id


# -- in-process bus ----------------------------------------------------------------

class TopicWatch:
    """Whether any of ``topics`` has a subscriber on its bus.  The bus sets
    ``subscribed`` under its lock; a reader reads it without one."""

    def __init__(self, topics):
        self.topics = frozenset(topics)
        self.subscribed = False


class IntraBus:
    """Topic pub/sub inside one process, with per-topic latched values.

    A subscriber that raises does not stop delivery to the other
    subscribers or later topics; it is counted in ``failures``."""

    def __init__(self):
        self._subscribers = {}
        self._latched = {}
        self._watches = []
        self._lock = threading.Lock()
        self.failures = 0

    def watch(self, topics):
        """A TopicWatch over ``topics``; a subscription cannot be undone,
        so once set it stays set."""
        watch = TopicWatch(topics)
        with self._lock:
            watch.subscribed = not watch.topics.isdisjoint(self._subscribers)
            self._watches.append(watch)
        return watch

    def subscribe(self, topic, callback):
        with self._lock:
            self._subscribers.setdefault(topic, []).append(callback)
            for watch in self._watches:
                if topic in watch.topics:
                    watch.subscribed = True
            latched = self._latched.get(topic)
        if latched is not None:
            callback(latched)

    def publish(self, topic, value, latch=False):
        with self._lock:
            if latch:
                self._latched[topic] = value
            callbacks = list(self._subscribers.get(topic, ()))
        for cb in callbacks:
            try:
                cb(value)
            except Exception:
                with self._lock:
                    self.failures += 1

    def publish_each(self, topics, values):
        """Publish values[i] on topics[i], in order."""
        for topic, value in zip(topics, values):
            self.publish(topic, value)


# -- publisher offload ----------------------------------------------------------------

class PublisherWorker:
    """Bounded publish queue drained off the servo context, for the sinks
    that can block: intra-bus and CSV outputs, events and cycle diagnostics.

    Overflow drops the oldest entry and counts the drop, in ``drops`` and,
    when the entry was enqueued with an owner, in that owner's ``dropped``;
    a sink that raises is counted in ``failures``.  enqueue never blocks on
    a lock.  The drain thread needs the GIL, which a servo thread that makes
    no blocking call never releases, so once more than ``BEHIND`` entries
    wait, enqueue hands the GIL over with ``time.sleep(0)``; the drain then
    catches up instead of falling behind until it drops entries, and a sink
    sees no burst of hundreds of values.
    flush() is for tests and orderly shutdown only: it returns once the
    queue is empty and the entry the drain loop last took out has been
    delivered.
    """

    BEHIND = 32

    def __init__(self, maxlen=1024):
        self._queue = deque()
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self.drops = 0
        self.failures = 0
        self._delivering = False    # taken out of the queue, not delivered
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="publisher")
        self._thread.start()

    def enqueue(self, sink, topic, value, owner=None):
        with self._lock:
            if len(self._queue) >= self.maxlen:
                dropped_owner = self._queue.popleft()[3]
                self.drops += 1
                if dropped_owner is not None:
                    dropped_owner.dropped += 1
            self._queue.append((sink, topic, value, owner))
            behind = len(self._queue) > self.BEHIND
        self._wake.set()
        if behind:
            time.sleep(0)

    def _run(self):
        while not self._stop.is_set():
            if not self._wake.wait(timeout=0.2):
                continue
            while True:
                with self._lock:
                    if not self._queue:
                        self._wake.clear()
                        self._delivering = False
                        break
                    sink, topic, value, _ = self._queue.popleft()
                    self._delivering = True
                try:
                    sink(topic, value)
                except Exception:
                    # a failing sink must not kill the drain loop
                    self.failures += 1

    def flush(self, timeout=2.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not (self._queue or self._delivering):
                    return True
            time.sleep(0.001)
        return False

    def stop(self):
        self.flush(0.5)
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)


# -- bindings ------------------------------------------------------------------------

@dataclass
class BindingConfig:
    parameter: str
    direction: str                      # input | output
    transport_type: str
    topic: str
    properties: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in ("input", "output"):
            raise TransportError(
                f"binding for {self.parameter!r}: direction must be input or "
                f"output, got {self.direction!r}")
        rate = self.properties.get("publish_rate")
        if rate is not None and (isinstance(rate, bool)
                                 or not isinstance(rate, (int, float))
                                 or not 0.0 < rate < math.inf):
            raise TransportError(
                f"binding for {self.parameter!r}: publish_rate must be a "
                f"number > 0, got {rate!r}")

    @property
    def publish_rate(self):
        rate = self.properties.get("publish_rate")
        return None if rate is None else float(rate)

    @property
    def latched(self):
        return _to_bool(self.properties.get("latched", False))


class OutputBinding:
    """Attached to a parameter; offer() applies the rate limit, then hands
    the value to the publisher or, with none, to the sink itself.

    Every value counted in ``published`` is delivered to the sink or counted
    in ``dropped``: when the publisher's queue overflows or, with no
    publisher, when the sink's send would block or fails (``OSError``)."""

    def __init__(self, config, sink, publisher, clock=time.monotonic):
        self.config = config
        self.topic = config.topic
        self._sink = sink
        self._publisher = publisher
        self._clock = clock
        self._min_interval = (None if config.publish_rate is None
                              else 1.0 / config.publish_rate)
        self._last_publish = None
        self.published = 0
        self.dropped = 0
        self.rate_limited = 0

    def offer(self, value):
        if self._min_interval is not None:
            now = self._clock()
            if self._last_publish is not None \
                    and now - self._last_publish < self._min_interval:
                self.rate_limited += 1
                return False
            self._last_publish = now
        self.published += 1
        if self._publisher is None:
            try:
                self._sink(self.topic, value)
            except OSError:     # BlockingIOError included: never waits
                self.dropped += 1
        else:
            self._publisher.enqueue(self._sink, self.topic, value, self)
        return True


class InputBinding:
    def __init__(self, config):
        self.config = config
        self.topic = config.topic


# -- transport factories ----------------------------------------------------------------

class IntraBindingFactory:
    transport_type = "intra"

    def __init__(self, bus, publisher=None, clock=time.monotonic):
        self.bus = bus
        self.publisher = publisher
        self.clock = clock

    def create(self, config, registry, parameter):
        if config.direction == "output":
            latch = config.latched

            def sink(topic, value, _latch=latch):
                self.bus.publish(topic, value, latch=_latch)

            binding = OutputBinding(config, sink, self.publisher, self.clock)
            if latch:
                binding.offer(parameter.value)
            return binding
        name = parameter.name

        def receive(value):
            registry.stage_input(name, value)

        self.bus.subscribe(config.topic, receive)
        return InputBinding(config)


class FileBindingFactory:
    """CSV append sink, output only: timestamp, topic, values.  The
    timestamp is ``clock()`` in seconds, read when the row is written."""

    transport_type = "file"

    def __init__(self, directory=".", publisher=None, clock=time.monotonic):
        self.directory = directory
        self.publisher = publisher
        self.clock = clock
        self._files = {}
        self._lock = threading.Lock()

    def create(self, config, registry, parameter):
        if config.direction != "output":
            raise TransportError("file transport is output-only")
        return OutputBinding(config, self.write_row, self.publisher, self.clock)

    def write_row(self, topic, value):
        path = os.path.join(self.directory, topic.replace("/", "_") + ".csv")
        row = [f"{self.clock():.6f}", topic]
        arr = np.atleast_1d(np.asarray(value, dtype=object)).ravel()
        row.extend(str(x) for x in arr)
        with self._lock:
            fh = self._files.get(path)
            if fh is None:
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                fh = open(path, "a", newline="", encoding="utf-8")
                self._files[path] = fh
            csv.writer(fh).writerow(row)
            fh.flush()

    def close(self):
        with self._lock:
            for fh in self._files.values():
                fh.close()
            self._files.clear()


class UdpTransport:
    """One UDP socket: topic publishes out, staged parameter inputs in, and
    request/response services, all in the shared wire format.

    The socket is non-blocking, so a send never waits (a full buffer raises
    ``BlockingIOError``) and polls nothing first: a socket with a Python
    timeout polls before every send, releasing the GIL, and can wait there.
    The receive thread waits in its own poll instead."""

    def __init__(self, local_port=0, default_peer=None):
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.socket.bind(("127.0.0.1", local_port))
        self.socket.setblocking(False)
        self.port = self.socket.getsockname()[1]
        self.default_peer = default_peer
        self._input_topics = {}
        self._service_handler = None
        self._pending = {}
        self._pending_lock = threading.Lock()
        self._next_request_id = 1
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="udp-transport")
        self._thread.start()

    def close(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        self.socket.close()

    def register_input(self, topic, callback, with_addr=False):
        self._input_topics[topic] = (callback, with_addr)

    def set_service_handler(self, handler):
        """handler(service_name, args_dict) -> JSON-serializable response."""
        self._service_handler = handler

    def send_publish(self, topic, value, peer=None):
        peer = peer or self.default_peer
        if peer is None:
            raise TransportError("udp publish needs a peer address")
        self.socket.sendto(encode_message(KIND_PUBLISH, topic, value), peer)

    def request(self, service, args, peer=None, timeout=2.0):
        peer = peer or self.default_peer
        if peer is None:
            raise TransportError("udp request needs a peer address")
        with self._pending_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            event = threading.Event()
            self._pending[request_id] = [event, None]
        payload = json.dumps(args or {})
        self.socket.sendto(
            encode_message(KIND_SERVICE_REQUEST, service, payload, request_id),
            peer)
        if not event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise TransportError(f"service {service!r} timed out")
        with self._pending_lock:
            _, response = self._pending.pop(request_id)
        return json.loads(response)

    def _run(self):
        poller = select.poll()
        poller.register(self.socket, select.POLLIN)
        while not self._stop.is_set():
            if not poller.poll(200):
                continue
            try:
                data, addr = self.socket.recvfrom(65536)
            except BlockingIOError:
                continue
            except OSError:
                return
            try:
                kind, name, value, request_id = decode_message(data)
            except WireError:
                continue
            if kind == KIND_PUBLISH:
                entry = self._input_topics.get(name)
                if entry is not None:
                    callback, with_addr = entry
                    if with_addr:
                        callback(value, addr)
                    else:
                        callback(value)
            elif kind == KIND_SERVICE_REQUEST and self._service_handler is not None:
                try:
                    args = json.loads(value) if isinstance(value, str) else {}
                    response = self._service_handler(name, args)
                except Exception as exc:
                    response = {"error": str(exc)}
                try:
                    self.socket.sendto(
                        encode_message(KIND_SERVICE_RESPONSE, name,
                                       json.dumps(response), request_id),
                        addr)
                except OSError:
                    pass    # a response that cannot go out is dropped
            elif kind == KIND_SERVICE_RESPONSE:
                with self._pending_lock:
                    entry = self._pending.get(request_id)
                    if entry is not None:
                        entry[1] = value
                        entry[0].set()


class UdpBindingFactory:
    """Output bindings send inline, from the thread that sets the parameter
    (the servo thread), through the transport's non-blocking socket; they
    have no publisher."""

    transport_type = "udp"

    def __init__(self, transport, clock=time.monotonic):
        self.transport = transport
        self.clock = clock

    def create(self, config, registry, parameter):
        if config.direction == "output":
            peer = self._peer(config)

            def sink(topic, value):
                self.transport.send_publish(topic, value, peer)

            return OutputBinding(config, sink, None, self.clock)
        name = parameter.name

        def receive(value):
            registry.stage_input(name, value)

        self.transport.register_input(config.topic, receive)
        return InputBinding(config)

    def _peer(self, config):
        """The binding's peer as a numeric address, resolved once here: a
        send to a host name would resolve it on every call."""
        where = (f"udp output binding for {config.parameter!r} on "
                 f"{config.topic!r}")
        port = config.properties.get("port")
        if port is None:
            peer = self.transport.default_peer
            if peer is None:
                raise TransportError(f"{where}: no port and no default peer")
        else:
            if isinstance(port, bool) or not isinstance(port, int):
                raise TransportError(
                    f"{where}: port must be an integer, got {port!r}")
            if not 0 < port < 65536:
                # getaddrinfo would wrap it into range
                raise TransportError(f"{where}: port {port} out of range")
            peer = (config.properties.get("host", "127.0.0.1"), port)
        try:
            return socket.getaddrinfo(peer[0], peer[1], socket.AF_INET,
                                      socket.SOCK_DGRAM)[0][4]
        except socket.gaierror as exc:
            raise TransportError(
                f"{where}: cannot resolve {peer[0]!r}: {exc}") from None


class BindingManager:
    """Matches binding configs to registered transport factories."""

    def __init__(self):
        self._factories = {}
        self.bindings = []

    def register_factory(self, factory):
        self._factories[factory.transport_type] = factory

    def factory(self, transport_type):
        try:
            return self._factories[transport_type]
        except KeyError:
            raise TransportError(
                f"unknown transport type {transport_type!r}") from None

    def bind(self, registry, config):
        parameter = registry.lookup(config.parameter)
        if parameter is None:
            raise TransportError(
                f"binding refers to unknown parameter {config.parameter!r}")
        factory = self.factory(config.transport_type)
        binding = factory.create(config, registry, parameter)
        if config.direction == "output":
            parameter.output_bindings.append(binding)
        self.bindings.append(binding)
        return binding

    def close(self):
        self.bindings.clear()


def _to_bool(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)
