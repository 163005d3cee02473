"""Parameter reflection, staged input application, and fire-once events.

Controller objects declare their tunable/observable variables in a
ParameterRegistry under dot-namespaced names ("rightHandPosition.kp").
Transport receivers never touch parameter values directly: they stage
(name, value) pairs which the servo executor applies atomically at the start
of the next cycle via drain_staged() -- a try-acquire, so the servo never
blocks on a transport thread.

Events hold a compiled expression over parameter names and fire only on
false-to-true transitions; the expression is evaluated once per servo cycle.
"""

import enum
import threading

import numpy as np

from .expressions import EvaluationError, parse_expression


class ParameterError(ValueError):
    pass


class ParameterKind(enum.Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    BOOLEAN = "boolean"
    STRING = "string"


def _coerce(kind, value):
    if kind is ParameterKind.SCALAR:
        if isinstance(value, (bool, str)) or value is None:
            raise ParameterError(f"expected a scalar, got {value!r}")
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 0 and arr.size != 1:
            raise ParameterError(f"expected a scalar, got shape {arr.shape}")
        return float(arr)
    if kind is ParameterKind.VECTOR:
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 1:
            raise ParameterError(f"expected a vector, got shape {arr.shape}")
        return arr
    if kind is ParameterKind.BOOLEAN:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        raise ParameterError(f"expected a boolean, got {value!r}")
    if kind is ParameterKind.STRING:
        if not isinstance(value, str):
            raise ParameterError(f"expected a string, got {value!r}")
        return value
    raise ParameterError(f"unknown kind {kind!r}")


class Parameter:
    """One reflected controller variable.

    The stored value object is replaced, never mutated, so concurrent readers
    always observe a consistent value.  ``setter`` lets the owning object
    mirror changes into its own fields.
    """

    def __init__(self, name, kind, initial, readable=True, writable=True,
                 setter=None):
        self.name = name
        self.kind = kind
        self.readable = readable
        self.writable = writable
        self._setter = setter
        self._value = _coerce(kind, initial)
        self.output_bindings = []

    @property
    def value(self):
        return self._value

    def set(self, value):
        """Coerce and store ``value``.  The setter runs first: a value it
        refuses (by raising) is not stored and not offered to a binding."""
        value = _coerce(self.kind, value)
        if self._setter is not None:
            self._setter(value)
        self._value = value
        for binding in self.output_bindings:
            binding.offer(value)

    def scalar_view(self):
        """Value as used by the expression evaluator."""
        return self._value


class Event:
    """Fire-once edge detector over a compiled expression."""

    def __init__(self, name, expression):
        self.name = name
        if isinstance(expression, str):
            expression = parse_expression(expression)
        self.expression = expression
        self._previous = False

    def evaluate(self, resolver):
        """Returns True exactly when the expression transitions false->true."""
        current = bool(self.expression.eval(resolver))
        fired = current and not self._previous
        self._previous = current
        return fired


class ParameterRegistry:
    """Declared parameters, staged transport inputs, and the event list."""

    def __init__(self):
        self._params = {}
        self.events = []
        self._staging = {}
        self._staging_lock = threading.Lock()
        self.staged_drops = 0
        self.refused_inputs = 0     # staged values a parameter refused

    # -- declaration and lookup ------------------------------------------

    def declare(self, owner, name, kind, initial, readable=True, writable=True,
                setter=None):
        full = f"{owner}.{name}" if owner else name
        if full in self._params:
            raise ParameterError(f"duplicate parameter {full!r}")
        param = Parameter(full, kind, initial, readable, writable, setter)
        self._params[full] = param
        return param

    def lookup(self, name):
        """None when undeclared (absence is not an error)."""
        return self._params.get(name)

    def require(self, name):
        param = self._params.get(name)
        if param is None:
            raise ParameterError(f"unknown parameter {name!r}")
        return param

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def resolve(self, name):
        param = self._params.get(name)
        if param is None:
            raise KeyError(name)
        return param.scalar_view()

    # -- transport staging -------------------------------------------------

    def stage_input(self, name, value):
        """Called from transport threads; applied at the next cycle start."""
        with self._staging_lock:
            self._staging[name] = value

    def drain_staged(self, warn=None):
        """Servo-side: apply staged inputs without ever blocking; returns
        how many were applied.

        On lock contention the drain is skipped; the values stay staged and
        are applied on the next cycle.  A value that its parameter or the
        parameter's setter refuses (a ValueError) is skipped, counted in
        ``refused_inputs`` and passed to ``warn``.
        """
        if not self._staging_lock.acquire(blocking=False):
            self.staged_drops += 1
            return 0
        try:
            if not self._staging:
                return 0
            staged = list(self._staging.items())
            self._staging.clear()
        finally:
            self._staging_lock.release()
        applied = 0
        for name, value in staged:
            param = self._params.get(name)
            if param is None or not param.writable:
                continue
            try:
                param.set(value)
            except ValueError as exc:
                self.refused_inputs += 1
                if warn is not None:
                    warn(f"input {name!r} refused: {exc}")
                continue
            applied += 1
        return applied

    # -- events -------------------------------------------------------------

    def add_event(self, name, expression):
        event = Event(name, expression)
        self.events.append(event)
        return event

    def emit_events(self, warn=None):
        """Evaluate every event once; returns the names that fired."""
        fired = []
        for event in self.events:
            try:
                if event.evaluate(self.resolve):
                    fired.append(event.name)
            except EvaluationError as exc:
                if warn is not None:
                    warn(f"event {event.name!r}: {exc}")
        return fired
