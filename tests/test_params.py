import numpy as np
import pytest

from wbosc.params import (Event, ParameterError, ParameterKind,
                          ParameterRegistry)


def test_declare_and_lookup():
    reg = ParameterRegistry()
    reg.declare("rightHandPosition", "goalPosition", ParameterKind.VECTOR,
                np.zeros(3))
    param = reg.lookup("rightHandPosition.goalPosition")
    assert param is not None
    assert np.array_equal(param.value, np.zeros(3))


def test_duplicate_declaration_rejected():
    reg = ParameterRegistry()
    reg.declare("a", "x", ParameterKind.SCALAR, 0.0)
    with pytest.raises(ParameterError, match="duplicate"):
        reg.declare("a", "x", ParameterKind.SCALAR, 1.0)


def test_lookup_of_undeclared_is_absent_not_error():
    reg = ParameterRegistry()
    assert reg.lookup("ghost.value") is None
    with pytest.raises(ParameterError):
        reg.require("ghost.value")


def test_kind_checking():
    reg = ParameterRegistry()
    p = reg.declare("a", "x", ParameterKind.SCALAR, 0.0)
    with pytest.raises(ParameterError):
        p.set("nope")
    with pytest.raises(ParameterError):
        p.set([1.0, 2.0])
    v = reg.declare("a", "v", ParameterKind.VECTOR, [1.0, 2.0])
    with pytest.raises(ParameterError):
        v.set(3.0)
    b = reg.declare("a", "b", ParameterKind.BOOLEAN, False)
    with pytest.raises(ParameterError):
        b.set("yes")
    b.set(True)
    assert b.value is True


def test_setter_hook_mirrors_value():
    reg = ParameterRegistry()
    seen = []
    p = reg.declare("a", "x", ParameterKind.SCALAR, 0.0, setter=seen.append)
    p.set(4.5)
    assert seen == [4.5]


def test_set_publishes_to_all_output_bindings():
    class Probe:
        def __init__(self):
            self.values = []

        def offer(self, value):
            self.values.append(value)

    reg = ParameterRegistry()
    p = reg.declare("a", "x", ParameterKind.SCALAR, 0.0)
    probes = [Probe(), Probe()]
    p.output_bindings.extend(probes)
    p.set(2.0)
    assert all(pr.values == [2.0] for pr in probes)


def test_staged_input_applied_on_drain():
    reg = ParameterRegistry()
    p = reg.declare("task", "goalPosition", ParameterKind.VECTOR, np.zeros(2))
    reg.stage_input("task.goalPosition", np.array([1.0, 2.0]))
    assert np.array_equal(p.value, np.zeros(2))   # not yet applied
    applied = reg.drain_staged()
    assert applied == 1
    assert np.array_equal(p.value, [1.0, 2.0])


def test_a_sender_reusing_its_array_does_not_change_the_value():
    reg = ParameterRegistry()
    p = reg.declare("task", "goal", ParameterKind.VECTOR, np.zeros(1))
    goal = np.array([0.1])
    reg.stage_input("task.goal", goal)
    reg.drain_staged()
    goal[0] = 0.9       # no set: the value keeps what was drained
    np.testing.assert_array_equal(p.value, [0.1])


def test_drain_skips_on_contention():
    reg = ParameterRegistry()
    reg.declare("a", "x", ParameterKind.SCALAR, 0.0)
    reg.stage_input("a.x", 5.0)
    reg._staging_lock.acquire()
    try:
        assert reg.drain_staged() == 0
        assert reg.staged_drops == 1
    finally:
        reg._staging_lock.release()
    assert reg.drain_staged() == 1


def test_stage_unknown_or_readonly_parameter_ignored():
    reg = ParameterRegistry()
    reg.declare("a", "ro", ParameterKind.SCALAR, 1.0, writable=False)
    reg.stage_input("a.ro", 9.0)
    reg.stage_input("nope", 1.0)
    assert reg.drain_staged() == 0
    assert reg.require("a.ro").value == 1.0


# -- events -----------------------------------------------------------------------

def test_event_fires_once_while_true():
    reg = ParameterRegistry()
    p = reg.declare("t", "x", ParameterKind.SCALAR, 0.0)
    reg.add_event("crossed", "t.x > 0.5")
    p.set(1.0)
    fired = [reg.emit_events() for _ in range(100)]
    assert fired[0] == ["crossed"]
    assert all(f == [] for f in fired[1:])


def test_event_edge_semantics_fires_twice():
    reg = ParameterRegistry()
    p = reg.declare("t", "x", ParameterKind.SCALAR, 0.0)
    reg.add_event("e", "t.x > 0.5")
    sequence = [0.0, 1.0, 0.0, 1.0]
    fire_count = 0
    for value in sequence:
        p.set(value)
        fire_count += len(reg.emit_events())
    assert fire_count == 2


def test_event_with_missing_parameter_warns_and_never_fires():
    reg = ParameterRegistry()
    reg.add_event("ghostly", "ghost.x > 0")
    warnings = []
    for _ in range(3):
        assert reg.emit_events(warn=warnings.append) == []
    assert len(warnings) == 3
    assert "ghost.x" in warnings[0]


def test_event_norm_over_vector_parameter():
    reg = ParameterRegistry()
    p = reg.declare("task", "error", ParameterKind.VECTOR,
                    np.array([0.3, 0.4, 0.0]))
    reg.add_event("close", "norm(task.error) < 0.01")
    assert reg.emit_events() == []
    p.set(np.array([0.001, 0.0, 0.0]))
    assert reg.emit_events() == ["close"]


def test_events_are_evaluated_only_after_a_write_or_an_added_event(
        monkeypatch):
    evaluated = []
    evaluate = Event.evaluate

    def counting(event, resolver):
        evaluated.append(event.name)
        return evaluate(event, resolver)

    monkeypatch.setattr(Event, "evaluate", counting)
    reg = ParameterRegistry()
    p = reg.declare("t", "x", ParameterKind.SCALAR, 0.0)
    reg.add_event("high", "t.x > 0.5")
    reg.add_event("ghostly", "ghost.x > 0")
    warnings = []

    def emit():
        del evaluated[:]
        return reg.emit_events(warn=warnings.append)

    assert emit() == [] and evaluated == ["high", "ghostly"]
    # nothing written: only the failing event, which warns again
    assert emit() == [] and evaluated == ["ghostly"]
    assert len(warnings) == 2
    reg.stage_input("t.x", 1.0)
    assert reg.drain_staged() == 1
    assert emit() == ["high"] and evaluated == ["high", "ghostly"]
    p.set(0.0)
    assert emit() == [] and evaluated == ["high", "ghostly"]
    p.set(2.0)
    assert emit() == ["high"]
    reg.add_event("higher", "t.x > 1.5")
    assert emit() == ["higher"] and "higher" in evaluated
    assert emit() == [] and evaluated == ["ghostly"]
    # a parameter declared later makes the failing event evaluable
    reg.declare("ghost", "x", ParameterKind.SCALAR, 1.0)
    assert emit() == ["ghostly"]
    assert emit() == [] and evaluated == []
    assert len(warnings) == 7       # one per emit while it failed
