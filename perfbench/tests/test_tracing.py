"""Self-time arithmetic and wrapper installation of the span recorder."""

import types

import pytest

import tracing
from tracing import Boundary, Span, SpanRecorder, self_times


def _span(sid, start, end, parent=None, layer="x", name=None):
    return Span(sid, name or f"s{sid}", layer, start, end, parent, "run")


def test_self_time_subtracts_children():
    spans = [
        _span(0, 0.0, 10.0, layer="api"),
        _span(1, 1.0, 4.0, parent=0, layer="index"),
        _span(2, 5.0, 9.0, parent=0, layer="core.multi"),
        _span(3, 6.0, 7.5, parent=2, layer="dataset"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 2.5, 3: 1.5})
    # self times partition the root's interval: nothing counted twice
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 6.0, parent=0),
        _span(2, 4.0, 8.0, parent=0),  # overlaps span 1 on [4, 6]
        _span(3, 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


class _Target:
    @classmethod
    def build(cls, value):
        return cls.twice(value)

    @staticmethod
    def twice(value):
        return 2 * value

    def method(self, value):
        return value + 1


def test_installed_wraps_and_restores(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.Target = _Target
    module.function = lambda value: value - 1
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)
    originals = (_Target.__dict__["build"], _Target.__dict__["method"],
                 module.function)
    recorder = SpanRecorder()
    boundaries = [
        Boundary("fake_layer:Target.build", "build", "L1",
                 lambda span, result: span.attrs.update(result=result)),
        Boundary("fake_layer:Target.method", "method", "L2"),
        Boundary("fake_layer:function", "function", "L3"),
    ]
    with recorder.installed(boundaries):
        assert _Target.build(4) == 8
        assert _Target().method(4) == 5
        assert module.function(4) == 3
    assert [s.name for s in recorder.spans] == ["build", "method", "function"]
    assert recorder.spans[0].attrs == {"result": 8}
    assert all(s.end >= s.start for s in recorder.spans)
    assert (_Target.__dict__["build"], _Target.__dict__["method"],
            module.function) == originals


def test_every_program_boundary_resolves():
    for boundary in tracing.BOUNDARIES:
        owner = boundary.owner()
        assert callable(getattr(owner, boundary.attribute)), boundary.target
