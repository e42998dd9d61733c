import types

import pytest

from spans import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 4)]) == 3          # overlap counted once
    assert covered(0, 10, [(1, 2), (5, 7)]) == 3          # disjoint
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3        # clipped to the window
    assert covered(0, 10, [(11, 12), (-3, -1)]) == 0      # outside


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_patch_wraps_lookup_and_unpatch_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = Tracer()
    tracer.patch(mod, "f", "mod.f")
    assert mod.f(1) == 2
    assert [s.name for s in tracer.spans] == ["mod.f"]
    tracer.unpatch_all()
    assert mod.f is original


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.wrap(lambda: 1 / 0, "boom")()
    (span,) = tracer.spans
    assert span.end >= span.start
    with tracer.span("next"):
        pass
    assert tracer.spans[-1].parent == -1
