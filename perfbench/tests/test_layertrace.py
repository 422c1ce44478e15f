"""Self-time subtraction of the layer tracer, with a fake clock.

Run from the repo root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from perfbench.layertrace import UNATTRIBUTED, LayerTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def rig():
    clock = FakeClock()
    return clock, LayerTracer(clock=clock)


def test_self_time_subtracts_child_spans(rig):
    clock, tracer = rig

    def leaf():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)

    inner = tracer.wrap(leaf, "net")
    outer = tracer.wrap(outer, "rm")
    with tracer.region():
        clock.advance(0.5)
        outer()
    assert tracer.self_time == {"rm": 4.0, "net": 2.0, UNATTRIBUTED: 0.5}


def test_same_layer_calls_open_no_span(rig):
    clock, tracer = rig
    calls = []

    def helper():
        calls.append(len(tracer._stack))
        clock.advance(1.0)

    helper = tracer.wrap(helper, "sim")

    def top():
        helper()
        helper()

    tracer.wrap(top, "sim")()
    assert calls == [1, 1]
    assert tracer.self_time == {"sim": 2.0}


def test_generator_is_timed_per_resumption(rig):
    clock, tracer = rig

    def process():
        clock.advance(1.0)
        got = yield "first"
        clock.advance(got)
        yield "second"
        clock.advance(0.25)
        return "done"

    gen = tracer.wrap(process, "gridftp")()
    assert next(gen) == "first"
    clock.advance(10.0)          # suspended: charged to nobody
    assert gen.send(2.0) == "second"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    assert tracer.self_time == {"gridftp": 3.25}


def test_generator_resumed_by_another_layer_is_a_child(rig):
    clock, tracer = rig

    def process():
        clock.advance(1.0)
        yield

    gen = tracer.wrap(process, "rm")()

    def kernel_step():
        clock.advance(0.5)
        next(gen)
        clock.advance(0.5)

    tracer.wrap(kernel_step, "sim")()
    assert tracer.self_time == {"sim": 1.0, "rm": 1.0}


def test_exceptions_are_forwarded_and_spans_closed(rig):
    clock, tracer = rig

    def process():
        try:
            yield 1
        except KeyError:
            clock.advance(1.0)
            yield 2

    gen = tracer.wrap(process, "campaign")()
    next(gen)
    assert gen.throw(KeyError("x")) == 2
    gen.close()

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "data")()
    assert tracer._stack == []
    assert tracer.self_time == {"campaign": 1.0, "data": 1.0}


def test_counters_and_measures(rig):
    _clock, tracer = rig
    read = tracer.wrap(lambda n: b"x" * n, "data", count_as="reads",
                       measure=len)
    read(3)
    read(4)
    assert tracer.calls == {"reads": 2}
    assert tracer.totals == {"reads": 7.0}


def test_install_wraps_and_uninstall_restores():
    import repro.data.ncformat as ncformat
    import repro.gridftp.plugins as plugins

    original = ncformat.SdbfReader.read_slab
    decode = ncformat.decode
    tracer = LayerTracer()
    tracer.install()
    try:
        assert ncformat.SdbfReader.read_slab is not original
        assert ncformat.SdbfReader.read_slab.__wrapped__ is original
        # a module-level function is rebound where it was imported too
        assert plugins.decode is ncformat.decode is not decode
    finally:
        tracer.uninstall()
    assert ncformat.SdbfReader.read_slab is original
    assert plugins.decode is decode
