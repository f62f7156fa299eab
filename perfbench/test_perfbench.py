"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import signal

import pytest

import hostspeed
import tracing
import worker
import workloads

ALL_BINDINGS = (*tracing.BINDINGS, tracing.JET_MUL)


def _take(workload: str, seed: int, n: int) -> list[workloads.Op]:
    return list(itertools.islice(workloads.ops(workload, seed), n))


def _outputs(ops: list[workloads.Op]) -> list[str]:
    out = []
    for op in ops:
        rc, stdout, _ = worker.call(op.argv)
        assert workloads.check(op, rc, stdout) == []
        out.append(stdout)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    n = 3 * workloads.PREFIX_OPS[workload]
    first = _take(workload, 7, n)
    assert first == _take(workload, 7, n)
    assert first != _take(workload, 8, n)


def test_sweep_grids_cross_one_exclusion_column():
    for op in _take("sweep-grid", 5, 6):
        outside = 0
        for u in workloads.grid_points(op.grid):
            try:
                workloads.ModelPoint(model=op.model, r=op.r, u=u)
            except ValueError:
                outside += 1
        assert outside == op.points // workloads.U1_COUNT


@pytest.mark.parametrize("workload,n", [("verify-mixed", 2), ("sweep-grid", 1),
                                        ("point-commands", 12)])
def test_stdout_is_byte_identical_with_tracing_on_and_off(workload, n):
    ops = _take(workload, 3, n)
    plain = _outputs(ops)
    recorder = tracing.SpanRecorder()
    with tracing.patched(tracing.BINDINGS, recorder.wrap):
        traced = _outputs(ops)
    counter = tracing.CallCounter()
    with tracing.patched(ALL_BINDINGS, counter.wrap):
        counted = _outputs(ops)
    assert traced == plain
    assert counted == plain
    assert recorder.spans
    assert counter.counts["jets.mul"] > 0


def _assert_restored(before: dict) -> None:
    after = tracing.originals(ALL_BINDINGS)
    assert after.keys() == before.keys()
    assert all(after[b] is before[b] for b in before)


def test_every_patched_binding_is_the_original_again():
    before = tracing.originals(ALL_BINDINGS)
    recorder = tracing.SpanRecorder()
    with tracing.patched(ALL_BINDINGS, recorder.wrap) as present:
        assert present
        for b in present:
            assert vars(tracing.resolve(b.owner))[b.attr] is not before[b]
        _outputs(_take("point-commands", 1, 2))
    _assert_restored(before)

    with pytest.raises(ZeroDivisionError):
        with tracing.patched(ALL_BINDINGS, recorder.wrap):
            1 / 0
    _assert_restored(before)


def test_self_time_is_span_minus_children_and_spans_close_on_error():
    recorder = tracing.SpanRecorder()

    def fail():
        raise ValueError("inner")

    inner = recorder.wrap(tracing.Binding("m.inner", "b", "m", "inner"), fail)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
        return sum(range(1000))

    recorder.trace = 5
    outer = recorder.wrap(tracing.Binding("m.outer", "a", "m", "outer"), outer_body)
    assert outer() == sum(range(1000))
    inner_span, outer_span = recorder.spans
    assert (inner_span.parent, outer_span.parent) == (outer_span.id, None)
    assert inner_span.trace == outer_span.trace == 5
    by_name, by_layer = recorder.self_seconds()
    assert by_name["m.outer"] == pytest.approx(
        (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start))
    assert by_layer["b"] == by_name["m.inner"]


def test_gate_rejects_wrong_results():
    curvature, classify = (op for op in _take("point-commands", 2, 6)
                           if op.fmt == "json" and op.kind in ("curvature", "classify"))
    (out,) = _outputs([curvature])
    wrong = out.replace('"tau": ', '"tau": 1', 1)
    assert any("tau" in p for p in workloads.check(curvature, 0, wrong))
    assert workloads.check(curvature, 2, out) == ["exit code 2"]
    (out,) = _outputs([classify])
    assert workloads.check(classify, 0, out.replace('"F', '"F2', 1))
    sweep = _take("sweep-grid", 2, 1)[0]
    (out,) = _outputs([sweep])
    lines = out.splitlines()
    assert workloads.check(sweep, 0, "\n".join(lines[:-1]))


def test_sampler_restores_signal_state_and_leaves_output_alone():
    before = signal.getsignal(signal.SIGALRM)
    (op,) = _take("point-commands", 4, 1)
    plain = worker.call(op.argv)
    sampler = hostspeed.Sampler(interval=0.001)
    sampled = worker.call(op.argv, sampler)
    assert sampled[:2] == plain[:2]
    assert sampler.samples and sampler.overhead > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
