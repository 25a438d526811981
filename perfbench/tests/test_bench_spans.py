"""Span recorder: self time under concurrent children, and clean unwrapping."""

import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from spans import Recorder, Span, self_times, traced, union_length  # noqa: E402


def _span(id, name, parent, thread, start, end):
    return Span(id=id, name=name, parent=parent, thread=thread, start=start, end=end)


def test_self_time_subtracts_union_of_overlapping_children():
    # children on two threads overlap on [3, 5]; the union covers [1, 8]
    tree = [
        _span(0, "check", None, 1, 0.0, 10.0),
        _span(1, "leaf", 0, 2, 1.0, 5.0),
        _span(2, "leaf", 0, 3, 3.0, 8.0),
        _span(3, "inner", 1, 2, 2.0, 4.0),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(2.0)
    assert union_length([(1.0, 5.0), (3.0, 8.0), (9.0, 9.5)]) == pytest.approx(7.5)


def test_worker_thread_spans_take_the_open_check_as_parent():
    rec = Recorder()
    check = rec.open("harness.zero_one", check=True)
    barrier = threading.Barrier(2, timeout=5)

    def work():
        barrier.wait()  # both children open before either closes
        span = rec.open("simulate.sample_path")
        time.sleep(0.05)
        rec.close(span)

    workers = [threading.Thread(target=work) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=5)
    assert not any(w.is_alive() for w in workers)
    rec.close(check)

    leaves = [s for s in rec.spans if s.name == "simulate.sample_path"]
    assert len(leaves) == 2
    assert {s.parent for s in leaves} == {check.id}
    assert len({s.thread for s in leaves}) == 2
    covered = union_length([(s.start, s.end) for s in leaves])
    assert covered < sum(s.duration for s in leaves)  # they overlapped
    own = self_times(rec.spans)
    assert own[check.id] == pytest.approx(check.duration - covered)
    assert check.cpu_end is not None and check.cpu_end >= check.cpu_start


def _bindings():
    import perpetua  # noqa: F401

    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "perpetua" or name.startswith("perpetua.")):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for module_name, attr, *_ in spans.TARGETS:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            out[(module_name, attr)] = cls.__dict__[method]
    return out


def test_traced_restores_every_binding_even_after_an_error():
    import perpetua.harness
    import perpetua.simulate

    before = _bindings()
    original_sample_path = perpetua.simulate.sample_path
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with traced(rec):
            # the by-name import in harness is rebound, not just the defining module
            assert perpetua.harness.sample_path is not original_sample_path
            assert perpetua.harness.sample_path is perpetua.simulate.sample_path
            assert perpetua.simulate.StepEngine.draw is not before[("perpetua.simulate", "StepEngine.draw")]
            perpetua.rng.derive_seed(1, "x")
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert [s.name for s in rec.spans] == ["rng.derive_seed"]
