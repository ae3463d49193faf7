"""Self-tests of the benchmark harness.

``run.py`` runs them before every benchmark run and stops if one fails; run
them alone with ``python3 perfbench/selftest.py``.  They need no smoothcert.
"""

from __future__ import annotations

import sys

from stats import Tally, failed_share, self_time, tail_percentile
from spans import Record, Span, Tracer


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = tail_percentile(list(range(50, 0, -1)))
    assert (value, pct, n) == (40, 80.0, 50)
    assert sum(s > value for s in range(1, 51)) == 10
    assert tail_percentile(range(11))[:2] == (0, 100.0 / 11)
    try:
        tail_percentile(range(10))
    except ValueError:
        pass
    else:
        raise AssertionError("ten samples have no percentile with ten beyond")


def test_self_time_subtracts_covered_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 6.0
    assert self_time(0.0, 10.0, [(9.0, 12.0), (-1.0, 0.5)]) == 8.5
    assert self_time(0.0, 10.0, []) == 10.0


def test_span_self_times_account_for_the_root():
    root = Span("request", 0.0, 10.0, [Span("a", 1.0, 5.0, [Span("b", 2.0, 3.0)]), Span("c", 6.0, 9.0)])
    record = Record(root, {})
    selfs = record.self_times()
    assert selfs == {"request": 3.0, "a": 3.0, "b": 1.0, "c": 3.0}
    assert sum(selfs.values()) == record.duration


def test_tracer_reports_missing_wrap_targets_as_absent():
    class Owner:
        present = staticmethod(lambda: 1)

    tracer = Tracer()
    with tracer.installed([(Owner, "present", "p", None), (Owner, "gone", "g", None)]):
        with tracer.root():
            assert Owner.present() == 1
    assert tracer.absent == [f"{Owner.__name__}.gone"]
    assert [c.name for c in tracer.records[0].root.children] == ["p"]
    assert not hasattr(Owner.present, "__wrapped__")


def test_failed_share_counts_an_injected_wrong_answer():
    verdicts = {"bad": ("wrong answer", False), "unlucky": (None, True)}
    tally = Tally(lambda entry, result: verdicts.get(result, (None, False)))
    tally.add(0, "ok")
    tally.add(1, "bad")  # injected wrong answer
    tally.add(0, "ok")
    tally.add(1, "bad")  # the same wrong answer again
    tally.add(2, error="ValueError: boom")
    tally.add(0, "ok, but different")  # a repeat that is not byte-identical
    tally.add(3, "unlucky")  # excused: counted, not failed
    assert (tally.failed, tally.attempted) == (4, 7)
    assert tally.excused == {3}
    assert failed_share(tally.failed, tally.attempted) == 4 / 7


def run() -> list[str]:
    """Run every test; return one line per failure."""
    failures = []
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception as exc:  # report every failing self-test, not just the first
                failures.append(f"{name}: {exc!r}")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line, file=sys.stderr)
    print("self-tests:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
