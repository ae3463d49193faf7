"""Summary statistics shared by the benchmark runner and its self-tests."""

from __future__ import annotations

TAIL_SAMPLES_BEYOND = 10


def tail_percentile(samples):
    """Latency at the highest percentile that still has >= 10 samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With N sorted samples the
    value is the one at 0-based rank N - 11, so exactly ten samples lie above
    it, and the percentile is its rank as a share of N.  Fewer than eleven
    samples have no such percentile and raise.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        raise ValueError(f"need more than {TAIL_SAMPLES_BEYOND} samples, got {n}")
    rank = n - TAIL_SAMPLES_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def covered_length(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, child_intervals):
    """Span duration minus the part of it that child spans cover."""
    return (end - start) - covered_length(start, end, child_intervals)


def failed_share(failed, attempted):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


class Tally:
    """Operations attempted and failed across the requests of one run.

    An operation fails when it raises, when its result fails the workload's
    check, or when it repeats an earlier request without reproducing that
    request's first result byte for byte.  ``check(entry, result)`` returns
    ``(reason, excused)`` with reason None for a correct result; it runs once
    per entry, and ``excused`` entries (disagreements the result's stated
    confidence allows) are counted in :attr:`excused`.
    """

    MAX_REASONS = 5

    def __init__(self, check) -> None:
        self.check = check
        self.first: dict = {}
        self.verdicts: dict = {}
        self.excused: set = set()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, entry, result=None, error: str | None = None) -> None:
        self.attempted += 1
        if error is None:
            text = repr(result)
            if entry not in self.first:
                self.first[entry] = (result, text)
                try:
                    self.verdicts[entry], excused = self.check(entry, result)
                except Exception as exc:  # a malformed result is a failed operation
                    self.verdicts[entry], excused = f"check raised {exc!r}", False
                if excused:
                    self.excused.add(entry)
            elif text != self.first[entry][1]:
                error = "result is not byte-identical to the first issue of this request"
            error = error or self.verdicts[entry]
        if error is not None:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"request {entry}: {error}")
