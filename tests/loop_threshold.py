"""Loop reference for the order-statistic count, for the threshold tests.

:func:`smoothcert.multicert._solve_threshold` finds the count of each tail
with one bisection over the counts.  The solver here is the earlier form: a
first guess from ``target * n``, then float fix-up loops that step the count
until ``k / n`` sits on the right side of ``target``.  Both compare counts in
float as ``mean`` does, so they must pick the same order statistic for every
target, including those that ``target * n`` rounds across an integer.
"""

import math

import numpy as np


def loop_threshold(sums: np.ndarray, target: float, upper_tail: bool) -> float:
    """The lower-tail (k-th smallest sum) or upper-tail (just above the (m+1)-th largest) threshold."""
    n = sums.size
    if upper_tail:
        m = math.floor(target * n)
        while m / n > target:
            m -= 1
        while (m + 1) / n <= target:
            m += 1
        kth = n - 1 - m
        sums.partition(kth)
        return float(np.nextafter(sums[kth], np.inf))
    k = math.ceil(target * n)
    while k / n < target:
        k += 1
    while (k - 1) / n >= target:
        k -= 1
    sums.partition(k - 1)
    return float(sums[k - 1])
