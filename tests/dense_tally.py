"""Dense reference vote tally, for the sparse-tally tests.

:func:`smoothcert.runtime._tally` counts each group's labels sparsely, keyed
by label.  The tally here is the earlier dense form: one row of int64 counts
per group, indexed by label, so its width is the largest label plus one and
its memory grows with the label values.  It chunks the draws exactly as the
library does and reads the same ``_TALLY_CAP`` and core count, so the two
must agree count for count, and ``np.argmax`` of a row (lowest label on ties)
must be the library's top label.
"""

import numpy as np

from smoothcert import rng, runtime


def dense_tally(base, rows, n: int, width: int, group: int) -> np.ndarray:
    """Label counts of draws 0..n-1 per group of ``group`` consecutive draws, one dense row per group."""
    step = max(1, min(runtime._TALLY_CAP // width, group * rng._usable_cores()))
    groups = -(-n // group)
    counts = np.zeros((groups, 0), dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        labels = np.asarray(base.labels(rows(lo, hi)))
        classes = max(counts.shape[1], int(labels.max()) + 1)
        slots = np.arange(lo, hi) // group * classes + labels
        chunk = np.bincount(slots, minlength=groups * classes).reshape(groups, classes)
        chunk[:, : counts.shape[1]] += counts
        counts = chunk
    return counts
