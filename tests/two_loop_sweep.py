"""Two-loop reference walk, for the single-walk sweep tests.

:func:`smoothcert.empirical_sweep` walks the attack factor up and then down
with one loop over two factor sequences.  The walk here is the earlier form:
one hand-written loop per direction, with the same factor arithmetic, the
same stopping rules and the same query numbering, so the two must make the
same queries at the same factors and return the same interval for finite
limits.  Unlike the library it does not check that its limits are finite.
"""

import itertools

import numpy as np

from smoothcert.transforms import gamma_correct_batch, validate_image


def two_loop_sweep(predict, x, step: float, gamma_max: float):
    """The (left, right) interval of the two-loop walk, or None when the clean prediction abstains."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not gamma_max > 1.0:
        raise ValueError(f"gamma_max must exceed 1, got {gamma_max}")
    arr = validate_image(x)
    queries = itertools.count()

    def predict_at(gamma: float):
        return predict(gamma_correct_batch(arr, np.array([gamma]))[0], next(queries))

    label0 = predict_at(1.0)
    if label0 is None:
        return None

    right = 1.0
    k = 1
    while True:
        gamma = min(1.0 + k * step, gamma_max)
        if predict_at(gamma) != label0:
            break
        right = gamma
        if gamma >= gamma_max:
            break
        k += 1

    left = 1.0
    k = 1
    while True:
        gamma = 1.0 - k * step
        if gamma < step - 1e-12:
            break
        if predict_at(gamma) != label0:
            break
        left = gamma
        k += 1

    return left, right
