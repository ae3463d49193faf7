"""Reference Rayleigh solver at a concrete scale, for the scale-invariance tests.

:func:`smoothcert.certify_rayleigh` solves on the scale-free composite
F(F^{-1}(q) / gamma).  The solver here spells the composite out with the CDF
and quantile of one concrete scale; the two agreeing for every scale is the
scale invariance the tests witness.
"""

from smoothcert import Abstain, Certificate, ProbBounds, RayleighParams, rayleigh
from smoothcert.certify import _check_open_bounds, _solve_gamma_pair


def certify_rayleigh_explicit(bounds: ProbBounds, params: RayleighParams) -> Certificate | Abstain:
    """Same certificate via the explicit CDF/quantile at a concrete scale.

    Results agree with :func:`smoothcert.certify_rayleigh` to solver
    tolerance for any ``params``.
    """
    abstain = _check_open_bounds(bounds)
    if abstain is not None:
        return abstain
    pa, pb = bounds.pa_lower, bounds.pb_upper
    dist = rayleigh(params)
    q_pa = dist.quantile(pa)
    q_pb = dist.quantile(pb)
    q_not_pa = dist.quantile(1.0 - pa)
    q_not_pb = dist.quantile(1.0 - pb)

    def res_hi(g: float) -> float:
        return dist.cdf(q_pa / g) + dist.cdf(q_not_pb / g) - 1.0

    def res_lo(g: float) -> float:
        return dist.cdf(q_pb / g) + dist.cdf(q_not_pa / g) - 1.0

    return _solve_gamma_pair(res_lo, res_hi, f"rayleigh(sigma={params.sigma:g})", bounds.confidence)
