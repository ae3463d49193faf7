"""Reference Rayleigh solver at a concrete scale, for the scale-invariance tests.

:func:`smoothcert.certify_rayleigh` solves a scale-free equation in
t = 1/gamma^2.  The solver here spells the residuals out with the CDF and
quantile of one concrete scale and finds their roots in gamma with
``scipy.optimize.brentq``, sharing no code with the library's solver; the two
agreeing for every scale is the scale invariance the tests witness.
"""

from scipy.optimize import brentq

from smoothcert import Abstain, Certificate, Method, ProbBounds, RayleighParams, rayleigh


def _root(residual, inside: float, step: float) -> float:
    """Root of a monotone residual, bracketed from ``inside`` by repeated ``step`` scaling."""
    outside = inside * step
    while residual(outside) * residual(inside) > 0.0:
        inside, outside = outside, outside * step
    return brentq(residual, min(inside, outside), max(inside, outside), xtol=1e-15, rtol=1e-15)


def certify_rayleigh_explicit(bounds: ProbBounds, params: RayleighParams) -> Certificate | Abstain:
    """Same certificate via the explicit CDF/quantile at a concrete scale.

    gamma1 solves F(q(pb)/g) + F(q(1 - pa)/g) = 1 on (0, 1] and gamma2 solves
    F(q(pa)/g) + F(q(1 - pb)/g) = 1 on [1, inf).  Results agree with
    :func:`smoothcert.certify_rayleigh` to root tolerance for any ``params``;
    ``pb_upper`` must be positive, so that gamma2 is finite.
    """
    if not bounds.certifiable:
        return Abstain(f"bounds do not separate: {bounds.pa_lower} <= {bounds.pb_upper}")
    pa, pb = bounds.pa_lower, bounds.pb_upper
    dist = rayleigh(params)
    q_pa, q_pb, q_not_pa, q_not_pb = (float(dist.quantile(q)) for q in (pa, pb, 1.0 - pa, 1.0 - pb))

    def res_hi(g: float) -> float:
        return float(dist.cdf(q_pa / g) + dist.cdf(q_not_pb / g)) - 1.0

    def res_lo(g: float) -> float:
        return float(dist.cdf(q_pb / g) + dist.cdf(q_not_pa / g)) - 1.0

    return Certificate(
        _root(res_lo, 1.0, 0.5),
        _root(res_hi, 1.0, 2.0),
        Method.T_ROOT,
        f"rayleigh(sigma={params.sigma:g})",
        bounds.confidence,
    )
