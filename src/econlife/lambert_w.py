"""Principal real branch of the Lambert W function.

``w0(z)`` solves ``w * exp(w) = z`` for the unique real ``w >= -1``, defined
for ``z >= -1/e``.  From z = -0.3 on, the evaluation starts at log1p(z)
and takes Halley steps on f(w) = w - z e^(-w), the equation w e^w = z
divided by e^w, so that no term overflows even at the largest double; see
Corless, Gonnet, Hare, Jeffrey and Knuth, "On the Lambert W function", Adv.
Comput. Math. 5 (1996).

Near the branch point W0 is solved from the replacement problem's cost
ratio c: ``_scaled_interior_age(c) = 1 + c + W0(-e^(-1-c))`` starts from the
exact branch offset 1 - e^(-c) (branch-point series, then Halley's method on
gap(tau) = tau - 1 + e^(-tau) = c), and ``w0`` hands it z < -0.3 as
c = -1 - log(-z).

gap(x) = x - 1 + e^(-x) is behind every regime quantity: the interior
optimum solves gap(r t*) = c, the slope threshold is b r x / gap(x) with
x = r * junction, and the acquisition threshold is (a/r^2) gap(-log1p(-b r/a)).
The cost model's q = 1 - x/(e^x - 1) is the same cancellation at -x, since
e^x - 1 - x = gap(-x).  Below |x| = 0.1 all of them, the interior age, both
thresholds and the cost kernel, read one series, ``gap_series`` = gap(x)/x^2;
above it they read ``gap_ratio`` = gap(x)/x in its direct form.

No external special-function library is used; the test suite checks w0
against SciPy's ``lambertw``, bisection and the inverse map.
"""

import math

from .errors import NumericError

__all__ = ["BRANCH_POINT", "gap_ratio", "gap_series", "w0", "w0_series", "w0_inverse"]

#: Left edge of the real domain, -1/e.  w0(BRANCH_POINT) = -1.
BRANCH_POINT = -1.0 / math.e

# Halley's error cubes per step, so after a relative step below this the
# remaining error is far below rounding.
_HALLEY_RTOL = 1e-7
_HALLEY_MAX_ITER = 10
# Below this z, Halley in w degenerates as the derivative of w e^w vanishes at
# the branch point, while W = (tau - c) - 1 <= -0.49 cancels nothing; c from
# log(-z) carries less relative error than the offset 1 + e z would.
_NEAR_BRANCH = -0.3


def w0(z: float) -> float:
    """Evaluate the principal branch W0 at a real argument.

    Parameters
    ----------
    z : real number, must satisfy z >= -1/e.

    Returns
    -------
    The unique w >= -1 with ``w * exp(w) == z``.  Monotone increasing in z,
    negative exactly for z < 0, w0(-1/e) = -1 and w0(inf) = inf.

    Raises
    ------
    ValueError
        If z is NaN or below -1/e (no real value exists there).
    NumericError
        If the iteration fails to converge (not expected to occur).
    """
    if math.isnan(z) or z < BRANCH_POINT:
        raise ValueError(
            f"Lambert W0 is real only for z >= -1/e ~ {BRANCH_POINT:.17g}; got z = {z!r}"
        )
    if z == 0.0:
        return 0.0
    if z < _NEAR_BRANCH:
        c = -1.0 - math.log(-z)
        if c <= 0.0:
            return -1.0
        return (_scaled_interior_age(c) - c) - 1.0
    if z == math.inf:  # the limit; Halley's method would iterate on NaN
        return z

    # Halley's method on f(w) = w - z e^(-w), which is w e^w - z over e^w:
    # with y = z e^(-w), f' = 1 + y and f'' = -y, and nothing overflows.
    w = math.log1p(z)
    for _ in range(_HALLEY_MAX_ITER):
        y = z * math.exp(-w)
        f, df = w - y, 1.0 + y
        step = f * df / (df * df + 0.5 * f * y)
        w -= step
        if abs(step) <= _HALLEY_RTOL * abs(w):
            return w
    raise NumericError(f"Halley iteration for w0({z!r}) did not converge in {_HALLEY_MAX_ITER} steps")


def w0_series(z: float, n_terms: int) -> float:
    """Partial sum of the Maclaurin series of W0.

    The series is sum_{n>=1} (-n)^(n-1)/n! * z^n, convergent for |z| < 1/e.
    Useful as an independent cross-check of :func:`w0` near the origin.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if not abs(z) < 1.0 / math.e:
        raise ValueError(f"series converges only for |z| < 1/e ~ {1.0 / math.e:.6g}; got z = {z!r}")
    total = 0.0
    term = z
    for n in range(1, n_terms + 1):
        total += term
        # (-(n+1))^n / (n+1)!  =  (-n)^(n-1)/n! * (-((n+1)/n)^(n-1))
        term *= -z * ((n + 1.0) / n) ** (n - 1)
    return total


def w0_inverse(w: float) -> float:
    """The inverse map ``w * exp(w)``, restricted to the branch w > -1.

    Raises ValueError where a finite w maps past the float range; inf maps
    to inf.
    """
    if not w > -1.0:
        raise ValueError(f"w0_inverse is the inverse of w0 only for w > -1; got w = {w!r}")
    z = w * math.exp(min(w, 709.0))  # e^709 is finite; w e^w is not past w0(max float) = 703.227
    if z == math.inf and w < math.inf:
        raise ValueError(f"w * exp(w) overflows the float range: w = {w!r}")
    return z


# Below this |x| the series to x^8 is exact to an ulp on either sign: its
# first omitted term, x^9/11!, is under 6e-17 of gap(x)/x^2 ~ 1/2.  Above it
# 1 + expm1(-x)/x loses at most 2.5e-15; a cutoff of 0.5 takes that to 5e-16
# with five more terms, at about 5% more latency in the library benchmark.
_GAP_SERIES_BELOW = 0.1


def gap_series(x):
    """gap(x)/x^2 = sum_{k >= 0} (-x)^k / (k + 2)! = 1/2 - x/6 + x^2/24 - ..., for |x| < 0.1.

    Plain + and *, so that x may be a float or a numpy array of them.
    """
    return 1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x * (1 / 720 - x * (
        1 / 5040 - x * (1 / 40320 - x * (1 / 362880 - x / 3628800)))))))


def gap_ratio(x: float) -> float:
    """gap(x)/x = 1 - (1 - e^(-x))/x for x >= 0, rising from 0 at x = 0 to 1 at inf.

    Free of the cancellation in gap(x) = x - 1 + e^(-x), it neither
    underflows where gap(x) ~ x^2/2 does nor rounds above 1 at large x.
    """
    if x < _GAP_SERIES_BELOW:
        return x * gap_series(x)
    return 1.0 + math.expm1(-x) / x


# Below this p the branch-point series is exact to double precision: its first
# omitted term, 221/8505 p^6, is under 3e-17 of tau ~ p.
_BRANCH_SERIES_EXACT = 1e-3
# From this cost ratio on W0's argument lies within e^-3 of 0, and
# tau = 1 + c - e^(-1-c) + ... starts Halley closer than the series does.
_LARGE_COST_RATIO = 2.0


def _scaled_interior_age(c: float) -> float:
    """tau = 1 + c + W0(-e^(-1-c)), the root of gap(tau) = c, for c > 0.

    The cost ratio of valid parameters is positive, so c = 0 means that it
    underflowed and c = inf that it overflowed; either raises ValueError.
    """
    if not 0.0 < c < math.inf:
        bound = "overflows the float range" if c > 0.0 else "underflows to 0"
        raise ValueError(
            f"cost ratio A*r^2/a = acquisition_cost * interest_rate**2 / maint_slope {bound}"
        )
    if c < _LARGE_COST_RATIO:
        # W0(-1/e + d/e) = -1 + p - p^2/3 + 11 p^3/72 - 43 p^4/540 + 769 p^5/17280 - ...
        p = math.sqrt(-2.0 * math.expm1(-c))
        tau = c + p * (
            1.0
            + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))))
        )
        if p < _BRANCH_SERIES_EXACT:
            return tau
    else:
        tau = 1.0 + c
    for _ in range(_HALLEY_MAX_ITER):
        f = tau * gap_ratio(tau) - c
        df = -math.expm1(-tau)  # gap'(tau) = 1 - e^-tau; gap''(tau) = e^-tau = 1 - df
        step = f * df / (df * df - 0.5 * f * (1.0 - df))
        tau -= step
        if abs(step) <= _HALLEY_RTOL * tau:
            return tau
    raise NumericError(
        f"Halley iteration for the interior age at cost ratio {c!r} did not converge "
        f"in {_HALLEY_MAX_ITER} steps"
    )
