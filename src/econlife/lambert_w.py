"""Principal real branch of the Lambert W function.

``w0(z)`` solves ``w * exp(w) = z`` for the unique real ``w >= -1``, defined
for ``z >= -1/e``.  Away from the branch point the evaluation refines a
regime-specific starting guess (Maclaurin series near zero, iterated-log
asymptotics for large arguments) by Halley's method, following the classical
treatment in Corless, Gonnet, Hare, Jeffrey and Knuth, "On the Lambert W
function", Adv. Comput. Math. 5 (1996).

Near the branch point W0 is solved from the replacement problem's cost
ratio c: ``_scaled_interior_age(c) = 1 + c + W0(-e^(-1-c))`` starts from the
exact branch offset 1 - e^(-c) (branch-point series, then Halley's method on
gap(tau) = tau - 1 + e^(-tau) = c), and ``w0`` hands it z < -0.3 as
c = -1 - log(-z).

No external special-function library is used; the residual ``w e^w - z`` is
driven to a few ulp, which the test suite checks directly.
"""

import math

from .errors import NumericError

__all__ = ["BRANCH_POINT", "w0", "w0_series", "w0_inverse"]

#: Left edge of the real domain, -1/e.  w0(BRANCH_POINT) = -1.
BRANCH_POINT = -1.0 / math.e

_RTOL = 1e-15
_MAX_ITER = 50
_EPS = 2.0 ** -52
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
    negative exactly for z < 0, and w0(-1/e) = -1.

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

    w = _initial_guess(z)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        residual = w * ew - z
        # The computed residual cannot fall below rounding noise of z; once it
        # does, w is as converged as the conditioning of w e^w allows.
        if abs(residual) <= 4.0 * _EPS * abs(z):
            return w
        wp1 = w + 1.0
        # Halley update for f(w) = w e^w - z:
        #   w <- w - f / (f' - f f'' / (2 f')) with f' = e^w (1+w), f'' = e^w (2+w)
        step = residual / (ew * wp1 - (w + 2.0) * residual / (2.0 * wp1))
        w -= step
        if abs(step) <= _RTOL * abs(w):
            return w
    raise NumericError(f"Halley iteration for w0({z!r}) did not converge in {_MAX_ITER} steps")


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
    """The inverse map ``w * exp(w)``, restricted to the branch w > -1."""
    if not w > -1.0:
        raise ValueError(f"w0_inverse is the inverse of w0 only for w > -1; got w = {w!r}")
    return w * math.exp(w)


def _initial_guess(z: float) -> float:
    if z <= 0.30:
        return w0_series(z, 8)
    if z < 3.0:
        # Crude interpolation between the series and asymptotic regimes.
        return math.log1p(z)
    lz = math.log(z)
    llz = math.log(lz)
    return lz - llz + llz / lz


# Below this p the branch-point series is exact to double precision: its first
# omitted term, 221/8505 p^6, is under 3e-17 of tau ~ p.
_BRANCH_SERIES_EXACT = 1e-3
# From this cost ratio on W0's argument lies within e^-3 of 0, and
# tau = 1 + c - e^(-1-c) + ... starts Halley closer than the series does.
_LARGE_COST_RATIO = 2.0
# Halley's error cubes per step, so after a relative step below this the
# remaining error is far below rounding.
_HALLEY_RTOL = 1e-7
_HALLEY_MAX_ITER = 10


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
        em = math.expm1(-tau)  # e^-tau - 1
        f = (tau - c) + em  # gap(tau) - c
        df = -em  # gap'(tau) = 1 - e^-tau; gap''(tau) = e^-tau = 1 + em
        step = f * df / (df * df - 0.5 * f * (1.0 + em))
        tau -= step
        if abs(step) <= _HALLEY_RTOL * tau:
            return tau
    raise NumericError(
        f"Halley iteration for the interior age at cost ratio {c!r} did not converge "
        f"in {_HALLEY_MAX_ITER} steps"
    )
