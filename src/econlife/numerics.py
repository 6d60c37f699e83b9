"""Small numerical kernels shared by the cost formulas."""

import numpy as np

# Below this the direct form e^x - 1 - x loses ~eps/x of its value to
# cancellation; the factored series is exact to a few ulp instead.
_SERIES_CUTOFF = 1e-3


def expm1_minus(x):
    """e**x - 1 - x, safe against cancellation for small ``|x|``.

    Accepts scalars or numpy arrays and preserves the input shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    with np.errstate(invalid="ignore"):
        np.subtract(np.expm1(x), x, out=out)
    small = np.abs(x) < _SERIES_CUTOFF
    s = x[small]
    s2 = s * s
    # e^x - 1 - x = (x^2/2) (1 + x/3 + x^2/12 + x^3/60 + x^4/360 + ...)
    out[small] = 0.5 * s2 * (1.0 + s / 3.0 + s2 / 12.0 + s2 * s / 60.0 + s2 * s2 / 360.0)
    return float(out[()]) if out.ndim == 0 else out
