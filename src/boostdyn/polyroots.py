"""Simultaneous-iteration polynomial root finding (Durand-Kerner).

``all_roots`` refines every root of the monic polynomial at once from
starting points on a circle that encloses them all.  Each sweep is one
array update: every root moves by its polynomial value, by Horner steps
over the coefficients held as Python numbers, over the product of its
differences from the other roots, gathered by index arrays built once, all
taken from the previous sweep's roots (Jacobi-style, as in Kerner's
original iteration).  It stops when the largest update is at most ``TOL``
times the larger of 1 and the largest root magnitude, or after
``MAX_ITER`` sweeps.  The roots are returned as the last sweep leaves them:
a real polynomial's conjugate pairs agree only to that tolerance, a real
root may keep a tiny imaginary part, and an overflowing sweep leaves them
non-finite, with no warning.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-13
MAX_ITER = 200


@np.errstate(over="ignore", invalid="ignore")
def all_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial with highest-degree-first ``coeffs``.

    Durand-Kerner iteration on the monic normalization, converged when the
    largest update falls below ``TOL`` relative to the root magnitudes.
    Each sweep is one array update from the previous sweep's roots, with
    ``np.polyval``'s Horner steps and the row products of the off-diagonal
    root differences in a per-root loop's order, so the roots are bitwise
    that loop's.  No numpy warning leaves it: check the roots are finite.

    Raises ``ValueError`` for a coefficient that is NaN or infinite, or
    that overflows when divided by the leading one, before any sweep.
    """
    a = np.asarray(coeffs, dtype=complex)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} is not finite: {a[bad[0]]}")
    if a[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    monic = a / a[0]
    bad = np.flatnonzero(~np.isfinite(monic))
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} overflows when divided by the leading one")
    n = monic.size - 1

    # Cauchy-style radius so starting points circle every root.
    radius = 1.0 + float(np.max(np.abs(monic[1:])))
    roots = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)

    coeffs = monic.tolist()
    # (rows[k], cols[k]) runs over i != j row by row, in increasing j
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    for _ in range(MAX_ITER):
        vals = 0j
        for c in coeffs:
            vals = vals * roots + c
        denom = (roots[rows] - roots[cols]).reshape(n, n - 1).prod(axis=1)
        denom[denom == 0] = 1e-30
        new = roots - vals / denom
        shift = np.abs(new - roots).max()
        scale = max(1.0, float(np.abs(new).max()))
        roots = new
        if shift <= TOL * scale:
            break
    return roots
