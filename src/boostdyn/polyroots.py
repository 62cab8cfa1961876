"""Simultaneous-iteration polynomial root finding (Durand-Kerner).

``all_roots`` refines every root of the monic polynomial at once from
starting points on a circle that encloses them all.  Each sweep is one
array update: every root moves by its polynomial value over the product of
its differences from the other roots, all taken from the previous sweep's
roots (Jacobi-style, as in Kerner's original iteration).  It stops when the
largest update is at most ``TOL`` times the larger of 1 and the largest
root magnitude, or after ``MAX_ITER`` sweeps.  ``pair_conjugates`` then
makes the roots of a real polynomial come in exact conjugate pairs.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-13
MAX_ITER = 200


def all_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial with highest-degree-first ``coeffs``.

    Durand-Kerner iteration on the monic normalization, converged when the
    largest update falls below ``TOL`` relative to the root magnitudes.
    Each sweep is one array update from the previous sweep's roots: the row
    products of the off-diagonal root differences, multiplied in the same
    order as a per-root loop, so the roots are bitwise that loop's.

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
    with np.errstate(over="ignore", invalid="ignore"):
        monic = a / a[0]
    bad = np.flatnonzero(~np.isfinite(monic))
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} overflows when divided by the leading one")
    n = monic.size - 1

    # Cauchy-style radius so starting points circle every root.
    radius = 1.0 + float(np.max(np.abs(monic[1:])))
    seed = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)
    roots = seed.astype(complex)

    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(MAX_ITER):
        vals = np.polyval(monic, roots)
        # row i holds roots[i] - roots[j] for j != i, in increasing j
        diffs = (roots[:, None] - roots[None, :])[off_diagonal].reshape(n, n - 1)
        denom = diffs.prod(axis=1)
        denom[denom == 0] = 1e-30
        new = roots - vals / denom
        shift = np.max(np.abs(new - roots))
        scale = max(1.0, float(np.max(np.abs(new))))
        roots = new
        if shift <= TOL * scale:
            break
    return roots


def pair_conjugates(roots: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Force numerically-conjugate root pairs to be exact conjugates.

    Roots whose imaginary part is negligible are snapped onto the real
    axis; the rest are matched plus-to-minus and replaced by the average
    of the pair, keeping the time-domain signal exactly real.
    """
    out = np.array(roots, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(out))))
    real_mask = np.abs(out.imag) <= tol * scale
    out[real_mask] = out[real_mask].real

    pos = [i for i in range(out.size) if not real_mask[i] and out[i].imag > 0]
    neg = [i for i in range(out.size) if not real_mask[i] and out[i].imag < 0]
    used = set()
    for i in pos:
        best, best_d = None, np.inf
        for j in neg:
            if j in used:
                continue
            d = abs(out[i] - np.conj(out[j]))
            if d < best_d:
                best, best_d = j, d
        if best is None:
            continue
        used.add(best)
        avg = 0.5 * (out[i] + np.conj(out[best]))
        out[i] = avg
        out[best] = np.conj(avg)
    return out
