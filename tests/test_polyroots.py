import warnings

import numpy as np
import pytest

from boostdyn import ConverterParams
from boostdyn.polyroots import all_roots
from boostdyn.tfm_load import load_tf_corrected

#: designs whose load quartics start the sweep farther out than the conftest
#: designs do (radii 3.1e18-1.3e19 and 3.7e14-1.8e16 at the steps tested):
#: the benchmark's small validate converter, and the load converter with the
#: smaller c of the CI's ringing step
FAR_STARTS = {
    "quick": ConverterParams(v_i=3.0, l=20e-6, r_l=0.1, c=4e-6, r_c=0.05, r_m=0.08,
                             v_d=0.3, r_0=8.0, d=0.5, f_sw=1e5),
    "ringing": ConverterParams(v_i=5.0, l=1e-3, r_l=1.4, c=13.7647e-6, r_c=1.0, r_m=0.8,
                               v_d=0.4, r_0=10.0, d=0.5, f_sw=1e4),
}


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def loop_roots(coeffs, tol=1e-13, max_iter=200):
    """The per-root Durand-Kerner loop that ``all_roots`` replaces, kept as
    its reference: same start, guard and stopping rule, one root at a time."""
    a = np.asarray(coeffs, dtype=complex)
    monic = a / a[0]
    n = monic.size - 1
    radius = 1.0 + float(np.max(np.abs(monic[1:])))
    roots = (radius * (0.4 + 0.9j) ** np.arange(1, n + 1)).astype(complex)
    for _ in range(max_iter):
        vals = np.polyval(monic, roots)
        new = roots.copy()
        for i in range(n):
            denom = np.prod(new[i] - np.delete(roots, i))
            if denom == 0:
                denom = 1e-30
            new[i] = roots[i] - vals[i] / denom
        shift = np.max(np.abs(new - roots))
        scale = max(1.0, float(np.max(np.abs(new))))
        roots = new
        if shift <= tol * scale:
            break
    return roots


def bitwise_equal(x, y):
    """Equal bit for bit: signed zeros told apart, as np.array_equal does not."""
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def random_polynomials(count, seed):
    """Degree 1-6 polynomials whose coefficient magnitudes span 1e-12 to
    1e12 with random signs, less any draw on which the reference loop warns
    (the suite turns warnings into errors)."""
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        degree = int(rng.integers(1, 7))
        coeffs = rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(-12, 12, degree + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                reference = loop_roots(coeffs)
            except RuntimeWarning:
                continue
        kept.append((coeffs, reference))
    return kept


class TestAllRoots:
    def test_known_real_quartic(self):
        # (s+1)(s+2)(s+3)(s+4)
        coeffs = np.poly([-1.0, -2.0, -3.0, -4.0])
        roots = sorted_roots(all_roots(coeffs))
        assert np.allclose(roots, [-4.0, -3.0, -2.0, -1.0], atol=1e-10)

    def test_conjugate_pair_quartic(self):
        true = [-10.0 + 40.0j, -10.0 - 40.0j, -3.0, -70.0]
        coeffs = np.poly(true)
        roots = sorted_roots(all_roots(coeffs))
        assert np.allclose(roots, sorted_roots(np.array(true)), atol=1e-8)

    def test_non_monic_scaling(self):
        coeffs = 3.7e-9 * np.poly([-100.0, -2000.0, -5.0 + 12.0j, -5.0 - 12.0j])
        roots = all_roots(coeffs)
        assert np.allclose(
            sorted_roots(roots),
            sorted_roots(np.array([-2000.0, -100.0, -5.0 - 12.0j, -5.0 + 12.0j])),
            rtol=1e-8,
        )

    def test_agrees_with_numpy_on_random_quartics(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            true = [
                complex(-rng.uniform(1, 1e4), rng.uniform(0, 1e4)),
                0.0,
                -rng.uniform(1, 1e4),
                -rng.uniform(1, 1e4),
            ]
            true[1] = np.conj(true[0])
            coeffs = np.poly(true)
            ours = sorted_roots(all_roots(coeffs))
            ref = sorted_roots(np.roots(coeffs))
            assert np.allclose(ours, ref, rtol=1e-7, atol=1e-7)

    def test_degree_one(self):
        assert all_roots([2.0, -6.0])[0] == pytest.approx(3.0)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            all_roots([0.0, 1.0, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 2])
    def test_rejects_non_finite_coefficient_by_index(self, value, index):
        coeffs = [1.0, -3.0, 2.0, 5.0]
        coeffs[index] = value
        with pytest.raises(ValueError, match=f"coefficient {index} is not finite"):
            all_roots(coeffs)

    def test_rejects_coefficient_that_overflows_when_normalised(self):
        with pytest.raises(ValueError, match="coefficient 1 overflows"):
            all_roots([1e-300, 1e300, 1.0])

    def test_an_overflowing_sweep_returns_non_finite_roots_without_a_warning(self):
        # the load quartic of l = c = 1e-30 H/F: its start radius, 1.6e116,
        # overflows at the fourth power
        p = ConverterParams(v_i=5.0, l=1e-30, r_l=1.4, c=1e-30, r_c=1.0, r_m=0.8,
                            v_d=0.4, r_0=10.0, d=0.5, f_sw=1e4)
        den = load_tf_corrected(p, 140.0).den
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = all_roots(den)
        assert roots.shape == (4,) and not np.isfinite(roots).any()


class TestLoopParity:
    """Each sweep of ``all_roots`` is one array update; its roots must be
    bitwise those of the per-root loop it replaced."""

    def test_random_polynomials(self):
        cases = random_polynomials(2000, seed=19)
        assert len({c.size for c, _ in cases}) == 6
        for coeffs, reference in cases:
            assert bitwise_equal(all_roots(coeffs), reference), coeffs

    @pytest.mark.parametrize("step, converter", [
        *((step, converter) for step in (-0.5, 0.5)
          for converter in ("line_params", "line_params_measured", "load_params", "fast_params")),
        (1.0, "quick"), (-0.5, "quick"), (14.0, "ringing"), (-0.5, "ringing"),
    ])
    def test_corrected_load_denominators(self, request, converter, step):
        p = FAR_STARTS.get(converter) or request.getfixturevalue(converter)
        den = load_tf_corrected(p, step * p.r_0).den
        assert bitwise_equal(all_roots(den), loop_roots(den))

