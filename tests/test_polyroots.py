import warnings

import numpy as np
import pytest

from boostdyn.polyroots import all_roots, pair_conjugates
from boostdyn.tfm_load import load_tf_corrected


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


class TestLoopParity:
    """Each sweep of ``all_roots`` is one array update; its roots must be
    bitwise those of the per-root loop it replaced."""

    def test_random_polynomials(self):
        cases = random_polynomials(2000, seed=19)
        assert len({c.size for c, _ in cases}) == 6
        for coeffs, reference in cases:
            assert bitwise_equal(all_roots(coeffs), reference), coeffs

    @pytest.mark.parametrize("converter", ["line_params", "line_params_measured",
                                           "load_params", "fast_params"])
    @pytest.mark.parametrize("step", [-0.5, 0.5])
    def test_corrected_load_denominators(self, request, converter, step):
        p = request.getfixturevalue(converter)
        den = load_tf_corrected(p, step * p.r_0).den
        assert bitwise_equal(all_roots(den), loop_roots(den))


class TestPairConjugates:
    def test_snaps_noisy_pair(self):
        noisy = np.array([-10.0 + 40.000001j, -10.000001 - 39.999999j, -3.0 + 1e-12j, -70.0])
        fixed = pair_conjugates(noisy, tol=1e-6)
        assert fixed[2].imag == 0.0
        assert fixed[0] == np.conj(fixed[1])

    def test_leaves_real_roots_alone(self):
        roots = np.array([-1.0 + 0.0j, -2.0 + 0.0j])
        assert np.allclose(pair_conjugates(roots), roots)
