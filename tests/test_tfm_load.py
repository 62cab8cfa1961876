import dataclasses

import numpy as np
import pytest

from boostdyn.circuit import ConverterParams, StepEvent, StepKind
from boostdyn.ebm import ebm_metrics, load_step_form
from boostdyn.oracle import simulate_averaged
from boostdyn.steady import steady_inductor_current, steady_output
from boostdyn.tfm_load import (
    CorrectionOutOfDomain,
    ExpModeSum,
    InvalidPostLoad,
    QuarticTF,
    RepeatedRoots,
    correction_factor,
    invert_quartic_tf,
    load_metrics,
    load_modes,
    load_tf_corrected,
    load_tf_raw,
    mode_sum_metrics,
)

CONVERTERS = ["line_params", "line_params_measured", "load_params", "fast_params"]


def product_tf(p: ConverterParams, dr0: float, s: complex) -> complex:
    """Independent node-impedance construction of the same transfer function."""
    one_d = 1.0 - p.d
    q = one_d * one_d
    w = p.d * p.r_m + p.r_l + s * p.l
    z_new = (s * p.c * (p.r_0 + dr0) * p.r_c + (p.r_0 + dr0)) / (
        s * p.c * (p.r_0 + dr0 + p.r_c) + 1.0
    )
    dvo_dz = w / (w + q * z_new)
    dz_dr0 = (s * p.c * p.r_c + 1.0) ** 2 / (
        (s * p.c * (p.r_0 + dr0 + p.r_c) + 1.0) * (s * p.c * (p.r_0 + p.r_c) + 1.0)
    )
    return dvo_dz * dz_dr0


def partial_fraction_terms(ms, scale: float) -> list[np.ndarray]:
    """Numerator polynomials, over the monic denominator, of the offset and of
    each mode; their sum rebuilds num/den[0]."""
    roots = [root for _, root in ms.modes]
    terms = [(ms.offset / scale) * np.poly(roots)]
    for res, root in ms.modes:
        others = [r for r in roots if r != root]
        terms.append((res / scale) * np.polymul([1.0, 0.0], np.poly(others)))
    return terms


def polyval_residues(tf: QuarticTF, roots) -> list[complex]:
    """num(p)/(p * den'(p)) scaled by the drive, with both polynomials
    evaluated by ``np.polyval`` at numpy complex roots: the reference for
    the Horner residues."""
    dden = np.polyder(np.asarray(tf.den, dtype=float))
    scale = tf.gain_i2 * tf.delta_r0
    return [scale * complex(np.polyval(tf.num, r)) / (r * complex(np.polyval(dden, r)))
            for r in np.asarray(roots, dtype=complex)]


def load_response(p: ConverterParams, delta_r0: float, t):
    """Output voltage ``t`` seconds into the load step: the pre-step steady
    value plus the corrected deviation modes."""
    return steady_output(p) + load_modes(p, delta_r0).deviation(t)


class TestCoefficients:
    def test_dc_pair_bench_values(self, load_params):
        tf = load_tf_raw(load_params, 140.0)
        assert tf.num[-1] == pytest.approx(1.8, rel=1e-12)
        assert tf.den[-1] == pytest.approx(39.3, rel=1e-12)
        assert tf.gain_i2 == pytest.approx(
            steady_inductor_current(load_params).i_out, rel=1e-13
        )

    def test_matches_node_impedance_product(self, load_params):
        tf = load_tf_raw(load_params, 140.0)
        for s in (100.0j, 57.0 + 313.0j, -40.0 + 1000.0j, 2500.0j):
            ours = np.polyval(tf.num, s) / np.polyval(tf.den, s)
            theirs = product_tf(load_params, 140.0, s)
            assert abs(ours - theirs) <= 1e-9 * abs(theirs)

    def test_rejects_nonpositive_post_load(self, load_params):
        with pytest.raises(InvalidPostLoad):
            load_tf_raw(load_params, -10.0)


class TestCorrection:
    def test_bench_bracket(self, load_params):
        assert correction_factor(load_params) == pytest.approx(0.512, rel=1e-12)

    def test_anchor_point_bracket_is_half(self, load_params):
        anchor = dataclasses.replace(load_params, c=42e-6)
        assert correction_factor(anchor) == pytest.approx(0.5, rel=1e-12)

    def test_scales_dynamic_denominator_only(self, load_params):
        raw = load_tf_raw(load_params, 140.0)
        cor = load_tf_corrected(load_params, 140.0)
        kappa = correction_factor(load_params)
        for k in range(4):
            assert cor.den[k] == pytest.approx(kappa * raw.den[k], rel=1e-13)
        assert cor.den[4] == raw.den[4]
        assert cor.num == raw.num

    def test_dc_gain_unchanged_by_correction(self, load_params):
        raw = load_tf_raw(load_params, 140.0)
        cor = load_tf_corrected(load_params, 140.0)
        assert cor.dc_gain == pytest.approx(raw.dc_gain, rel=1e-13)

    def test_out_of_domain_raises(self, load_params):
        oversized = dataclasses.replace(load_params, l=2.5e-3)
        assert correction_factor(oversized) < 0
        with pytest.raises(CorrectionOutOfDomain):
            load_tf_corrected(oversized, 140.0)


class TestInversion:
    def test_residues_conjugate_and_real_sum(self, load_params):
        ms = invert_quartic_tf(load_tf_corrected(load_params, 140.0))
        total = sum(res for res, _ in ms.modes)
        assert abs(total.imag) <= 1e-10 * abs(total.real)

    def test_initial_value_is_esr_feedthrough(self, load_params):
        # the quartic keeps a direct ESR path, so t=0 lands at g/a, not zero
        tf = load_tf_corrected(load_params, 140.0)
        ms = invert_quartic_tf(tf)
        expected = tf.gain_i2 * tf.delta_r0 * tf.num[0] / tf.den[0]
        assert ms.deviation(0.0) == pytest.approx(expected, rel=1e-9)

    def test_initial_value_cancels_without_cap_esr(self, load_params):
        p = dataclasses.replace(load_params, r_c=0.0)
        ms = invert_quartic_tf(load_tf_corrected(p, 140.0))
        assert abs(ms.deviation(0.0)) < 1e-9 * abs(ms.offset)

    def test_final_value(self, load_params):
        ms = invert_quartic_tf(load_tf_corrected(load_params, 140.0))
        expected = steady_inductor_current(load_params).i_out * 140.0 * (1.8 / 39.3)
        assert ms.offset == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.38, abs=0.01)
        decay = min(abs(r.real) for _, r in ms.modes)
        assert ms.deviation(20.0 / decay) == pytest.approx(ms.offset, rel=1e-6)

    def test_partial_fraction_round_trip(self, load_params):
        tf = load_tf_corrected(load_params, 140.0)
        ms = invert_quartic_tf(tf)
        # rebuild the numerator from offset and residues over the monic denominator
        rebuilt = sum(partial_fraction_terms(ms, tf.gain_i2 * tf.delta_r0))
        target = np.asarray(tf.num) / tf.den[0]
        assert np.max(np.abs(rebuilt.real - target)) <= 1e-8 * np.max(np.abs(target))
        assert np.max(np.abs(rebuilt.imag)) <= 1e-10 * np.max(np.abs(target))

    def test_stable_in_validated_region(self, load_params):
        for r2 in (20.0, 60.0, 100.0, 150.0):
            ms = invert_quartic_tf(load_tf_corrected(load_params, r2 - 10.0))
            assert ms.stable
            assert all(root.real < 0 for _, root in ms.modes)

    def test_repeated_roots_refused(self):
        den = tuple(np.poly([-100.0, -100.0, -200.0, -300.0]))
        tf = QuarticTF(den=den, num=(0.0, 0.0, 1.0, 2.0, 3.0), gain_i2=1.0, delta_r0=1.0)
        with pytest.raises(RepeatedRoots):
            invert_quartic_tf(tf)

    def test_triple_root_refused(self):
        # root finders split a triple root by ~eps^(1/3), past the pair check;
        # inverted, it gave deviation(0.01) = 3.7e5 where the exact value is 6.5e-6
        den = tuple(np.poly([-100.0, -100.0, -100.0, -300.0]))
        tf = QuarticTF(den=den, num=(0.0, 0.0, 1.0, 2.0, 3.0), gain_i2=1.0, delta_r0=1.0)
        with pytest.raises(RepeatedRoots):
            invert_quartic_tf(tf)

    def test_close_distinct_pair_inverted(self):
        # 1e-4 relative separation: far above the ~1.5e-8 split of a double root
        poles = (-100.0, -100.01, -200.0, -300.0)
        num = (0.0, 0.0, 1.0, 2.0, 3.0)
        tf = QuarticTF(den=tuple(np.poly(poles)), num=num, gain_i2=1.0, delta_r0=1.0)
        ms = invert_quartic_tf(tf)
        assert ms.stable
        for res, root in ms.modes:
            pole = min(poles, key=lambda q: abs(root - q))
            assert root == pytest.approx(pole, rel=1e-9)
            # residue of num / (s * prod(s - q)) at the intended pole
            expected = np.polyval(num, pole) / (
                pole * np.prod([pole - q for q in poles if q != pole])
            )
            assert res == pytest.approx(expected, rel=1e-6)
        terms = partial_fraction_terms(ms, 1.0)
        target = np.asarray(num) / tf.den[0]
        # the pair's residues are ~1/separation large and cancel to ~1e-6 of
        # their terms, so the rebuild is held to the largest term's size
        size = max(float(np.max(np.abs(term))) for term in terms)
        assert np.max(np.abs(sum(terms) - target)) <= 1e-8 * size

    def test_unstable_roots_flagged_not_fatal(self):
        den = tuple(np.poly([+50.0, -100.0, -200.0, -300.0]))
        tf = QuarticTF(den=den, num=(0.0, 0.0, 1.0, 2.0, 3.0), gain_i2=1.0, delta_r0=1.0)
        ms = invert_quartic_tf(tf)
        assert not ms.stable


class TestLoadResponse:
    def test_bench_final_value(self, load_params):
        v = load_response(load_params, 140.0, 0.2)
        assert abs(v - 8.67) < 0.05

    def test_bench_initial_value_near_pre_step_steady(self, load_params):
        v0 = load_response(load_params, 140.0, 0.0)
        pre = steady_output(load_params)
        # small ESR feedthrough jump sits on top of the pre-step steady value
        assert abs(v0 - pre) < 0.02 * pre
        tf = load_tf_corrected(load_params, 140.0)
        jump = tf.gain_i2 * tf.delta_r0 * tf.num[0] / tf.den[0]
        assert v0 == pytest.approx(pre + jump, rel=1e-9)

    def test_no_disturbance_is_flat(self, load_params):
        pre = steady_output(load_params)
        for t in (0.0, 1e-3, 0.1):
            assert load_response(load_params, 0.0, t) == pytest.approx(pre, rel=1e-12)


class TestLoadMetrics:
    def test_bench_values(self, load_params):
        m = load_metrics(load_params, 140.0)
        assert m.v_steady == pytest.approx(8.656991863098733, rel=1e-9)
        assert abs(m.v_steady - 8.67) < 0.05
        # frozen from this implementation; the published 13.27 V differs by 1.4%
        assert m.v_max == pytest.approx(13.45842762250333, rel=1e-9)
        assert abs(m.v_max - 13.27) / 13.27 < 0.03
        assert m.t_p == pytest.approx(1.2262725910e-3, rel=1e-6)

    def test_fast_ringing_mode_not_aliased(self):
        # a slow mode sets a 11.6 s scan window over a 2627 rad/s ringing
        # mode, which 512 scan points alias into a wrong extremum (-0.10 V)
        p = ConverterParams(
            v_i=4.255171178108068, l=0.0011126933021712905, r_l=1.3470515937477674,
            c=3.478770152714999e-05, r_c=1.1360659427143551, r_m=0.6697398751608228,
            v_d=0.41922810235450547, r_0=8.406118486317611, d=0.44662629146958355, f_sw=1e4,
        )
        delta = 23.374894839023295 - p.r_0
        m = load_metrics(p, delta)
        modes = invert_quartic_tf(load_tf_corrected(p, delta))
        # first extremum: the response rises all the way to t_p
        t = np.linspace(0.0, m.t_p, 20001)
        assert np.all(modes.deviation_slope(t[1:-1]) > 0.0)
        assert m.v_max == pytest.approx(steady_output(p) + modes.deviation(m.t_p), rel=1e-12)
        assert m.v_max == pytest.approx(10.884841, rel=1e-6)
        assert m.v_max > m.v_steady

    def test_no_step_reports_no_peak(self, load_params):
        m = load_metrics(load_params, 0.0)
        pre = steady_output(load_params)
        assert m.v_steady == pytest.approx(pre)
        assert m.v_max == pytest.approx(pre)
        assert m.t_p is None

    def test_settled_value_near_post_step_steady(self, load_params):
        m = load_metrics(load_params, 140.0)
        post = steady_output(dataclasses.replace(load_params, r_0=150.0))
        gap = abs(m.v_steady - post) / post
        assert gap < 0.05
        assert gap > 0.01  # the two forms genuinely disagree; do not erase it

    def test_load_decrease_reports_undershoot(self, load_params):
        m = load_metrics(load_params, -5.0)
        assert m.v_max < m.v_steady
        assert m.overshoot_pct < 0.0

    def test_undershoot_sign_confirmed_by_averaged_oracle(self, load_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 5.0, 2e-3)
        wave = simulate_averaged(
            load_params, [event], 2e-6, 0.04, include_parasitics=True,
            initial_state="steady",
        )
        assert wave.samples.min() < wave.samples[-1] - 0.1

    def test_cross_model_gap_on_bench_step(self, load_params):
        tfm = load_metrics(load_params, 140.0)
        ebm = ebm_metrics(load_step_form(load_params, 10.0, 150.0))
        assert abs(tfm.v_max - ebm.v_max) / ebm.v_max < 0.05


class TestScalarPaths:
    """A scalar time is summed over the modes in Python and an array in
    numpy; the residues are formed by Horner.  Each must give the numpy
    form's numbers."""

    @pytest.mark.parametrize("converter", CONVERTERS)
    @pytest.mark.parametrize("step", [-0.5, 0.5])
    def test_scalar_times_match_the_array_path(self, request, converter, step):
        p = request.getfixturevalue(converter)
        ms = load_modes(p, step * p.r_0)
        m = mode_sum_metrics(steady_output(p), ms)
        assert m.t_p is not None
        decay = min(abs(root.real) for _, root in ms.modes if root.real != 0)
        times = [*np.linspace(0.0, 14.0 / decay, 49).tolist(), m.t_p]
        value_scale = sum(abs(res) for res, _ in ms.modes)
        slope_scale = sum(abs(res * root) for res, root in ms.modes)
        for t in times:
            one = np.array([t])
            assert abs(ms.deviation(t) - ms.deviation(one)[0]) <= 1e-14 * value_scale, t
            assert (abs(ms.deviation_slope(t) - ms.deviation_slope(one)[0])
                    <= 1e-14 * slope_scale), t

    @pytest.mark.parametrize("converter", CONVERTERS)
    @pytest.mark.parametrize("step", [-0.5, 0.5])
    def test_residues_match_the_polyval_form(self, request, converter, step):
        p = request.getfixturevalue(converter)
        tf = load_tf_corrected(p, step * p.r_0)
        ms = invert_quartic_tf(tf)
        reference = polyval_residues(tf, [root for _, root in ms.modes])
        for (res, _), ref in zip(ms.modes, reference, strict=True):
            assert abs(res - ref) <= 1e-14 * abs(ref), (res, ref)

    def test_scalar_times_return_python_floats(self, load_params):
        ms = load_modes(load_params, 140.0)
        for t in (0.0, np.float64(0.0), 0):
            assert type(ms.deviation(t)) is float
            assert type(ms.deviation_slope(t)) is float
        assert ms.deviation(np.float64(1e-3)) == ms.deviation(1e-3)
        assert ms.deviation_slope(np.float64(1e-3)) == ms.deviation_slope(1e-3)

    def test_no_modes_return_the_offset(self, load_params):
        assert load_modes(load_params, 0.0).modes == ()
        flat = ExpModeSum(offset=1.25, modes=())
        for t in (1e-3, np.float64(1e-3), 1):
            assert flat.deviation(t) == 1.25 and type(flat.deviation(t)) is float
            assert flat.deviation_slope(t) == 0.0 and type(flat.deviation_slope(t)) is float
        assert np.array_equal(flat.deviation(np.array([0.0, 1e-3])), [1.25, 1.25])
