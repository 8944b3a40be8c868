import dataclasses

import numpy as np
import pytest

import uwloc
from uwloc.channel import (
    LN10,
    Environment,
    MeasurementSet,
    NoiseModel,
    Scenario,
    gradient_directions,
)
from uwloc.crlb import (
    c_vector,
    fim_known_power,
    fim_unknown_power,
    hessian_loglik,
    residuals,
)
from uwloc.errors import GeometryError, NumericalError

# Reference-topology position bound at sigma = 1 dB, frozen after the first
# run verified against the negated-Hessian oracle below.
FROZEN_CRLB_T_SIGMA1 = 420.21518825127896
FROZEN_CRLB_P_SIGMA1 = 0.9187953281577506


def log_likelihood(rss, anchors, position, power, env, sigma):
    d = np.linalg.norm(position - anchors, axis=1)
    f = rss - power + 10.0 * env.ple * np.log10(d) + env.absorption_db_per_m * d - env.absorption_db_per_m
    return -0.5 * np.sum(np.log(2.0 * np.pi * sigma**2)) - np.sum(f**2 / (2.0 * sigma**2))


def fd_hessian(rss, anchors, position, power, env, sigma):
    """Central-difference Hessian of the log-likelihood (independent oracle)."""
    k = len(position)
    theta = np.concatenate([position, [power]])
    steps = np.concatenate([1e-3 * np.maximum(np.abs(position), 100.0), [1e-3]])

    def loglik_at(vec):
        return log_likelihood(rss, anchors, vec[:k], vec[k], env, sigma)

    hess = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(i, k + 1):
            ei = np.zeros(k + 1)
            ej = np.zeros(k + 1)
            ei[i] = steps[i]
            ej[j] = steps[j]
            if i == j:
                value = (loglik_at(theta + ei) - 2.0 * loglik_at(theta) + loglik_at(theta - ei)) / steps[i] ** 2
            else:
                value = (
                    loglik_at(theta + ei + ej)
                    - loglik_at(theta + ei - ej)
                    - loglik_at(theta - ei + ej)
                    + loglik_at(theta - ei - ej)
                ) / (4.0 * steps[i] * steps[j])
            hess[i, j] = hess[j, i] = value
    return hess


def loop_hessian(measurements, anchors, position, power, env, sigmas):
    """Per-anchor loop form of the log-likelihood Hessian (reference)."""
    k = position.shape[0]
    sig2 = np.broadcast_to(np.asarray(sigmas, dtype=float) ** 2, (len(measurements),))
    f = residuals(measurements, anchors, position, power, env)
    alpha_ln10 = env.absorption_db_per_m * LN10
    hess = np.zeros((k + 1, k + 1))
    for i, anchor in enumerate(anchors[measurements.anchor_index]):
        diff = position - anchor
        d = np.linalg.norm(diff)
        ci = c_vector(position, anchor, env)
        di = (10.0 * env.ple + alpha_ln10 * d) * np.eye(k) + alpha_ln10 * np.outer(diff, diff) / d
        hess[:k, :k] -= (
            np.outer(ci, ci) + LN10 * d**2 * f[i] * di - 2.0 * LN10 * f[i] * np.outer(ci, diff)
        ) / (sig2[i] * LN10**2 * d**4)
        hess[:k, k] += ci / (sig2[i] * LN10 * d**2)
        hess[k, k] -= 1.0 / sig2[i]
    hess[k, :k] = hess[:k, k]
    return hess


def noiseless_set(scenario):
    rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
    return MeasurementSet(np.arange(scenario.n_anchors), rss, scenario.environment)


class TestResiduals:
    def test_zero_at_truth_for_noiseless_data(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        f = residuals(
            meas, reference_scenario.anchors_m, reference_scenario.target_m,
            reference_scenario.environment.transmit_power_dbm, reference_scenario.environment,
        )
        assert np.max(np.abs(f)) <= 1e-10

    def test_linear_in_power(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        f0 = residuals(meas, reference_scenario.anchors_m, reference_scenario.target_m, 0.0, env)
        f1 = residuals(meas, reference_scenario.anchors_m, reference_scenario.target_m, 1.0, env)
        assert np.allclose(f1 - f0, -1.0, rtol=0.0, atol=1e-12)

    def test_coincident_point_rejected(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        with pytest.raises(ValueError):
            residuals(meas, reference_scenario.anchors_m, reference_scenario.anchors_m[0], 0.0, env)


class TestCVector:
    def test_zero_absorption_reduces_to_log_gradient(self):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0, absorption_db_per_m=0.0)
        c = c_vector(np.array([1500.0, 0.0]), np.array([500.0, 0.0]), env)
        assert np.allclose(c, [20.0 * 1000.0, 0.0])

    def test_parallel_to_offset(self):
        env = Environment(ple=1.8, frequency_khz=25.0, transmit_power_dbm=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(-1000, 1000, 3)
            s = rng.uniform(-1000, 1000, 3)
            c = c_vector(t, s, env)
            cross = np.cross(c, t - s)
            assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(c) * np.linalg.norm(t - s)

    def test_hand_computed_value(self):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0, absorption_db_per_m=9.86e-4)
        c = c_vector(np.array([1000.0, 0.0, 0.0]), np.zeros(3), env)
        expected = 1000.0 * (20.0 + 9.86e-4 * LN10 * 1000.0)
        assert c[0] == pytest.approx(expected, rel=1e-12)
        assert c[0] == pytest.approx(22270.3, abs=0.5)
        assert c[1] == c[2] == 0.0


class TestHessian:
    def test_equals_negated_information_at_noiseless_truth(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        hess = hessian_loglik(
            meas, reference_scenario.anchors_m, reference_scenario.target_m,
            env.transmit_power_dbm, env, 1.0,
        )
        fim = fim_unknown_power(reference_scenario, 1.0).fim
        assert np.max(np.abs(hess + fim)) <= 1e-9 * np.max(np.abs(fim))

    def test_power_block_is_noise_information(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        sigmas = np.linspace(0.5, 2.0, reference_scenario.n_anchors)
        hess = hessian_loglik(
            meas, reference_scenario.anchors_m, reference_scenario.target_m + 100.0,
            env.transmit_power_dbm + 3.0, env, sigmas,
        )
        assert hess[-1, -1] == pytest.approx(-np.sum(1.0 / sigmas**2), rel=1e-12)

    def test_matches_finite_differences(self, reference_scenario):
        env = reference_scenario.environment
        model = NoiseModel("zero_mean_gaussian", 2.0)
        for trial in range(5):
            rng = np.random.default_rng(200 + trial)
            meas = uwloc.generate_measurements(reference_scenario, model, rng)
            position = reference_scenario.target_m + rng.normal(0.0, 50.0, 3)
            power = env.transmit_power_dbm + rng.normal(0.0, 1.0)
            analytic = hessian_loglik(
                meas, reference_scenario.anchors_m, position, power, env, 2.0
            )
            numeric = fd_hessian(meas.rss_dbm, reference_scenario.anchors_m, position, power, env, 2.0)
            assert np.linalg.norm(numeric - analytic) <= 1e-4 * np.linalg.norm(analytic)


    def test_matches_per_anchor_loop(self, reference_scenario):
        env = reference_scenario.environment
        anchors = reference_scenario.anchors_m
        k = reference_scenario.dimension
        model = NoiseModel("zero_mean_gaussian", 2.0)
        for trial in range(5):
            rng = np.random.default_rng(300 + trial)
            drawn = uwloc.generate_measurements(reference_scenario, model, rng)
            order = rng.permutation(reference_scenario.n_anchors)
            meas = MeasurementSet(order, drawn.rss_dbm[order], env)
            position = reference_scenario.target_m + rng.normal(0.0, 200.0, 3)
            sigmas = rng.uniform(0.5, 3.0, reference_scenario.n_anchors)
            fast = hessian_loglik(meas, anchors, position, 1.5, env, sigmas)
            ref = loop_hessian(meas, anchors, position, 1.5, env, sigmas)
            for block in (np.s_[:k, :k], np.s_[:, k]):
                assert np.max(np.abs(fast[block] - ref[block])) <= 1e-12 * np.max(np.abs(ref[block]))


class TestUnknownPowerBound:
    def test_sigma_scaling_is_exact(self, reference_scenario):
        one = fim_unknown_power(reference_scenario, 1.0)
        two = fim_unknown_power(reference_scenario, 2.0)
        assert two.crlb_t_m == pytest.approx(2.0 * one.crlb_t_m, rel=1e-9)
        assert two.crlb_p_db == pytest.approx(2.0 * one.crlb_p_db, rel=1e-9)

    def test_quadratic_form_is_a_sum_of_squares(self, reference_scenario):
        fim = fim_unknown_power(reference_scenario, 1.3).fim
        env = reference_scenario.environment
        t = reference_scenario.target_m
        rng = np.random.default_rng(9)
        for _ in range(100):
            probe = rng.normal(size=4)
            lhs = probe @ fim @ probe
            rhs = 0.0
            for s in reference_scenario.anchors_m:
                d = np.linalg.norm(t - s)
                gain = probe[:3] @ c_vector(t, s, env) / (LN10 * d**2)
                rhs += (gain - probe[3]) ** 2 / 1.3**2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_frozen_reference_value(self, reference_scenario):
        report = fim_unknown_power(reference_scenario, 1.0)
        assert report.crlb_t_m == pytest.approx(FROZEN_CRLB_T_SIGMA1, rel=1e-12)
        assert report.crlb_p_db == pytest.approx(FROZEN_CRLB_P_SIGMA1, rel=1e-12)

    def test_frozen_value_agrees_with_hessian_oracle(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        hess = hessian_loglik(
            meas, reference_scenario.anchors_m, reference_scenario.target_m,
            env.transmit_power_dbm, env, 1.0,
        )
        inv = np.linalg.inv(-hess)
        assert np.sqrt(np.trace(inv[:3, :3])) == pytest.approx(FROZEN_CRLB_T_SIGMA1, rel=1e-9)

    def test_positive_definite_with_condition_estimate(self, reference_scenario):
        report = fim_unknown_power(reference_scenario, 1.0)
        eigenvalues = np.linalg.eigvalsh(report.fim)
        assert eigenvalues[0] > 0.0
        assert report.condition_estimate == pytest.approx(eigenvalues[-1] / eigenvalues[0], rel=1e-9)

    def test_per_anchor_sigmas(self, reference_scenario):
        sigmas = np.linspace(0.5, 3.0, reference_scenario.n_anchors)
        report = fim_unknown_power(reference_scenario, sigmas)
        assert report.fim[-1, -1] == pytest.approx(np.sum(1.0 / sigmas**2), rel=1e-12)
        with pytest.raises(ValueError):
            fim_unknown_power(reference_scenario, sigmas[:3])


class TestKnownPowerBound:
    def test_symmetric_cross_geometry_hand_value(self):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0, absorption_db_per_m=0.0)
        anchors = np.array([[1000.0, 0.0], [-1000.0, 0.0], [0.0, 1000.0], [0.0, -1000.0]])
        scenario = Scenario(anchors, np.zeros(2), env)
        report = fim_known_power(scenario, 1.0)
        # per-axis information: 2 anchors * (20 * 1000)^2 / (ln10^2 * 1000^4)
        per_axis = 2.0 * (20.0 * 1000.0) ** 2 / (LN10**2 * 1000.0**4)
        assert np.allclose(report.fim, per_axis * np.eye(2), rtol=1e-12)
        assert report.crlb_t_m == pytest.approx(np.sqrt(2.0 / per_axis), rel=1e-12)
        assert report.crlb_p_db is None

    def test_never_above_unknown_power_bound(self, reference_scenario):
        for sigma in (1.0, 3.0, 5.0, 7.0, 9.0):
            known = fim_known_power(reference_scenario, sigma)
            unknown = fim_unknown_power(reference_scenario, sigma)
            assert known.crlb_t_m <= unknown.crlb_t_m

    def test_sigma_scaling(self, reference_scenario):
        one = fim_known_power(reference_scenario, 1.0)
        two = fim_known_power(reference_scenario, 2.0)
        assert two.crlb_t_m == pytest.approx(2.0 * one.crlb_t_m, rel=1e-9)


class TestDegenerateGeometry:
    def test_collinear_layout_rejected_at_construction(self):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0)
        anchors = np.column_stack([np.linspace(1000.0, 5000.0, 5), np.zeros(5), np.zeros(5)])
        with pytest.raises(GeometryError):
            Scenario(anchors, np.array([8000.0, 0.0, 0.0]), env)

    def test_singular_information_matrix_reported(self):
        from uwloc.crlb import _invert_reported

        with pytest.raises(GeometryError):
            _invert_reported(np.diag([1.0, 0.0]), "test")


def reference_report(scenario, sigmas, known_power):
    """(fim, crlb_t, crlb_p, condition) by the original formula: the gradient
    recomputed with gradient_directions, np.linalg.eigh and np.linalg.inv."""
    sig = np.asarray(sigmas, dtype=float)
    if sig.ndim == 0:
        sig = np.full(scenario.n_anchors, float(sig))
    sig2 = sig**2
    _, d, c = gradient_directions(scenario.target_m, scenario.anchors_m, scenario.environment)
    a_block = (c / (sig2 * LN10**2 * d**4)[:, None]).T @ c
    b_block = -np.sum(c / (sig2 * LN10 * d**2)[:, None], axis=0)
    k = scenario.dimension
    if known_power:
        fim = a_block
    else:
        fim = np.zeros((k + 1, k + 1))
        fim[:k, :k] = a_block
        fim[:k, k] = fim[k, :k] = b_block
        fim[k, k] = np.sum(1.0 / sig2)
    w, _ = np.linalg.eigh(fim)
    inv = np.linalg.inv(fim)
    crlb_p = None if known_power else float(np.sqrt(inv[k, k]))
    return fim, float(np.sqrt(np.trace(inv[:k, :k]))), crlb_p, float(w[-1] / w[0])


def reference_hessian(measurements, anchors_m, position_m, transmit_power_dbm, env, sigmas):
    """hessian_loglik's expression with no sigma check, for its bits."""
    k = len(position_m)
    sig2 = np.full(len(measurements), np.asarray(sigmas, dtype=float)) ** 2
    f = residuals(measurements, anchors_m, position_m, transmit_power_dbm, env)
    diff, d, c = gradient_directions(position_m, anchors_m[measurements.anchor_index], env)
    s = 1.0 / (sig2 * LN10**2 * d**4)
    g = s * LN10 * d**2 * f
    alpha_ln10 = env.absorption_db_per_m * LN10
    coef = 10.0 * env.ple + alpha_ln10 * d
    hess = np.empty((k + 1, k + 1))
    hess[:k, :k] = -(
        (c * s[:, None]).T @ c
        + (g @ coef) * np.eye(k)
        + alpha_ln10 * (diff * (g / d)[:, None]).T @ diff
        - 2.0 * LN10 * (c * (s * f)[:, None]).T @ diff
    )
    hess[:k, k] = hess[k, :k] = np.sum(c / (sig2 * LN10 * d**2)[:, None], axis=0)
    hess[k, k] = -np.sum(1.0 / sig2)
    return hess


def random_bound_scenario(rng):
    """A valid random 2-D or 3-D Scenario at one of several coordinate scales."""
    while True:
        k = int(rng.choice([2, 3]))
        n = int(rng.integers(k + 2, 13))
        scale = 10.0 ** rng.uniform(1.0, 4.0)
        env = Environment(
            ple=float(rng.uniform(1.5, 2.5)),
            frequency_khz=float(rng.uniform(5.0, 50.0)),
            transmit_power_dbm=float(rng.uniform(-10.0, 10.0)),
        )
        try:
            return Scenario(rng.uniform(0.0, scale, (n, k)), rng.uniform(0.0, scale, k), env)
        except GeometryError:
            continue


def assert_same_gradient(scenario):
    d, c = scenario.gradient
    _, d_ref, c_ref = gradient_directions(
        scenario.target_m, scenario.anchors_m, scenario.environment
    )
    assert d.tobytes() == d_ref.tobytes()
    assert c.tobytes() == c_ref.tobytes()
    d2, d4, d4_max = scenario.range_powers
    assert d2.tobytes() == (d_ref**2).tobytes()
    assert d4.tobytes() == (d_ref**4).tobytes()
    assert type(d4_max) is float and d4_max == (d_ref**4).max()


class TestBoundCensus:
    """The bounds read the Scenario's stored gradient and call the LAPACK
    gufuncs directly; every byte must match the original formula."""

    def test_bounds_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(2020)
        compared = differing = 0
        for _ in range(150):
            scenario = random_bound_scenario(rng)
            per_anchor = rng.uniform(0.5, 6.0, scenario.n_anchors)
            for sigmas in (float(rng.uniform(0.5, 9.0)), per_anchor):
                for known_power, bound in ((False, fim_unknown_power), (True, fim_known_power)):
                    report = bound(scenario, sigmas)
                    fim, crlb_t, crlb_p, condition = reference_report(
                        scenario, sigmas, known_power
                    )
                    compared += 1
                    differing += (
                        report.fim.tobytes() != fim.tobytes()
                        or report.crlb_t_m != crlb_t
                        or report.crlb_p_db != crlb_p
                        or report.condition_estimate != condition
                    )
        assert compared == 600
        assert differing == 0

    def test_stored_gradient_is_gradient_directions(self):
        rng = np.random.default_rng(2021)
        for _ in range(20):
            scenario = random_bound_scenario(rng)
            env = dataclasses.replace(scenario.environment, ple=scenario.environment.ple + 0.3)
            derived = [
                scenario,
                dataclasses.replace(scenario, environment=env),
                dataclasses.replace(scenario, target_m=scenario.target_m + 7.5),
                scenario.subset(scenario.dimension + 2),
            ]
            for each in derived:
                assert_same_gradient(each)

    def test_gradient_is_not_a_constructor_argument_repr_or_eq_field(self, reference_scenario):
        for name in ("gradient", "range_powers"):
            field = {f.name: f for f in dataclasses.fields(Scenario)}[name]
            assert not (field.init or field.repr or field.compare)
            assert name not in repr(reference_scenario)
            with pytest.raises(TypeError):
                Scenario(
                    reference_scenario.anchors_m,
                    reference_scenario.target_m,
                    reference_scenario.environment,
                    **{name: getattr(reference_scenario, name)},
                )

    def test_caller_arrays_written_after_construction_leave_the_bound(
        self, reference_scenario
    ):
        anchors = np.array(reference_scenario.anchors_m)
        target = np.array(reference_scenario.target_m)
        scenario = Scenario(anchors, target, reference_scenario.environment)
        before = fim_unknown_power(scenario, 2.0)
        anchors[0] += 500.0
        target[1] -= 250.0
        after = fim_unknown_power(scenario, 2.0)
        assert after.fim.tobytes() == before.fim.tobytes()
        assert (after.crlb_t_m, after.crlb_p_db) == (before.crlb_t_m, before.crlb_p_db)
        assert_same_gradient(scenario)
        for stored in (
            scenario.anchors_m, scenario.target_m, *scenario.gradient, *scenario.range_powers[:2]
        ):
            with pytest.raises(ValueError):
                stored[0] = 0.0


def sigma_arguments(value, n):
    """``value`` as one sigma and as the last of ``n`` per-anchor sigmas."""
    per_anchor = np.full(n, 2.0)
    per_anchor[-1] = value
    return [value, per_anchor]


@pytest.mark.filterwarnings("error")  # a named error, never a RuntimeWarning
class TestNoiseSigmaErrors:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bound", [fim_unknown_power, fim_known_power])
    def test_non_finite_sigma_is_a_value_error(self, reference_scenario, bound, value):
        for sigmas in sigma_arguments(value, reference_scenario.n_anchors):
            with pytest.raises(ValueError, match="^noise sigmas must be finite$"):
                bound(reference_scenario, sigmas)

    def test_non_finite_sigma_in_the_hessian(self, reference_scenario):
        meas = noiseless_set(reference_scenario)
        env = reference_scenario.environment
        for sigmas in sigma_arguments(np.nan, reference_scenario.n_anchors):
            with pytest.raises(ValueError, match="^noise sigmas must be finite$"):
                hessian_loglik(
                    meas, reference_scenario.anchors_m, reference_scenario.target_m,
                    env.transmit_power_dbm, env, sigmas,
                )

    @pytest.mark.parametrize(
        "value, message",
        [
            (1e-200, "noise sigma 1e-200 dB underflows: its square is below the smallest normal float"),
            # 1e-310 is subnormal: not 0, but its inverse overflows
            (1e-155, "noise sigma 1e-155 dB underflows: its square is below the smallest normal float"),
            (1e200, "noise sigma 1e+200 dB overflows: its square is not finite"),
        ],
    )
    @pytest.mark.parametrize("bound", [fim_unknown_power, fim_known_power])
    def test_sigma_whose_square_leaves_the_float_range(
        self, reference_scenario, bound, value, message
    ):
        for sigmas in sigma_arguments(value, reference_scenario.n_anchors):
            with pytest.raises(NumericalError) as err:
                bound(reference_scenario, sigmas)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "bound, context",
        [(fim_unknown_power, "unknown-power bound"), (fim_known_power, "known-power bound")],
    )
    def test_fisher_terms_that_underflow_name_sigma(self, reference_scenario, bound, context):
        # From 1e147 on sigma^2 d^4 overflows at the farthest anchors, whose
        # terms would read 0, and at 1e154 at every anchor; 1e146 is exact.
        fault = "underflows: an anchor's term is below the smallest normal float"
        for value in (1e147, 1e154):
            named = [f"{value:g}", f"2 to {value:g}"]
            for sigmas, name in zip(sigma_arguments(value, reference_scenario.n_anchors), named):
                with pytest.raises(NumericalError) as err:
                    bound(reference_scenario, sigmas)
                assert str(err.value) == f"{context}: Fisher matrix at noise sigma {name} dB {fault}"
        assert bound(reference_scenario, 1e146).crlb_t_m == pytest.approx(
            1e146 * bound(reference_scenario, 1.0).crlb_t_m, rel=1e-12
        )

    def test_hessian_terms_that_underflow_name_sigma(self, reference_scenario):
        # The Fisher bounds' check: at 1e147 the far anchors' 1/(sigma^2 ln10^2 d^4)
        # would read 0 and sigma^2 ln10^2 d^4 overflows; below, the Hessian's bits stay.
        scenario, env = reference_scenario, reference_scenario.environment
        rss = noiseless_set(scenario).rss_dbm + np.random.default_rng(5).standard_normal(scenario.n_anchors)
        meas = MeasurementSet(np.arange(scenario.n_anchors), rss, env)
        args = (meas, scenario.anchors_m, scenario.target_m + 40.0, env.transmit_power_dbm + 1.0, env)
        fault = "underflows: an anchor's term is below the smallest normal float"
        for value in (1e147, 1e154):
            named = [f"{value:g}", f"2 to {value:g}"]
            for sigmas, name in zip(sigma_arguments(value, scenario.n_anchors), named):
                with pytest.raises(NumericalError) as err:
                    hessian_loglik(*args, sigmas)
                assert str(err.value) == f"log-likelihood Hessian at noise sigma {name} dB {fault}"
        for value in (1.0, 1e146):
            for sigmas in sigma_arguments(value, scenario.n_anchors):
                hess = hessian_loglik(*args, sigmas)
                assert hess.tobytes() == reference_hessian(*args, sigmas).tobytes()

    def test_fisher_matrix_that_overflows(self, reference_scenario):
        # 1.5e-154 squares to a normal float, but ten times its inverse overflows.
        with pytest.raises(NumericalError) as err:
            fim_unknown_power(reference_scenario, 1.5e-154)
        assert str(err.value) == (
            "unknown-power bound: Fisher matrix at noise sigma 1.5e-154 dB is not finite"
        )
