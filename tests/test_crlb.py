import numpy as np
import pytest

import uwloc
from uwloc.channel import LN10, Environment, MeasurementSet, NoiseModel, Scenario
from uwloc.crlb import (
    c_vector,
    fim_known_power,
    fim_unknown_power,
    hessian_loglik,
    residual_f,
    residuals,
)
from uwloc.errors import GeometryError

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
        f0 = residual_f(0, meas, reference_scenario.anchors_m, reference_scenario.target_m, 0.0, env)
        f1 = residual_f(0, meas, reference_scenario.anchors_m, reference_scenario.target_m, 1.0, env)
        assert f1 - f0 == pytest.approx(-1.0, abs=1e-12)

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
