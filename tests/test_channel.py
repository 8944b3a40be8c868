import numpy as np
import pytest

import uwloc
from uwloc.channel import (
    Environment,
    MeasurementSet,
    NoiseModel,
    Scenario,
    absorption_coefficient,
    generate_measurements,
    noiseless_rss,
    sample_noise,
)
from uwloc.errors import ConfigError, GeometryError


def make_env(ple=2.0, freq=9.0, power=0.0, absorption=None):
    return Environment(
        ple=ple,
        frequency_khz=freq,
        transmit_power_dbm=power,
        absorption_db_per_m=absorption,
    )


class TestAbsorptionCoefficient:
    def test_printed_reference_value_at_9_khz(self):
        # 9.86e-4 dB/m to three significant figures
        assert absorption_coefficient(9.0) == pytest.approx(9.86e-4, rel=5e-4)

    def test_zero_frequency_floor(self):
        assert absorption_coefficient(0.0) == pytest.approx(3.0e-6, rel=1e-12)

    def test_term_by_term_at_25_khz(self):
        f2 = 25.0**2
        expected = (0.11 * f2 / (1 + f2) + 44 * f2 / (4100 + f2) + 2.75 * f2 / 1e4 + 0.003) * 1e-3
        assert absorption_coefficient(25.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(6.1048e-3, rel=2e-5)

    def test_strictly_increasing_up_to_100_khz(self):
        grid = np.linspace(0.1, 100.0, 400)
        values = np.array([absorption_coefficient(f) for f in grid])
        assert np.all(np.diff(values) > 0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            absorption_coefficient(-1.0)


class TestNoiselessRss:
    def test_reference_distance_returns_transmit_power(self):
        env = make_env(power=-7.5)
        assert noiseless_rss(np.array([1.0, 0.0]), np.array([0.0, 0.0]), env) == pytest.approx(-7.5)

    def test_pure_log_distance(self):
        env = make_env(absorption=0.0)
        value = noiseless_rss(np.array([100.0, 0.0]), np.array([0.0, 0.0]), env)
        assert value == pytest.approx(-40.0, abs=1e-12)

    def test_absorption_term_at_1_km(self):
        env = make_env(absorption=9.86e-4)
        value = noiseless_rss(np.array([1000.0, 0.0]), np.array([0.0, 0.0]), env)
        assert value == pytest.approx(-60.0 - 9.86e-4 * 999.0, abs=1e-9)
        assert value == pytest.approx(-60.985, abs=1e-3)

    def test_inside_reference_distance_rejected(self):
        env = make_env()
        with pytest.raises(ValueError):
            noiseless_rss(np.array([0.5, 0.0]), np.array([0.0, 0.0]), env)

    def test_strictly_decreasing_in_distance(self):
        env = make_env()
        d = np.linspace(1.0, 10_000.0, 500)
        targets = np.column_stack([d, np.zeros_like(d)])
        values = noiseless_rss(targets, np.zeros(2), env)
        assert np.all(np.diff(values) < 0)


class TestNoiseModels:
    def test_zero_mean_statistics(self):
        rng = np.random.default_rng(100)
        draws = sample_noise(NoiseModel("zero_mean_gaussian", 4.0), rng, size=1_000_000)
        assert abs(draws.mean()) <= 0.01 * 4.0
        assert draws.std() == pytest.approx(4.0, rel=5e-3)

    def test_biased_mean_is_two_db(self):
        rng = np.random.default_rng(101)
        draws = sample_noise(NoiseModel("biased_gaussian", 4.0), rng, size=1_000_000)
        assert draws.mean() == pytest.approx(2.0, abs=0.01 * 4.0)

    def test_mixture_total_standard_deviation(self):
        rng = np.random.default_rng(102)
        model = NoiseModel("gaussian_plus_impulsive", 3.0)
        draws = sample_noise(model, rng, size=1_000_000)
        assert draws.std() == pytest.approx(3.0, abs=0.02)
        # mixture mean = gaussian mean + half the uniform upper bound
        assert draws.mean() == pytest.approx(2.0 + 3.0 * np.sqrt(6.0) / 2.0, abs=0.02)

    def test_mixture_upper_bound_default(self):
        # The uniform component is U[0, sigma*sqrt(6)]: same draws, same bits.
        rng = np.random.default_rng(104)
        gauss = rng.normal(2.0, 5.0 / np.sqrt(2.0), 100)
        expected = gauss + rng.uniform(0.0, 5.0 * np.sqrt(6.0), 100)
        model = NoiseModel("gaussian_plus_impulsive", 5.0)
        draws = sample_noise(model, np.random.default_rng(104), size=100)
        assert np.array_equal(draws, expected)

    def test_all_kinds_within_three_standard_errors(self):
        rng = np.random.default_rng(103)
        n = 1_000_000
        for kind, mean in [
            ("zero_mean_gaussian", 0.0),
            ("biased_gaussian", 2.0),
            ("gaussian_plus_impulsive", 2.0 + 2.0 * np.sqrt(6.0) / 2.0),
        ]:
            draws = sample_noise(NoiseModel(kind, 2.0), rng, size=n)
            assert abs(draws.mean() - mean) <= 3.0 * 2.0 / np.sqrt(n)
            assert abs(draws.var() - 4.0) <= 3.0 * 4.0 * np.sqrt(2.0 / n) * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("laplacian", 1.0)
        with pytest.raises(ValueError):
            NoiseModel("zero_mean_gaussian", 0.0)
        with pytest.raises(ValueError):
            NoiseModel("zero_mean_gaussian", 1.0, mean_db=2.0)


class TestScenario:
    def test_too_few_anchors(self):
        env = make_env()
        anchors = np.array([[0.0, 0.0, 10.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [5.0, 5.0, 5.0]])
        with pytest.raises(GeometryError):
            Scenario(anchors, np.array([2.0, 2.0, 2.0]), env)

    def test_anchor_inside_reference_distance(self):
        env = make_env()
        anchors = np.vstack([np.eye(3) * 100.0, [[50.0, 50.0, 0.0], [2.0, 2.0, 2.3]]])
        with pytest.raises(GeometryError):
            Scenario(anchors, np.array([2.0, 2.0, 2.0]), env)

    def test_degenerate_placement_rejected(self):
        env = make_env()
        anchors = np.tile([[100.0, 100.0, 100.0]], (6, 1))
        with pytest.raises(GeometryError):
            Scenario(anchors, np.array([2.0, 2.0, 2.0]), env)

    def test_subset_keeps_leading_anchors(self, reference_scenario):
        sub = reference_scenario.subset(7)
        assert sub.n_anchors == 7
        assert np.array_equal(sub.anchors_m, reference_scenario.anchors_m[:7])


class TestGenerateMeasurements:
    def test_vanishing_noise_matches_noiseless(self, reference_scenario):
        model = NoiseModel("zero_mean_gaussian", 1e-12)
        rng = np.random.default_rng(5)
        measured = generate_measurements(reference_scenario, model, rng)
        clean = noiseless_rss(
            reference_scenario.target_m,
            reference_scenario.anchors_m,
            reference_scenario.environment,
        )
        assert np.max(np.abs(measured.rss_dbm - clean)) <= 1e-9

    def test_reproducible_for_equal_seeds(self, reference_scenario):
        model = NoiseModel("zero_mean_gaussian", 3.0)
        first = generate_measurements(reference_scenario, model, np.random.default_rng(42))
        second = generate_measurements(reference_scenario, model, np.random.default_rng(42))
        assert np.array_equal(first.rss_dbm, second.rss_dbm)
        assert np.array_equal(first.anchor_index, second.anchor_index)

    def test_measurement_set_rejects_non_finite(self):
        env = make_env()
        with pytest.raises(ValueError):
            MeasurementSet(np.arange(2), np.array([1.0, np.inf]), env)

    def test_measurement_set_takes_integer_anchor_indices_only(self):
        env = make_env()
        for index in ([0.7, 1.2, 2.9], [0, np.nan, 2], [0, 1e300, 2]):
            with pytest.raises(ValueError, match="is not an integer"):
                MeasurementSet(index, np.zeros(3), env)
        for index in ([2, 0, 1], np.arange(3), np.array([2, 0, 1], dtype=np.int32)):
            kept = MeasurementSet(index, np.zeros(3), env).anchor_index
            assert kept.dtype == int and kept.tolist() == list(index)
        with pytest.raises(ConfigError, match="0 measurements for 3 anchors"):
            MeasurementSet([], np.zeros(0), env).anchor_rows(np.zeros((3, 3)))


class TestEnvironment:
    def test_absorption_defaults_to_frequency_curve(self):
        env = make_env(freq=25.0)
        assert env.absorption_db_per_m == pytest.approx(absorption_coefficient(25.0), rel=1e-15)

    def test_explicit_absorption_override(self):
        env = make_env(freq=9.0, absorption=2e-3)
        assert env.absorption_db_per_m == 2e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            make_env(ple=0.0)
        with pytest.raises(ValueError):
            uwloc.Environment(ple=2.0, frequency_khz=-1.0, transmit_power_dbm=0.0)
