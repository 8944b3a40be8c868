import io
import time
from dataclasses import replace

import numpy as np
import pytest

import uwloc
from uwloc import experiments, gtrs
from uwloc.channel import Environment, MeasurementSet, NoiseModel, Scenario, generate_measurements
from uwloc.errors import ConfigError, GeometryError, UwlocError
from uwloc.experiments import (
    CSV_COLUMNS,
    SWEEP_KINDS,
    ExperimentConfig,
    ResultRecord,
    measure_runtime,
    run_sweep,
    run_trial,
    trial_rng,
    write_csv,
)


@pytest.fixture()
def small_config(bundled_config):
    return replace(bundled_config, mc_trials=20)


class TestRunTrial:
    def test_deterministic_for_equal_inputs(self, small_config):
        first = run_trial(small_config, 3)
        second = run_trial(small_config, 3)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_distinct_trials_draw_distinct_noise(self, small_config):
        first = run_trial(small_config, 0)
        second = run_trial(small_config, 1)
        assert not np.array_equal(first[0], second[0])

    def test_near_noiseless_recovery_without_absorption(self, zero_absorption_scenario):
        config = ExperimentConfig(
            scenario=zero_absorption_scenario,
            noise=NoiseModel("zero_mean_gaussian", 1e-12),
            mc_trials=1,
            master_seed=7,
        )
        position, power, estimate = run_trial(config, 0)
        assert np.linalg.norm(position - zero_absorption_scenario.target_m) <= 1e-6
        assert abs(power) <= 1e-6
        assert estimate.power_valid

    def test_generator_depends_only_on_seed_and_index(self):
        a = trial_rng(99, 4).normal(size=5)
        b = trial_rng(99, 4).normal(size=5)
        c = trial_rng(99, 5).normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_locate_takes_one_fix(self, bundled_config, known_power, weighted):
        config = replace(bundled_config, known_power=known_power, weighted=weighted)
        scenario = config.scenario
        env = scenario.environment
        rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        stacked = MeasurementSet(np.arange(scenario.n_anchors), np.stack([rss, rss]), env)
        with pytest.raises(ConfigError, match="measurements stack 2 fixes; this function takes one fix"):
            experiments.locate(config, stacked, scenario.anchors_m, env)


class TestValidation:
    def test_bad_trial_count(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, mc_trials=0)

    def test_bad_sweep_kind(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sweep_kind="voltage")

    def test_bad_sigma_grid(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sigma_grid_db=(1.0, -3.0))

    def test_anchor_counts_out_of_range(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sweep_kind="anchor_count", anchor_counts=(4, 10))

    def test_errors_raised_before_any_trial(self, bundled_config):
        with pytest.raises(ConfigError):
            run_sweep(replace(bundled_config, mc_trials=-1))


class TestRunSweep:
    def test_single_trial_nrmse_is_the_trial_error(self, small_config):
        config = replace(small_config, mc_trials=1, sigma_grid_db=(3.0,))
        record = run_sweep(config)[0]
        position, power, _ = run_trial(replace(config, noise=NoiseModel("zero_mean_gaussian", 3.0)), 0)
        expected = np.linalg.norm(position - config.scenario.target_m)
        assert record.nrmse_t_m == pytest.approx(expected, rel=1e-12)
        assert record.nrmse_p_db == pytest.approx(abs(power - 0.0), rel=1e-12)
        assert record.trials == 1

    def test_records_carry_bounds_and_labels(self, small_config):
        config = replace(small_config, sigma_grid_db=(1.0, 3.0))
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == ["sigma=1", "sigma=3"]
        bound = uwloc.fim_unknown_power(config.scenario, 1.0)
        assert records[0].crlb_t_m == pytest.approx(bound.crlb_t_m, rel=1e-12)
        assert records[0].crlb_p_db == pytest.approx(bound.crlb_p_db, rel=1e-12)
        assert all(r.power_failures >= 0 for r in records)
        assert all(r.solve_failures == 0 for r in records)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_batched_nrmse_equals_per_trial_recomputation(self, small_config, kind):
        config = replace(small_config, sweep_kind=kind, sigma_grid_db=(3.0, 5.0))
        records = run_sweep(config)
        settings = experiments._sweep_settings(config)
        assert [record.sweep_coord for record in records] == [s.label for s in settings]
        for record, setting in zip(records, settings):
            true_t = setting.scenario.target_m
            true_p = setting.scenario.environment.transmit_power_dbm
            err2, power_err2, dropped = [], [], {}
            for trial in range(config.mc_trials):
                try:
                    estimate = gtrs.solve(experiments._trial_system(setting, config, trial))
                except UwlocError as exc:
                    dropped.setdefault(type(exc).__name__, ([], str(exc)))[0].append(trial)
                    continue
                err2.append(float(np.sum((estimate.position_m - true_t) ** 2)))
                if estimate.power_valid:
                    power_err2.append((estimate.transmit_power_dbm - true_p) ** 2)
            nrmse_t = float(np.sqrt(np.mean(np.array(err2)))) if err2 else float("nan")
            nrmse_p = float(np.sqrt(np.mean(np.array(power_err2)))) if power_err2 else None
            assert repr(record.nrmse_t_m) == repr(nrmse_t)
            assert record.nrmse_p_db == nrmse_p
            assert record.power_failures == len(err2) - len(power_err2)
            assert record.solve_failures == config.mc_trials - len(err2)
            assert record.failures == tuple(
                (name, tuple(trials), message)
                for name, (trials, message) in sorted(dropped.items())
            )

    @pytest.mark.parametrize("batch_trials", [1, 20, 50])
    def test_batch_size_leaves_the_csv_unchanged(self, small_config, monkeypatch, batch_trials):
        def csv_bytes():
            stream = io.StringIO()
            write_csv(run_sweep(small_config), stream)
            return stream.getvalue()

        whole = csv_bytes()
        sizes = []
        solve_many = gtrs.solve_many
        monkeypatch.setattr(
            gtrs, "solve_many", lambda systems: sizes.append(len(systems)) or solve_many(systems)
        )
        monkeypatch.setattr(experiments, "SWEEP_BATCH_TRIALS", batch_trials)
        assert csv_bytes() == whole
        # Five points of 20 trials, grouped whole and in order.
        assert sizes == {1: [20] * 5, 20: [20] * 5, 50: [40, 40, 20]}[batch_trials]

    def test_anchor_sweep_drops_last_listed_first(self, small_config):
        config = replace(small_config, sweep_kind="anchor_count", mc_trials=5)
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == [
            f"n_anchors={n},sigma=2" for n in (6, 7, 8, 9, 10)
        ]

    def test_known_power_sweep_has_no_power_metrics(self, small_config):
        config = replace(small_config, known_power=True, sigma_grid_db=(3.0,), mc_trials=5)
        record = run_sweep(config)[0]
        assert record.nrmse_p_db is None
        assert record.crlb_p_db is None
        assert record.power_failures == 0

    def test_noise_scenario_sweep_labels(self, small_config):
        config = replace(
            small_config, sweep_kind="noise_scenarios", sigma_grid_db=(3.0,), mc_trials=5
        )
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == [
            "noise=zero_mean_gaussian,sigma=3",
            "noise=biased_gaussian,sigma=3",
            "noise=gaussian_plus_impulsive,sigma=3",
        ]

    def test_sensitivity_sweep_applies_solver_bias(self, small_config):
        config = replace(
            small_config,
            sweep_kind="sensitivity",
            sigma_grid_db=(3.0,),
            mc_trials=10,
            bias_scenarios=(("unbiased", 0.0, 0.0), ("ple_high", 0.10, 0.0)),
        )
        records = run_sweep(config)
        assert records[0].sweep_coord == "bias=unbiased,sigma=3"
        assert records[1].sweep_coord == "bias=ple_high,sigma=3"
        # a biased assumed path-loss exponent must change the estimates
        assert records[1].nrmse_t_m != records[0].nrmse_t_m

    def test_frequency_sweep_recomputes_absorption(self, small_config):
        config = replace(
            small_config, sweep_kind="frequency", frequency_grid_khz=(9.0, 50.0), mc_trials=5
        )
        records = run_sweep(config)
        env50 = Environment(ple=2.0, frequency_khz=50.0, transmit_power_dbm=0.0)
        scenario50 = Scenario(
            config.scenario.anchors_m, config.scenario.target_m, env50
        )
        bound = uwloc.fim_unknown_power(scenario50, 2.0)
        assert records[1].crlb_t_m == pytest.approx(bound.crlb_t_m, rel=1e-12)


def build_alone(setting, config, trial):
    """Trial ``trial`` of ``setting`` built by itself through the one-fix public functions."""
    rng = trial_rng(config.master_seed, trial)
    measurements = generate_measurements(setting.scenario, setting.noise, rng)
    env = setting.solve_env
    if config.weighted:
        weights = uwloc.link_weights(measurements, env)
    else:
        weights = np.full(len(measurements), 1.0 / len(measurements))
    build = gtrs.build_known_power_system if config.known_power else gtrs.build_system
    try:
        return build(measurements, weights, setting.scenario.anchors_m, env)
    except UwlocError as exc:
        return exc


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_builds(stacked, alone):
    """Each stacked outcome has the bits, or the error class and message, of its lone build."""
    assert len(stacked) == len(alone)
    for got, expected in zip(stacked, alone):
        assert type(got) is type(expected)
        if isinstance(expected, UwlocError):
            assert str(got) == str(expected)
            continue
        assert same_bits(got.design, expected.design)
        assert same_bits(got.target, expected.target)
        assert same_bits(got.normal, expected.design.T @ expected.design)
        assert (got.dimension, got.ple) == (expected.dimension, expected.ple)


class TestStackedBuild:
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_point_stack_equals_one_row_builds(self, bundled_config, kind, known_power, weighted):
        config = replace(
            bundled_config, sweep_kind=kind, known_power=known_power, weighted=weighted,
            mc_trials=8, sigma_grid_db=(3.0, 9.0),
        )
        for setting in experiments._sweep_settings(config):
            trials = range(config.mc_trials)
            assert_same_builds(
                experiments._point_systems(setting, config, trials),
                [build_alone(setting, config, trial) for trial in trials],
            )

    def test_rank_gate_drops_only_its_trial(self, bundled_config):
        # On the bundled sigma = 9 dB point, trial 210 alone fails the rank gate.
        config = replace(bundled_config, sigma_grid_db=(9.0,), mc_trials=211)
        (setting,) = experiments._sweep_settings(config)
        stacked = experiments._point_systems(setting, config, range(211))
        assert_same_builds(stacked, [build_alone(setting, config, trial) for trial in range(211)])
        assert [i for i, outcome in enumerate(stacked) if isinstance(outcome, UwlocError)] == [210]
        assert isinstance(stacked[210], GeometryError)
        (record,) = run_sweep(config)
        assert (record.trials, record.solve_failures) == (211, 1)
        assert record.failures == (("GeometryError", (210,), str(stacked[210])),)
        assert np.isfinite(record.nrmse_t_m)


class TestSquaredErrors:
    """_record sums a point's squared position errors in one stacked reduction;
    each must have the bits of np.sum over that trial's error alone."""

    def test_matches_one_sum_per_trial_bit_for_bit(self):
        rng = np.random.default_rng(22)
        # Squares 1, 1e-16, 1e-16 sum to 1 from the left and to 1 + 2^-52 from
        # the right, so this row pins the order of the additions.
        batches = [([np.array([1.0, 1e-8, 1e-8])], np.zeros(3))]
        for _ in range(100):
            k, m = int(rng.choice([2, 3])), int(rng.choice([1, 7, 100, 2000]))
            target = rng.uniform(0.0, 5000.0, k)
            spread = 10.0 ** rng.uniform(-3.0, 4.0)
            batches.append(([target + spread * rng.standard_normal(k) for _ in range(m)], target))
        for positions, target in batches:
            stacked = experiments._squared_errors(positions, target)
            alone = [float(np.sum((p - target) ** 2)) for p in positions]
            assert stacked.tobytes() == np.array(alone).tobytes()
        assert experiments._squared_errors(*batches[0])[0] == 1.0


class TestRuntime:
    def test_positive_and_reasonably_stable(self, small_config):
        # The fastest of three readings each: load from other processes only slows a reading.
        first = min(measure_runtime(small_config) for _ in range(3))
        second = min(measure_runtime(small_config) for _ in range(3))
        assert first > 0 and second > 0
        assert abs(first - second) <= 0.5 * (first + second) / 2.0


class TestCsv:
    def test_column_order_and_formatting(self):
        record = ResultRecord(
            sweep_coord="sigma=3",
            nrmse_t_m=123.456789123,
            nrmse_p_db=None,
            crlb_t_m=1.0 / 3.0,
            crlb_p_db=2.5,
            power_failures=4,
            trials=100,
            seconds_per_solve=0.00123,
        )
        buffer = io.StringIO()
        write_csv([record], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "sigma=3"
        assert fields[1] == "123.456789"
        assert fields[2] == ""
        assert fields[3] == "0.333333333"
        assert fields[7] == "0"

    def test_timing_only_written_on_request(self):
        record = ResultRecord("sigma=1", 1.0, 1.0, 1.0, 1.0, 0, 1, 0.5)
        plain = io.StringIO()
        timed = io.StringIO()
        write_csv([record], plain)
        write_csv([record], timed, include_timing=True)
        assert plain.getvalue().splitlines()[1].endswith(",0")
        assert timed.getvalue().splitlines()[1].endswith(",0.5")
