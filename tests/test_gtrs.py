import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import _umath_linalg

import uwloc
from conftest import brute_force_objective, built_outcomes, gtrs_objective, random_solver_instance
from uwloc import experiments, gtrs
from uwloc.channel import Environment, MeasurementSet, NoiseModel, generate_measurements
from uwloc.errors import ConfigError, GeometryError, NumericalError, UwlocError
from uwloc.gtrs import (
    GtrsSystem,
    build_known_power_system,
    build_system,
    lambda_interval,
    phi,
    solve,
    solve_known_power,
    solve_many,
)
from uwloc.weighting import link_weights


def noiseless_measurements(scenario):
    model = NoiseModel("zero_mean_gaussian", 1e-15)
    measured = uwloc.noiseless_rss(
        scenario.target_m, scenario.anchors_m, scenario.environment
    )
    return MeasurementSet(np.arange(scenario.n_anchors), measured, scenario.environment)


def equal_weights(n):
    return np.full(n, 1.0 / n)


def true_solution_vector(scenario):
    env = scenario.environment
    t = scenario.target_m
    u = 10.0 ** (env.transmit_power_dbm / (5.0 * env.ple))
    return np.concatenate([t, [t @ t, u]])


def lifting_constraint(system):
    """The paper's H = diag(I_k, 0) and h = -e_k/2, from the system's shape."""
    width, k = system.design.shape[1], system.dimension
    quad = np.zeros((width, width))
    quad[:k, :k] = np.eye(k)
    lin = np.zeros(width)
    lin[k] = -0.5
    return quad, lin


class TestBuildSystem:
    def test_shapes_and_constraint_structure(self, reference_scenario):
        meas = noiseless_measurements(reference_scenario)
        system = build_system(
            meas, equal_weights(10), reference_scenario.anchors_m, reference_scenario.environment
        )
        assert system.design.shape == (10, 5)
        assert system.target.shape == (10,)
        assert system.dimension == 3

    def test_true_vector_has_zero_residual_without_absorption(self, zero_absorption_scenario):
        meas = noiseless_measurements(zero_absorption_scenario)
        system = build_system(
            meas, equal_weights(10), zero_absorption_scenario.anchors_m,
            zero_absorption_scenario.environment,
        )
        z_true = true_solution_vector(zero_absorption_scenario)
        residual = system.design @ z_true - system.target
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(system.target)

    def test_equal_weights_match_unweighted_scaling(self, zero_absorption_scenario):
        meas = noiseless_measurements(zero_absorption_scenario)
        anchors = zero_absorption_scenario.anchors_m
        env = zero_absorption_scenario.environment
        uniform = solve(build_system(meas, equal_weights(10), anchors, env))
        ones = solve(build_system(meas, np.ones(10), anchors, env))
        assert np.allclose(uniform.z, ones.z, rtol=1e-9, atol=1e-9)

    def test_rank_deficiency_rejected(self):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0)
        anchors = np.tile([[1000.0, 1000.0, 1000.0]], (6, 1))
        meas = MeasurementSet(np.arange(6), np.full(6, -60.0), env)
        with pytest.raises(GeometryError):
            build_system(meas, equal_weights(6), anchors, env)

    def test_weight_length_must_match(self, reference_scenario):
        meas = noiseless_measurements(reference_scenario)
        with pytest.raises(ValueError):
            build_system(
                meas, equal_weights(9), reference_scenario.anchors_m,
                reference_scenario.environment,
            )

    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    def test_stacked_fix_is_a_config_error(self, reference_scenario, build):
        meas = noiseless_measurements(reference_scenario)
        stacked = MeasurementSet(meas.anchor_index, np.stack([meas.rss_dbm] * 3), meas.environment)
        weights = np.stack([equal_weights(10)] * 3)
        with pytest.raises(ConfigError, match="measurements stack 3 fixes; this function takes one fix"):
            build(stacked, weights, reference_scenario.anchors_m, reference_scenario.environment)

    @pytest.mark.parametrize("estimates_power", [True, False], ids=["joint", "known"])
    def test_stacked_rows_match_one_row_builds(self, bundled_config, estimates_power):
        # Rows: noiseless; the sigma = 9 dB trial 210 that fails the rank
        # gate; all readings underflowing q^2 to 0 (zero columns); readings
        # near 1e308 dBm (overflow); a noisy trial that builds.
        scenario = bundled_config.scenario
        env = scenario.environment
        seed = bundled_config.master_seed
        drawn = [
            generate_measurements(scenario, replace(bundled_config.noise, sigma_db=sigma), rng).rss_dbm
            for sigma, rng in ((9.0, experiments.trial_rng(seed, 210)), (3.0, np.random.default_rng(4)))
        ]
        clean = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        rows = np.array([clean, drawn[0], np.full(10, -1e5), np.full(10, 1e308), drawn[1]])
        stacked = MeasurementSet(np.arange(10), rows, env)
        weights = link_weights(stacked, env)
        outcomes = built_outcomes(
            gtrs._build(stacked, weights, scenario.anchors_m, env, estimates_power))
        build = build_system if estimates_power else build_known_power_system
        messages = ["design matrix is rank deficient", "design matrix has a zero column",
                    "the weighted system overflows"]
        for row, outcome in enumerate(outcomes):
            alone = MeasurementSet(np.arange(10), rows[row], env)
            if row in (1, 2, 3):
                assert str(outcome).startswith(messages[row - 1])
                with pytest.raises(type(outcome)) as raised:
                    build(alone, weights[row], scenario.anchors_m, env)
                assert str(raised.value) == str(outcome)
                continue
            system = build(alone, weights[row], scenario.anchors_m, env)
            assert np.array_equal(weights[row], link_weights(alone, env))
            for got, expected in ((outcome.design, system.design), (outcome.target, system.target),
                                  (outcome.normal, system.design.T @ system.design)):
                assert got.tobytes() == expected.tobytes()


class TestLambdaInterval:
    def test_orthonormal_design_gives_minus_one(self):
        rng = np.random.default_rng(0)
        design, _ = np.linalg.qr(rng.normal(size=(8, 4)))
        system = GtrsSystem(design, rng.normal(size=8), 2, 2.0)
        lower, upper = lambda_interval(system)
        assert upper == np.inf
        # Gram is the identity, so the pole sits at -1 / max eig(H) = -1
        assert lower == pytest.approx(-1.0, abs=1e-9)
        assert lower > -1.0

    def test_matches_generalized_eigenvalue(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = random_solver_instance(rng, headroom=1e-6)
            system = inst["system"]
            lower, _ = lambda_interval(system)
            gram = system.design.T @ system.design
            quad, _ = lifting_constraint(system)
            pencil_max = scipy.linalg.eigh(quad, gram, eigvals_only=True).max()
            edge = -1.0 / pencil_max
            expected = edge + 1e-12 * (1.0 + abs(edge))
            assert lower == pytest.approx(expected, rel=1e-6, abs=1e-12 * (1.0 + abs(edge)))

    def test_floor_stays_below_the_root_when_the_pole_is_far(self):
        # Noiseless 3-D fix with anchors within a few meters of a plane:
        # lam* is about 2.7e12, where an absolute 1e-12 guard would put the
        # floor above the root at -3.2e-13, and edge/2 would too.
        anchors = np.array([
            [6292.3, 4285.3, 3812.4], [3748.1, 2970.5, 4272.2], [4699.7, 2134.0, 4050.0],
            [4716.1, 3852.9, 4113.4], [4902.9, 1707.2, 3995.6], [3888.7, 1906.1, 4214.4],
            [4079.1, 4084.1, 4243.8],
        ])
        target = np.array([2280.8, 2696.6, 805.7])
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0)
        rss = uwloc.noiseless_rss(target, anchors, env)
        measurements = MeasurementSet(np.arange(len(anchors)), rss, env)
        system = build_system(measurements, link_weights(measurements, env), anchors, env)
        lower, _ = lambda_interval(system)
        estimate = solve(system)
        assert lower < estimate.multiplier < 0.0
        assert phi(lower, system) > 0.0


class TestPhi:
    @pytest.mark.parametrize(
        "build", [build_system, build_known_power_system], ids=["joint", "known"]
    )
    def test_at_zero_matches_unconstrained_least_squares(self, build):
        rng = np.random.default_rng(3)
        inst = random_solver_instance(rng)
        scenario = inst["scenario"]
        system = build(
            inst["measurements"], inst["weights"], scenario.anchors_m, scenario.environment
        )
        z_ls, *_ = np.linalg.lstsq(system.design, system.target, rcond=None)
        quad, lin = lifting_constraint(system)
        expected = z_ls @ quad @ z_ls + 2.0 * lin @ z_ls
        assert phi(0.0, system) == pytest.approx(expected, rel=1e-6, abs=1e-9 * (1 + abs(expected)))

    def test_strictly_decreasing_on_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            inst = random_solver_instance(rng)
            system = inst["system"]
            lower, _ = lambda_interval(system)
            hi = max(1.0, np.linalg.norm(system.design.T @ system.design))
            while phi(hi, system) > 0 and hi < 1e18:
                hi *= 2.0
            fractions = np.linspace(1e-6, 1.0, 50) ** 2
            grid = lower + (hi - lower) * fractions
            values = np.array([phi(x, system) for x in grid])
            assert np.all(np.diff(values) < 0)

    def test_noiseless_root_recovers_target(self, zero_absorption_scenario):
        meas = noiseless_measurements(zero_absorption_scenario)
        system = build_system(
            meas, equal_weights(10), zero_absorption_scenario.anchors_m,
            zero_absorption_scenario.environment,
        )
        est = solve(system)
        assert abs(est.kkt_constraint) <= 1e-6
        assert np.linalg.norm(est.position_m - zero_absorption_scenario.target_m) <= 1e-5


def singular_shift_system():
    """A k = 1 joint-shaped system whose shifted matrix is exactly singular at -3.

    Its normal matrix [[4, 2, 0], [2, 4, 0], [0, 0, 1]] scales to the Gram
    matrix [[1, .5, 0], [.5, 1, 0], [0, 0, 1]] and H to diag(1/4, 0, 0), all
    exactly; at -3 the shifted matrix scales to [[1, 1, 0], [1, 1, 0], [0, 0, 1]].
    """
    design = np.zeros((5, 3))
    design[:4, 0] = 1.0
    design[:4, 1] = [1.0, 1.0, 1.0, -1.0]
    design[4, 2] = 1.0
    return GtrsSystem(design, np.arange(5.0), 1, 2.0)


@gtrs._lapack_errors
def direct_lapack(spd, matrices, rhs):
    """classify's Cholesky of ``spd`` and its solves of ``matrices`` with ``rhs``."""
    solved = [_umath_linalg.solve1(a, rhs, signature="dd->d") for a in matrices]
    return _umath_linalg.cholesky_lo(spd, signature="d->d"), solved


class TestDirectLapack:
    """_Equilibrated.classify and _kkt call numpy.linalg's LAPACK gufuncs
    without its wrapper."""

    def test_numpy_exposes_the_gufuncs(self):
        # numpy.linalg._umath_linalg is private; a numpy that renames it fails here first.
        assert _umath_linalg.solve1.signature == "(m,m),(m)->(m)"
        assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
        assert _umath_linalg.eigvalsh_lo.signature == "(m,m)->(m)"
        assert _umath_linalg.svd.signature == "(m,n)->(p)"
        assert "dd->d" in _umath_linalg.solve1.types
        for gufunc in (_umath_linalg.cholesky_lo, _umath_linalg.eigvalsh_lo, _umath_linalg.svd):
            assert "d->d" in gufunc.types

    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_gufuncs_give_numpy_linalg_bits(self, width):
        rng = np.random.default_rng(width)
        for _ in range(200):
            root = rng.normal(size=(width + 2, width))
            spd = root.T @ root
            s = 1.0 / np.sqrt(spd.diagonal())
            unit = spd * (s[:, None] * s)  # unit diagonal, as shifted_solve scales
            general = unit + rng.uniform(-0.5, 0.5, (width, width))
            np.fill_diagonal(general, 1.0)
            rhs = rng.normal(size=width)
            factor, solved = direct_lapack(unit, (unit, general), rhs)
            assert factor.tobytes() == np.linalg.cholesky(unit).tobytes()
            for a, y in zip((unit, general), solved):
                assert y.tobytes() == np.linalg.solve(a, rhs).tobytes()
            # _kkt's eigenvalues of a shifted matrix and singular values of N
            shifted = spd - rng.uniform(0.0, 2.0) * np.diag(rng.uniform(size=width))
            assert (
                _umath_linalg.eigvalsh_lo(shifted, signature="d->d").tobytes()
                == np.linalg.eigvalsh(shifted).tobytes()
            )
            assert (
                _umath_linalg.svd(spd, signature="d->d").tobytes()
                == np.linalg.svd(spd, compute_uv=False).tobytes()
            )

    def test_singular_or_indefinite_shift_gives_none(self):
        system = singular_shift_system()
        eq = gtrs._Equilibrated([system])[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(shifted_scaled(eq, -3.0), eq.rhs0)
        # -3 is singular (PSD only), -4 gives a zero diagonal entry, and at
        # -3.5 the shifted matrix is indefinite but not singular: all low.
        lams = [-3.0, -4.0, -3.5, -2.5]
        replies = classify_replies(gtrs._Equilibrated([system]), [0] * 4, lams)
        assert [z_hat is None for _, _, z_hat in replies] == [True, True, True, False]
        reference = gtrs._lapack_errors(classify_one)
        for lam, (low, residual, z_hat) in zip(lams, replies):
            expected = reference(eq, lam)
            assert (low, residual) == expected[:2]
            assert z_hat is None or np.array_equal(z_hat, expected[2])
        # phi checks no pivot: the singular shift and the zero diagonal entry
        # fail its solve, while the indefinite one solves.
        for lam in (-3.0, -4.0):
            with pytest.raises(NumericalError, match="could not be solved"):
                phi(lam, system)
        assert phi(-3.5, system) == gtrs._lapack_errors(shifted_residual)(eq, -3.5)

    def test_phi_at_a_singular_shift_is_a_named_error_without_a_warning(self):
        system = singular_shift_system()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="could not be solved at multiplier -3.0"):
                phi(-3.0, system)
        # Outside the error state the gufunc warns; classify still reads its NaN as unsolved.
        eq = gtrs._Equilibrated([system])[0]
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert eq.classify(np.array([-3.0]))[2].tolist() == [False]

    def test_a_failed_matrix_is_a_nan_row_of_its_stack(self):
        # classify relies on this: the other matrices of the
        # stack keep numpy.linalg's bits, and the failed one is all NaN.
        eq = gtrs._Equilibrated([singular_shift_system()])[0]
        good, singular, indefinite = (shifted_scaled(eq, lam) for lam in (-2.5, -3.0, -3.5))
        rhs = np.random.default_rng(0).normal(size=(3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor, (solved,) = direct_lapack(
                np.stack([good, indefinite]), [np.stack([good, singular, indefinite])], rhs
            )
        assert np.isnan(solved[1]).all() and np.isnan(factor[1]).all()
        for y, a, b in [(solved[0], good, rhs[0]), (solved[2], indefinite, rhs[2])]:
            assert y.tobytes() == np.linalg.solve(a, b).tobytes()
        assert factor[0].tobytes() == np.linalg.cholesky(good).tobytes()


class TestSolve:
    def test_exact_recovery_weighted_and_unweighted(self, zero_absorption_scenario):
        scenario = zero_absorption_scenario
        meas = noiseless_measurements(scenario)
        env = scenario.environment
        for weighted in (True, False):
            w = link_weights(meas, env) if weighted else equal_weights(10)
            est = solve(build_system(meas, w, scenario.anchors_m, env))
            assert np.linalg.norm(est.position_m - scenario.target_m) <= 1e-6 * np.linalg.norm(
                scenario.target_m
            )
            assert est.power_valid
            assert abs(est.transmit_power_dbm - env.transmit_power_dbm) <= 1e-6

    def test_zero_multiplier_fast_path(self):
        # engineered so the unconstrained least-squares solution already
        # satisfies the lifting constraint
        rng = np.random.default_rng(5)
        k = 2
        design = rng.normal(size=(9, k + 2))
        t = rng.normal(size=k)
        z_star = np.concatenate([t, [t @ t, 1.7]])
        target = design @ z_star
        system = GtrsSystem(design, target, k, 2.0)
        assert phi(0.0, system) == 0.0
        est = solve(system)
        assert est.multiplier == 0.0 and est.iterations == 0
        assert np.allclose(est.z, z_star, rtol=1e-8, atol=1e-8)

    def test_kkt_residuals_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            inst = random_solver_instance(rng)
            est = solve(inst["system"])
            assert est.kkt_stationarity <= 1e-8
            assert est.kkt_min_eig_ratio >= -1e-8
            assert est.iterations <= 200
            k = inst["system"].dimension
            t_hat = est.z[:k]
            assert est.z[k] == pytest.approx(t_hat @ t_hat, rel=1e-9, abs=1e-9)
            assert np.array_equal(est.position_m, est.z[:k])

    def test_weight_rescaling_leaves_solution_unchanged(self):
        rng = np.random.default_rng(7)
        inst = random_solver_instance(rng)
        meas, scenario = inst["measurements"], inst["scenario"]
        env = scenario.environment
        w = inst["weights"]
        base = solve(build_system(meas, w, scenario.anchors_m, env))
        scaled = solve(build_system(meas, 7.25 * w, scenario.anchors_m, env))
        assert np.allclose(base.z, scaled.z, rtol=1e-9, atol=1e-9 * np.linalg.norm(base.z))

    def test_matches_brute_force_on_small_2d_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            inst = random_solver_instance(rng, dims=(2,), max_anchors=5)
            system = inst["system"]
            est = solve(system)
            best = brute_force_objective(
                inst["measurements"], inst["weights"], inst["scenario"].anchors_m,
                inst["scenario"].environment, grid_lo=-2000.0, grid_hi=7000.0,
            )
            assert gtrs_objective(system, est.z) <= best * (1.0 + 1e-4) + 1e-12

    def test_newton_polish_agrees_with_nelder_mead(self):
        # The brute-force oracle's exact Newton polish against scipy's
        # derivative-free search on the first instances of the test above.
        rng = np.random.default_rng(8)
        for _ in range(3):
            inst = random_solver_instance(rng, dims=(2,), max_anchors=5)
            args = (inst["measurements"], inst["weights"], inst["scenario"].anchors_m,
                    inst["scenario"].environment, -2000.0, 7000.0)
            newton = brute_force_objective(*args)
            nelder_mead = brute_force_objective(*args, polish="nelder-mead")
            assert newton <= nelder_mead * (1.0 + 1e-12)
            assert newton == pytest.approx(nelder_mead, rel=1e-12)


class TestKnownPower:
    def test_reduced_shapes(self, reference_scenario):
        meas = noiseless_measurements(reference_scenario)
        system = build_known_power_system(
            meas, equal_weights(10), reference_scenario.anchors_m,
            reference_scenario.environment,
        )
        k = reference_scenario.dimension
        assert system.design.shape == (10, k + 1)
        assert system.dimension == k
        est = solve(system)
        assert est.transmit_power_dbm is None and not est.power_valid

    def test_exact_recovery_without_absorption(self, zero_absorption_scenario):
        scenario = zero_absorption_scenario
        meas = noiseless_measurements(scenario)
        system = build_known_power_system(
            meas, equal_weights(10), scenario.anchors_m, scenario.environment
        )
        est = solve_known_power(system)
        assert np.linalg.norm(est.position_m - scenario.target_m) <= 1e-6 * np.linalg.norm(
            scenario.target_m
        )
        assert est.transmit_power_dbm is None
        assert not est.power_valid

    def test_noisy_solves_stay_finite(self, reference_scenario):
        env = reference_scenario.environment
        model = NoiseModel("zero_mean_gaussian", 3.0)
        for trial in range(25):
            rng = np.random.default_rng(1000 + trial)
            meas = generate_measurements(reference_scenario, model, rng)
            w = link_weights(meas, env)
            system = build_known_power_system(meas, w, reference_scenario.anchors_m, env)
            est = solve_known_power(system)
            assert np.all(np.isfinite(est.position_m))
            assert est.kkt_stationarity <= 1e-8

    def test_anchors_equidistant_from_the_target(self):
        # Equal ranges make the joint design's q^2 column a multiple of its
        # constant column; the known-power design has no constant column.
        env = Environment(
            ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0, absorption_db_per_m=0.0
        )
        target = np.array([2000.0, 2500.0, 1800.0])
        anchors = target + 1500.0 * np.vstack([np.eye(3), -np.eye(3)])
        meas = MeasurementSet(np.arange(6), uwloc.noiseless_rss(target, anchors, env), env)
        with pytest.raises(GeometryError, match="every reading implies the same range"):
            build_system(meas, equal_weights(6), anchors, env)
        est = solve(build_known_power_system(meas, equal_weights(6), anchors, env))
        assert np.linalg.norm(est.position_m - target) <= 1e-6 * np.linalg.norm(target)

    def test_one_solver_serves_both_system_kinds(self, zero_absorption_scenario):
        assert solve_known_power is solve
        meas = noiseless_measurements(zero_absorption_scenario)
        args = (meas, equal_weights(10), zero_absorption_scenario.anchors_m,
                zero_absorption_scenario.environment)
        known = solve(build_known_power_system(*args))
        joint = solve(build_system(*args))
        assert known.z.shape == (4,) and not known.power_valid
        assert joint.z.shape == (5,) and joint.power_valid


class TestRankGate:
    """The rank gate's GeometryError names its cause; the third one, equal
    ranges, is in TestKnownPower::test_anchors_equidistant_from_the_target."""

    def test_one_reading_dominates(self, bundled_config):
        # Trial 210 of the bundled sigma = 9 dB point is one of its three drops.
        dominates = r"one reading dominates: its q\^2 is 8.7e\+03 times the next largest"
        with pytest.raises(GeometryError, match=dominates):
            sigma9_trial_systems(bundled_config, [210])

    @pytest.mark.parametrize("build", [build_system, build_known_power_system])
    def test_coplanar_anchors(self, build):
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0)
        anchors = np.array([
            [0.0, 0.0, 500.0], [1000.0, 0.0, 500.0], [0.0, 1000.0, 500.0],
            [1000.0, 1000.0, 500.0], [500.0, 200.0, 500.0], [300.0, 800.0, 500.0],
        ])
        rss = uwloc.noiseless_rss([400.0, 300.0, 200.0], anchors, env)
        meas = MeasurementSet(np.arange(6), rss, env)
        with pytest.raises(GeometryError, match="the anchors lie close to one line or plane"):
            build(meas, equal_weights(6), anchors, env)

    @pytest.mark.parametrize("build", [build_system, build_known_power_system])
    def test_exactly_singular_design_prints_no_negative_eigenvalue(self, build, monkeypatch):
        # Coplanar anchors and equal readings make the design exactly singular;
        # its computed Gram floor is rounding noise below zero.
        env = Environment(ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0)
        anchors = np.array([
            [0.0, 0.0, 500.0], [1000.0, 0.0, 500.0], [0.0, 1000.0, 500.0],
            [1000.0, 1000.0, 500.0], [500.0, 200.0, 500.0], [300.0, 800.0, 500.0],
        ])
        meas = MeasurementSet(np.arange(6), np.full(6, -60.0), env)
        with monkeypatch.context() as patched:
            patched.setattr(gtrs, "_check_rank", lambda *args: None)
            system = build(meas, equal_weights(6), anchors, env)
        assert gtrs._gram_floor(system.normal) < 0.0
        with pytest.raises(GeometryError) as raised:
            build(meas, equal_weights(6), anchors, env)
        (eigenvalue,) = re.findall(r"normalized Gram eigenvalue (\S+)\)", str(raised.value))
        assert eigenvalue == "0.00e+00"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [build_system, build_known_power_system])
    def test_nan_gram_floor_fails_the_gate(self, reference_scenario, build, monkeypatch):
        # The gate's eigen-solve is LAPACK's gufunc, which gives NaN where it
        # fails: a NaN floor must read as rank deficient, never pass the gate.
        scenario, env = reference_scenario, reference_scenario.environment
        meas = MeasurementSet(
            np.arange(scenario.n_anchors),
            uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env), env,
        )
        weights = equal_weights(scenario.n_anchors)
        build(meas, weights, scenario.anchors_m, env)  # passes with a working eigen-solve
        failing = SimpleNamespace(**vars(_umath_linalg))
        failing.eigvalsh_lo = lambda a, signature: np.full(a.shape[:-1], np.nan)
        monkeypatch.setattr(gtrs, "_umath_linalg", failing)
        assert np.isnan(gtrs._gram_floor(np.eye(3)))
        with pytest.raises(GeometryError) as raised:
            build(meas, weights, scenario.anchors_m, env)
        # The failed solve is named, not a range or collinearity cause it cannot see.
        assert str(raised.value) == (
            "design matrix is rank deficient (normalized Gram eigenvalue nan): its eigen-solve failed"
        )


def solve_each(systems):
    """Reference for solve_many: solve one system at a time."""
    outcomes = []
    for system in systems:
        try:
            outcomes.append(solve(system))
        except UwlocError as exc:
            outcomes.append(exc)
    return outcomes


def assert_bit_identical(batch, reference):
    assert len(batch) == len(reference)
    for got, expected in zip(batch, reference):
        assert type(got) is type(expected)
        if isinstance(expected, UwlocError):
            assert str(got) == str(expected)
            continue
        assert np.array_equal(got.z, expected.z)
        assert np.array_equal(got.position_m, expected.position_m)
        for field in (
            "multiplier", "iterations", "transmit_power_dbm", "power_valid",
            "kkt_stationarity", "kkt_constraint", "kkt_min_eig_ratio",
        ):
            assert getattr(got, field) == getattr(expected, field), field


def orthonormal_system(seed):
    """A k = 2 joint-shaped system whose Gram matrix is the identity."""
    rng = np.random.default_rng(seed)
    design, _ = np.linalg.qr(rng.normal(size=(8, 4)))
    return GtrsSystem(design, rng.normal(size=8), 2, 2.0)


def shifted_scaled(eq, lam):
    """The matrix whose Cholesky _Equilibrated.classify checks at ``lam``."""
    shifted = eq.gram + lam * eq.quad
    s = 1.0 / np.sqrt(shifted.diagonal())
    return shifted * (s[:, None] * s)


# The scalar reference for the kernel: one multiplier of one system at a
# time, a matrix and a vector at each step.  Callers hold gtrs._lapack_errors.


def solve_at(eq, lam, check_definite):
    """The shifted system's solution at ``lam``, or None where the shifted
    matrix has a nonpositive diagonal entry, where ``check_definite`` and its
    scaled Cholesky has a pivot under 1e-6 (or fails), or where it is not solved."""
    shifted = eq.gram + lam * eq.quad
    diag = shifted.diagonal()
    if (diag <= 0.0).any():
        return None
    s = 1.0 / np.sqrt(diag)
    scaled = shifted * (s[:, None] * s)
    if check_definite:
        factor = _umath_linalg.cholesky_lo(scaled, signature="d->d")
        if not factor.diagonal().min() > 1e-6:  # NaN where the Cholesky failed
            return None
    y = _umath_linalg.solve1(scaled, (eq.rhs0 - lam * eq.lin) * s, signature="dd->d")
    return None if math.isnan(y[-1]) else y * s


def constraint_residual(eq, z_hat):
    return float(z_hat @ eq.quad @ z_hat + eq.lin2 @ z_hat)


def shifted_residual(eq, lam):
    """Reference for phi: the residual at ``lam`` with no pivot check, or None."""
    z_hat = solve_at(eq, lam, check_definite=False)
    return None if z_hat is None else constraint_residual(eq, z_hat)


def classify_one(eq, lam):
    """Reference for _Equilibrated.classify: (low, residual, z_hat) at ``lam``.

    ``low`` says the multiplier is below the root: the shifted matrix fails
    to be PD below 0 (below the pole, given as residual inf and z_hat None),
    its solve fails, or the residual is positive.
    """
    z_hat = solve_at(eq, lam, check_definite=lam < 0.0)
    if z_hat is None:
        return True, np.inf, None
    residual = constraint_residual(eq, z_hat)
    return residual > 0.0, residual, z_hat


def classify_replies(batch, rows, lams):
    """_Equilibrated.classify as the (low, residual, z_hat or None) triples of classify_one."""
    classify = gtrs._lapack_errors(batch.take(np.array(rows)).classify)
    residual, z_hat, solved = classify(np.array(lams, dtype=float))
    return [(f > 0.0, f, z if ok else None) for f, z, ok in zip(residual.tolist(), z_hat, solved)]


def trial_systems(bundled_config, sigma, trials):
    noise = replace(bundled_config.noise, sigma_db=sigma)
    env = bundled_config.scenario.environment
    setting = experiments._TrialSetting(f"sigma={sigma:g}", bundled_config.scenario, noise, env)
    return [experiments._trial_system(setting, bundled_config, t) for t in trials]


def sigma9_trial_systems(bundled_config, trials):
    return trial_systems(bundled_config, 9.0, trials)


class TestSolveMany:
    def test_matches_solve_on_random_instances(self):
        rng = np.random.default_rng(10)
        systems = []
        for _ in range(15):
            inst = random_solver_instance(rng)
            env = inst["scenario"].environment
            anchors = inst["scenario"].anchors_m
            systems.append(inst["system"])
            systems.append(
                build_known_power_system(inst["measurements"], inst["weights"], anchors, env)
            )
        # One stack per design width; the 4-column one holds k = 2 joint
        # systems and k = 3 known-power ones.
        widths = sorted({system.design.shape[1] for system in systems})
        assert widths == [3, 4, 5]
        for width in widths:
            stack = [system for system in systems if system.design.shape[1] == width]
            assert_bit_identical(solve_many(stack), solve_each(stack))

    # Trials 0-299 at sigma = 1 dB hold 12 negative roots (trials 12, 45, 66,
    # 107, 123, 158, 183, 191, 223, 241, 256 and 294), each walked down alone
    # between the stacked rows.
    @pytest.mark.parametrize("extra", [[], range(300)], ids=["sigma9", "sigma9+sigma1"])
    def test_matches_solve_on_bundled_sigma9_trials(self, bundled_config, monkeypatch, extra):
        systems = sigma9_trial_systems(bundled_config, range(12))
        systems += trial_systems(bundled_config, 1.0, extra)
        # Trial 210 fails the build_system rank gate; built past the gate,
        # its system solves in the stack exactly as it does alone.
        with pytest.raises(GeometryError):
            sigma9_trial_systems(bundled_config, [210])
        monkeypatch.setattr(gtrs, "_check_rank", lambda *args: None)
        systems[5:5] = sigma9_trial_systems(bundled_config, [210])
        assert_bit_identical(solve_many(systems), solve_each(systems))
        assert_bit_identical(solve_many(systems[:1]), solve_each(systems[:1]))

    def test_a_row_below_its_pole_fails_alone_in_its_stack(self, bundled_config):
        systems = sigma9_trial_systems(bundled_config, range(3))
        batch = gtrs._Equilibrated(systems)
        eqs = [batch[row] for row in range(3)]
        below_pole = 2.0 * lambda_interval(systems[0])[0]
        lams = [below_pole, 0.0, 1.0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.stack([shifted_scaled(eq, lam) for eq, lam in zip(eqs, lams)]))
        replies = classify_replies(batch, [0, 1, 2], lams)
        assert replies[0] == (True, np.inf, None)
        for eq, lam, (low, residual, z_hat) in zip(eqs[1:], [0.0, 1.0], replies[1:]):
            expected = gtrs._lapack_errors(classify_one)(eq, lam)
            assert (low, residual) == expected[:2]
            assert np.array_equal(z_hat, expected[2])

    def test_weak_pivot_rule_matches_one_by_one(self, bundled_config):
        # Just above the multiplier where the Cholesky of a shifted matrix
        # starts to fail, it succeeds with a pivot under the 1e-6 floor;
        # a stacked round must call such multipliers low as classify_one does.
        systems = sigma9_trial_systems(bundled_config, range(6))
        batch = gtrs._Equilibrated(systems)
        eqs = [batch[row] for row in range(len(systems))]
        edges = []
        for eq, system in zip(eqs, systems):
            works = lambda_interval(system)[0]
            fails = 2.0 * works
            while fails < 0.5 * (fails + works) < works:
                mid = 0.5 * (fails + works)
                try:
                    np.linalg.cholesky(shifted_scaled(eq, mid))
                    works = mid
                except np.linalg.LinAlgError:
                    fails = mid
            edges.append(works)
        replies = classify_replies(batch, range(len(eqs)), edges)
        assert any(z_hat is None for _, _, z_hat in replies)
        for eq, lam, (low, residual, z_hat) in zip(eqs, edges, replies):
            expected = gtrs._lapack_errors(classify_one)(eq, lam)
            assert (low, residual) == expected[:2]
            assert (z_hat is None) == (expected[2] is None)
            assert z_hat is None or np.array_equal(z_hat, expected[2])

    def test_every_exit_in_one_batch_matches_solve(self, bundled_config, monkeypatch):
        # At sigma = 1 dB, trial 12 has a negative root and trial 11 takes
        # the most bisection steps.
        systems = trial_systems(bundled_config, 1.0, range(13))
        alone = solve_each(systems)
        iterations = [estimate.iterations for estimate in alone]
        assert iterations.count(max(iterations)) == 1
        slowest = iterations.index(max(iterations))
        positive = next(i for i, e in enumerate(alone) if e.multiplier > 0.0 and i != slowest)
        negative = next(i for i, e in enumerate(alone) if e.multiplier < 0.0 and i != slowest)
        # Readings at q = 1 make the q^2 column the exact negative of the
        # constant column, so the Gram matrix is singular and the solve at
        # multiplier 0 fails; only the patched rank gate lets it through.
        monkeypatch.setattr(gtrs, "_check_rank", lambda *args: None)
        scenario = bundled_config.scenario
        env = scenario.environment
        flat = MeasurementSet(
            np.arange(scenario.n_anchors), np.full(scenario.n_anchors, env.absorption_db_per_m), env
        )
        singular = build_system(flat, equal_weights(scenario.n_anchors), scenario.anchors_m, env)
        batch = [systems[positive], systems[negative], systems[slowest], singular]
        reference = solve_each(batch)
        assert [type(outcome) for outcome in reference] == [
            gtrs.Estimate, gtrs.Estimate, gtrs.Estimate, GeometryError,
        ]
        # The slowest row finishes last in the stack.
        assert reference[2].iterations > max(reference[0].iterations, reference[1].iterations)
        assert str(reference[3]) == "normal matrix is not positive definite"
        assert_bit_identical(solve_many(batch), reference)

    def test_an_infinite_multiplier_is_unsolved_and_ends_the_upward_walk(self, monkeypatch):
        # The upward doubling never reaches inf (module docstring), but solve
        # and solve_many both read a multiplier there as unsolved, and an
        # unsolved point above 0 ends the upward walk with a NumericalError.
        systems = [orthonormal_system(seed) for seed in range(6)]
        batch = gtrs._Equilibrated(systems)
        classify_stack = gtrs._lapack_errors(batch.take(np.arange(6)).classify)
        residual, _, solved = classify_stack(np.full(6, np.inf))
        assert residual.tolist() == [np.inf] * 6 and not solved.any()
        classify_alone = gtrs._lapack_errors(classify_one)
        assert all(classify_alone(batch[row], np.inf) == (True, np.inf, None) for row in range(6))
        # Evaluate every positive multiplier at inf instead.
        classify = gtrs._Equilibrated.classify
        monkeypatch.setattr(gtrs._Equilibrated, "classify", lambda self, lams: classify(
            self, np.where(lams > 0.0, np.inf, lams)))
        reference = solve_each(systems)
        failed = [outcome for outcome in reference if isinstance(outcome, UwlocError)]
        assert failed and all(isinstance(outcome, NumericalError) for outcome in failed)
        assert all("could not be solved at multiplier" in str(outcome) for outcome in failed)
        assert_bit_identical(solve_many(systems), reference)

    def test_one_kkt_pass_per_stack_at_the_returned_z(self, monkeypatch):
        # solve_many takes its stack's diagnostics in one gtrs._kkt call, at the
        # z it returns: a row whose upward walk fails is 0 there, not the
        # solution at multiplier 0 its search kept.  solve takes one per fix.
        systems = [orthonormal_system(seed) for seed in range(6)]
        calls, kkt = [], gtrs._kkt
        monkeypatch.setattr(gtrs, "_kkt", lambda *args: calls.append(args) or kkt(*args))
        classify = gtrs._Equilibrated.classify
        monkeypatch.setattr(gtrs._Equilibrated, "classify", lambda self, lams: classify(
            self, np.where(lams > 0.0, np.inf, lams)))
        outcomes = solve_many(systems)
        ((normal, moment, dimension, lam, z),) = calls
        assert normal.tobytes() == np.array([s.normal for s in systems]).tobytes()
        assert moment.tobytes() == np.array([s.moment for s in systems]).tobytes()
        assert dimension.tolist() == [2] * 6
        failed = [isinstance(outcome, UwlocError) for outcome in outcomes]
        assert any(failed) and not all(failed) and not z[failed].any()
        for row, outcome in enumerate(outcomes):
            if not failed[row]:
                assert (z[row].tobytes(), lam[row]) == (outcome.z.tobytes(), outcome.multiplier)
        calls.clear()
        assert_bit_identical(solve_many(systems[:3]) + solve_many(systems[3:]), outcomes)
        assert len(calls) == 2
        calls.clear()
        assert_bit_identical(solve_each(systems), outcomes)
        assert len(calls) == failed.count(False)

    def test_zero_design_column_fails_alone(self):
        # A zero column gives the normal matrix a zero diagonal entry, which
        # the Jacobi scaling cannot invert; past the rank gate only a
        # directly built system has one.
        systems = [orthonormal_system(seed) for seed in range(6)]
        design = systems[2].design.copy()
        design[:, 1] = 0.0
        systems[2] = replace(systems[2], design=design)
        reference = solve_each(systems)
        assert isinstance(reference[2], GeometryError)
        assert str(reference[2]) == "normal matrix has a nonpositive diagonal entry"
        assert sum(isinstance(outcome, gtrs.Estimate) for outcome in reference) == 5
        assert_bit_identical(solve_many(systems), reference)
        assert_bit_identical(solve_many(systems[2:3]), reference[2:3])

    def test_mixed_widths_are_a_named_error(self):
        inst = random_solver_instance(np.random.default_rng(10))
        scenario = inst["scenario"]
        known = build_known_power_system(
            inst["measurements"], inst["weights"], scenario.anchors_m, scenario.environment
        )
        widths = [known.design.shape[1], inst["system"].design.shape[1]]
        with pytest.raises(ValueError, match=re.escape(f"one design width, got widths {widths}")):
            solve_many([inst["system"], known, inst["system"]])

    @pytest.mark.parametrize(
        "width, k, root, t0, aux, steps",
        [(9, 7, 3.0, 8.0, 2.5, None), (4, 2, -0.75, 3.0, 144.375, 2)], ids=["up", "down"],
    )
    def test_root_on_the_last_expansion_point_is_the_estimate(self, width, k, root, t0, aux, steps):
        # An identity Gram matrix and R^T v = t0 e_0 + aux e_k give
        # phi(lam) = t0^2 / (1 + lam)^2 - aux - lam/2; every scaling there is
        # a power of two.  Up: phi is exactly 0 at the first upward probe
        # ||G||_F = 3 of width 9.  No bisection point beats a zero residual,
        # so the estimate is the expansion's last point, which both drivers
        # keep without comparing.  Down: the bracket is [-1, 0], phi(-0.5)
        # is negative, and the second midpoint -0.75 is the exact root,
        # which ends both bisections after 2 steps.
        target = np.zeros(width + 3)
        target[0], target[k] = t0, aux
        system = GtrsSystem(np.eye(width + 3, width), target, k, 2.0)
        reference = solve_each([system])
        assert reference[0].multiplier == root
        assert steps is None or reference[0].iterations == steps
        assert_bit_identical(solve_many([system]), reference)


@gtrs._lapack_errors
def stepwise_search(eq, classify=classify_one):
    """Reference for gtrs._search: its bracketing, then a bisection that
    classifies one midpoint per step through the scalar ``classify``."""
    _, f0, z0 = classify(eq, 0.0)
    if z0 is None:
        raise GeometryError("normal matrix is not positive definite")
    if f0 == 0.0:
        return 0.0, z0, 0
    if f0 > 0.0:
        a, b = 0.0, float(np.linalg.norm(eq.gram))
        low, fb, zb = classify(eq, b)
        while low:
            if zb is None:
                raise gtrs._unsolved(b)
            a, b = b, 2.0 * b
            low, fb, zb = classify(eq, b)
    else:  # the free bound -min_{i<k} N_ii lies at or below the pole
        a, b, fb, zb = -eq.normal.diagonal()[: eq.dimension].min(), 0.0, f0, z0
    best = (b, abs(fb), zb)
    iterations = 0
    while b > a:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        low, fm, zm = classify(eq, mid)
        iterations += 1
        if abs(fm) < best[1]:
            best = (mid, abs(fm), zm)
        if fm == 0.0:
            break
        if low:
            a = mid
        else:
            b = mid
    return best[0], best[2], iterations


def search_outcome(search, eq):
    """(multiplier, z_hat bytes, iterations), or the error's (class, message)."""
    try:
        lam, z_hat, iterations = search(eq)
    except UwlocError as exc:
        return type(exc), str(exc)
    return lam, z_hat.tobytes(), iterations


def stepwise_steps(eq):
    """stepwise_search's outcome, its bisection steps as (midpoint, residual)
    pairs, the number of classify calls gtrs._search opens with (one of
    [0, ||G||_F], then one per further upward probe) and whether the root
    lies inside (0, ||G||_F), where the opening call can hold the path."""
    seen = []

    def record(eq, lam):
        reply = classify_one(eq, lam)
        seen.append((lam, reply[1]))
        return reply

    outcome = search_outcome(lambda eq: stepwise_search(eq, record), eq)
    probes = len(seen) - outcome[2]  # 0, then each upward b
    return outcome, seen[probes:], max(probes - 1, 1), probes == 2


def path_steps(steps, guess):
    """How many of ``steps`` a path round for ``guess`` takes: up to the first
    whose side the guess calls wrong, that one included."""
    for count, (mid, residual) in enumerate(steps, 1):
        if residual == 0.0 or (residual > 0.0) != (mid < guess):
            return count
    return len(steps)


def record_calls(monkeypatch, record=len):
    """``record`` of the multipliers of each _Equilibrated.classify call, from now on."""
    calls = []
    classify = gtrs._Equilibrated.classify
    monkeypatch.setattr(gtrs._Equilibrated, "classify", lambda self, lams: (
        calls.append(record(lams)) or classify(self, lams)))
    return calls


def record_skips(monkeypatch):
    """Per gtrs._skip_far_steps call from now on: its stack ``rows``, their ``opening``
    brackets, the brackets they ``enter`` the bisection with and the steps each ``skipped``."""
    skips, skip = [], gtrs._skip_far_steps

    def spy(eq, rows, lower, upper, *best):
        skips.append(SimpleNamespace(rows=rows, opening=(lower.copy(), upper.copy())))
        skips[-1].skipped = skip(eq, rows, lower, upper, *best)
        skips[-1].enter = (lower.copy(), upper.copy())
        return skips[-1].skipped

    monkeypatch.setattr(gtrs, "_skip_far_steps", spy)
    return skips


def guess_wrong_first(monkeypatch, steps):
    """Make the predictor call the first bisection step's side wrong, so a tree
    round follows it: a guess halfway from a to the first midpoint calls that
    midpoint high, one halfway from it to b calls it low.  Both lie inside the
    bracket, so the opening of a root inside (0, ||G||_F) holds their path."""
    first_low = steps[0][1] > 0.0
    monkeypatch.setattr(gtrs, "_predict", lambda eq, a, b: (
        0.5 * (a + 0.5 * (a + b)) if first_low else 0.5 * (0.5 * (a + b) + b)))


# Trials 0-12 and the negative roots of trials 0-299 at sigma = 1 dB, as in
# TestSolveMany; the negative roots' rounds run the Cholesky check.
SIGMA1_TRIALS = [*range(13), 45, 66, 107, 123, 158, 183, 191, 223, 241, 256, 294]

# Guesses, from the bracket (a, b) and the stepwise root, that _search must
# shrug off: no guess, values that are not finite, the bracket's ends and
# first midpoint, the root's neighbours and points far outside the bracket.
ADVERSARIAL_GUESSES = {
    "none": lambda a, b, root: None,
    "nan": lambda a, b, root: math.nan,
    "inf": lambda a, b, root: math.inf,
    "-inf": lambda a, b, root: -math.inf,
    "a": lambda a, b, root: a,
    "b": lambda a, b, root: b,
    "first-midpoint": lambda a, b, root: 0.5 * (a + b),
    "root-ulp": lambda a, b, root: math.nextafter(root, -math.inf),
    "root+ulp": lambda a, b, root: math.nextafter(root, math.inf),
    "far-below": lambda a, b, root: a - 1e6 * (b - a),
    "far-above": lambda a, b, root: b + 1e6 * (b - a),
}


def assert_bound_is_low(systems):
    """Each system's free bound -min_{i<k} N_ii is low to classify_one and to a
    stacked classify, and no higher than lambda_interval's guarded pole."""
    batch = gtrs._Equilibrated(systems)
    rows = range(len(systems))
    classify_alone = gtrs._lapack_errors(classify_one)
    bounds = batch.bound()
    for system, row, reply in zip(systems, rows, classify_replies(batch, rows, bounds)):
        bound = -system.normal.diagonal()[: system.dimension].min()
        assert bounds[row] == batch[row].bound() == bound <= lambda_interval(system)[0]
        assert reply == classify_alone(batch[row], bound) == (True, np.inf, None)


class TestFreeBound:
    """A negative root's bracket is [-min_{i<k} N_ii, 0] (gtrs module docstring)."""

    def test_bound_is_low_on_the_negative_roots(self, bundled_config):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        negative = [system for system, outcome in zip(systems, solve_many(systems))
                    if outcome.multiplier < 0.0]
        assert len(negative) == 12
        assert_bound_is_low(negative)

    def test_negative_rows_bisect_in_one_stack_with_the_others(self, bundled_config, monkeypatch):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        reference = solve_each(systems)
        assert sum(estimate.multiplier < 0.0 for estimate in reference) == 12
        calls, skips = record_calls(monkeypatch), record_skips(monkeypatch)
        monkeypatch.setattr(gtrs, "_search", None)  # no row is searched alone
        assert_bit_identical(solve_many(systems), reference)
        # The opening holds all 24 rows at 0 and at ||G||_F, which brackets
        # the 12 positive roots.  The check round holds both ends of every row
        # that skipped its far steps, the 12 negative ones among them, and
        # each bisection round then holds all 24 until the first finishes.
        (skip,) = skips
        skipped = skip.rows[skip.skipped > 0].tolist()
        assert {row for row, e in enumerate(reference) if e.multiplier < 0.0} <= set(skipped)
        shared = min(reference[row].iterations - steps
                     for row, steps in zip(skip.rows.tolist(), skip.skipped.tolist()))
        assert len(systems) == 24 and calls[:2] == [48, 2 * len(skipped)]
        assert shared > 0 and calls[2 : 2 + shared] == [24] * shared


# Brackets, guesses and margins for _far_steps: the ldexp jump from (0, b) or
# (a, 0), with its edge guess + margin within one octave of b (no jump) or
# exactly b*2**-20, and where it must not jump: a subnormal or NaN guess.
FAR_STEP_BRACKETS = {
    "positive": (0.0, 4.25, 1e-3, 1e-9),
    "negative": (-3e-3, 0.0, -2e-4, 2e-10),
    "far-below": (0.0, 4.25, 3e-207, 3e-213),
    "far-below-negative": (-4.25, 0.0, -3e-207, 3e-213),
    "past-b": (0.0, 1.0, 2.0, 0.0),
    "at-a": (0.0, 1.0, 0.0, 0.0),
    "all-near": (0.0, 1.0, 0.3, 1.0),
    "edge-within-an-octave": (0.0, 4.25, 3.0, 1e-7),
    "edge-on-a-halving": (0.0, 4.25, 4.25 * 2.0**-20 - 2.0**-40, 2.0**-40),
    "subnormal": (0.0, 4.25, 5e-320, 0.0),
    "nan": (0.0, 4.25, math.nan, math.nan),
}


def leading_far_steps(a, b, guess, margin):
    """Reference for gtrs._far_steps on one bracket, from _path: the bracket its
    steps reach up to the first midpoint within ``margin`` of ``guess``, their
    count and whether the last of them moved a."""
    path = gtrs._path(a, b, guess)
    far = next((i for i, mid in enumerate(path) if not abs(mid - guess) > margin), len(path))
    lows = [mid for mid in path[:far] if mid < guess]
    highs = [mid for mid in path[:far] if not mid < guess]
    return (lows or [a])[-1], (highs or [b])[-1], far, far > 0 and path[far - 1] < guess


# Relative distances from a root at which a margin check classifies: 1e-3
# down to 10**-15.5, 8 to a decade.
FLIP_DELTAS = 10.0 ** -(3.0 + np.arange(101) / 8.0)


def skipping_path_call(eq, a, b, guess):
    """Reference for the path call of gtrs._search on the bracket (a, b), whose margin is
    SKIP_BAND*max(|guess|, k/tr P)*||L^-1||_F^2, G = L L^T and P = L^-1 H L^-T the scaled
    pencil: the two ends the leading far steps reach, then the rest of _path; and their count."""
    inverse = np.linalg.inv(np.linalg.cholesky(eq.gram))
    unit = max(abs(guess), eq.dimension / np.trace(inverse @ eq.quad @ inverse.T))
    low, high, far, _ = leading_far_steps(a, b, guess, gtrs.SKIP_BAND * unit * (inverse**2).sum())
    path = gtrs._path(a, b, guess)
    return ([low, high, *path[far:]] if far else path), far


def record_path_calls(monkeypatch):
    """Per gtrs._skip_path call from now on: its bracket and its (guess, mids, far, last_low)."""
    plans, skip_path = [], gtrs._skip_path
    monkeypatch.setattr(gtrs, "_skip_path", lambda eq, a, b: (
        plans.append(((a, b), skip_path(eq, a, b))) or plans[-1][1]))
    return plans


# Guesses that must not change a bit, from the root: 1e-4 off on the side the
# predictor's steps land on, 1e-4 off on the other side, and none.
BAD_GUESSES = {
    "off": lambda root: root - 1e-4 * abs(root),
    "wrong-side": lambda root: root + 1e-4 * abs(root),
    "nan": lambda root: math.nan,
}


class TestSkipFarSteps:
    """_solve_stack moves each row's bracket past the far steps of its predicted
    path where one classify round of the two ends it reaches holds; every
    other row bisects from its opening bracket.  A single fix's _search checks
    the two ends in its path call and, where they do not hold, classifies the
    whole path in one more.  Either way the bits are those of the stepwise
    bisection."""

    @pytest.mark.parametrize("kind", [*BAD_GUESSES, "mix"])
    def test_bad_guesses_fall_back_with_the_same_bits(self, bundled_config, monkeypatch, kind):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        reference = solve_each(systems)
        roots = [estimate.multiplier for estimate in reference]
        assert sum(root < 0.0 for root in roots) == 12
        # "mix" gives each row in turn a guess of each bad kind or its own.
        kinds = [kind if kind != "mix" else [*BAD_GUESSES, None][row % 4] for row in range(24)]
        calls, skips, guesses = record_calls(monkeypatch), record_skips(monkeypatch), gtrs._guesses

        def adversary(eq, k, a, b):
            guess, floor = guesses(eq, k, a, b)
            rows = skips[-1].rows.tolist()
            assert len(rows) == len(guess)  # one k: every row is predicted
            return np.array([g if kinds[row] is None else BAD_GUESSES[kinds[row]](roots[row])
                             for row, g in zip(rows, guess.tolist())]), floor

        monkeypatch.setattr(gtrs, "_guesses", adversary)
        assert_bit_identical(solve_many(systems), reference)
        (skip,) = skips
        bad = np.array([kinds[row] is not None for row in skip.rows.tolist()])
        assert bad.any() and (skip.skipped[bad] == 0).all() and (skip.skipped[~bad] > 0).all()
        for opening, enter in zip(skip.opening, skip.enter):  # the bad rows bisect from it
            assert np.array_equal(enter[bad], opening[bad])
        # The check round holds both ends of every row with a guess: the bad
        # guesses move their brackets too, and only the check sends them back.
        guessed = sum(kinds[row] != "nan" for row in range(24))
        assert calls[1] == (2 * guessed if guessed else 24)

    @pytest.mark.parametrize("trial", [0, 12], ids=["positive", "negative"])
    def test_tied_ends_keep_the_one_reached_first(self, bundled_config, monkeypatch, trial):
        # Both ends the far steps reach read a residual of the same size,
        # smaller than any other, so the best point is the first of them the
        # stepwise bisection met; its strict < keeps it past the second.
        (system,) = trial_systems(bundled_config, 1.0, [trial])
        skips = record_skips(monkeypatch)
        solve_many([system])
        (skip,) = skips
        (low,), (high,) = skip.enter
        assert skip.skipped[0] > 0 and low != skip.opening[0][0] and high != skip.opening[1][0]
        classify = gtrs._Equilibrated.classify

        def tied(self, lams):
            residual, z_hat, solved = classify(self, lams)
            tie = np.where(lams == low, 1e-300, np.where(lams == high, -1e-300, residual))
            return tie, z_hat, solved

        monkeypatch.setattr(gtrs._Equilibrated, "classify", tied)
        reference = solve_each([system])
        assert reference[0].multiplier in (low, high)
        assert_bit_identical(solve_many([system]), reference)

    @pytest.mark.parametrize("kind", [*BAD_GUESSES, "check-fails"])
    def test_a_single_fix_shrugs_off_bad_guesses(self, bundled_config, monkeypatch, kind):
        # Each bad guess of BAD_GUESSES, or one at 0.999 of every bracket, whose
        # far steps end on one side of the root, gives _search the stepwise bits
        # for at most one classify call more than the same guess with no step
        # skipped (an infinite margin); the guess whose check fails, exactly one.
        calls, plans, skipped = record_calls(monkeypatch), record_path_calls(monkeypatch), 0
        for system in trial_systems(bundled_config, 1.0, SIGMA1_TRIALS):
            eq = gtrs._Equilibrated([system])[0]
            expected = search_outcome(stepwise_search, eq)
            root, bad = expected[0], BAD_GUESSES.get(kind)
            monkeypatch.setattr(gtrs, "_predict", lambda eq, a, b: (
                a + 0.999 * (b - a) if bad is None else bad(root)))
            counts = []
            for band in (math.inf, gtrs.SKIP_BAND):
                monkeypatch.setattr(gtrs, "SKIP_BAND", band)
                calls.clear()
                assert search_outcome(gtrs._search, eq) == expected
                counts.append(len(calls))
            skipped += plans[-1][1][2] > 0
            assert counts[1] - counts[0] in ((1,) if bad is None else (0, 1))
        assert skipped == (0 if kind == "nan" else 24)

    @pytest.mark.parametrize("trial", [0, 12], ids=["positive", "negative"])
    def test_a_single_fix_keeps_the_tied_end_reached_first(self, bundled_config, monkeypatch,
                                                           trial):
        # As for a stack row: both far ends read residuals of one size, smaller
        # than any other, so the best point is the end the steps reached first.
        (system,) = trial_systems(bundled_config, 1.0, [trial])
        eq = gtrs._Equilibrated([system])[0]
        plans = record_path_calls(monkeypatch)
        search_outcome(gtrs._search, eq)
        (a, b), (_, (low, high, *_), far, last_low) = plans[-1]
        assert far > 0 and low != a and high != b and (a < 0.0) == (trial == 12)

        def one(eq, lam):
            is_low, residual, z_hat = classify_one(eq, lam)
            return is_low, 1e-300 if lam == low else -1e-300 if lam == high else residual, z_hat

        expected = search_outcome(lambda eq: stepwise_search(eq, one), eq)
        assert expected[0] == (high if last_low else low)
        classify = gtrs._Equilibrated.classify

        def tied(self, lams):
            residual, z_hat, solved = classify(self, lams)
            tie = np.where(lams == low, 1e-300, np.where(lams == high, -1e-300, residual))
            return tie, z_hat, solved

        monkeypatch.setattr(gtrs._Equilibrated, "classify", tied)
        assert search_outcome(gtrs._search, eq) == expected

    def test_a_sweep_stack_skips_on_nearly_every_row(self, bundled_config, monkeypatch):
        # perfbench's sweep_sigma call: the bundled scenario at 5 sigma x 20
        # trials, one stack of 100 rows, with the master seed of its seed 0.
        # The parent schedule took 84 classify calls there.
        config = replace(bundled_config, sigma_grid_db=(1.0, 3.0, 5.0, 7.0, 9.0), mc_trials=20,
                         master_seed=2103381652, known_power=False, sweep_kind="sigma")
        calls, skips = record_calls(monkeypatch), record_skips(monkeypatch)
        experiments.run_sweep(config)
        (skip,) = skips
        assert len(skip.rows) == 100 and np.count_nonzero(skip.skipped) >= 95
        # The margin in the pencil's units leaves 3109 multipliers (3928 at 1e-6*|guess|).
        assert len(calls) <= 50 and sum(calls) <= 3300

    def test_classes_flip_well_inside_the_margin(self, bundled_config):
        # The skip's bits rest on each class being monotone farther than the
        # margin from the root (gtrs module docstring).  Classified at
        # root*(1 +- delta), every class contrary to its side lies within a
        # tenth of the margin, taken with the root as the guess: on sigma = 1
        # trial 2996 (root 6.8e-11, which flips 1.8e-7 relative from it), the
        # low-floor sigma = 9 rows and the seed-0 perfbench stack.
        systems = trial_systems(bundled_config, 1.0, [2996])
        systems += sigma9_trial_systems(bundled_config, SIGMA9_LOW_FLOOR_TRIALS)
        perfbench = replace(bundled_config, master_seed=2103381652)
        for sigma in (1.0, 3.0, 5.0, 7.0, 9.0):
            systems += trial_systems(perfbench, sigma, range(20))
        roots = np.array([estimate.multiplier for estimate in solve_many(systems)])
        eq = gtrs._Equilibrated(systems)
        lams = roots[:, None] * (1.0 + np.concatenate([FLIP_DELTAS, -FLIP_DELTAS]))
        rows = np.repeat(np.arange(len(systems)), lams.shape[1])
        classify = gtrs._lapack_errors(eq.kernel(rows).classify)
        residual = classify(lams.ravel())[0].reshape(lams.shape)
        contrary = np.where(lams > roots[:, None], residual > 0.0, residual < 0.0)
        flip = np.where(contrary, np.abs(lams - roots[:, None]), 0.0).max(axis=1)
        floor = 1.0 / (eq.inverse**2).sum(axis=(1, 2))
        margin = gtrs._margin(eq, eq.dimension, roots, floor)
        assert len(systems) == 112 and flip[0] > 1e-7 * abs(roots[0])
        assert np.count_nonzero(flip) >= 100 and (flip <= margin / 10.0).all()

    @pytest.mark.parametrize("finish", [0, 8, 100])
    def test_stacked_guesses_are_the_scalar_predictors(self, bundled_config, monkeypatch, finish):
        # Over arrays, in Python floats from where the arrays left off, or all
        # in Python floats: each row's guess is _predict's on the same bracket,
        # up to rounding, since the stacked one runs in t = s*lam (2.5e-12 apart
        # at most on these rows).
        monkeypatch.setattr(gtrs, "SCALAR_FINISH", finish)
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        systems += sigma9_trial_systems(bundled_config, range(12))
        eq = gtrs._Equilibrated(systems)
        negative = np.array([estimate.multiplier < 0.0 for estimate in solve_each(systems)])
        a = np.where(negative, eq.bound(), 0.0)
        b = np.where(negative, 0.0, eq.gram_norm())
        guess, _ = gtrs._lapack_errors(gtrs._guesses)(eq.kernel(np.arange(len(systems))), 3, a, b)
        predict = gtrs._lapack_errors(gtrs._predict)
        scalar = [predict(eq[row], a[row], b[row]) for row in range(len(systems))]
        assert None not in scalar
        assert np.allclose(guess, scalar, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("a, b, guess, margin", FAR_STEP_BRACKETS.values(),
                             ids=FAR_STEP_BRACKETS.keys())
    def test_far_steps_are_the_paths_leading_far_midpoints(self, a, b, guess, margin):
        got = gtrs._far_steps(*(np.array([x]) for x in (a, b, guess, margin)))
        assert tuple(x[0] for x in got) == leading_far_steps(a, b, guess, margin)

    def test_stacked_far_steps_are_each_rows_own(self):
        rows = list(FAR_STEP_BRACKETS.values())
        got = gtrs._far_steps(*map(np.array, zip(*rows)))
        assert [tuple(x[row] for x in got) for row in range(len(rows))] == [
            leading_far_steps(*row) for row in rows]

    @pytest.mark.parametrize("a, b, guess", [(0.0, 4.25, 3e-207), (-4.25, 0.0, -3e-207)],
                             ids=["positive", "negative"])
    def test_the_exact_halvings_are_jumped(self, monkeypatch, a, b, guess):
        # 706 far steps, nearly all of them halvings of b (or a), in about 20
        # lockstep passes: each pass moves its rows with three copyto calls.
        copies, copyto = [], np.copyto
        monkeypatch.setattr(np, "copyto", lambda *args, **kw: copies.append(1) or copyto(*args, **kw))
        (steps,) = gtrs._far_steps(*(np.array([x]) for x in (a, b, guess, 1e-6 * abs(guess))))[2]
        assert steps == 706 and len(copies) / 3 <= 25


class TestOpening:
    """Both drivers open with one classify call that holds 0 and ||G||_F for
    every row they search, and double upward through classify.  A single
    fix's opening also holds the predicted path where the predictor has a
    guess for (0, ||G||_F): the two ends of its far steps, then its near ones."""

    def test_solve_opens_at_zero_and_the_gram_norm(self, bundled_config, monkeypatch):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        calls = record_calls(monkeypatch, np.ndarray.tolist)
        positive = 0
        for system in systems:
            calls.clear()
            estimate = solve(system)
            eq = gtrs._Equilibrated([system])[0]
            norm = np.linalg.norm(eq.gram)
            assert calls[0][:2] == [0.0, norm]
            if estimate.multiplier > 0.0:  # the root lies in (0, ||G||_F) on all 12
                positive += 1
                guess = gtrs._lapack_errors(gtrs._predict)(eq, 0.0, norm)
                assert 0.0 < guess < norm
                path_call, far = skipping_path_call(eq, 0.0, norm, guess)
                assert far > 0 and calls[0][2:] == path_call
        assert positive == 12

    def test_negative_roots_open_at_zero_and_the_gram_norm_alone(self, bundled_config, monkeypatch):
        # The predictor's first step, at 0, lies above the root, so it has no
        # guess for (0, ||G||_F) and the opening holds no path; the bracket
        # [bound, 0] gets a guess and a path call of its own, which skips too.
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        calls = record_calls(monkeypatch, np.ndarray.tolist)
        predict = gtrs._lapack_errors(gtrs._predict)
        negative = 0
        for system in systems:
            calls.clear()
            if solve(system).multiplier < 0.0:
                negative += 1
                eq = gtrs._Equilibrated([system])[0]
                norm = np.linalg.norm(eq.gram)
                assert predict(eq, 0.0, norm) is None
                assert calls[0] == [0.0, norm]
                bound = float(eq.bound())
                path_call, far = skipping_path_call(eq, bound, 0.0, predict(eq, bound, 0.0))
                assert far > 0 and calls[1] == path_call
        assert negative == 12

    def test_solve_many_opens_every_valid_row_in_one_call(self, bundled_config, monkeypatch):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        design = systems[0].design.copy()
        design[:, 1] = 0.0  # a zero diagonal entry: the row is never searched
        systems.append(replace(systems[0], design=design))
        calls = record_calls(monkeypatch, np.ndarray.tolist)
        solve_many(systems)
        norms = [np.linalg.norm(gtrs._Equilibrated([system]).gram[0]) for system in systems[:-1]]
        assert sorted(calls[0]) == sorted([0.0] * len(norms) + norms)

    def test_upward_doubling_goes_through_classify(self, monkeypatch):
        # An identity Gram matrix of width 9 and R^T v = 66 e_0 give
        # phi(lam) = 66^2 / (1 + lam)^2 - lam/2, positive at ||G||_F = 3, 6
        # and 12 and negative at 24.
        target = np.zeros(12)
        target[0] = 66.0
        system = GtrsSystem(np.eye(12, 9), target, 7, 2.0)
        eq = gtrs._Equilibrated([system])[0]
        expected = search_outcome(stepwise_search, eq)
        calls = record_calls(monkeypatch, np.ndarray.tolist)
        assert search_outcome(gtrs._search, eq) == expected
        # Every predictor step on (0, 3) lies below the root, so it has no
        # guess there and the opening holds no path.
        assert gtrs._lapack_errors(gtrs._predict)(eq, 0.0, 3.0) is None
        assert calls[:4] == [[0.0, 3.0], [6.0], [12.0], [24.0]]
        calls.clear()
        outcomes = solve_many([system])
        assert calls[:4] == [[0.0, 3.0], [6.0], [12.0], [24.0]]
        assert_bit_identical(outcomes, solve_each([system]))


class TestSpeculativeSearch:
    """gtrs._search opens with one classify call at 0 and ||G||_F that also
    holds the predicted path, less its far steps, where the root lies inside
    (0, ||G||_F); else the path gets a call of its own.  Then it classifies
    the midpoints of DEPTH steps per round, in stacked calls, and replays the
    steps; it must match stepwise_search bit for bit whatever the predictor
    guesses."""

    @pytest.fixture(scope="class")
    def sigma1(self, bundled_config):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        return [gtrs._Equilibrated([system])[0] for system in systems]

    @pytest.fixture(scope="class")
    def sigma1_steps(self, sigma1):
        return [stepwise_steps(eq) for eq in sigma1]

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_matches_stepwise_bisection(self, sigma1, sigma1_steps, monkeypatch, depth):
        expected = [outcome for outcome, _, _, _ in sigma1_steps]
        assert sum(lam < 0.0 for lam, _, _ in expected) == 12
        monkeypatch.setattr(gtrs, "DEPTH", depth)
        calls, guesses, paths = record_calls(monkeypatch), [], []
        plans = record_path_calls(monkeypatch)
        predict, path = gtrs._predict, gtrs._path
        monkeypatch.setattr(gtrs, "_predict", lambda eq, a, b: (
            guesses.append(predict(eq, a, b)) or guesses[-1]))
        monkeypatch.setattr(gtrs, "_path", lambda a, b, guess: (
            paths.append(path(a, b, guess)) or paths[-1]))
        ends_inside_a_round = 0
        for eq, (reference, steps, opening, inside) in zip(sigma1, sigma1_steps):
            calls.clear()
            assert search_outcome(gtrs._search, eq) == reference
            iterations = reference[2]
            taken = path_steps(steps, guesses[-1])
            # The predictor is good enough that the path round takes most steps.
            assert taken >= iterations / 2
            assert len(paths[-1]) > 2**depth - 1
            # One call at [0, ||G||_F] and the path, its far steps' two ends in
            # place of those steps, where the root lies inside that bracket;
            # else the opening, any further upward probes and one call for the
            # path.  Then one call per DEPTH steps; a bracket that collapses at
            # a tree round's first step costs no call.
            _, path_call, far, _ = plans[-1][1]
            assert far > 0 and len(path_call) == 2 + len(paths[-1]) - far
            if inside:
                assert calls[0] == 2 + len(path_call)
            else:
                assert calls[:opening + 1] == [2] + [1] * (opening - 1) + [len(path_call)]
            lead = 1 if inside else opening + 1
            assert calls[lead:] == [2**depth - 1] * -(-(iterations - taken) // depth)
            ends_inside_a_round += (iterations - taken) % depth != 0
        if depth > 1:
            assert ends_inside_a_round > 0  # collapses at a node that is not a round's first

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    @pytest.mark.parametrize("guess", ADVERSARIAL_GUESSES)
    def test_any_guess_gives_the_stepwise_bits(
        self, sigma1, sigma1_steps, monkeypatch, depth, guess
    ):
        monkeypatch.setattr(gtrs, "DEPTH", depth)
        calls = record_calls(monkeypatch)
        for eq, (reference, _, opening, _) in zip(sigma1, sigma1_steps):
            root, iterations = reference[0], reference[2]
            monkeypatch.setattr(gtrs, "_predict", lambda eq, a, b: (
                ADVERSARIAL_GUESSES[guess](a, b, root)))
            calls.clear()
            assert search_outcome(gtrs._search, eq) == reference
            if guess == "none":  # no path round: the opening, then the tree rounds alone
                assert calls[opening:] == [2**depth - 1] * -(-iterations // depth)

    @pytest.mark.parametrize("depth", [2, 3, 5])
    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("trial", [0, 12], ids=["positive", "negative"])
    @pytest.mark.parametrize("where", ["path", "tree"])
    def test_zero_residual_inside_a_round(
        self, sigma1, sigma1_steps, monkeypatch, depth, step, trial, where
    ):
        # The residual reads exactly 0 at a midpoint, which ends both searches
        # there with that midpoint as the estimate.  On the path, it is the
        # step-th the search classifies after the far steps it skips: a zero at
        # a far midpoint would break the monotone classes the skip rests on.
        # A wrong first guess fails the check, so nothing is skipped, and puts
        # steps after the first in tree rounds; there it is the step-th solved
        # midpoint (a negative root's first midpoints can lie below the pole,
        # where there is no solution to return, so those are not counted).
        (lam, _, _), steps, opening, inside = sigma1_steps[SIGMA1_TRIALS.index(trial)]
        eq = sigma1[SIGMA1_TRIALS.index(trial)]
        assert (lam < 0.0) == (trial == 12)
        solved = [count for count, (_, residual) in enumerate(steps, 1) if residual != np.inf]
        assert (solved[0] > 1) == (trial == 12)
        if where == "path":
            with pytest.MonkeyPatch.context() as patch:
                plans = record_path_calls(patch)
                search_outcome(gtrs._search, eq)
            far = plans[-1][1][2]
            assert far > 0 and far + step in solved
            step += far
        else:
            step = solved[step - 1]
        zero_at = steps[step - 1][0]

        def one(eq, lam):
            low, residual, z_hat = classify_one(eq, lam)
            return (False, 0.0, z_hat) if lam == zero_at else (low, residual, z_hat)

        classify = gtrs._Equilibrated.classify

        def stacked(self, lams):
            residual, z_hat, solved = classify(self, lams)
            return np.where(lams == zero_at, 0.0, residual), z_hat, solved

        monkeypatch.setattr(gtrs._Equilibrated, "classify", stacked)
        expected = search_outcome(lambda eq: stepwise_search(eq, one), eq)
        assert expected[0] == zero_at and expected[2] == step
        monkeypatch.setattr(gtrs, "DEPTH", depth)
        if where == "tree":
            guess_wrong_first(monkeypatch, steps)
        calls = record_calls(monkeypatch)
        assert search_outcome(gtrs._search, eq) == expected
        # Calls up to the one that holds the path; in a tree case, the one more
        # call for the whole path after the failed check.
        lead = (1 if inside else opening + 1) + (where == "tree")
        if where == "path" or step == 1:
            assert len(calls) == lead
        else:
            assert calls[lead:] == [2**depth - 1] * -(-(step - 1) // depth)


def assert_predictor_quiet(eq):
    """Under _lapack_errors, gtrs._predict gives None or a finite float, with no
    warning or exception, on _search's bracket of ``eq`` and on brackets
    around no root, across the pole or as wide as floats go."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gtrs, "_predict", lambda eq, a, b: seen.append((a, b)))
        search_outcome(gtrs._search, eq)
    predict = gtrs._lapack_errors(gtrs._predict)
    guesses = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in seen + [(-1e300, 1e300), (0.0, 1e300), (-1.0, 0.0), (1.0, 2.0)]:
            guesses.append(predict(eq, a, b))
    assert all(guess is None or type(guess) is float and math.isfinite(guess) for guess in guesses)
    return guesses[: len(seen)]


class TestPredict:
    """gtrs._predict only sets the speed, so it must never stop a search."""

    @pytest.mark.parametrize("shift_db", [-1000.0, 1000.0, 1500.0])
    @pytest.mark.parametrize("build", [build_system, build_known_power_system])
    def test_quiet_and_total_at_the_overflow_scale(self, reference_scenario, shift_db, build):
        # Readings 1000 dB up or down scale q^2 by about 1e100 either way; at
        # +1500 dB the weighted system is just below the build's overflow check.
        scenario, env = reference_scenario, reference_scenario.environment
        rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        rss = rss + np.random.default_rng(1).standard_normal(scenario.n_anchors) + shift_db
        measurements = MeasurementSet(np.arange(scenario.n_anchors), rss, env)
        weights = link_weights(measurements, env)
        system = build(measurements, weights, scenario.anchors_m, env)
        assert np.abs(np.log10(system.normal.diagonal())).max() > 150
        # One guess for (0, ||G||_F); the shifts up have upward roots, so one
        # more for the bracket the doubling ends on.
        guesses = assert_predictor_quiet(gtrs._Equilibrated([system])[0])
        assert len(guesses) == (1 if shift_db < 0.0 else 2)

    def test_quiet_and_total_on_width_4_known_power_systems(self):
        rng = np.random.default_rng(4)
        guesses = []
        for _ in range(20):
            inst = random_solver_instance(rng, dims=(3,))
            env, anchors = inst["scenario"].environment, inst["scenario"].anchors_m
            system = build_known_power_system(inst["measurements"], inst["weights"], anchors, env)
            assert system.design.shape[1] == 4
            guesses += assert_predictor_quiet(gtrs._Equilibrated([system])[0])
        assert len(guesses) == 20 and None not in guesses


def shifted_system(scenario, build, shift_db, seed=1):
    """The bundled fix with unit-sigma noise from ``seed``, every reading and
    the known power shifted by ``shift_db``: the problem rescaled, the fix unmoved."""
    rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
    rss = rss + np.random.default_rng(seed).standard_normal(scenario.n_anchors)
    env = replace(scenario.environment,
                  transmit_power_dbm=scenario.environment.transmit_power_dbm + shift_db)
    measurements = MeasurementSet(np.arange(scenario.n_anchors), rss + shift_db, env)
    return build(measurements, link_weights(measurements, env), scenario.anchors_m, env)


class TestFinalize:
    @pytest.mark.parametrize("shift_db", [1000.0, 1500.0])
    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    @pytest.mark.parametrize("driver", ["solve", "solve_many"])
    def test_readings_far_above_the_usual_ones(self, reference_scenario, shift_db, build, driver):
        # Shifting every reading, and a known power with them, rescales the
        # problem without moving the fix; its norms overflow in _kkt.
        estimates = []
        for shift in (0.0, shift_db):
            system = shifted_system(reference_scenario, build, shift)
            estimates.append(solve(system) if driver == "solve" else solve_many([system])[0])
        usual, shifted = estimates
        with np.errstate(over="ignore"):
            assert np.linalg.norm(system.normal) == np.inf  # the plain norms overflow
        assert shifted.kkt_stationarity <= 1e-8
        assert np.allclose(shifted.position_m, usual.position_m, rtol=1e-10, atol=0.0)


# Readings this far below the usual ones scale the root toward 0 by up to
# 1e-290, so the bisection from (0, ||G||_F) takes hundreds of steps more
# than usual; -1480 dB is just above the build's underflow check.
FAR_BELOW_DB = [-210.0, -500.0, -1000.0, -1450.0]
BISECTION_BOUND = 2100  # steps from a finite bracket (gtrs module docstring)


class TestFarBelow:
    """Readings far below the usual ones solve to the usual fix: the bisection
    runs to bracket collapse with no step cap."""

    @pytest.mark.parametrize("shift_db", FAR_BELOW_DB)
    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    def test_solve_gives_the_unshifted_fix(self, reference_scenario, shift_db, build):
        for seed in range(10):
            usual = solve(shifted_system(reference_scenario, build, 0.0, seed))
            shifted = solve(shifted_system(reference_scenario, build, shift_db, seed))
            error = np.linalg.norm(shifted.position_m - usual.position_m)
            assert error <= 1e-9 * np.linalg.norm(usual.position_m)
            if build is build_system:
                assert abs(shifted.transmit_power_dbm - shift_db - usual.transmit_power_dbm) <= 1e-9
            assert usual.iterations < shifted.iterations < BISECTION_BOUND

    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_stacked_with_the_sigma1_trials(self, bundled_config, known_power, monkeypatch):
        systems = trial_systems(replace(bundled_config, known_power=known_power), 1.0, SIGMA1_TRIALS)
        build = build_known_power_system if known_power else build_system
        systems[3:3] = [shifted_system(bundled_config.scenario, build, shift)
                        for shift in FAR_BELOW_DB + [-1480.0]]
        reference = solve_each(systems)
        assert all(isinstance(outcome, gtrs.Estimate) for outcome in reference)
        calls = record_calls(monkeypatch)
        assert_bit_identical(solve_many(systems), reference)
        assert 700 < max(estimate.iterations for estimate in reference) < BISECTION_BOUND
        # Each row skips its far steps, so the stack takes tens of classify rounds,
        # not one per step of its slowest row.
        assert len(calls) <= 80

    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    def test_solve_predicts_where_the_unscaled_terms_overflow(self, reference_scenario, build,
                                                             monkeypatch):
        # At -1480 dB the scalar set-up's g^2 overflows; the one-row stacked
        # predictor, scaled by the largest mu, still guesses the root, so the
        # opening holds its path instead of a tree round per three steps.
        system = shifted_system(reference_scenario, build, -1480.0)
        eq = gtrs._Equilibrated([system])[0]
        expected = search_outcome(stepwise_search, eq)
        assert expected[2] > 1000
        calls = record_calls(monkeypatch)
        assert search_outcome(gtrs._search, eq) == expected
        assert len(calls) <= 10

    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    def test_solve_skips_the_halvings_toward_the_root(self, reference_scenario, build, monkeypatch):
        # From (0, ||G||_F ~ 4) toward a root near 1e-297, nearly every step
        # halves b; solve skips those, so each fix classifies tens of
        # multipliers in all its calls (1073 to 1110 when every step was
        # classified), with the stepwise bits and iterations.
        calls = record_calls(monkeypatch)
        for shift_db in (-1450.0, -1480.0):
            system = shifted_system(reference_scenario, build, shift_db)
            eq = gtrs._Equilibrated([system])[0]
            expected = search_outcome(stepwise_search, eq)
            assert expected[2] > 1000
            assert search_outcome(gtrs._search, eq) == expected
            calls.clear()
            estimate = solve(system)
            assert (estimate.multiplier, estimate.iterations) == (expected[0], expected[2])
            assert sum(calls) <= 120


# Trials at sigma = 9 dB whose unit-diagonal Gram floor lies under 1e-7 (1e-10
# to 5.5e-8): their margins, wide against the root, leave them more steps than the rest.
SIGMA9_LOW_FLOOR_TRIALS = [167, 281, 86, 100, 160, 93, 66, 197, 242, 186, 5]


class TestFinishedRows:
    """A row whose bracket collapsed rides along in the bisection's compact stack
    until a quarter of that stack has finished; its re-classified midpoint is an
    end of its bracket, which the stepwise bisection never classifies again."""

    def test_rows_finishing_rounds_apart_keep_their_bits(self, bundled_config, monkeypatch):
        systems = trial_systems(bundled_config, 1.0, SIGMA1_TRIALS)
        systems += sigma9_trial_systems(bundled_config, SIGMA9_LOW_FLOOR_TRIALS)
        systems += [shifted_system(bundled_config.scenario, build_system, shift)
                    for shift in FAR_BELOW_DB + [-1480.0]]
        reference = solve_each(systems)
        assert all(isinstance(outcome, gtrs.Estimate) for outcome in reference)
        # A second reading of a system's multiplier reads a residual of 1e-300
        # with its sign, smaller than any best so far: let into the best-point
        # rule, it would take the row's multiplier and z.
        seen, rereads, classify = set(), [], gtrs._Equilibrated.classify

        def reread(self, lams):
            residual, z_hat, solved = classify(self, lams)
            keys = [(rhs.tobytes(), lam) for rhs, lam in zip(self.rhs0, lams.tolist())]
            again = np.array([key in seen for key in keys])
            seen.update(keys)
            rereads.append(np.count_nonzero(again))
            return np.where(again, np.copysign(1e-300, residual), residual), z_hat, solved

        monkeypatch.setattr(gtrs._Equilibrated, "classify", reread)
        assert_bit_identical(solve_many(systems), reference)
        # The finished rows were classified again after the check round: they rode along.
        assert sum(rereads[2:]) > 0
    """About 1489 dB below the usual readings, a diagonal entry of the normal
    matrix is too small for the Jacobi scaling 1/sqrt(N_ii N_jj) to be finite;
    the build drops that row with a NumericalError before _gram_floor sees it."""

    UNDERFLOWS = "the weighted system underflows: readings or anchor coordinates are too small"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [build_system, build_known_power_system], ids=["joint", "known"])
    def test_band_is_a_numerical_error(self, reference_scenario, build):
        for shift in (-1489.0, -1490.0, -1500.0, -1560.0, -1570.0, -1600.0):
            with pytest.raises(NumericalError) as raised:
                shifted_system(reference_scenario, build, shift)
            assert str(raised.value) == self.UNDERFLOWS
        usual = solve(shifted_system(reference_scenario, build, 0.0))
        near = solve(shifted_system(reference_scenario, build, -1488.0))
        assert np.linalg.norm(near.position_m - usual.position_m) <= 1e-9 * np.linalg.norm(
            usual.position_m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("estimates_power", [True, False], ids=["joint", "known"])
    def test_band_rows_leave_the_other_rows_bits(self, reference_scenario, estimates_power):
        scenario, env = reference_scenario, reference_scenario.environment
        shifts = np.array([0.0, -1480.0, -1488.0, -1489.0, -1500.0, -1560.0, -210.0])
        rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        rows = rss + np.random.default_rng(1).standard_normal(scenario.n_anchors) + shifts[:, None]
        weights = link_weights(MeasurementSet(np.arange(10), rows, env), env)
        outcomes = built_outcomes(gtrs._build(MeasurementSet(np.arange(10), rows, env), weights,
                                              scenario.anchors_m, env, estimates_power))
        for shift, row, weight, outcome in zip(shifts, rows, weights, outcomes):
            (alone,) = built_outcomes(gtrs._build(MeasurementSet(np.arange(10), row, env), weight,
                                                  scenario.anchors_m, env, estimates_power))
            if shift <= -1489.0:
                assert type(outcome) is type(alone) is NumericalError
                assert str(outcome) == str(alone) == self.UNDERFLOWS
                continue
            for part in ("design", "target", "normal"):
                assert getattr(outcome, part).tobytes() == getattr(alone, part).tobytes()
        assert_bit_identical(solve_many([outcomes[i] for i in (0, 1, 2, 6)]),
                             solve_each([outcomes[i] for i in (0, 1, 2, 6)]))


class TestPowerDbm:
    def test_unit_auxiliary_gives_zero_power(self):
        assert gtrs._power_dbm(1.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_ten_gives_ten_dbm(self):
        assert gtrs._power_dbm(10.0, 2.0) == pytest.approx(10.0, rel=1e-12)

    def test_negative_auxiliary_flags_power(self, reference_scenario):
        # The read-out holds where u > 0; _finalize flags every other u as no power.
        meas = noiseless_measurements(reference_scenario)
        env = reference_scenario.environment
        system = build_system(meas, equal_weights(10), reference_scenario.anchors_m, env)
        eq = gtrs._Equilibrated([system])
        lam, z_hat, steps = gtrs._search(eq[0])
        for u in (-0.3, 0.0, -0.0):
            flagged = z_hat.copy()
            flagged[-1] = u / eq.scale[0, -1]
            solved = gtrs._finalize(eq, np.array([lam]), flagged[None], np.array([steps]), [None])
            (estimate,) = gtrs._estimates(solved, eq, [system])
            assert estimate.transmit_power_dbm is None and not estimate.power_valid
