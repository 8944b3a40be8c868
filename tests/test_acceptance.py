"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` so the per-criterion
lines are visible.  The Monte Carlo criteria share module-scoped sweep
fixtures; the full module takes several minutes.
"""

import io
import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uwloc
from conftest import brute_force_objective, gtrs_objective, random_solver_instance
from test_crlb import fd_hessian, noiseless_set
from uwloc.channel import LN10, MeasurementSet, NoiseModel
from uwloc.cli import main as cli_main
from uwloc.config import bundled_scenario_path
from uwloc.errors import NumericalError
from uwloc.experiments import measure_runtime, run_sweep, write_csv
from uwloc.gtrs import build_system, lambda_interval, phi, solve
from uwloc.weighting import link_weights

GOLDEN_DIR = Path(__file__).parent / "golden"
SLACK = 1.02  # relative slack band for fixed-seed Monte Carlo orderings
RANGE_SPREAD_MAX = 0.2  # small-error regime of c08's half-bound floor; see its docstring


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL  [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"criterion {number:02d} ({label}): PASS  [{time.perf_counter() - start:.1f}s]")


# ---------------------------------------------------------------------------
# expensive shared computations


@pytest.fixture(scope="module")
def solver_population():
    """1000 random full-rank instances with solved estimates and residual data.

    The generator requires conditioning headroom (normalized Gram floor at
    1e-7, well above the 1e-10 acceptance gate): nearer the gate the
    double-precision forward error of the constraint-residual evaluation
    exceeds the residual tolerances being asserted, which would measure the
    arithmetic instead of the solver.
    """
    rng = np.random.default_rng(2024)
    population = []
    for _ in range(1000):
        inst = random_solver_instance(rng, headroom=1e-7)
        system = inst["system"]
        estimate = solve(system)
        lower, _ = lambda_interval(system)
        try:
            phi_floor = abs(phi(lower, system))
        except NumericalError:
            phi_floor = np.inf
        population.append((system, estimate, lower, phi_floor))
    return population


@pytest.fixture(scope="module")
def bundled(bundled_config):
    return bundled_config


@pytest.fixture(scope="module")
def sigma_sweep_weighted(bundled):
    return run_sweep(bundled)


@pytest.fixture(scope="module")
def sigma_sweep_unweighted(bundled):
    return run_sweep(replace(bundled, weighted=False))


@pytest.fixture(scope="module")
def sigma_sweep_known(bundled):
    return run_sweep(replace(bundled, known_power=True))


@pytest.fixture(scope="module")
def noise_scenario_sweep(bundled):
    return run_sweep(replace(bundled, sweep_kind="noise_scenarios", sigma_grid_db=(3.0, 5.0, 7.0)))


@pytest.fixture(scope="module")
def sensitivity_sweep(bundled):
    return run_sweep(replace(bundled, sweep_kind="sensitivity", sigma_grid_db=(3.0, 5.0, 7.0)))


@pytest.fixture(scope="module")
def anchor_sweep(bundled):
    return run_sweep(replace(bundled, sweep_kind="anchor_count"))


def _by_coord(records):
    return {r.sweep_coord: r for r in records}


def random_scenario(rng):
    while True:
        k = int(rng.choice([2, 3]))
        n = int(rng.integers(k + 2, 13))
        anchors = rng.uniform(0.0, 5000.0, (n, k))
        target = rng.uniform(500.0, 4500.0, k)
        if np.linalg.norm(target - anchors, axis=1).min() < 10.0:
            continue
        env = uwloc.Environment(
            ple=float(rng.uniform(1.5, 2.5)),
            frequency_khz=float(rng.uniform(5.0, 50.0)),
            transmit_power_dbm=float(rng.uniform(-10.0, 10.0)),
        )
        try:
            return uwloc.Scenario(anchors, target, env)
        except uwloc.GeometryError:
            continue


# ---------------------------------------------------------------------------
# criteria


def test_c01_absorption_constants():
    with criterion(1, "absorption constants"):
        assert uwloc.absorption_coefficient(9.0) == pytest.approx(9.86e-4, rel=5e-4)
        assert uwloc.absorption_coefficient(0.0) == pytest.approx(3.0e-6, rel=1e-12)


def test_c02_exact_recovery(zero_absorption_scenario):
    with criterion(2, "exact recovery without absorption or noise"):
        scenario = zero_absorption_scenario
        env = scenario.environment
        clean = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        meas = MeasurementSet(np.arange(scenario.n_anchors), clean, env)
        target_norm = np.linalg.norm(scenario.target_m)
        for weighted in (True, False):
            w = link_weights(meas, env) if weighted else np.full(10, 0.1)
            est = solve(build_system(meas, w, scenario.anchors_m, env))
            assert np.linalg.norm(est.position_m - scenario.target_m) <= 1e-6 * target_norm
            assert est.power_valid
            assert abs(est.transmit_power_dbm - env.transmit_power_dbm) <= 1e-6


def test_c03_kkt_optimality(solver_population):
    with criterion(3, "first-order optimality on 1000 random instances"):
        for system, estimate, _, phi_floor in solver_population:
            assert estimate.kkt_stationarity <= 1e-8
            assert abs(estimate.kkt_constraint) <= 1e-9 * (1.0 + phi_floor)
            assert estimate.kkt_min_eig_ratio >= -1e-8


def test_c04_constraint_residual_monotonicity(solver_population):
    with criterion(4, "constraint residual strictly decreasing"):
        for system, _, lower, _ in solver_population:
            hi = max(1.0, float(np.linalg.norm(system.design.T @ system.design)))
            expansions = 0
            while phi(hi, system) > 0 and expansions < 120:
                hi *= 2.0
                expansions += 1
            fractions = np.linspace(1e-6, 1.0, 50) ** 2
            grid = lower + (hi - lower) * fractions
            values = np.array([phi(x, system) for x in grid])
            assert np.all(np.diff(values) < 0)


def test_c05_brute_force_oracle():
    with criterion(5, "objective not above grid plus refinement search"):
        rng = np.random.default_rng(512)
        for _ in range(50):
            inst = random_solver_instance(rng, dims=(2,), max_anchors=5)
            system = inst["system"]
            est = solve(system)
            best = brute_force_objective(
                inst["measurements"],
                inst["weights"],
                inst["scenario"].anchors_m,
                inst["scenario"].environment,
                grid_lo=-2000.0,
                grid_hi=7000.0,
            )
            assert gtrs_objective(system, est.z) <= best * (1.0 + 1e-4) + 1e-12


def test_c06_fisher_information_correctness():
    with criterion(6, "Fisher matrix against Hessian oracles"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            scenario = random_scenario(rng)
            env = scenario.environment
            k = scenario.dimension
            sigma = float(rng.uniform(0.5, 4.0))
            report = uwloc.fim_unknown_power(scenario, sigma)

            meas = noiseless_set(scenario)
            hess = uwloc.hessian_loglik(
                meas, scenario.anchors_m, scenario.target_m,
                env.transmit_power_dbm, env, sigma,
            )
            assert np.max(np.abs(hess + report.fim)) <= 1e-9 * np.max(np.abs(report.fim))

            noisy = uwloc.generate_measurements(
                scenario, NoiseModel("zero_mean_gaussian", sigma), rng
            )
            position = scenario.target_m + rng.normal(0.0, 30.0, k)
            power = env.transmit_power_dbm + rng.normal(0.0, 1.0)
            analytic = uwloc.hessian_loglik(
                noisy, scenario.anchors_m, position, power, env, sigma
            )
            numeric = fd_hessian(
                noisy.rss_dbm, scenario.anchors_m, position, power, env, sigma
            )
            assert np.linalg.norm(numeric - analytic) <= 1e-4 * np.linalg.norm(analytic)

            for _ in range(5):
                probe = rng.normal(size=k + 1)
                lhs = probe @ report.fim @ probe
                rhs = 0.0
                for s in scenario.anchors_m:
                    d = np.linalg.norm(scenario.target_m - s)
                    gain = probe[:k] @ uwloc.c_vector(scenario.target_m, s, env)
                    rhs += (gain / (LN10 * d**2) - probe[k]) ** 2 / sigma**2
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_c07_bound_scaling_and_ordering(reference_scenario):
    with criterion(7, "bound scaling and known/unknown ordering"):
        for sigma in (1.0, 3.0, 5.0, 7.0, 9.0):
            one = uwloc.fim_unknown_power(reference_scenario, sigma)
            two = uwloc.fim_unknown_power(reference_scenario, 2.0 * sigma)
            assert two.crlb_t_m == pytest.approx(2.0 * one.crlb_t_m, rel=1e-9)
            assert two.crlb_p_db == pytest.approx(2.0 * one.crlb_p_db, rel=1e-9)
            known = uwloc.fim_known_power(reference_scenario, sigma)
            assert known.crlb_t_m <= one.crlb_t_m


def test_c08_sigma_sweep_trend(bundled, sigma_sweep_weighted):
    """NRMSE_t rises with sigma; in the small-error regime it stays above half the CRLB.

    A reading with sigma dB of log-normal shadowing under path-loss exponent
    beta implies the range d*exp(e), e ~ N(0, s^2), s = ln10*sigma/(10*beta).
    The CRLB bounds unbiased estimators only, and only where the Fisher
    linearization exp(e) ~ 1 + e holds (Kay 1993, ch. 3). The quadratic term
    it drops is s/2 of the linear one at one standard deviation, and the
    range bias it ignores, exp(s^2/2) - 1, is about s^2/2. The floor is
    asserted where s <= RANGE_SPREAD_MAX = 0.2, which keeps those within 10 %
    and 2 %. With beta = 2 that admits sigma = 1 dB (s = 0.115) and excludes
    sigma = 3 dB (s = 0.345). Beyond it the implied ranges err by tens of
    percent in a 5 km cube, the least-squares estimate stays near the anchor
    cloud, and a biased estimator beats the unbiased bound, so half the bound
    is no floor there. The regime is fixed from (sigma, beta) alone, never
    from the measured errors, and must hold at least one grid point so that
    the floor cannot pass vacuously. The monotone-error check covers the
    whole grid.
    """
    ple = bundled.scenario.environment.ple
    regime = f"ln10*sigma/(10*ple) <= {RANGE_SPREAD_MAX:g}"
    with criterion(8, f"sigma sweep: monotone error, above half bound where {regime}"):
        assert len(bundled.sigma_grid_db) == len(sigma_sweep_weighted)
        points = []
        for sigma, record in zip(bundled.sigma_grid_db, sigma_sweep_weighted):
            assert record.sweep_coord == f"sigma={sigma:g}"
            in_regime = LN10 * sigma / (10.0 * ple) <= RANGE_SPREAD_MAX
            points.append((sigma, record, in_regime))
        summary = "; ".join(
            f"sigma={sigma:g} dB: NRMSE_t/CRLB_t {r.nrmse_t_m:.1f}/{r.crlb_t_m:.1f}"
            f" = {r.nrmse_t_m / r.crlb_t_m:.2f} over {r.trials - r.solve_failures}"
            f" of {r.trials} trials ({r.solve_failures} solve failures)"
            f"{', in regime' if in_regime else ''}"
            for sigma, r, in_regime in points
        )
        errors = [r.nrmse_t_m for r in sigma_sweep_weighted]
        assert all(b >= a for a, b in zip(errors, errors[1:])), (
            f"NRMSE_t not nondecreasing across the sigma grid: {summary}"
        )
        assert any(in_regime for _, _, in_regime in points), (
            f"no sigma of the grid satisfies {regime} at ple={ple:g}; the"
            f" half-bound floor would check nothing: {summary}"
        )
        for sigma, record, in_regime in points:
            if in_regime:
                assert record.nrmse_t_m >= 0.5 * record.crlb_t_m, (
                    f"sigma={sigma:g} dB is in the small-error regime ({regime}),"
                    f" yet NRMSE_t fell below half the joint-estimation bound: {summary}"
                )


def test_c09_weighting_benefit(sigma_sweep_weighted, sigma_sweep_unweighted):
    with criterion(9, "weighting does not hurt accuracy"):
        for weighted, unweighted in zip(sigma_sweep_weighted, sigma_sweep_unweighted):
            assert weighted.nrmse_t_m <= SLACK * unweighted.nrmse_t_m, (
                f"{weighted.sweep_coord}: weighted {weighted.nrmse_t_m:.2f}"
                f" vs unweighted {unweighted.nrmse_t_m:.2f}"
            )


def test_c10_noise_scenario_ordering(noise_scenario_sweep):
    with criterion(10, "noise scenario ordering"):
        records = _by_coord(noise_scenario_sweep)
        for sigma in (3, 5, 7):
            clean = records[f"noise=zero_mean_gaussian,sigma={sigma}"].nrmse_t_m
            biased = records[f"noise=biased_gaussian,sigma={sigma}"].nrmse_t_m
            mixed = records[f"noise=gaussian_plus_impulsive,sigma={sigma}"].nrmse_t_m
            assert clean <= SLACK * biased, f"sigma={sigma}: {clean} vs {biased}"
            assert biased <= SLACK * mixed, f"sigma={sigma}: {biased} vs {mixed}"


def test_c11_sensitivity_ordering(sensitivity_sweep):
    with criterion(11, "model-parameter bias ordering"):
        records = _by_coord(sensitivity_sweep)
        labels = [
            "unbiased",
            "ple_5pct",
            "absorption_5pct",
            "ple_10pct_absorption_5pct",
            "absorption_10pct_ple_5pct",
            "ple_10pct_absorption_10pct",
        ]
        for sigma in (3, 5, 7):
            err = {
                label: records[f"bias={label},sigma={sigma}"].nrmse_t_m for label in labels
            }
            for label in labels[1:]:
                assert err["unbiased"] <= SLACK * err[label], (
                    f"sigma={sigma}: unbiased {err['unbiased']:.2f} not lowest vs"
                    f" {label} {err[label]:.2f}"
                )
            assert err["absorption_5pct"] <= SLACK * err["ple_5pct"], (
                f"sigma={sigma}: absorption bias hurt more than path-loss bias"
            )
            worst = err["ple_10pct_absorption_10pct"]
            for label in labels[:-1]:
                assert worst >= err[label] / SLACK, (
                    f"sigma={sigma}: dual 10% bias {worst:.2f} not highest vs"
                    f" {label} {err[label]:.2f}"
                )


def test_c12_anchor_count_sweep(anchor_sweep):
    with criterion(12, "error nonincreasing in anchor count"):
        errors = [r.nrmse_t_m for r in anchor_sweep]
        for previous, current in zip(errors, errors[1:]):
            assert current <= SLACK * previous, f"anchor sweep errors: {errors}"


def test_c13_simulate_determinism(tmp_path):
    with criterion(13, "byte-identical CSV across thread counts"):
        doc = json.loads(bundled_scenario_path().read_text())
        doc["mc_trials"] = 25
        config_path = tmp_path / "scenario.json"
        config_path.write_text(json.dumps(doc))
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert cli_main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
        assert cli_main(
            ["simulate", "--config", str(config_path), "--out", str(out2), "--threads", "4"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_c14_runtime_report(bundled):
    with criterion(14, "runtime measured and reported"):
        seconds = measure_runtime(replace(bundled, mc_trials=100))
        assert seconds > 0.0
        print(
            f"  single-solve wall time: {seconds:.4f} s"
            " (comparison point: 0.09 s on reference hardware; informational only)"
        )


# ---------------------------------------------------------------------------
# full-size pins


FULL_SWEEPS = (
    "sigma_sweep_weighted",
    "sigma_sweep_unweighted",
    "sigma_sweep_known",
    "noise_scenario_sweep",
    "sensitivity_sweep",
    "anchor_sweep",
)


def sweep_pins(records):
    """(CSV text, dropped trials) of a sweep, as its two pinned files hold them.

    The dropped trials are one [sweep_coord, failures] pair per record,
    each failure a [class name, trial indices, first message] triple.
    """
    stream = io.StringIO()
    write_csv(records, stream)
    failures = [
        [r.sweep_coord, [[name, list(trials), message] for name, trials, message in r.failures]]
        for r in records
    ]
    return stream.getvalue(), failures


@pytest.mark.parametrize("sweep", FULL_SWEEPS)
def test_full_size_sweep_is_pinned(request, sweep):
    """The module's 3000-trial sweeps, byte for byte, rank-gate drops included.

    ``tests/golden/simulate_*.csv`` run 10 trials per point, which holds
    no rank-gate drop; these pins hold the bundled sigma = 7 and 9 dB
    drops and every trial near the gate.
    """
    csv_text, failures = sweep_pins(request.getfixturevalue(sweep))
    assert csv_text.encode() == (GOLDEN_DIR / f"full_{sweep}.csv").read_bytes()
    assert failures == json.loads((GOLDEN_DIR / f"full_{sweep}_failures.json").read_text())
