"""Shared fixtures and instance generators for the test suite."""

import numpy as np
import pytest

import uwloc
from uwloc.channel import LN10
from uwloc.config import bundled_scenario_path, parse_scenario
from uwloc.errors import GeometryError


@pytest.fixture(scope="session")
def bundled_config():
    return parse_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def reference_scenario(bundled_config):
    return bundled_config.scenario


@pytest.fixture(scope="session")
def zero_absorption_scenario(reference_scenario):
    """Reference geometry with absorption switched off (exact-recovery regime)."""
    env = uwloc.Environment(
        ple=2.0, frequency_khz=9.0, transmit_power_dbm=0.0, absorption_db_per_m=0.0
    )
    return uwloc.Scenario(
        reference_scenario.anchors_m, reference_scenario.target_m, env
    )


def normalized_gram_floor(design):
    """Smallest eigenvalue of the column-normalized Gram matrix."""
    normalized = design / np.linalg.norm(design, axis=0)
    return float(np.linalg.eigvalsh(normalized.T @ normalized).min())


def random_solver_instance(rng, headroom=1e-7, dims=(2, 3), max_anchors=12):
    """One random, valid, noisy solver instance with its ground truth.

    ``headroom`` rejects systems whose normalized Gram floor is below the
    given value: close to the rank-acceptance gate the constraint-residual
    evaluation hits its double-precision floor (forward error grows with
    the condition number), which would measure the arithmetic rather than
    the solver.
    """
    while True:
        k = int(rng.choice(dims))
        n = int(rng.integers(k + 2, max_anchors + 1))
        anchors = rng.uniform(0.0, 5000.0, (n, k))
        target = rng.uniform(500.0, 4500.0, k)
        if np.linalg.norm(target - anchors, axis=1).min() < 1.0:
            continue
        env = uwloc.Environment(
            ple=float(rng.uniform(1.5, 2.5)),
            frequency_khz=float(rng.uniform(5.0, 50.0)),
            transmit_power_dbm=float(rng.uniform(-10.0, 10.0)),
        )
        sigma = float(rng.uniform(0.5, 6.0))
        try:
            scenario = uwloc.Scenario(anchors, target, env)
        except GeometryError:
            continue
        model = uwloc.NoiseModel(kind="zero_mean_gaussian", sigma_db=sigma)
        measurements = uwloc.generate_measurements(scenario, model, rng)
        weights = uwloc.link_weights(measurements, env)
        try:
            system = uwloc.build_system(measurements, weights, anchors, env)
        except GeometryError:
            continue
        if normalized_gram_floor(system.design) < headroom:
            continue
        return {
            "system": system,
            "scenario": scenario,
            "measurements": measurements,
            "weights": weights,
            "sigma": sigma,
        }


def gtrs_objective(system, z):
    residual = system.design @ z - system.target
    return float(residual @ residual)


def brute_force_objective(
    measurements, weights, anchors, env, grid_lo, grid_hi, points=200, polish="newton"
):
    """Best objective over a dense position grid with the power column
    eliminated in closed form, polished by a local search from the grid's best.

    Independent of the multiplier machinery: the lifting constraint is
    honored by substituting ||t||^2 directly, and the search never touches
    the bisection path.  With the power column projected out by P, the
    objective is ||P r(t)||^2 with r(t) = a ||t||^2 + B t + c quadratic in t,
    so its gradient 2 J^T P r, J = 2 a t^T + B, and its Hessian
    2 J^T P J + 4 (a^T P r) I are exact.  ``polish="newton"`` takes Newton
    steps on them with step halving until no halving lowers the value;
    ``polish="nelder-mead"`` runs scipy's derivative-free search instead.
    """
    beta = env.ple
    q2 = (10.0 ** ((measurements.rss_dbm - env.absorption_db_per_m) / (10.0 * beta))) ** 2
    c_pos = 10.0 * beta / LN10
    c_aux = 5.0 * beta / LN10
    root_w = np.sqrt(weights)
    anchor_sq = np.sum(anchors**2, axis=1)
    u_coef = root_w * c_aux  # coefficient of u in every row

    def residual_parts(t_grid):
        t_sq = np.sum(t_grid**2, axis=1)
        cross = t_grid @ anchors.T
        return root_w[None, :] * (
            c_aux * q2[None, :] * t_sq[:, None]
            - c_pos * q2[None, :] * cross
            + c_aux * q2[None, :] * anchor_sq[None, :]
        )

    def objective_many(t_grid):
        parts = residual_parts(t_grid)
        u_best = (parts @ u_coef) / (u_coef @ u_coef)
        residuals = parts - u_best[:, None] * u_coef[None, :]
        return np.sum(residuals**2, axis=1)

    axes = [np.linspace(grid_lo, grid_hi, points)] * anchors.shape[1]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, anchors.shape[1])
    values = objective_many(mesh)
    start = mesh[int(np.argmin(values))]

    if polish == "nelder-mead":
        from scipy.optimize import minimize

        result = minimize(
            lambda t: objective_many(t[None, :])[0],
            start,
            method="Nelder-Mead",
            options=dict(xatol=1e-9, fatol=1e-18, maxiter=20000, maxfev=40000),
        )
        return float(min(result.fun, values.min()))

    def project(x):  # P x: the part of x (a vector or the columns of a matrix) orthogonal to u
        return x - np.multiply.outer(u_coef, u_coef @ x) / (u_coef @ u_coef)

    quad = root_w * c_aux * q2  # a
    lin = -(root_w * c_pos * q2)[:, None] * anchors  # B
    halvings = 0.5 ** np.arange(200)[:, None]
    t, value = start, values.min()
    for _ in range(100):
        jac = 2.0 * quad[:, None] * t + lin
        pr = project(residual_parts(t[None, :])[0])
        grad = 2.0 * jac.T @ pr
        hess = 2.0 * jac.T @ project(jac) + 4.0 * (quad @ pr) * np.eye(len(t))
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = -grad
        if not step @ grad < 0.0:  # not a descent direction where hess is not PD
            step = -grad
        trials = t + halvings * step
        trial_values = objective_many(trials)
        lower = np.flatnonzero(trial_values < value)
        if not lower.size:
            break
        t, value = trials[lower[0]], trial_values[lower[0]]
    return float(value)
