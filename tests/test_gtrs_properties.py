"""Property tests of the GTRS solver on random and near-degenerate fixes.

Hypothesis draws batches of fixes in three layouts: k + 2 anchors (the
fewest a joint solve accepts), anchors near one line or plane, and anchors
at nearly one range from the target.  Each built system must either end in
a named UwlocError or give an estimate that meets the invariants of the
acceptance criteria c03 (KKT), c04 (monotone constraint residual) and, in
2-D, c05 (brute-force oracle); ``solve_many`` must match ``solve`` bit for
bit either way.  Every built system's multiplier interval must have a
finite negative floor, which the solver's downward search relies on.
``derandomize=True`` keeps the drawn examples fixed.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uwloc
from conftest import brute_force_objective, gtrs_objective, normalized_gram_floor
from test_gtrs import assert_bit_identical, solve_each
from uwloc.errors import NumericalError, UwlocError
from uwloc.gtrs import build_known_power_system, build_system, lambda_interval, phi, solve_many

LAYOUTS = ("k_plus_2", "near_collinear", "equal_range")
BUILDS = (build_system, build_known_power_system)


def anchor_layout(rng, kind, k, n, offset_m, jitter):
    """(anchors, target) of one layout; ``n`` is ignored for k_plus_2."""
    target = rng.uniform(500.0, 4500.0, k)
    if kind == "k_plus_2":
        return rng.uniform(0.0, 5000.0, (k + 2, k)), target
    if kind == "near_collinear":  # within ~offset_m of a line (k = 2) or plane (k = 3)
        basis, _ = np.linalg.qr(rng.normal(size=(k, k)))
        along = rng.uniform(-2500.0, 2500.0, (n, k - 1)) @ basis[:, :-1].T
        across = offset_m * rng.standard_normal((n, 1)) * basis[:, -1]
        return rng.uniform(0.0, 5000.0, k) + along + across, target
    directions = rng.normal(size=(n, k))  # equal_range: radii within a jitter fraction
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(300.0, 3000.0) * (1.0 + jitter * rng.uniform(-1.0, 1.0, n))
    return target + radii[:, None] * directions, target


@st.composite
def fix_batches(draw, dims=(2, 3), size=3):
    """``size`` fixes of one layout and dimension, each (measurements,
    weights, anchors, environment)."""
    kind = draw(st.sampled_from(LAYOUTS))
    k = draw(st.sampled_from(dims))
    batch = []
    for _ in range(size):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        anchors, target = anchor_layout(
            rng,
            kind,
            k,
            n=draw(st.integers(k + 2, 8)),
            offset_m=10.0 ** draw(st.floats(-1.0, 2.5)),
            jitter=10.0 ** draw(st.floats(-6.0, -1.0)),
        )
        assume(np.linalg.norm(target - anchors, axis=1).min() >= uwloc.channel.REFERENCE_DISTANCE_M)
        env = uwloc.Environment(
            ple=draw(st.floats(1.5, 2.5)),
            frequency_khz=draw(st.floats(5.0, 50.0)),
            transmit_power_dbm=draw(st.floats(-10.0, 10.0)),
        )
        sigma = draw(st.one_of(st.just(0.0), st.floats(0.1, 6.0)))
        rss = uwloc.noiseless_rss(target, anchors, env) + sigma * rng.standard_normal(len(anchors))
        measurements = uwloc.MeasurementSet(np.arange(len(anchors)), rss, env)
        batch.append((measurements, uwloc.link_weights(measurements, env), anchors, env))
    return batch


def built_systems(batch, build):
    """The systems of ``batch`` that ``build`` accepts; the others must
    fail with a named UwlocError (any other exception fails the test)."""
    systems = []
    for fix in batch:
        try:
            systems.append(build(*fix))
        except UwlocError as exc:
            assert str(exc)
    return systems


def assert_kkt(system, estimate):
    """c03's tolerances, with the constraint residual's rounding floor added.

    phi is evaluated through a solve with the column-normalized Gram
    matrix, so its forward error is about eps * cond * (||t||^2 + |z_k|),
    the two terms the residual subtracts.  Near the rank gate that floor
    exceeds c03's 1e-9 * (1 + |phi(lower)|): on a drawn near-collinear fix
    with Gram floor 5.8e-10, phi reads -0.0736 at seven consecutive
    doubles about the root, against c03's bound of 5.4e-3.  c03 itself
    keeps its bound on fixes with 1e-7 headroom.
    """
    lower, _ = lambda_interval(system)
    try:
        phi_floor = abs(phi(lower, system))
    except NumericalError:
        phi_floor = np.inf
    k = system.dimension
    t, aux = estimate.z[:k], estimate.z[k]
    cond = 1.0 / normalized_gram_floor(system.design)
    rounding = 10.0 * np.finfo(float).eps * cond * (t @ t + abs(aux))
    assert estimate.kkt_stationarity <= 1e-8
    assert abs(estimate.kkt_constraint) <= 1e-9 * (1.0 + phi_floor) + rounding
    assert estimate.kkt_min_eig_ratio >= -1e-8


def assert_phi_decreasing(system):
    """c04: phi strictly decreasing on a grid over the multiplier interval."""
    lower, _ = lambda_interval(system)
    hi = max(1.0, float(np.linalg.norm(system.design.T @ system.design)))
    expansions = 0
    while phi(hi, system) > 0 and expansions < 120:
        hi *= 2.0
        expansions += 1
    grid = lower + (hi - lower) * np.linspace(1e-6, 1.0, 50) ** 2
    assert np.all(np.diff([phi(x, system) for x in grid]) < 0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(batch=fix_batches())
def test_kkt_monotone_residual_and_batch_equality(batch):
    for build in BUILDS:
        systems = built_systems(batch, build)
        outcomes = solve_many(systems)
        assert_bit_identical(outcomes, solve_each(systems))
        for system, outcome in zip(systems, outcomes):
            if isinstance(outcome, UwlocError):
                assert str(outcome)
                continue
            assert_kkt(system, outcome)
            assert_phi_decreasing(system)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(batch=fix_batches())
def test_multiplier_interval_has_a_finite_negative_floor(batch):
    """The lifting's H = diag(I_k, 0) gives every built system a pole."""
    for build in BUILDS:
        for system in built_systems(batch, build):
            lower, _ = lambda_interval(system)
            assert np.isfinite(lower) and lower < 0.0


@settings(derandomize=True, deadline=None, max_examples=10)
@given(batch=fix_batches(dims=(2,), size=1))
def test_objective_not_above_brute_force_in_2d(batch):
    """c05: no position grid plus local search beats the joint estimate."""
    (measurements, weights, anchors, env), = batch
    systems = built_systems(batch, build_system)
    for system, outcome in zip(systems, solve_many(systems)):
        if isinstance(outcome, UwlocError):
            continue
        best = brute_force_objective(
            measurements, weights, anchors, env, grid_lo=-2000.0, grid_hi=7000.0
        )
        assert gtrs_objective(system, outcome.z) <= best * (1.0 + 1e-4) + 1e-12
