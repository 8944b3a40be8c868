"""Joint position / transmit-power estimation via a generalized trust
region subproblem (GTRS).

Each measurement is turned into one row of an overdetermined linear system
in the lifted unknown z = [t; ||t||^2; u], where t is the position and
u = 10^(P_t/(5*beta)) encodes the transmit power.  The lifting constraint
||t||^2 = z_{k+1} is a single quadratic equality, so the weighted
least-squares estimator is a GTRS:

    min ||R z - v||^2   s.t.   z^T H z + 2 h^T z = 0

whose exact solution is characterized by a Lagrange multiplier lam with

    (R^T R + lam*H) z = R^T v - lam*h,
    z^T H z + 2 h^T z = 0,
    R^T R + lam*H  positive semidefinite,

and the constraint residual phi(lam) is strictly decreasing on the interval
(-1/lam*, inf), lam* being the largest eigenvalue of
(R^T R)^{-1/2} H (R^T R)^{-1/2}.  The unique root is found by bisection.

Numerical notes: the normal matrix mixes meter, meter^2, and dimensionless
columns, so all internal solves run on a Jacobi-equilibrated copy (a pure
reparameterization: the multiplier, the constraint residual, and the
returned z are unchanged).  Below the interval's pole the shifted matrix is
indefinite, which a Cholesky failure detects; such points are treated as
lying below the root, so the bisection never depends on a high-accuracy
estimate of lam*.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import LN10
from .errors import (
    ConfigError,
    ConvergenceError,
    GeometryError,
    InfeasibleProblemError,
    NumericalError,
    SingularMatrixError,
    UwlocError,
)

# Column-rank tolerance on the column-normalized design matrix.  The raw
# design mixes units spanning ~12 orders of magnitude at kilometer scales,
# so rank is only meaningful after normalization.
RANK_TOL = 1e-10

# Guarded offset from the singular endpoint of the multiplier interval.
ENDPOINT_GUARD = 1e-12

# Cap on geometric bracket expansions in either direction.
MAX_EXPANSIONS = 120

# Cap on bisection steps.  Searches take 60-130, but a root just above 0
# can need over 1000 halvings to collapse its bracket; stop those here.
MAX_ITER = 200

# Phases of a search in the lockstep batch of solve_many.
_START, _UP, _DOWN, _BISECT, _DONE = range(5)


@dataclass(frozen=True)
class GtrsSystem:
    """Weighted design matrix, target vector, and constraint matrices.

    ``design`` has k + 2 columns for a joint position/power system and
    k + 1 columns when the transmit power is known; ``dimension`` is always
    the spatial dimension k.  ``ple`` is kept so the power read-out
    5*ple*log10(u) needs no extra context.
    """

    design: np.ndarray
    target: np.ndarray
    constraint_quad: np.ndarray
    constraint_lin: np.ndarray
    dimension: int
    ple: float


@dataclass(frozen=True)
class Estimate:
    """Solver output: solution vector, extracted estimates, diagnostics.

    ``kkt_stationarity`` is the stationarity residual relative to
    ``||M||_F * ||z|| + ||rhs||``; ``kkt_constraint`` is the signed
    constraint residual at the returned multiplier; ``kkt_min_eig_ratio``
    is the smallest eigenvalue of the shifted normal matrix divided by the
    spectral norm of the unshifted one (nonnegative up to roundoff at a
    valid solution).
    """

    z: np.ndarray
    position_m: np.ndarray
    transmit_power_dbm: float | None
    power_valid: bool
    multiplier: float
    iterations: int
    kkt_stationarity: float
    kkt_constraint: float
    kkt_min_eig_ratio: float


def _q_squared(measurements, env):
    return (10.0 ** ((measurements.rss_dbm - env.absorption_db_per_m) / (10.0 * env.ple))) ** 2


def _gram_floor(columns):
    """Smallest eigenvalue of the column-normalized Gram matrix."""
    normalized = columns / np.linalg.norm(columns, axis=0)
    return np.linalg.eigvalsh(normalized.T @ normalized).min()


def _rank_loss_cause(design, q2, k):
    """Why a design failed the rank gate, for the GeometryError message.

    Columns k and k + 1 of a joint design are q^2 and the constant; a
    known-power design has no constant column, so its slice from k on is
    one column and never singular.
    """
    if _gram_floor(design[:, k:]) <= RANK_TOL:
        return (
            "every reading implies the same range, so the q^2 column is parallel"
            " to the constant column; place anchors at different ranges or give"
            " the transmit power"
        )
    top = np.argmax(q2)
    if _gram_floor(np.delete(design, top, axis=0)) > RANK_TOL:
        ratio = q2[top] / np.delete(q2, top).max()
        return (
            f"one reading dominates: its q^2 is {ratio:.2g} times the next"
            " largest, and without it the design has full rank"
        )
    return "the anchors lie close to one line or plane; add anchors or move them off it"


def _check_rank(design, q2, k):
    if np.any(np.linalg.norm(design, axis=0) == 0.0):
        raise GeometryError(
            "design matrix has a zero column; add anchors or spread them out"
        )
    smallest = _gram_floor(design)
    if smallest <= RANK_TOL:
        raise GeometryError(
            "design matrix is rank deficient (normalized Gram eigenvalue"
            f" {smallest:.2e}): {_rank_loss_cause(design, q2, k)}"
        )


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NumericalError below
def _build(measurements, weights, anchors_m, env, estimates_power):
    """The joint (k + 2 columns) or known-power (k + 1) system of one fix."""
    anchors = np.atleast_2d(np.asarray(anchors_m, dtype=float))
    weights = np.asarray(weights, dtype=float)
    n, k = anchors.shape
    if len(measurements) != n:
        raise ConfigError(f"{len(measurements)} measurements for {n} anchors")
    index = measurements.anchor_index
    outside = index[(index < 0) | (index >= n)]
    if outside.size:
        raise ConfigError(f"anchor_index {outside[0]} is outside [0, {n - 1}]")
    anchors = anchors[index]
    if weights.shape != (n,):
        raise ValueError(f"weights shape {weights.shape} does not match {n} anchors")
    if n < k + 2:
        raise GeometryError(f"need at least k + 2 = {k + 2} anchors, got {n}")
    beta = env.ple
    q2 = _q_squared(measurements, env)
    c_pos = 10.0 * beta / LN10
    c_aux = 5.0 * beta / LN10
    m = k + 2 if estimates_power else k + 1
    design = np.empty((n, m))
    design[:, :k] = -c_pos * q2[:, None] * anchors
    design[:, k] = c_aux * q2
    scale = np.sqrt(weights)
    target = -c_aux * q2 * np.sum(anchors**2, axis=1) * scale
    if estimates_power:
        design[:, k + 1] = -c_aux
    else:  # the known u moves the weighted column -c_aux*u into the target
        try:
            u = 10.0 ** (env.transmit_power_dbm / (5.0 * beta))
        except OverflowError:
            raise NumericalError(
                f"transmit power {env.transmit_power_dbm:.6g} dBm overflows"
                " u = 10^(P_t/(5*beta))"
            ) from None
        target = target + (c_aux * scale) * u
    design = design * scale[:, None]
    # ||[R v]||_F^2 bounds every entry of R^T R and R^T v.
    if not np.isfinite(np.vdot(design, design) + target @ target):
        raise NumericalError(
            "the weighted system overflows: readings or anchor coordinates are too large"
        )
    _check_rank(design, q2, k)
    quad = np.zeros((m, m))
    quad[:k, :k] = np.eye(k)
    lin = np.zeros(m)
    lin[k] = -0.5
    return GtrsSystem(design, target, quad, lin, k, beta)


def build_system(measurements, weights, anchors_m, env):
    """Assemble the weighted GTRS from measurements and link weights.

    Row i of the unweighted design is
    [-(10*beta/ln10)*q_i^2*s_i^T, (5*beta/ln10)*q_i^2, -(5*beta/ln10)]
    with q_i = 10^((P_i - alpha)/(10*beta)), and the target entry is
    -(5*beta/ln10)*q_i^2*||s_i||^2.  Rows are scaled by sqrt(w_i) so the
    objective is sum_i w_i * residual_i^2.  Measurement i is taken at
    anchor row ``measurements.anchor_index[i]``; a reading count other
    than the anchor count, or an index outside the anchor list, is a
    ConfigError.  A design that is rank deficient after column
    normalization is a GeometryError.
    """
    return _build(measurements, weights, anchors_m, env, estimates_power=True)


def build_known_power_system(measurements, weights, anchors_m, env):
    """GTRS with the transmit power known: the u column folds into the target.

    The reduced unknown is [t; ||t||^2] with constraint matrices
    diag(I_k, 0) and [0_k; -1/2].  Only this (n, k + 1) design is rank
    checked, so anchors equidistant from the target, whose joint design
    is singular, are fine.
    """
    return _build(measurements, weights, anchors_m, env, estimates_power=False)


class _Equilibrated:
    """Jacobi-scaled normal equations of one system; ``normal`` and
    ``moment`` keep the unscaled R^T R and R^T v."""

    def __init__(self, system):
        design = system.design
        self.normal = design.T @ design
        self.moment = design.T @ system.target
        diag = np.diag(self.normal)
        if np.any(diag <= 0.0):
            raise GeometryError("normal matrix has a nonpositive diagonal entry")
        self.scale = 1.0 / np.sqrt(diag)
        outer = np.outer(self.scale, self.scale)
        self.gram = self.normal * outer
        self.quad = system.constraint_quad * outer
        self.lin = system.constraint_lin * self.scale
        self.rhs0 = self.moment * self.scale

    def solve_at(self, lam, check_definite):
        """Solution of the shifted system, or None when it is not PD.

        ``check_definite`` may be skipped for lam >= 0, where the shifted
        matrix is PD whenever the Gram matrix is.
        """
        shifted = self.gram + lam * self.quad
        diag = shifted.diagonal()
        if (diag <= 0.0).any():
            return None
        s = 1.0 / np.sqrt(diag)
        scaled = shifted * (s[:, None] * s)
        if check_definite:
            try:
                factor = np.linalg.cholesky(scaled)
            except np.linalg.LinAlgError:
                return None
            if factor.diagonal().min() <= 1e-6:
                return None
        try:
            y = np.linalg.solve(scaled, (self.rhs0 - lam * self.lin) * s)
        except np.linalg.LinAlgError:
            return None
        return y * s

    def constraint_residual(self, z_hat):
        return float(z_hat @ self.quad @ z_hat + 2.0 * self.lin @ z_hat)

    def multiplier_floor(self):
        """Guarded lower endpoint -1/lam* + eps of the multiplier interval."""
        try:
            inv_sqrt = numerics.inv_sqrt_sym(self.gram)
        except SingularMatrixError as exc:
            raise GeometryError(f"normal matrix is singular: {exc}") from exc
        pencil = inv_sqrt @ self.quad @ inv_sqrt
        lam_star = float(numerics.sym_eig(pencil)[0][-1])
        if lam_star <= 0.0:
            return -np.inf
        edge = -1.0 / lam_star
        guard = ENDPOINT_GUARD * (1.0 + abs(edge))
        if guard >= 0.5 * abs(edge):
            # Past lam* ~ 5e11 the guard would reach edge/2, and the root can
            # lie below that; stay just above the pole, past lam*'s rounding.
            guard = 1e-6 * abs(edge)
        return edge + guard


def lambda_interval(system):
    """Search interval (lower, +inf) for the Lagrange multiplier.

    ``lower`` sits a guarded offset above -1/lam*, the point where the
    shifted normal matrix turns singular.
    """
    return _Equilibrated(system).multiplier_floor(), np.inf


def phi(lam, system):
    """Constraint residual of the shifted solution at multiplier ``lam``.

    Strictly decreasing on the multiplier interval; its unique root is the
    optimal multiplier.
    """
    eq = _Equilibrated(system)
    z_hat = eq.solve_at(float(lam), check_definite=False)
    if z_hat is None or not np.all(np.isfinite(z_hat)):
        raise NumericalError(
            f"shifted system could not be solved at multiplier {lam}", multiplier=lam
        )
    return eq.constraint_residual(z_hat)


def _classify(eq, lam):
    """(low, residual, z_hat) of one trial multiplier.

    ``low`` says the multiplier is below the root: the shifted matrix fails
    to be PD (below the pole, sent as residual inf and z_hat None) or the
    residual is positive.
    """
    z_hat = eq.solve_at(lam, check_definite=lam < 0.0)
    if z_hat is None:
        return True, np.inf, None
    residual = eq.constraint_residual(z_hat)
    return residual > 0.0, residual, z_hat


def _downward_start(eq):
    """First multiplier and step of the downward search: the guarded pole."""
    a = eq.multiplier_floor()
    if not np.isfinite(a):
        raise InfeasibleProblemError("constraint matrix has no negative pole")
    return a, 0.1 * (1.0 + abs(a))


def _bisect_steps(eq):
    """Root of the constraint residual by classification bisection.

    A generator: it yields each trial multiplier and must be sent back
    that multiplier's :func:`_classify` triple.  Returns (multiplier,
    z_hat, iterations).  :func:`solve` drives it for one system, and
    :func:`solve_many` takes the same steps as array state, which the
    tests pin against it bit for bit.
    """
    _, f0, z0 = yield 0.0
    if z0 is None:
        raise GeometryError("normal matrix is not positive definite")
    if f0 == 0.0:
        return 0.0, z0, 0
    if f0 > 0.0:
        # Root is positive: expand upward until the residual turns negative.
        a = 0.0
        b = max(1.0, float(np.linalg.norm(eq.gram)))
        low, fb, zb = yield b
        n = 0
        while low and n < MAX_EXPANSIONS:
            a, b = b, 2.0 * b
            low, fb, zb = yield b
            n += 1
        if low:
            raise InfeasibleProblemError(
                f"no constraint-residual sign change up to multiplier {b:.3e}"
            )
        best = (b, abs(fb), zb)
    else:
        # Root is negative: walk down from the guarded endpoint estimate.
        # Points below the pole classify as "low" via the PD check, so an
        # imprecise endpoint estimate only costs extra expansions.
        b = 0.0
        best = (0.0, abs(f0), z0)
        a, step = _downward_start(eq)
        low, fa, za = yield a
        n = 0
        while not low and n < MAX_EXPANSIONS:
            b = a
            if abs(fa) < best[1]:
                best = (a, abs(fa), za)
            a -= step
            step *= 2.0
            low, fa, za = yield a
            n += 1
        if not low:
            raise InfeasibleProblemError(
                f"no constraint-residual sign change down to multiplier {a:.3e}"
            )
    iterations = 0
    while b > a:
        if iterations >= MAX_ITER:
            raise ConvergenceError(
                f"bisection exceeded {MAX_ITER} iterations"
                f" (bracket width {b - a:.3e})",
                bracket=(a, b),
            )
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break  # bracket has collapsed to adjacent floats
        low, fm, zm = yield mid
        iterations += 1
        if zm is not None and abs(fm) < best[1]:
            best = (mid, abs(fm), zm)
        if zm is not None and fm == 0.0:
            break
        if low:
            a = mid
        else:
            b = mid
    return best[0], best[2], iterations


def _power_dbm(u, ple):
    """Power read-out 5*beta*log10(u), or None for a nonpositive ``u``."""
    return 5.0 * ple * np.log10(u) if u > 0.0 else None


def _norms(rows):
    """np.linalg.norm of each row, through the same dot product."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _quadratic(z, quad, lin):
    """z @ quad @ z + 2 lin @ z for each row of ``z``.

    It runs through the vector-matrix and vector-vector matmuls of the
    one-system expression, so every sum runs in its order (np.sum and
    einsum do not).
    """
    row, col = z[:, None, :], z[:, :, None]
    return ((row @ quad) @ col + (2.0 * lin)[:, None, :] @ col)[:, 0, 0]


@np.errstate(divide="ignore", invalid="ignore")
def _finalize(systems, eqs, lams, z_hats, iterations):
    """Estimates of finished searches, from one stacked pass.

    Each matrix goes through the arithmetic it would get alone, so an
    estimate does not depend on the batch it was finalized in.
    """
    quad = np.array([system.constraint_quad for system in systems])
    lin = np.array([system.constraint_lin for system in systems])
    normal = np.array([eq.normal for eq in eqs])
    z = z_hats * np.array([eq.scale for eq in eqs])
    rhs = np.array([eq.moment for eq in eqs]) - lams[:, None] * lin
    shifted = normal + lams[:, None, None] * quad
    residual = _norms((shifted @ z[:, :, None])[:, :, 0] - rhs)
    scale = _norms(shifted.reshape(len(eqs), -1)) * _norms(z) + _norms(rhs)
    stationarity = np.where(scale > 0, residual / scale, residual)
    constraint = _quadratic(z, quad, lin)
    min_eig = np.linalg.eigvalsh(shifted).min(axis=1)
    min_eig_ratio = min_eig / np.linalg.svd(normal, compute_uv=False).max(axis=1)
    estimates = []
    for system, row, lam, count, stat, cons, ratio in zip(
        systems, z, lams.tolist(), iterations,
        stationarity.tolist(), constraint.tolist(), min_eig_ratio.tolist(),
    ):
        k = system.dimension
        power = _power_dbm(row[k + 1], system.ple) if row.shape[0] == k + 2 else None
        estimates.append(
            Estimate(
                z=row,
                position_m=row[:k].copy(),
                transmit_power_dbm=power,
                power_valid=power is not None,
                multiplier=lam,
                iterations=int(count),
                kkt_stationarity=stat,
                kkt_constraint=cons,
                kkt_min_eig_ratio=ratio,
            )
        )
    return estimates


def solve(system):
    """Solve a GTRS by bisection on the multiplier.

    Serves both system kinds: the joint position/power system of
    :func:`build_system` and the smaller known-power system of
    :func:`build_known_power_system`, whose estimate carries no power.
    The bisection runs until the bracket collapses to adjacent
    floating-point numbers or the residual is exactly zero, keeping the
    multiplier with the smallest constraint residual seen; more than
    MAX_ITER steps is a ConvergenceError.
    """
    eq = _Equilibrated(system)
    steps = _bisect_steps(eq)
    try:
        lam = next(steps)
        while True:
            lam = steps.send(_classify(eq, lam))
    except StopIteration as done:
        lam, z_hat, iterations = done.value
    return _finalize([system], [eq], np.array([lam]), z_hat[None], [iterations])[0]


# The known-power system needs no solver of its own; the name stays public.
solve_known_power = solve


def _lapack_rows(op, *stacks):
    """``op`` over stacked matrices, and a mask of the matrices it took.

    numpy rejects a whole stack when one matrix fails (not PD for a
    Cholesky, singular for a solve), so a rejected stack is halved until
    each failing matrix stands alone; its output entries are NaN.  Each
    matrix still goes through the LAPACK call it would get alone.
    """
    count = len(stacks[0])
    try:
        return op(*stacks), np.ones(count, dtype=bool)
    except np.linalg.LinAlgError:
        if count == 1:
            return np.full_like(stacks[-1], np.nan), np.zeros(1, dtype=bool)
    parts = [
        _lapack_rows(op, *(stack[half] for stack in stacks))
        for half in (slice(None, count // 2), slice(count // 2, None))
    ]
    return tuple(np.concatenate(outputs) for outputs in zip(*parts))


class _Batch:
    """Equilibrated normal equations of equal-width systems, stacked."""

    def __init__(self, eqs):
        self.gram = np.array([eq.gram for eq in eqs])
        self.quad = np.array([eq.quad for eq in eqs])
        self.lin = np.array([eq.lin for eq in eqs])
        self.rhs0 = np.array([eq.rhs0 for eq in eqs])

    @np.errstate(divide="ignore", invalid="ignore")
    def classify(self, rows, lams):
        """:func:`_classify` of ``eqs[rows[j]]`` at ``lams[j]`` for every j.

        Returns (residual, z_hat, solved) arrays.  Where the shifted matrix
        is not PD, ``solved`` is False, the residual is inf and the z_hat
        row is NaN, so ``residual > 0`` is :func:`_classify`'s ``low``.
        The arithmetic is that of :meth:`_Equilibrated.solve_at` matrix by
        matrix, so every bit matches.
        """
        quad, lin = self.quad[rows], self.lin[rows]
        shifted = self.gram[rows] + lams[:, None, None] * quad
        diag = shifted.diagonal(axis1=1, axis2=2)
        s = 1.0 / np.sqrt(diag)
        scaled = shifted * (s[:, :, None] * s[:, None, :])
        rhs = (self.rhs0[rows] - lams[:, None] * lin) * s
        # ~(diag <= 0).any(axis=1), cheaper: fmin skips NaN entries as any() does.
        solved = ~(np.fmin.reduce(diag, axis=1) <= 0.0)
        check = np.flatnonzero(solved & (lams < 0.0))
        if check.size:
            factor, taken = _lapack_rows(np.linalg.cholesky, scaled[check])
            pivot = factor.diagonal(axis1=1, axis2=2).min(axis=1)
            solved[check] = taken & ~(pivot <= 1e-6)
        # A slice in the usual round, where every shifted matrix is PD.
        live = slice(None) if solved.all() else np.flatnonzero(solved)
        y, solved[live] = _lapack_rows(np.linalg.solve, scaled[live], rhs[live, :, None])
        z_hat = np.full(rhs.shape, np.nan)
        z_hat[live] = y[:, :, 0] * s[live]
        residual = np.full(rows.size, np.inf)
        residual[solved] = _quadratic(z_hat[solved], quad[solved], lin[solved])
        return residual, z_hat, solved


def solve_many(systems):
    """:func:`solve` applied to every system, with bit-identical results.

    Every system must have the same design width (one power mode of one
    spatial dimension), as the trials of one sweep do.  The searches of
    :func:`_bisect_steps` run in lockstep as array state, one row per
    system: each round classifies the trial multipliers of all
    unfinished systems in one stacked evaluation, and masks advance each
    row by its phase (the step at 0, expansion up, expansion down,
    bisection).  The finished searches are finalized in one stacked
    pass.  Returns one entry per system, in order: its Estimate, or the
    UwlocError instance that :func:`solve` would have raised for it alone.
    """
    results = [None] * len(systems)
    eqs, index = [], []
    for i, system in enumerate(systems):
        try:
            eqs.append(_Equilibrated(system))
        except UwlocError as exc:
            results[i] = exc
            continue
        index.append(i)
    if not eqs:
        return results
    batch = _Batch(eqs)
    n = len(eqs)
    phase = np.full(n, _START)
    lam, a, b, step = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    expansions, iterations = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    best_lam, best_abs, best_z = np.zeros(n), np.zeros(n), np.empty_like(batch.rhs0)
    errors = {}  # row -> the UwlocError that ends its search

    def fail(rows, error):
        for row in rows.tolist():
            errors[row] = error(row)
            phase[row] = _DONE

    active = np.arange(n)
    while active.size:
        residual, z_hat, solved = batch.classify(active, lam[active])
        low, size, at = residual > 0.0, np.abs(residual), phase[active]

        def keep(pos):
            """Record the multipliers classified at ``pos`` as their rows' best."""
            rows = active[pos]
            best_lam[rows], best_abs[rows], best_z[rows] = lam[rows], size[pos], z_hat[pos]

        pos = np.flatnonzero(at == _START)
        if pos.size:  # at 0: stop on a zero residual, else expand toward the root
            rows, f, ok = active[pos], residual[pos], solved[pos]
            keep(pos)
            fail(rows[~ok], lambda r: GeometryError("normal matrix is not positive definite"))
            phase[rows[ok & (f == 0.0)]] = _DONE
            up = rows[ok & (f > 0.0)]
            gram = batch.gram[up].reshape(up.size, batch.gram[0].size)
            b[up] = lam[up] = np.fmax(1.0, _norms(gram))  # as max(1, norm) in _bisect_steps
            phase[up] = _UP
            for row in rows[ok & ~(f == 0.0) & ~(f > 0.0)].tolist():
                try:
                    a[row], step[row] = _downward_start(eqs[row])
                except UwlocError as exc:
                    fail(np.array([row]), lambda r: exc)
                else:
                    lam[row], phase[row] = a[row], _DOWN

        enter = []  # rows whose bracket is set: they take a bisection step
        pos = np.flatnonzero(at == _UP)
        if pos.size:  # double b until the residual turns negative
            rows, lo = active[pos], low[pos]
            more = lo & (expansions[rows] < MAX_EXPANSIONS)
            grow = rows[more]
            a[grow], b[grow] = b[grow], 2.0 * b[grow]
            lam[grow] = b[grow]
            expansions[grow] += 1
            fail(rows[lo & ~more], lambda r: InfeasibleProblemError(
                f"no constraint-residual sign change up to multiplier {b[r]:.3e}"))
            keep(pos[~lo])
            enter.append(rows[~lo])

        pos = np.flatnonzero(at == _DOWN)
        if pos.size:  # step a down, doubling the step, until it is low
            rows, lo = active[pos], low[pos]
            more = ~lo & (expansions[rows] < MAX_EXPANSIONS)
            grow = rows[more]
            b[grow] = a[grow]
            better = more & (size[pos] < best_abs[rows])
            keep(pos[better])
            a[grow] -= step[grow]
            step[grow] *= 2.0
            lam[grow] = a[grow]
            expansions[grow] += 1
            fail(rows[~lo & ~more], lambda r: InfeasibleProblemError(
                f"no constraint-residual sign change down to multiplier {a[r]:.3e}"))
            enter.append(rows[lo])

        pos = np.flatnonzero(at == _BISECT)
        if pos.size:  # keep the best, stop on a zero residual, else halve
            rows, lo = active[pos], low[pos]
            iterations[rows] += 1
            better = solved[pos] & (size[pos] < best_abs[rows])
            keep(pos[better])
            zero = solved[pos] & (residual[pos] == 0.0)
            phase[rows[zero]] = _DONE
            a[rows[lo]] = lam[rows[lo]]
            b[rows[~lo]] = lam[rows[~lo]]
            enter.append(rows[~zero])

        rows = np.concatenate(enter) if enter else active[:0]
        lower, upper = a[rows], b[rows]
        bracket = upper > lower
        over = bracket & (iterations[rows] >= MAX_ITER)
        fail(rows[over], lambda r: ConvergenceError(
            f"bisection exceeded {MAX_ITER} iterations (bracket width {b[r] - a[r]:.3e})",
            bracket=(float(a[r]), float(b[r]))))
        mid = 0.5 * (lower + upper)
        go = bracket & ~over & (mid != lower) & (mid != upper)
        lam[rows[go]] = mid[go]
        phase[rows[go]] = _BISECT
        phase[rows[~go & ~over]] = _DONE  # the bracket has collapsed
        active = np.flatnonzero(phase != _DONE)

    done = [row for row in range(n) if row not in errors]
    if done:
        estimates = _finalize(
            [systems[index[row]] for row in done], [eqs[row] for row in done],
            best_lam[done], best_z[done], iterations[done],
        )
        for row, estimate in zip(done, estimates):
            results[index[row]] = estimate
    for row, error in errors.items():
        results[index[row]] = error
    return results
