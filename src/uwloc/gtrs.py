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

# Fewest trial multipliers a lockstep round evaluates as one stack.  On the
# bundled 5x5 systems a stacked round costs 40-90 us of numpy call overhead
# plus 1-2.5 us per system (about 2 us each in a stack of 200), and one
# system alone 18-37 us, so one or two unfinished systems (and a batch of
# one) are cheaper one at a time.
MIN_STACK_ROWS = 3


@dataclass(frozen=True)
class GtrsSystem:
    """Weighted design matrix, target vector, and constraint matrices.

    ``design`` has k + 2 columns for a joint position/power system and
    k + 1 columns when the transmit power is known (``estimates_power``
    False); ``dimension`` is always the spatial dimension k.  ``ple`` is
    kept so the power read-out 5*ple*log10(u) needs no extra context.
    """

    design: np.ndarray
    target: np.ndarray
    constraint_quad: np.ndarray
    constraint_lin: np.ndarray
    dimension: int
    ple: float
    estimates_power: bool = True


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
    norms = np.linalg.norm(design, axis=0)
    if np.any(norms == 0.0):
        raise GeometryError(
            "design matrix has a zero column; add anchors or spread them out"
        )
    normalized = design / norms
    smallest = np.linalg.eigvalsh(normalized.T @ normalized).min()
    if smallest <= RANK_TOL:
        raise GeometryError(
            "design matrix is rank deficient (normalized Gram eigenvalue"
            f" {smallest:.2e}): {_rank_loss_cause(design, q2, k)}"
        )


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
        u = 10.0 ** (env.transmit_power_dbm / (5.0 * beta))
        target = target + (c_aux * scale) * u
    design = design * scale[:, None]
    _check_rank(design, q2, k)
    quad = np.zeros((m, m))
    quad[:k, :k] = np.eye(k)
    lin = np.zeros(m)
    lin[k] = -0.5
    return GtrsSystem(design, target, quad, lin, k, beta, estimates_power)


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
        return edge + ENDPOINT_GUARD * (1.0 + abs(edge))


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


def _bisect_steps(eq):
    """Root of the constraint residual by classification bisection.

    A generator, so one search can be driven alone or in lockstep with
    others: it yields each trial multiplier and must be sent back that
    multiplier's :func:`_classify` triple.  Returns (multiplier, z_hat,
    iterations).
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
        a = eq.multiplier_floor()
        if not np.isfinite(a):
            raise InfeasibleProblemError("constraint matrix has no negative pole")
        low, fa, za = yield a
        step = 0.1 * (1.0 + abs(a))
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


def extract_estimate(z, env):
    """Split a solution vector into (position, transmit power or None).

    The power read-out 5*beta*log10(z[-1]) only exists for a positive
    auxiliary value; a nonpositive one is a flagged outcome, not an error.
    """
    z = np.asarray(z, dtype=float)
    k = z.shape[0] - 2
    if k < 1:
        raise ValueError("solution vector must have length k + 2 with k >= 1")
    return z[:k].copy(), _power_dbm(z[k + 1], env.ple)


def _finalize(system, eq, lam, z_hat, iterations):
    z = z_hat * eq.scale
    rhs = eq.moment - lam * system.constraint_lin
    shifted = eq.normal + lam * system.constraint_quad
    residual = np.linalg.norm(shifted @ z - rhs)
    scale = np.linalg.norm(shifted) * np.linalg.norm(z) + np.linalg.norm(rhs)
    stationarity = residual / scale if scale > 0 else residual
    constraint = float(
        z @ system.constraint_quad @ z + 2.0 * system.constraint_lin @ z
    )
    min_eig = float(np.linalg.eigvalsh(shifted).min())
    min_eig_ratio = min_eig / float(np.linalg.norm(eq.normal, 2))
    k = system.dimension
    power = _power_dbm(z[k + 1], system.ple) if system.estimates_power else None
    return Estimate(
        z=z,
        position_m=z[:k].copy(),
        transmit_power_dbm=power,
        power_valid=power is not None,
        multiplier=float(lam),
        iterations=iterations,
        kkt_stationarity=float(stationarity),
        kkt_constraint=constraint,
        kkt_min_eig_ratio=min_eig_ratio,
    )


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
    return _finalize(system, eq, lam, z_hat, iterations)


# The known-power system needs no solver of its own; the name stays public.
solve_known_power = solve


class _Stack:
    """Equilibrated normal equations of equal-size systems, stacked."""

    def __init__(self, eqs):
        self.eqs = eqs
        self.gram = np.stack([eq.gram for eq in eqs])
        self.quad = np.stack([eq.quad for eq in eqs])
        self.lin = np.stack([eq.lin for eq in eqs])
        self.rhs0 = np.stack([eq.rhs0 for eq in eqs])

    def classify(self, rows, lams):
        """:func:`_classify` of ``eqs[rows[j]]`` at ``lams[j]`` for every j.

        One stacked evaluation whose arithmetic is that of
        :meth:`_Equilibrated.solve_at` matrix by matrix, so every bit
        matches.  Fewer than MIN_STACK_ROWS multipliers, or a stack that
        numpy rejects as a whole (one matrix not PD or singular), are
        classified one matrix at a time instead.
        """
        if len(rows) >= MIN_STACK_ROWS:
            try:
                return self._classify_stacked(np.array(rows), np.array(lams))
            except np.linalg.LinAlgError:
                pass
        return [_classify(self.eqs[r], lam) for r, lam in zip(rows, lams)]

    def _classify_stacked(self, rows, lams):
        quad = self.quad[rows]
        shifted = self.gram[rows] + lams[:, None, None] * quad
        diag = shifted.diagonal(axis1=1, axis2=2)
        live = np.flatnonzero(~(diag <= 0.0).any(axis=1))
        s = 1.0 / np.sqrt(diag[live])
        scaled = shifted[live] * (s[:, :, None] * s[:, None, :])
        check = lams[live] < 0.0
        if check.any():
            factor = np.linalg.cholesky(scaled[check])
            weak = factor.diagonal(axis1=1, axis2=2).min(axis=1) <= 1e-6
            definite = np.ones(live.size, dtype=bool)
            definite[np.flatnonzero(check)[weak]] = False
            live, s, scaled = live[definite], s[definite], scaled[definite]
        lin = self.lin[rows[live]]
        rhs = (self.rhs0[rows[live]] - lams[live, None] * lin) * s
        z = np.linalg.solve(scaled, rhs[:, :, None])[:, :, 0] * s
        # z @ quad @ z + 2 lin @ z through the same vector-matrix and
        # vector-vector matmuls as the scalar residual, so every sum runs
        # in its order (np.sum and einsum do not).
        row, col = z[:, None, :], z[:, :, None]
        residual = ((row @ quad[live]) @ col + (2.0 * lin)[:, None, :] @ col)[:, 0, 0]
        replies = [(True, np.inf, None)] * rows.size
        for j, f, z_hat in zip(live, residual.tolist(), z):
            replies[j] = (f > 0.0, f, z_hat)
        return replies


def solve_many(systems):
    """:func:`solve` applied to every system, with bit-identical results.

    Every system must have the same design width (one power mode of one
    spatial dimension), as the trials of one sweep point do.  The
    bisections run in lockstep: each round classifies the trial
    multipliers of all unfinished systems in one stacked evaluation, and a
    system leaves the stack when its search ends.  Returns one entry per
    system, in order: its Estimate, or the UwlocError instance that
    :func:`solve` would have raised for it alone.
    """
    results = [None] * len(systems)
    eqs, searches, trials = [], [], {}  # trials: stack row -> multiplier
    for i, system in enumerate(systems):
        try:
            eq = _Equilibrated(system)
        except UwlocError as exc:
            results[i] = exc
            continue
        search = _bisect_steps(eq)
        trials[len(eqs)] = next(search)
        eqs.append(eq)
        searches.append((i, search))
    if not eqs:
        return results
    stack = _Stack(eqs)
    while trials:
        rows = list(trials)
        for r, reply in zip(rows, stack.classify(rows, [trials[r] for r in rows])):
            i, search = searches[r]
            try:
                trials[r] = search.send(reply)
            except StopIteration as done:
                del trials[r]
                results[i] = _finalize(systems[i], eqs[r], *done.value)
            except UwlocError as exc:
                del trials[r]
                results[i] = exc
    return results
