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
(-1/lam*, inf), lam* > 0 being the largest eigenvalue of
(R^T R)^{-1/2} H (R^T R)^{-1/2}, where the lifting fixes H = diag(I_k, 0)
and h = -e_k/2.  The unique root is found by bisection.

The upward search always ends.  Split z = [t; w] with w_1 = z_k, R^T R into
PD blocks A, B, C by t and w, and R^T v into m_t, m_w.  For lam > 0, with PD
S = A - B C^{-1} B^T, t = (S + lam*I)^{-1} (m_t - B C^{-1} (m_w + (lam/2) e_1))
stays bounded, as ||(S + lam*I)^{-1}|| <= 1/lam, while z_k = e_1^T C^{-1} (m_w
- B^T t) + (lam/2) (C^{-1})_11 grows like lam/2.  So phi(lam) = ||t||^2 - z_k
-> -inf, and doubling from ||G||_F >= sqrt(2) turns phi negative in finitely many steps.

Numerical notes: the normal matrix mixes meter, meter^2, and dimensionless
columns, so all internal solves run on a Jacobi-equilibrated copy (a pure
reparameterization: the multiplier, the constraint residual, and the
returned z are unchanged).  Below the interval's pole the shifted matrix is
indefinite, which a Cholesky failure detects; such points are treated as
lying below the root, so the bisection never depends on a high-accuracy
estimate of lam*.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import numerics
from .channel import LN10
from .errors import ConfigError, ConvergenceError, GeometryError, InfeasibleProblemError
from .errors import NumericalError, SingularMatrixError, UwlocError

# Column-rank tolerance on the column-normalized design matrix.  The raw
# design mixes units spanning ~12 orders of magnitude at kilometer scales,
# so rank is only meaningful after normalization.
RANK_TOL = 1e-10

# Guarded offset from the singular endpoint of the multiplier interval.
ENDPOINT_GUARD = 1e-12

# Cap on the downward walk's steps below the multiplier floor.
MAX_EXPANSIONS = 120

# Cap on bisection steps.  Searches take 60-130, but a root just above 0
# can need over 1000 halvings to collapse its bracket; stop those here.
MAX_ITER = 200

_NONPOSITIVE_DIAGONAL = "normal matrix has a nonpositive diagonal entry"


# A LAPACK gufunc fills the output of a matrix it cannot factor or solve with
# NaN and raises the invalid flag; this state keeps that quiet.  It is entered
# once per search, not per call.
_lapack_errors = np.errstate(all="ignore")


@dataclass(frozen=True)
class GtrsSystem:
    """Weighted design matrix and target vector of the lifted system.

    ``design`` has k + 2 columns for a joint position/power system and
    k + 1 columns when the transmit power is known; ``dimension`` is always
    the spatial dimension k, which with the width fixes the constraint
    H = diag(I_k, 0), h = -e_k/2.  ``ple`` is kept so the power read-out
    5*ple*log10(u) needs no extra context.
    """

    design: np.ndarray
    target: np.ndarray
    dimension: int
    ple: float

    @functools.cached_property
    def normal(self):
        """R^T R; :func:`_build` stores its stacked product's row here, which has
        this 2-D product's bits on numpy 2.4.6 (guarded by the stacked-build tests)."""
        return self.design.T @ self.design


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


def _gram_floor(normal):
    """Smallest eigenvalue of each ``normal`` scaled to a unit diagonal, as _Equilibrated.gram."""
    s = 1.0 / np.sqrt(normal.diagonal(axis1=-2, axis2=-1))
    return np.linalg.eigvalsh(normal * (s[..., :, None] * s[..., None, :])).min(axis=-1)


def _rank_loss_cause(system, q2):
    """Why a design failed the rank gate, for the GeometryError message.

    Columns k and k + 1 of a joint design are q^2 and the constant; a
    known-power design has no constant column, so its slice from k on is
    one column and never singular.
    """
    design, k = system.design, system.dimension
    if _gram_floor(system.normal[k:, k:]) <= RANK_TOL:
        return (
            "every reading implies the same range, so the q^2 column is parallel"
            " to the constant column; place anchors at different ranges or give"
            " the transmit power"
        )
    top = np.argmax(q2)
    rest = np.delete(design, top, axis=0)
    if _gram_floor(rest.T @ rest) > RANK_TOL:
        ratio = q2[top] / np.delete(q2, top).max()
        return (
            f"one reading dominates: its q^2 is {ratio:.2g} times the next"
            " largest, and without it the design has full rank"
        )
    return "the anchors lie close to one line or plane; add anchors or move them off it"


def _check_rank(system, q2):
    if (system.normal.diagonal() == 0.0).any():
        raise GeometryError(
            "design matrix has a zero column; add anchors or spread them out"
        )
    smallest = _gram_floor(system.normal)
    if smallest <= RANK_TOL:
        raise GeometryError(  # an exactly singular Gram matrix can read -1e-17
            "design matrix is rank deficient (normalized Gram eigenvalue"
            f" {max(smallest, 0.0):.2e}): {_rank_loss_cause(system, q2)}"
        )


@np.errstate(over="ignore", invalid="ignore")  # overflow is a NumericalError below
def _build(measurements, weights, anchors_m, env, estimates_power):
    """The joint (k + 2 columns) or known-power (k + 1) system of each fix.

    ``measurements`` and ``weights`` hold one fix or a stack at the same
    anchors, and each row gets a one-row build's bits.  A check on what the
    rows share raises; per row, the list returned holds its GtrsSystem or
    the UwlocError (overflow, rank gate) that drops it.
    """
    anchors = measurements.anchor_rows(anchors_m)
    weights = np.asarray(weights, dtype=float)
    n, k = anchors.shape
    if weights.shape != measurements.rss_dbm.shape:
        raise ValueError(f"weights shape {weights.shape} does not match {n} anchors")
    if n < k + 2:
        raise GeometryError(f"need at least k + 2 = {k + 2} anchors, got {n}")
    beta = env.ple
    rss = measurements.rss_dbm.reshape(-1, n)
    q2 = (10.0 ** ((rss - env.absorption_db_per_m) / (10.0 * beta))) ** 2
    c_pos = 10.0 * beta / LN10
    c_aux = 5.0 * beta / LN10
    m = k + 2 if estimates_power else k + 1
    design = np.empty((len(q2), n, m))
    design[:, :, :k] = -c_pos * q2[:, :, None] * anchors
    design[:, :, k] = c_aux * q2
    scale = np.sqrt(weights.reshape(-1, n))
    target = -c_aux * q2 * np.sum(anchors**2, axis=1) * scale
    if estimates_power:
        design[:, :, k + 1] = -c_aux
    else:  # the known u moves the weighted column -c_aux*u into the target
        try:
            u = 10.0 ** (env.transmit_power_dbm / (5.0 * beta))
        except OverflowError:
            raise NumericalError(
                f"transmit power {env.transmit_power_dbm:.6g} dBm overflows"
                " u = 10^(P_t/(5*beta))"
            ) from None
        target = target + (c_aux * scale) * u
    design = design * scale[:, :, None]
    # ||[R v]||_F^2 bounds every entry of R^T R and R^T v.
    flat = np.concatenate([design.reshape(len(design), -1), target], axis=1)
    finite = np.isfinite((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    normal = np.swapaxes(design, 1, 2) @ design
    passed = finite & (normal.diagonal(axis1=1, axis2=2) > 0.0).all(axis=1)
    rows = slice(None) if passed.all() else passed  # no copy in the usual case
    passed[rows] = _gram_floor(normal[rows]) > RANK_TOL
    outcomes = []
    for row in range(len(design)):
        outcomes.append(GtrsSystem(design[row], target[row], k, beta))
        vars(outcomes[-1])["normal"] = normal[row]
        try:
            if not finite[row]:
                raise NumericalError(
                    "the weighted system overflows: readings or anchor coordinates are too large"
                )
            if not passed[row]:
                _check_rank(outcomes[-1], q2[row])
        except UwlocError as exc:
            outcomes[-1] = exc
    return outcomes


def _only(outcomes):
    """The system of a one-row :func:`_build`; raises the error that dropped it."""
    if len(outcomes) != 1:
        raise ConfigError(f"measurements stack {len(outcomes)} fixes; this function takes one fix")
    if isinstance(outcomes[0], UwlocError):
        raise outcomes[0]
    return outcomes[0]


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
    return _only(_build(measurements, weights, anchors_m, env, estimates_power=True))


def build_known_power_system(measurements, weights, anchors_m, env):
    """GTRS with the transmit power known: the u column folds into the target.

    The reduced unknown is [t; ||t||^2] with constraint matrices
    diag(I_k, 0) and [0_k; -1/2].  Only this (n, k + 1) design is rank
    checked, so anchors equidistant from the target, whose joint design
    is singular, are fine.
    """
    return _only(_build(measurements, weights, anchors_m, env, estimates_power=False))


@functools.cache
def _lifting(width, k):
    """The lifting constraint H = diag(I_k, 0), h = -e_k/2 of a ``width``-column system."""
    column = np.arange(width)
    return np.diag((column < k) * 1.0), np.where(column == k, -0.5, 0.0)


class _Equilibrated:
    """Jacobi-scaled normal equations of a stack of equal-width systems.

    Row i of every array belongs to system i: ``normal`` and ``moment``
    are its unscaled R^T R and R^T v, ``constraint_quad`` and
    ``constraint_lin`` its unscaled H = diag(I_k, 0) and h = -e_k/2,
    derived from its ``dimension`` k and the width, and ``gram``, ``quad``,
    ``lin`` and ``rhs0`` their scaled copies; ``ple`` is its path-loss
    exponent.  ``valid`` is False where the normal matrix has a
    nonpositive diagonal entry; such a row has no scaling and is never
    searched.  :meth:`classify` takes the stack, and ``eq[i]`` is system i
    alone, with 2-D arrays, for the one-system methods.
    """

    @np.errstate(divide="ignore", invalid="ignore")  # rows that are not valid get inf or NaN
    def __init__(self, systems):
        self.normal = np.array([system.normal for system in systems])
        self.moment = np.array([system.design.T @ system.target for system in systems])
        self.dimension = np.array([system.dimension for system in systems])
        self.ple = np.array([system.ple for system in systems])
        lifts = [_lifting(system.design.shape[1], system.dimension) for system in systems]
        self.constraint_quad, self.constraint_lin = (np.array(part) for part in zip(*lifts))
        diag = self.normal.diagonal(axis1=1, axis2=2)
        self.valid = ~(diag <= 0.0).any(axis=1)
        self.scale = 1.0 / np.sqrt(diag)
        outer = self.scale[:, :, None] * self.scale[:, None, :]
        self.gram = self.normal * outer
        self.quad = self.constraint_quad * outer
        self.lin = self.constraint_lin * self.scale
        self.lin2 = 2.0 * self.lin  # constraint_residual's, formed once
        self.rhs0 = self.moment * self.scale

    def __getitem__(self, row):
        """System ``row`` alone; a GeometryError where it is not valid."""
        if not self.valid[row]:
            raise GeometryError(_NONPOSITIVE_DIAGONAL)
        one = object.__new__(_Equilibrated)
        one.__dict__ = {name: value[row] for name, value in vars(self).items()}
        return one

    def solve_at(self, lam, check_definite):
        """Solution of the shifted system, or None when it is not PD or not solved.

        ``check_definite`` may be skipped for lam >= 0, where the shifted
        matrix is PD whenever the Gram matrix is.  A Cholesky or solve that
        LAPACK cannot complete comes back as NaN, read here as a failure;
        callers hold :data:`_lapack_errors`, so the invalid flag it raises is quiet.
        """
        shifted = self.gram + lam * self.quad
        diag = shifted.diagonal()
        if np.fmin.reduce(diag) <= 0.0:  # (diag <= 0.0).any(), cheaper, as in classify
            return None
        s = 1.0 / np.sqrt(diag)
        scaled = shifted * (s[:, None] * s)
        if check_definite:
            factor = _umath_linalg.cholesky_lo(scaled, signature="d->d")
            if not factor.diagonal().min() > 1e-6:  # NaN where the Cholesky failed
                return None
        y = _umath_linalg.solve1(scaled, (self.rhs0 - lam * self.lin) * s, signature="dd->d")
        # math.isnan: np.isnan on a scalar costs about ten times as much.
        return None if math.isnan(y[-1]) else y * s

    def constraint_residual(self, z_hat):
        return float(z_hat @ self.quad @ z_hat + self.lin2 @ z_hat)

    def multiplier_floor(self):
        """Guarded lower endpoint -1/lam* + eps of the multiplier interval."""
        try:
            inv_sqrt = numerics.inv_sqrt_sym(self.gram)
        except SingularMatrixError as exc:
            raise GeometryError(f"normal matrix is singular: {exc}") from exc
        pencil = inv_sqrt @ self.quad @ inv_sqrt
        lam_star = float(numerics.sym_eig(pencil)[0][-1])
        edge = -1.0 / lam_star
        guard = ENDPOINT_GUARD * (1.0 + abs(edge))
        if guard >= 0.5 * abs(edge):
            # Past lam* ~ 5e11 the guard would reach edge/2, and the root can
            # lie below that; stay just above the pole, past lam*'s rounding.
            guard = 1e-6 * abs(edge)
        return edge + guard

    @np.errstate(divide="ignore", invalid="ignore")  # NaN marks a failed LAPACK call
    def classify(self, rows, lams):
        """:func:`_classify` of ``self[rows[j]]`` at ``lams[j]`` for every j.

        Returns (residual, z_hat, solved) arrays.  Where the shifted matrix
        is not PD or its solve fails, ``solved`` is False, the residual is
        inf and the z_hat row is not a solution, so ``residual > 0`` is
        :func:`_classify`'s ``low``.  The arithmetic is that of
        :meth:`solve_at` matrix by matrix, so every bit matches.
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
            factor = _umath_linalg.cholesky_lo(scaled[check], signature="d->d")
            solved[check] = factor.diagonal(axis1=1, axis2=2).min(axis=1) > 1e-6
        z_hat = _umath_linalg.solve1(scaled, rhs, signature="dd->d") * s
        solved &= ~np.isnan(z_hat[:, -1])
        residual = np.full(rows.size, np.inf)
        residual[solved] = _quadratic(z_hat[solved], quad[solved], lin[solved])
        return residual, z_hat, solved


def lambda_interval(system):
    """Search interval (lower, +inf) for the Lagrange multiplier.

    ``lower``, finite and negative, sits a guarded offset above -1/lam*,
    the point where the shifted normal matrix turns singular.
    """
    return _Equilibrated([system])[0].multiplier_floor(), np.inf


@_lapack_errors
def phi(lam, system):
    """Constraint residual of the shifted solution at multiplier ``lam``.

    Strictly decreasing on the multiplier interval; its unique root is the
    optimal multiplier.
    """
    eq = _Equilibrated([system])[0]
    z_hat = eq.solve_at(float(lam), check_definite=False)
    if z_hat is None or not np.all(np.isfinite(z_hat)):
        raise _unsolved(lam)
    return eq.constraint_residual(z_hat)


def _unsolved(lam):
    return NumericalError(f"shifted system could not be solved at multiplier {lam}", multiplier=lam)


def _classify(eq, lam):
    """(low, residual, z_hat) of one trial multiplier.

    ``low`` says the multiplier is below the root: the shifted matrix fails
    to be PD (below the pole, given as residual inf and z_hat None) or the
    residual is positive.
    """
    z_hat = eq.solve_at(lam, check_definite=lam < 0.0)
    if z_hat is None:
        return True, np.inf, None
    residual = eq.constraint_residual(z_hat)
    return residual > 0.0, residual, z_hat


@_lapack_errors
def _walk_down(eq, f0, z0):
    """Bracket (a, b, phi(b), z_hat(b)) of the negative root of one system.

    ``f0`` < 0 and ``z0`` are phi(0) and z_hat(0).  a steps down from the
    guarded endpoint estimate, doubling its step, until it is low; points
    below the pole classify as low via the PD check, so an imprecise
    endpoint estimate only costs extra expansions.
    """
    b, fb, zb = 0.0, f0, z0
    a = eq.multiplier_floor()
    step = 0.1 * (1.0 + abs(a))
    low, fa, za = _classify(eq, a)
    for _ in range(MAX_EXPANSIONS):
        if low:
            break
        b, fb, zb = a, fa, za
        a -= step
        step *= 2.0
        low, fa, za = _classify(eq, a)
    if not low:
        raise InfeasibleProblemError(
            f"no constraint-residual sign change down to multiplier {a:.3e}"
        )
    return a, b, fb, zb


@_lapack_errors
def _search(eq):
    """Root of the constraint residual of one system by classification bisection.

    Returns (multiplier, z_hat, iterations).  :func:`solve_many` takes
    the same steps over a stack of systems, which the tests pin against
    this bit for bit.
    """
    _, f0, z0 = _classify(eq, 0.0)
    if z0 is None:
        raise GeometryError("normal matrix is not positive definite")
    if f0 == 0.0:
        return 0.0, z0, 0
    if f0 > 0.0:
        # Root is positive: double b until phi(b) < 0, as it must (module docstring).
        a, b = 0.0, float(np.linalg.norm(eq.gram))
        low, fb, zb = _classify(eq, b)
        while low:
            if zb is None:  # above 0 only a failed solve, which b = inf always gives
                raise _unsolved(b)
            a, b = b, 2.0 * b
            low, fb, zb = _classify(eq, b)
    else:
        a, b, fb, zb = _walk_down(eq, f0, z0)
    # phi decreases, so b, the last point that is not low, is the best so far.
    best = (b, abs(fb), zb)
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
        low, fm, zm = _classify(eq, mid)
        iterations += 1
        if abs(fm) < best[1]:  # fm is inf where zm is None
            best = (mid, abs(fm), zm)
        if fm == 0.0:
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
def _finalize(eq, rows, lam, z_hat, iterations):
    """Estimates of the finished searches at the index array ``rows`` of ``eq``.

    ``lam``, ``z_hat`` and ``iterations`` hold one entry per row of the
    stack.  One stacked pass puts each matrix through the
    arithmetic it would get alone, so an estimate does not depend on the
    batch it was finalized in.
    """
    quad, lin, normal = eq.constraint_quad[rows], eq.constraint_lin[rows], eq.normal[rows]
    lams = lam[rows]
    z = z_hat[rows] * eq.scale[rows]
    rhs = eq.moment[rows] - lams[:, None] * lin
    shifted = normal + lams[:, None, None] * quad
    residual = _norms((shifted @ z[:, :, None])[:, :, 0] - rhs)
    scale = _norms(shifted.reshape(len(rows), -1)) * _norms(z) + _norms(rhs)
    stationarity = np.where(scale > 0, residual / scale, residual)
    constraint = _quadratic(z, quad, lin)
    min_eig = np.linalg.eigvalsh(shifted).min(axis=1)
    min_eig_ratio = min_eig / np.linalg.svd(normal, compute_uv=False).max(axis=1)
    estimates = []
    for row, k, ple, z_row, multiplier, stat, cons, ratio in zip(
        rows, eq.dimension[rows].tolist(), eq.ple[rows].tolist(), z, lams.tolist(),
        stationarity.tolist(), constraint.tolist(), min_eig_ratio.tolist(),
    ):
        power = _power_dbm(z_row[k + 1], ple) if z_row.shape[0] == k + 2 else None
        estimates.append(
            Estimate(
                z=z_row,
                position_m=z_row[:k].copy(),
                transmit_power_dbm=power,
                power_valid=power is not None,
                multiplier=multiplier,
                iterations=int(iterations[row]),
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
    eq = _Equilibrated([system])
    lam, z_hat, iterations = _search(eq[0])
    return _finalize(eq, np.array([0]), np.array([lam]), z_hat[None], [iterations])[0]


# The known-power system needs no solver of its own; the name stays public.
solve_known_power = solve


def solve_many(systems):
    """:func:`solve` applied to every system, with bit-identical results.

    Every system must have the same design width, as the trials of one
    sweep do.  One :class:`_Equilibrated` holds them all, and the stages
    of :func:`_search` run over it in order, as array state with one row
    per system: every row is classified at 0, the few rows with a negative
    residual take :func:`_walk_down` one by one, those with a positive one
    expand upward together, and every bracketed row then bisects.  Each
    round of a stacked stage classifies its rows in one evaluation, and the
    finished searches are finalized in one stacked pass.  Returns one
    entry per system, in order: its Estimate, or the UwlocError instance
    that :func:`solve` would have raised for it alone.
    """
    if not systems:
        return []
    eq = _Equilibrated(systems)
    n = len(systems)
    a, b = np.zeros(n), np.zeros(n)
    best_lam, best_abs, best_z = np.zeros(n), np.zeros(n), np.empty_like(eq.rhs0)
    iterations = np.zeros(n, dtype=int)
    errors = {}  # row -> the UwlocError that ends its search

    def fail(rows, error):
        for row in rows.tolist():
            errors[row] = error(row)

    def keep(rows, lams, residual, z_hat):
        """Record the multipliers ``lams`` classified at ``rows`` as their best."""
        best_lam[rows], best_abs[rows], best_z[rows] = lams, np.abs(residual), z_hat

    fail(np.flatnonzero(~eq.valid), lambda r: GeometryError(_NONPOSITIVE_DIAGONAL))
    rows = np.flatnonzero(eq.valid)
    f, z_hat, solved = eq.classify(rows, np.zeros(rows.size))
    keep(rows, 0.0, f, z_hat)
    fail(rows[~solved], lambda r: GeometryError("normal matrix is not positive definite"))
    bracketed = [rows[:0]]

    # Downward, one system at a time: few rows have a negative root.
    down = solved & ~(f >= 0.0)
    for row, f0, z0 in zip(rows[down].tolist(), f[down], z_hat[down]):
        try:
            a[row], b[row], fb, zb = _walk_down(eq[row], f0, z0)
        except UwlocError as exc:
            errors[row] = exc
        else:
            keep(row, b[row], fb, zb)
            bracketed.append(np.array([row]))

    # Upward: double b until the residual turns negative, which it does (module
    # docstring), or its solve fails.  Each row keeps its last b as its best.
    width = eq.gram.shape[1]
    rows = rows[solved & (f > 0.0)]
    b[rows] = _norms(eq.gram[rows].reshape(rows.size, width * width))
    while rows.size:
        f, z_hat, solved = eq.classify(rows, b[rows])
        fail(rows[~solved], lambda r: _unsolved(float(b[r])))
        low = f > 0.0
        keep(rows[~low], b[rows[~low]], f[~low], z_hat[~low])
        bracketed.append(rows[~low])
        rows = rows[low & solved]
        a[rows], b[rows] = b[rows], 2.0 * b[rows]

    # Bisection: keep the best, stop on a zero residual, else halve.
    rows, count = np.concatenate(bracketed), 0
    while True:
        lower, upper = a[rows], b[rows]
        mid = 0.5 * (lower + upper)
        go = upper > lower
        if count >= MAX_ITER:
            fail(rows[go], lambda r: ConvergenceError(
                f"bisection exceeded {MAX_ITER} iterations (bracket width {b[r] - a[r]:.3e})",
                bracket=(float(a[r]), float(b[r]))))
            go[:] = False
        go &= (mid != lower) & (mid != upper)
        iterations[rows[~go]] = count  # collapsed brackets end here
        rows, mid = rows[go], mid[go]
        if not rows.size:
            break
        f, z_hat, _ = eq.classify(rows, mid)
        count += 1
        better = np.abs(f) < best_abs[rows]  # f is inf where not solved
        keep(rows[better], mid[better], f[better], z_hat[better])
        low = f > 0.0
        a[rows[low]], b[rows[~low]] = mid[low], mid[~low]
        zero = f == 0.0
        iterations[rows[zero]] = count
        rows = rows[~zero]

    done = [row for row in range(n) if row not in errors]
    results = dict(errors)
    if done:
        rows = np.array(done)
        results.update(zip(done, _finalize(eq, rows, best_lam, best_z, iterations)))
    return [results[row] for row in range(n)]
