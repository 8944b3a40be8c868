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

A negative root needs no downward search.  R^T R + lam*H is PD exactly
where S + lam*I is, so the pole is -lam_min(S) < 0.  S is A less the PSD
B C^{-1} B^T, so lam_min(S) <= min_i S_ii <= min_i A_ii, and the pole lies at
or above a = -min_{i<k} (R^T R)_ii.  A negative root lies in (pole, 0), so
[a, 0] brackets it.  At a, one diagonal entry of the scaled shifted matrix
is exactly 0, so a reads as low with no eigen-solve.

Numerical notes: the normal matrix mixes meter, meter^2, and dimensionless
columns, so all internal solves run on a Jacobi-equilibrated copy (a pure
reparameterization: the multiplier, the constraint residual, and the
returned z are unchanged).  Below the interval's pole the shifted matrix is
indefinite, which a Cholesky failure detects; such points are treated as
lying below the root, so the search never needs an estimate of lam*.  A
single fix's search guesses the root from the secular equation of the
scaled pencil and classifies the bisection's likely path in one call;
every step is still decided by the shifted solve, so the secular function
sets only the speed, never the multiplier, z or the step count.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import numerics
from .channel import LN10
from .errors import ConfigError, ConvergenceError, GeometryError
from .errors import NumericalError, SingularMatrixError, UwlocError

# Column-rank tolerance on the column-normalized design matrix.  The raw
# design mixes units spanning ~12 orders of magnitude at kilometer scales,
# so rank is only meaningful after normalization.
RANK_TOL = 1e-10

# Cap on bisection steps.  Searches take 60-130, but a root just above 0
# can need over 1000 halvings to collapse its bracket; stop those here.
MAX_ITER = 200

# Bisection steps one round of the one-system search evaluates ahead: one
# stacked classify of the 2**DEPTH - 1 midpoints those steps can reach.
DEPTH = 3

# Cap on the Newton steps of the root predictor (:func:`_predict`); on random
# fixes it stops after 3 to 9.
PREDICT_STEPS = 30

_NONPOSITIVE_DIAGONAL = "normal matrix has a nonpositive diagonal entry"


# A LAPACK gufunc fills the output of a matrix it cannot factor or solve with
# NaN and raises the invalid flag; this state keeps that quiet.  Each search
# driver holds it as a decorator, so the solves and classify calls inside
# do not enter it again (an np.errstate can be entered only once as a with).
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
    searched.  :meth:`classify` takes the stack, ``take(rows)`` a compact
    stack of some rows, and ``eq[i]`` is system i alone, with 2-D arrays,
    for the one-system methods.
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
        self.lin2 = 2.0 * self.lin  # the residual's 2h, formed once
        self.rhs0 = self.moment * self.scale

    def take(self, rows):
        """The systems at the index array ``rows`` as a stack, or at an int as one system."""
        sub = object.__new__(_Equilibrated)
        sub.__dict__ = {name: value[rows] for name, value in vars(self).items()}
        return sub

    def __getitem__(self, row):
        """System ``row`` alone; a GeometryError where it is not valid."""
        if not self.valid[row]:
            raise GeometryError(_NONPOSITIVE_DIAGONAL)
        return self.take(row)

    def solve_at(self, lam, check_definite):
        """Solution of the shifted system, or None when it is not PD or not solved.

        ``check_definite`` may be skipped for lam >= 0, where the shifted
        matrix is PD whenever the Gram matrix is.  A Cholesky or solve that
        LAPACK cannot complete comes back as NaN, read here as a failure;
        callers hold :data:`_lapack_errors`, so the invalid flag it raises is quiet.
        """
        shifted = self.gram + lam * self.quad
        diag = shifted.diagonal()
        if np.fmin.reduce(diag) <= 0.0:  # (diag <= 0.0).any(), cheaper
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

    def bound(self):
        """a = -min_{i<k} (R^T R)_ii, where a negative root's bracket starts (module docstring)."""
        position = self.constraint_quad.diagonal(axis1=-2, axis2=-1) > 0.0
        return -np.where(position, self.normal.diagonal(axis1=-2, axis2=-1), np.inf).min(axis=-1)

    def classify(self, lams):
        """:func:`_classify` at every multiplier of ``lams`` at once.

        A stack holds one system per multiplier; one system (2-D arrays)
        broadcasts over them all.  Returns (residual, z_hat, solved) arrays.
        Where the shifted matrix is not PD or its solve fails, ``solved`` is
        False, the residual is inf and the z_hat row is not a solution, so
        ``residual > 0`` is :func:`_classify`'s ``low``.  The arithmetic is
        that of :meth:`solve_at` matrix by matrix, so every bit matches;
        callers hold :data:`_lapack_errors`.
        """
        shifted = self.gram + lams[:, None, None] * self.quad
        s = 1.0 / np.sqrt(shifted.diagonal(axis1=1, axis2=2))
        scaled = shifted * (s[:, :, None] * s[:, None, :])
        rhs = (self.rhs0 - lams[:, None] * self.lin) * s
        z_hat = _umath_linalg.solve1(scaled, rhs, signature="dd->d") * s
        solved = ~np.isnan(z_hat[:, -1])
        # At lam >= 0 the diagonal is positive; below 0 a nonpositive entry
        # makes s NaN or inf, so the Cholesky fails as solve_at's check would.
        negative = lams < 0.0
        if negative.any():
            factor = _umath_linalg.cholesky_lo(scaled[negative], signature="d->d")
            solved[negative] &= factor.diagonal(axis1=1, axis2=2).min(axis=1) > 1e-6
        return np.where(solved, _quadratic(z_hat, self.quad, self.lin2), np.inf), z_hat, solved


# Guarded offset from the singular endpoint of the multiplier interval.
ENDPOINT_GUARD = 1e-12


def lambda_interval(system):
    """Search interval (lower, +inf) for the Lagrange multiplier.

    ``lower``, finite and negative, sits a guarded offset above -1/lam*,
    the point where the shifted normal matrix turns singular.  The solver
    does not use it: a negative root's bracket starts at -min_{i<k} (R^T R)_ii.
    """
    eq = _Equilibrated([system])[0]
    try:
        inv_sqrt = numerics.inv_sqrt_sym(eq.gram)
    except SingularMatrixError as exc:
        raise GeometryError(f"normal matrix is singular: {exc}") from exc
    lam_star = float(numerics.sym_eig(inv_sqrt @ eq.quad @ inv_sqrt)[0][-1])
    edge = -1.0 / lam_star
    guard = ENDPOINT_GUARD * (1.0 + abs(edge))
    if guard >= 0.5 * abs(edge):
        # Past lam* ~ 5e11 the guard would reach edge/2, and the root can
        # lie below that; stay just above the pole, past lam*'s rounding.
        guard = 1e-6 * abs(edge)
    return edge + guard, np.inf


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


def _no_convergence(a, b):
    message = f"bisection exceeded {MAX_ITER} iterations (bracket width {b - a:.3e})"
    return ConvergenceError(message, bracket=(a, b))


def _midpoints(a, b):
    """Midpoints of the next DEPTH bisection steps from the bracket (a, b).

    Node 0 is 0.5 * (a + b); node j's children are 2j + 1, the step after a
    low midpoint (a moves up to it), and 2j + 2, the step after a high one.
    """
    lows, highs, mids = [a], [b], []
    for j in range(2**DEPTH - 1):
        mid = 0.5 * (lows[j] + highs[j])
        mids.append(mid)
        lows += mid, lows[j]
        highs += highs[j], mid
    return mids


def _path(a, b, guess):
    """Midpoints the bisection from (a, b) visits if those below ``guess`` are low.

    It ends where the bracket would collapse, or after MAX_ITER midpoints.
    """
    mids = []
    while len(mids) < MAX_ITER:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        mids.append(mid)
        if mid < guess:
            a = mid
        else:
            b = mid
    return mids


def _predict(eq, a, b):
    """An estimate of the root in the bracket (a, b), from the secular equation.

    With G = L L^T and L^-1 H L^-T = U diag(mu) U^T for the scaled ``gram``
    and ``quad``, z = L^-T U y turns (G + lam*H) z = r - lam*h into
    y_i = (c_i - lam*e_i) / (1 + lam*mu_i), with c = U^T L^-1 r and
    e = U^T L^-1 h, so phi(lam) = sum mu_i*y_i^2 + 2*e_i*y_i.  H has rank k,
    so all but k of the mu are 0, and phi = n - l: n(lam) is the sum over
    the k others of g_i^2 / (mu_i * (1 + lam*mu_i)^2), g_i = mu_i*c_i + e_i,
    and l(lam) = alpha + beta*lam with beta >= 0.  Above the pole, phi is
    convex and decreasing; where l > 0 too, psi = 1/sqrt(n) - 1/sqrt(l) is
    concave and increasing, has phi's root, and is near linear by a pole
    (Moré & Sorensen 1983).  So a Newton step on phi or on psi, and l's own
    root, all land at or below the root, and each step takes the largest of
    them; a step that leaves the bracket it narrows halves it instead.
    Returns None where a factorization fails or a value is not finite.
    """
    factor = _umath_linalg.cholesky_lo(eq.gram, signature="d->d")
    inverse = _umath_linalg.inv(factor, signature="d->d")
    mu, u = _umath_linalg.eigh_lo((inverse * eq.quad.diagonal()) @ inverse.T, signature="d->dd")
    c, e = np.array([eq.rhs0, eq.lin]) @ inverse.T @ u
    free = len(mu) - eq.dimension  # the w - k smallest mu are rounding noise about 0
    mu, c0, e0, c, e = mu[free:], c[:free], e[:free], c[free:], e[free:]
    g2 = (mu * c + e) ** 2
    alpha, beta = float(e @ (e / mu) - 2.0 * e0 @ c0), 2.0 * float(e0 @ e0)
    g2mu, mu, g2 = (g2 / mu).tolist(), mu.tolist(), g2.tolist()
    if not (min(mu) > 0.0 and math.isfinite(alpha + beta + sum(g2mu) + sum(g2))):
        return None
    lam = a
    for _ in range(PREDICT_STEPS):
        d = [1.0 + lam * m for m in mu]
        if min(d) <= 0.0:  # below the pole, where the bisection's steps are low
            a, lam = lam, 0.5 * (lam + b)
            continue
        n = sum(h / (di * di) for h, di in zip(g2mu, d))
        dn = 2.0 * sum(h / (di * di * di) for h, di in zip(g2, d))  # -n'
        level = alpha + beta * lam
        f = n - level
        if not (math.isfinite(f) and dn + beta > 0.0):
            return None
        if f > 0.0:
            a = lam
        elif f < 0.0:
            b = lam
        new = lam + f / (dn + beta)
        if level > 0.0 and n > 0.0:
            root_n, root_l = math.sqrt(n), math.sqrt(level)
            slope = 0.5 * (dn / n / root_n + beta / level / root_l)
            if slope > 0.0:
                new = max(new, lam - (1.0 / root_n - 1.0 / root_l) / slope)
        elif beta > 0.0:
            new = max(new, -alpha / beta)
        if not math.isfinite(new):
            return None
        if abs(new - lam) <= 1e-12 * abs(new):
            return new
        lam = new if a < new < b else 0.5 * (a + b)
    return lam


@_lapack_errors
def _search(eq):
    """Root of the constraint residual of one system by classification bisection.

    Returns (multiplier, z_hat, iterations).  Once the root is bracketed,
    :func:`_predict` guesses it, and the first round classifies, in one
    stacked call, the midpoints :func:`_path` lays out for that guess, then
    takes those steps while each lands on the side the guess called.  From
    the first that does not, or the path's end, each round classifies the
    midpoints the next DEPTH steps can reach and takes them one by one along
    the tree.  So the steps, their order and every exit are those of a
    bisection that classifies one midpoint per step, whatever the guess: a
    poor one costs only time.  :func:`solve_many` takes the same steps over
    a stack of systems, which the tests pin against this bit for bit.
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
    else:  # Root is negative, so [bound, 0] brackets it (module docstring).
        a, b, fb, zb = float(eq.bound()), 0.0, f0, z0
    # phi decreases, so b, the last point that is not low, is the best so far.
    best = (b, abs(fb), zb)
    guess = _predict(eq, a, b)
    path = guess is not None  # the first round follows the guess's path
    iterations, node, mids, f = 0, 0, _path(a, b, guess) if path else [], None
    while b > a:
        if iterations >= MAX_ITER:
            raise _no_convergence(a, b)
        if node >= len(mids):  # a new tree round from the bracket (a, b)
            node, mids, f, path = 0, _midpoints(a, b), None, False
        mid = mids[node]
        if mid == a or mid == b:
            break  # bracket has collapsed to adjacent floats
        if f is None:  # classified only once a step needs it
            f, z_hat, _ = eq.classify(np.array(mids))
            f = f.tolist()
        fm = f[node]
        iterations += 1
        if abs(fm) < best[1]:  # fm is inf where the shifted matrix is not PD
            best = (mid, abs(fm), z_hat[node])
        if fm == 0.0:
            break
        low = fm > 0.0
        if low:
            a = mid
        else:
            b = mid
        if path:  # the next node while the guess called every side right
            node = node + 1 if low == (mid < guess) else len(mids)
        else:  # the low child 2j + 1 or the high child 2j + 2
            node = 2 * node + 2 - low
    return best[0], best[2], iterations


def _power_dbm(u, ple):
    """Power read-out 5*beta*log10(u), or None for a nonpositive ``u``."""
    return 5.0 * ple * np.log10(u) if u > 0.0 else None


def _norms(rows):
    """np.linalg.norm of each row, through the same dot product."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _quadratic(z, quad, lin2):
    """z @ quad @ z + lin2 @ z for each row of ``z``.

    It runs through the vector-matrix and vector-vector matmuls of the
    one-system expression, so every sum runs in its order (np.sum and
    einsum do not).
    """
    row, col = z[:, None, :], z[:, :, None]
    return ((row @ quad) @ col + lin2[..., None, :] @ col)[:, 0, 0]


def _stationarity(shifted, z, rhs):
    """||M z - rhs|| / (||M||_F ||z|| + ||rhs||) of each row, and where its norms are finite."""
    residual = _norms((shifted @ z[:, :, None])[:, :, 0] - rhs)
    scale = _norms(shifted.reshape(len(z), -1)) * _norms(z) + _norms(rhs)
    return np.where(scale > 0, residual / scale, residual), np.isfinite(residual + scale)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
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
    stationarity, finite = _stationarity(shifted, z, rhs)
    if not finite.all():  # norms that overflow: divide M and rhs by their largest entry
        over = ~finite
        top = np.maximum(abs(shifted[over]).max(axis=(1, 2)), abs(rhs[over]).max(axis=1))
        stationarity[over] = _stationarity(
            shifted[over] / top[:, None, None], z[over], rhs[over] / top[:, None])[0]
    constraint = _quadratic(z, quad, 2.0 * lin)
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


@_lapack_errors
def solve_many(systems):
    """:func:`solve` applied to every system, with bit-identical results.

    Every system must have the same design width, as the trials of one
    sweep do.  One :class:`_Equilibrated` holds them all, and the stages
    of :func:`_search` run over it in order, as array state with one row
    per system: every row is classified at 0, the rows with a negative
    residual take the bracket [bound, 0], those with a positive one expand
    upward together, and every bracketed row then bisects in one stack, one
    step per round.  Each round of a stacked stage classifies a compact
    stack of its unfinished rows in one :meth:`_Equilibrated.classify` call: the
    upward rounds take their rows anew, the bisection only after a round in
    which a row finished.  The finished searches are finalized in one
    stacked pass.  Returns one entry per system, in order: its Estimate, or
    the UwlocError instance that :func:`solve` would have raised for it alone.
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
    f, z_hat, solved = eq.take(rows).classify(np.zeros(rows.size))
    keep(rows, 0.0, f, z_hat)
    fail(rows[~solved], lambda r: GeometryError("normal matrix is not positive definite"))
    # A negative root's bracket is [bound, 0], with 0 as its best point so far.
    down = rows[solved & ~(f >= 0.0)]
    a[down] = eq.bound()[down]
    bracketed = [down]

    # Upward: double b until the residual turns negative, which it does (module
    # docstring), or its solve fails.  Each row keeps its last b as its best.
    width = eq.gram.shape[1]
    rows = rows[solved & (f > 0.0)]
    b[rows] = _norms(eq.gram[rows].reshape(rows.size, width * width))
    while rows.size:
        f, z_hat, solved = eq.take(rows).classify(b[rows])
        fail(rows[~solved], lambda r: _unsolved(float(b[r])))
        low = f > 0.0
        keep(rows[~low], b[rows[~low]], f[~low], z_hat[~low])
        bracketed.append(rows[~low])
        rows = rows[low & solved]
        a[rows], b[rows] = b[rows], 2.0 * b[rows]

    # Bisection: keep the best, stop on a zero residual, else halve.  The live
    # rows' brackets and best points are compact arrays, written back as rows finish.
    rows = np.concatenate(bracketed)
    lower, upper, lam, least, z = a[rows], b[rows], best_lam[rows], best_abs[rows], best_z[rows]
    live, zero, count = None, np.zeros(rows.size, dtype=bool), 0
    while True:
        mid = 0.5 * (lower + upper)
        go = (upper > lower) & ~zero
        if count >= MAX_ITER:
            for row, lo, hi in zip(rows[go].tolist(), lower[go].tolist(), upper[go].tolist()):
                errors[row] = _no_convergence(lo, hi)
            go[:] = False
        go &= (mid != lower) & (mid != upper)
        if live is None or not go.all():  # collapsed brackets and zero residuals end here
            done = rows[~go]
            iterations[done], best_lam[done], best_z[done] = count, lam[~go], z[~go]
            rows, lower, upper, mid, lam, least, z = (
                x[go] for x in (rows, lower, upper, mid, lam, least, z))
            if not rows.size:
                break
            live = eq.take(rows)
        f, z_hat, _ = live.classify(mid)
        count += 1
        better = np.abs(f) < least  # f is inf where not solved
        lam, least = np.where(better, mid, lam), np.where(better, np.abs(f), least)
        z = np.where(better[:, None], z_hat, z)
        low, zero = f > 0.0, f == 0.0
        lower, upper = np.where(low, mid, lower), np.where(low, upper, mid)

    done = [row for row in range(n) if row not in errors]
    results = dict(errors)
    if done:
        rows = np.array(done)
        results.update(zip(done, _finalize(eq, rows, best_lam, best_z, iterations)))
    return [results[row] for row in range(n)]
