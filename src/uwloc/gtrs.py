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

The bisection needs no step cap.  Each step moves an end of (a, b) to
0.5*(a + b), halving b - a up to rounding, and it stops once that midpoint
equals an end.  Doubles are at least 2^-1074 apart, so a search from a
finite bracket ends within about log2(b - a) + 1075 steps, under 2100.

Numerical notes: the normal matrix mixes meter, meter^2, and dimensionless
columns, so all internal solves run on a Jacobi-equilibrated copy (a pure
reparameterization: the multiplier, the constraint residual, and the
returned z are unchanged).  Below the interval's pole the shifted matrix is
indefinite, which a Cholesky failure detects; such points are treated as
lying below the root, so the search never needs an estimate of lam*.
One kernel, :meth:`_Equilibrated.classify`, decides every multiplier that
either search driver tries: the opening call at 0 and ||G||_F, each
upward doubling and each bisection step.  A single fix's search guesses
the root from the secular equation of the scaled pencil and classifies
the bisection's likely path, less its far steps, in one call; each step is
still decided by the shifted solve or skipped as below, so the secular
function sets only the speed, never the multiplier, z or the step count.
A sweep's systems stay arrays from build to solution (a _Stack, solved into a
_Solved of what its records read); GtrsSystem and Estimate objects, and their KKT
diagnostics (:func:`_kkt`), are made only by :func:`solve` and :func:`solve_many`.
The search never reads beta: :func:`_estimates` and a sweep's records read
the power 5*beta*log10(u) out of z with the beta the system was built with.

Both drivers skip far steps, and their bits rest on one assumption: a class is
monotone in lam farther than the margin from the root.  Each bracket with a
guess g (Moré & Sorensen 1983's Newton) moves (a, b) along its path's leading
steps more than the margin 1e-6*|g| from g, and one classify call checks the
two ends they reach: a sweep's check round, or a single fix's path call, which
holds them before its near steps.  Where a reads low and b high, the root lies
between them, so each skipped midpoint had the class its side of g gave it; phi
decreases, so each end has the least |phi| of the skipped midpoints on its
side, and the best-point rule on the two ends, in the order the steps reached
them, keeps the stepwise best.  Any other bracket bisects from where it opened,
a single fix after one more call.  LU's forward error sizes the margin
(Higham 2002, ch. 9): phi is read at a solution with relative error about
kappa*w*u, so its sign can flip only about that near the root, and kappa <=
w/floor of the unit-diagonal Gram matrix, under 3e-8 relative at a floor of
1e-7; below that the margin widens by 1e-7/f, f = 1/||L^-1||_F^2 <= floor
(under 1000*w times, by the rank gate).  On 6000 bundled sweep rows a class
disagreed with its side only within 5.6e-8 relative of the root.  From (0, b)
a midpoint is 0.5*(0 + x) = x/2, exact in the normal range, so the leading
steps above g + margin reach b*2^-j (from (a, 0), those below g - margin reach
a*2^-j), and the advance jumps all but the last of them with one ldexp.  In
the bisection a row whose bracket collapsed rides along in the compact stack,
its midpoint (an end, which the stepwise search never classifies again) kept
out of the best-point rule, until a quarter of the stack has finished: taking
the arrays anew costs more than classifying a few finished rows.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import numerics
from .channel import LN10
from .errors import ConfigError, GeometryError
from .errors import NumericalError, SingularMatrixError, UwlocError

# Column-rank tolerance on the column-normalized design matrix.  The raw
# design mixes units spanning ~12 orders of magnitude at kilometer scales,
# so rank is only meaningful after normalization.
RANK_TOL = 1e-10

# Bisection steps one round of the one-system search evaluates ahead: one
# stacked classify of the 2**DEPTH - 1 midpoints those steps can reach.
DEPTH = 3

# Cap on the Newton steps of the root predictor (:func:`_predict`); on random
# fixes it stops after 3 to 9.
PREDICT_STEPS = 30

# A search skips the bisection steps more than SKIP_MARGIN*|guess| from its
# predicted root, the margin widened below a Gram floor of SKIP_FLOOR (module
# docstring); at most SCALAR_FINISH unconverged guesses finish in Python floats.
SKIP_MARGIN, SKIP_FLOOR, SCALAR_FINISH = 1e-6, 1e-7, 8

_NONPOSITIVE_DIAGONAL = "normal matrix has a nonpositive diagonal entry"
_TINY = np.finfo(float).tiny  # the smallest normal double


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

    @functools.cached_property
    def moment(self):
        """R^T v; :func:`_build` stores its stacked product's row here, as for :attr:`normal`."""
        return self.design.T @ self.target


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


# Systems stacked one per row, as a sweep keeps them from build to solve: R^T R,
# R^T v, k and the UwlocError that drops the row, or None.  A _build's own stack
# keeps one k for all its rows, its design and target, and the ple of :func:`_only`.
_Stack = namedtuple("_Stack", "normal moment dimension errors design target ple",
                    defaults=(None, None, None))
# A _Stack's solutions: the Estimate fields a sweep reads, as arrays, and the errors.  The
# position is z[:k] and the power 5*ple*log10(z[-1]) where power_valid; a dropped row's z is 0.
_Solved = namedtuple("_Solved", "multiplier z iterations power_valid errors")


def _gram_floor(normal):
    """Smallest eigenvalue of each ``normal`` scaled to a unit diagonal, as _Equilibrated.gram.

    NaN where LAPACK fails, which the rank gate reads as rank deficient;
    callers hold an errstate that keeps the gufunc quiet.
    """
    s = 1.0 / np.sqrt(normal.diagonal(axis1=-2, axis2=-1))
    scaled = normal * (s[..., :, None] * s[..., None, :])
    return _umath_linalg.eigvalsh_lo(scaled, signature="d->d").min(axis=-1)


def _rank_loss_cause(design, normal, k, q2):
    """Why a design failed the rank gate, for the GeometryError message.

    Columns k and k + 1 of a joint design are q^2 and the constant; a
    known-power design has no constant column, so its slice from k on is
    one column and never singular.
    """
    if not _gram_floor(normal[k:, k:]) > RANK_TOL:
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


def _check_rank(design, normal, k, q2):
    """Raise what dropped a row that failed :func:`_build`'s quick gate, if anything."""
    diag = normal.diagonal()
    # A nonzero column whose N_ii leaves the Jacobi scale 1/sqrt(N_ii N_jj) infinite underflowed.
    if (~np.isfinite((1.0 / np.sqrt(diag)) ** 2) & design.any(axis=0)).any():
        raise NumericalError(
            "the weighted system underflows: readings or anchor coordinates are too small"
        )
    if (diag == 0.0).any():
        raise GeometryError(
            "design matrix has a zero column; add anchors or spread them out"
        )
    smallest = _gram_floor(normal)
    if not smallest > RANK_TOL:  # NaN where LAPACK failed, for no cause it names
        failed = smallest != smallest
        cause = "its eigen-solve failed" if failed else _rank_loss_cause(design, normal, k, q2)
        raise GeometryError(  # an exactly singular Gram matrix can read -1e-17
            "design matrix is rank deficient (normalized Gram eigenvalue"
            f" {max(smallest, 0.0):.2e}): {cause}"
        )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # NumericalErrors below
def _build(measurements, weights, anchors_m, env, estimates_power):
    """The joint (k + 2 columns) or known-power (k + 1) system of each fix.

    ``measurements`` and ``weights`` hold one fix or a stack at the same
    anchors, and each row gets a one-row build's bits.  A check on what the
    rows share raises; the _Stack returned holds every row, with
    the UwlocError (overflow, underflow, rank gate) that drops one in ``errors``.
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
    moment = (np.swapaxes(design, 1, 2) @ target[:, :, None])[:, :, 0]
    # Normal-double N_ii keep the Jacobi scale finite; _check_rank sorts out the other rows.
    passed = finite & (normal.diagonal(axis1=1, axis2=2) >= _TINY).all(axis=1)
    rows = slice(None) if passed.all() else passed  # no copy in the usual case
    passed[rows] = _gram_floor(normal[rows]) > RANK_TOL
    errors = [None] * len(design)
    for row in (~passed).nonzero()[0].tolist():
        try:
            if not finite[row]:
                raise NumericalError(
                    "the weighted system overflows: readings or anchor coordinates are too large"
                )
            _check_rank(design[row], normal[row], k, q2[row])
        except UwlocError as exc:
            errors[row] = exc
    return _Stack(normal, moment, k, errors, design, target, beta)


def _only(stack):
    """The system of a one-row :func:`_build`; raises the error that dropped it."""
    fixes = len(stack.errors)
    if fixes != 1:
        raise ConfigError(f"measurements stack {fixes} fixes; this function takes one fix")
    if stack.errors[0] is not None:
        raise stack.errors[0]
    system = GtrsSystem(stack.design[0], stack.target[0], stack.dimension, stack.ple)
    vars(system).update(normal=stack.normal[0], moment=stack.moment[0])  # the stacked products
    return system


def _stack(systems):
    """GtrsSystems as one _Stack, in order, none dropped, with a k per row."""
    return _Stack(np.array([s.normal for s in systems]), np.array([s.moment for s in systems]),
                  np.array([s.dimension for s in systems]), [None] * len(systems))


def _join(stacks):
    """The rows of equal-width ``stacks`` as one _Stack, in order, with a k per row."""
    per_row = [(s.normal, s.moment, np.broadcast_to(s.dimension, len(s.errors))) for s in stacks]
    return _Stack(*map(np.concatenate, zip(*per_row)), [e for s in stacks for e in s.errors])


def _dropped(error, rows, k, estimates_power):
    """A _Stack of ``rows`` k-dimensional fixes, each dropped by ``error``."""
    width = k + 2 if estimates_power else k + 1
    nan = np.full((rows, width, width), np.nan)
    return _Stack(nan, nan[:, 0], k, [error] * rows)


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
def _liftings(width):
    """H = diag(I_k, 0) and h = -e_k/2 of a ``width``-column system, stacked by k."""
    column, k = np.arange(width), np.arange(width)[:, None]
    return np.eye(width) * (column < k)[:, None, :], np.where(column == k, -0.5, 0.0)


class _Equilibrated:
    """Jacobi-scaled normal equations of a stack of equal-width systems.

    Row i of every array belongs to system i: ``normal`` and ``moment``
    are its unscaled R^T R and R^T v, ``constraint_quad`` and
    ``constraint_lin`` its unscaled H = diag(I_k, 0) and h = -e_k/2,
    derived from its ``dimension`` k and the width, and ``gram``, ``quad``,
    ``lin`` and ``rhs0`` their scaled copies.  It takes GtrsSystems, or a
    _Stack with a k per row (:func:`_join`, :func:`_stack`).  ``valid`` is
    False where the normal matrix has a nonpositive diagonal entry; such a
    row has no scaling and is never searched.  :meth:`classify` takes the
    stack, ``take(rows)`` a compact stack of some rows, ``kernel(rows)`` one
    with only the arrays classify reads, and ``eq[i]`` is system i alone.
    """

    @np.errstate(divide="ignore", invalid="ignore")  # rows that are not valid get inf or NaN
    def __init__(self, systems):
        stack = systems if isinstance(systems, _Stack) else _stack(systems)
        self.normal, self.moment, self.dimension = stack[:3]
        quads, lins = _liftings(self.normal.shape[-1])
        self.constraint_quad = quads.take(self.dimension, axis=0)
        self.constraint_lin = lins.take(self.dimension, axis=0)
        diag = self.normal.diagonal(axis1=1, axis2=2)
        self.valid = ~(diag <= 0.0).any(axis=1)
        self.scale = 1.0 / np.sqrt(diag)
        outer = self.scale[:, :, None] * self.scale[:, None, :]
        self.gram = self.normal * outer
        self.quad = self.constraint_quad * outer
        self.lin = self.constraint_lin * self.scale
        self.lin2 = 2.0 * self.lin  # the residual's 2h, formed once
        self.rhs0 = self.moment * self.scale

    @functools.cached_property
    def inverse(self):
        """L^-1 of each G = L L^T, G the scaled ``gram`` (NaN where not PD), formed once."""
        return _umath_linalg.inv(_umath_linalg.cholesky_lo(self.gram, signature="d->d"),
                                 signature="d->d")

    def take(self, rows, names=None):
        """The systems at the index array ``rows`` as a stack, or at an int as one
        system; with ``names``, only those arrays are copied."""
        sub, arrays = object.__new__(_Equilibrated), vars(self)
        sub.__dict__ = {name: arrays[name][rows] for name in names or arrays}
        return sub

    def kernel(self, rows):
        """``take(rows)`` of only the arrays :meth:`classify` reads."""
        return self.take(rows, ("gram", "quad", "lin", "lin2", "rhs0"))

    def __getitem__(self, row):
        """System ``row`` alone; a GeometryError where it is not valid."""
        if not self.valid[row]:
            raise GeometryError(_NONPOSITIVE_DIAGONAL)
        return self.take(row)

    def bound(self):
        """a = -min_{i<k} (R^T R)_ii, where a negative root's bracket starts (module docstring)."""
        position = self.constraint_quad.diagonal(axis1=-2, axis2=-1) > 0.0
        return -np.where(position, self.normal.diagonal(axis1=-2, axis2=-1), np.inf).min(axis=-1)

    def gram_norm(self):
        """||G||_F of each system, where a positive root's upward search starts."""
        return _norms(self.gram.reshape(-1, self.gram.shape[-1] ** 2))

    def shifted_solve(self, lams):
        """(z_hat, scaled): the shifted system's solution at every multiplier of
        ``lams`` and the unit-diagonal matrix solved for it, with no check.

        A stack holds one system per multiplier; one system (2-D arrays)
        broadcasts over them all.  A nonpositive diagonal entry makes the
        scaling NaN or inf, and LAPACK fills the solution of a matrix it
        cannot solve with NaN; callers hold :data:`_lapack_errors`.
        """
        shifted = self.gram + lams[:, None, None] * self.quad
        s = 1.0 / np.sqrt(shifted.diagonal(axis1=1, axis2=2))
        scaled = shifted * (s[:, :, None] * s[:, None, :])
        rhs = (self.rhs0 - lams[:, None] * self.lin) * s
        return _umath_linalg.solve1(scaled, rhs, signature="dd->d") * s, scaled

    def classify(self, lams):
        """Which side of the root each multiplier of ``lams`` lies on: the one
        rule of both search drivers.

        Returns (residual, z_hat, solved) arrays.  Where the shifted matrix
        is not PD or its solve fails, ``solved`` is False, the residual is
        inf and the z_hat row is not a solution, so ``residual > 0`` says
        the multiplier is low: below the pole or below the root.  Above 0
        the shifted matrix is PD whenever the Gram matrix is; below 0 a
        Cholesky pivot under 1e-6 (NaN where it fails) makes a multiplier low.
        """
        z_hat, scaled = self.shifted_solve(lams)
        solved = ~np.isnan(z_hat[:, -1])
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
    optimal multiplier.  Unlike :meth:`_Equilibrated.classify` it checks
    no Cholesky pivot, so it is defined wherever the shifted solve is finite,
    just above the pole included.
    """
    eq = _Equilibrated([system])[0]
    z_hat = eq.shifted_solve(np.array([float(lam)]))[0]
    if not np.isfinite(z_hat).all():
        raise _unsolved(lam)
    return float(_quadratic(z_hat, eq.quad, eq.lin2)[0])


def _unsolved(lam):
    return NumericalError(f"shifted system could not be solved at multiplier {lam}", multiplier=lam)


def _midpoints(a, b):
    """Midpoints the next DEPTH bisection steps from the bracket (a, b) can reach.

    Entry 0 is 0.5 * (a + b); entry j is followed by 2j + 1 after a low
    midpoint (a moves up to it) and by 2j + 2 after a high one.
    """
    lows, highs, mids = [a], [b], []
    for j in range(2**DEPTH - 1):
        mid = 0.5 * (lows[j] + highs[j])
        mids.append(mid)
        lows += mid, lows[j]
        highs += highs[j], mid
    return mids


def _path(a, b, guess):
    """Midpoints the bisection from (a, b) visits if those below ``guess`` are low,
    up to where its bracket would collapse (under 2100; module docstring).
    """
    mids = []
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        mids.append(mid)
        if mid < guess:
            a = mid
        else:
            b = mid
    return mids


def _skip_path(eq, a, b):
    """(guess, mids, far, last_low) of the bracket (a, b) of one system ``eq``: the guess of
    :func:`_predict`, its path call and the count of :func:`_path`'s leading steps more than
    the margin from the guess (module docstring).  The call skips those: it holds the ends
    they reach, then the rest of the path.  ``last_low`` says the last of them moved a."""
    guess = _predict(eq, a, b)
    if guess is None:
        return None, [], 0, False
    path = _path(a, b, guess)
    margin = SKIP_MARGIN * abs(guess) * max(1.0, SKIP_FLOOR * float((eq.inverse**2).sum()))
    far = next((i for i, mid in enumerate(path) if not abs(mid - guess) > margin), len(path))
    for mid in path[:far]:
        a, b = (mid, b) if mid < guess else (a, mid)
    return guess, [a, b, *path[far:]] if far else path, far, far > 0 and path[far - 1] < guess


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
    Returns None where a factorization fails or a value is not finite, or
    where the steps end against an end of (a, b) that no step crossed: the
    root may lie past it.  Where a term overflows unscaled (mu near 1e303 at
    readings 1480 dB down), the one-row :func:`_guesses` in t = s*lam predicts.
    """
    inverse = eq.inverse
    mu, u = _umath_linalg.eigh_lo((inverse * eq.quad.diagonal()) @ inverse.T, signature="d->dd")
    c, e = np.array([eq.rhs0, eq.lin]) @ inverse.T @ u
    free = len(mu) - eq.dimension  # the w - k smallest mu are rounding noise about 0
    mu, c0, e0, c, e = mu[free:], c[:free], e[:free], c[free:], e[free:]
    g2 = (mu * c + e) ** 2
    alpha, beta = float(e @ (e / mu) - 2.0 * e0 @ c0), 2.0 * float(e0 @ e0)
    g2mu, mu, g2 = (g2 / mu).tolist(), mu.tolist(), g2.tolist()
    if not math.isfinite(alpha + beta + sum(g2mu) + sum(g2)):
        guess = _guesses(eq.kernel(np.newaxis), eq.dimension, np.array([a]), np.array([b]))[0][0]
        return None if math.isnan(guess) else float(guess)
    if not min(mu) > 0.0:
        return None
    return _newton(list(zip(mu, g2mu, g2)), alpha, beta, (a, b), (a, a, b))


def _newton(terms, alpha, beta, ends, at, steps=PREDICT_STEPS):
    """:func:`_predict`'s safeguarded Newton on the bracket ``ends``, from ``at``, the
    step lam in (a, b) with ``steps`` steps left: the guess or None."""
    lam, a, b = at
    for _ in range(steps):
        n = dn = 0.0  # n and -n'/2, each summed in order
        for m, h, h2 in terms:
            d = 1.0 + lam * m
            if d <= 0.0:
                break
            n += h / (d * d)
            dn += h2 / (d * d * d)
        if d <= 0.0:  # below the pole, where the bisection's steps are low
            a, lam = lam, 0.5 * (lam + b)
            continue
        dn *= 2.0  # -n'
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
        if not a < b:  # collapsed, so each further step lands here again
            break
    # b is the lowest step above the root: none if at the top end, the first at the bottom.
    return lam if ends[0] < b < ends[1] else None


def _guesses(eq, k, a, b):
    """:func:`_predict` of each row of the stack ``eq`` of one ``k`` on its bracket (a, b),
    NaN where it has none, and 1/||L^-1||_F^2, at most the row's Gram floor.  It runs
    in t = s*lam, s the largest of the row's k nonzero mu, where no term overflows.
    The steps run over arrays while more than SCALAR_FINISH rows take plain ones (no
    pole, finite values, inside the narrowed bracket); :func:`_newton` finishes the rest."""
    inverse, inverse_t = eq.inverse, eq.inverse.transpose(0, 2, 1)
    pencil = (inverse * eq.quad.diagonal(axis1=1, axis2=2)[:, None]) @ inverse_t
    mu, u = _umath_linalg.eigh_lo(pencil, signature="d->dd")
    c, e = (np.stack([eq.rhs0, eq.lin], axis=1) @ inverse_t @ u).transpose(1, 0, 2)
    free = mu.shape[1] - k
    mu, c0, e0, c, e = mu[:, free:], c[:, :free], e[:, :free], c[:, free:], e[:, free:]
    s, root = mu.max(axis=1), np.sqrt(mu)
    e_mu, e0_s = e / root, e0 / np.sqrt(s)[:, None]  # so that no square overflows
    h, nu = (root * c + e_mu) ** 2, mu / s[:, None]
    h_nu, floor = h * nu, 1.0 / (inverse * inverse).sum(axis=(1, 2))
    alpha, beta = (e_mu * e_mu).sum(1) - 2.0 * (e0 * c0).sum(1), 2.0 * (e0_s * e0_s).sum(1)
    usable = (mu.min(axis=1) > 0.0) & np.isfinite(alpha + beta + h.sum(1) + s)
    ends, live, h_nu2 = (a * s, b * s), usable.copy(), 2.0 * h_nu
    lam, (lo, hi) = ends[0], ends
    guess, left = np.full(len(a), np.nan), np.full(len(a), PREDICT_STEPS)
    l_root = np.where(beta > 0.0, -alpha / beta, -np.inf)
    while np.count_nonzero(live) > SCALAR_FINISH:
        d = 1.0 + lam[:, None] * nu
        d2 = d * d
        n, dn = (h / d2).sum(axis=1), (h_nu2 / (d2 * d)).sum(axis=1)
        level = alpha + beta * lam
        f, slope_f = n - level, dn + beta
        root_n, root_l = np.sqrt(n), np.sqrt(level)
        slope = 0.5 * (dn / n / root_n + beta / level / root_l)
        psi = (level > 0.0) & (n > 0.0)
        new = np.where(psi & (slope > 0.0), lam - (1.0 / root_n - 1.0 / root_l) / slope, -np.inf)
        new = np.fmax(lam + f / slope_f, np.where(psi, new, l_root))
        # No pole: nu peaks at exactly 1, so every d > 0 where lam > -1.
        plain = live & (lam > -1.0) & np.isfinite(f + new) & (slope_f > 0.0)
        done = plain & (np.abs(new - lam) <= 1e-12 * np.abs(new))
        np.copyto(guess, new, where=done)
        low, high = np.where(f > 0.0, lam, lo), np.where(f < 0.0, lam, hi)
        step = plain & ~done & (low < new) & (new < high)
        lam, lo, hi = np.where(step, new, lam), np.where(step, low, lo), np.where(step, high, hi)
        left, live = left - step, step & (left > 1)
    state = np.stack([*ends, lam, lo, hi, alpha, beta])
    for row in (usable & np.isnan(guess)).nonzero()[0].tolist():
        start, end, *at, row_alpha, row_beta = state[:, row].tolist()
        terms = list(zip(nu[row].tolist(), h[row].tolist(), h_nu[row].tolist()))
        found = _newton(terms, row_alpha, row_beta, (start, end), at, int(left[row]))
        guess[row] = np.nan if found is None else found
    return guess / s, floor


def _far_steps(a, b, guess, margin):
    """:func:`_path`'s steps from each bracket (a, b) toward ``guess``, in lockstep, up to the
    first whose midpoint lies within ``margin`` of it: the brackets they reach, their
    counts and whether the last of them moved a.  From (0, b), the leading steps whose
    midpoints lie above guess + margin are exact halvings of b, as from (a, 0) those below
    guess - margin are of a; one ldexp jumps all but the last of them (module docstring)."""
    top = a == 0.0  # b halves from (0, b), a from (a, 0); no other bracket jumps
    end = np.where(top, b, np.where(b == 0.0, -a, 0.0))
    edge = np.where(top, guess + margin, margin - guess)
    with np.errstate(all="ignore"):  # NaN or -inf where there is no edge
        steps = np.log2(end / edge) // 1.0 - 1.0
    steps = np.where((edge > 1e-290) & (steps > 0.0), steps, 0.0).astype(int)
    a, b = np.ldexp(a, -steps), np.ldexp(b, -steps)
    far, last_low = np.ones(len(a), dtype=bool), (steps > 0) & (b == 0.0)
    while True:
        mid = 0.5 * (a + b)
        far &= (np.abs(mid - guess) > margin) & (mid != a) & (mid != b)
        if not far.any():
            return a, b, steps, last_low
        low = mid < guess
        steps += far
        np.copyto(last_low, low, where=far)
        np.copyto(a, mid, where=far & low)
        np.copyto(b, mid, where=far & ~low)


@_lapack_errors
def _search(eq):
    """Root of the constraint residual of one system by classification bisection.

    Returns (multiplier, z_hat, iterations).  Each step looks its midpoint
    up by value in the memo of the current round: the multipliers that one
    classify call classified.  The opening call holds 0, ||G||_F and the path
    call of (0, ||G||_F) (:func:`_skip_path`); a negative root's bracket
    [bound, 0] and an upward one (one call per further probe) take a path
    call of their own.  Where the far steps' ends read low and high, the
    search moves there and counts them; else it classifies the whole path
    from its bracket in one more call (module docstring).  Later rounds, and
    the first where there is no guess, classify the midpoints the next DEPTH
    steps can reach (:func:`_midpoints`).  A class depends on the multiplier
    alone, so the steps and exits are those of a bisection that classifies
    one midpoint per step, whatever the guess.  :func:`solve_many` takes the
    same steps over a stack, pinned bit for bit.
    """
    b = float(eq.gram_norm()[0])
    guess, path, far, last_low = _skip_path(eq, 0.0, b)
    mids = [0.0, b, *path]
    f, z_hat, solved = eq.classify(np.array(mids))
    if not solved[0]:
        raise GeometryError("normal matrix is not positive definite")
    f, row = f.tolist(), 1
    f0, fb = f[:2]
    if f0 == 0.0:
        return 0.0, z_hat[0], 0
    a, at = 0.0, 2  # the far ends, where the path call holds them, are mids[at:at + 2]
    if not f0 > 0.0:  # Root is negative, so [bound, 0] brackets it (module docstring).
        a, b, fb, row, mids = float(eq.bound()), 0.0, f0, 0, []
    elif fb > 0.0:  # Root is above b: double b until phi(b) < 0, as it must (module docstring).
        while fb > 0.0:  # inf where the solve failed
            if not solved[row]:  # above 0 only a failed solve, which b = inf always gives
                raise _unsolved(b)
            a, b = b, 2.0 * b
            f, z_hat, solved = eq.classify(np.array([b]))
            (fb,), row = f.tolist(), 0
        mids = []
    # phi decreases, so b, the last point that is not low, is the best so far; z_hat is rows[row].
    best, least, rows = b, abs(fb), z_hat
    if not mids:  # a bracket other than the opening's: its own guess and path call
        guess, mids, far, last_low = _skip_path(eq, a, b)
        if mids:
            f, z_hat, _ = eq.classify(np.array(mids))
            f, at = f.tolist(), 0
    node, iterations = 0, 0
    if far and f[at] > 0.0 and f[at + 1] < 0.0:  # a reads low and b high: the skip holds
        for i in (at + last_low, at + 1 - last_low):  # the end the last step moved comes last
            if mids[i] != (a, b)[i - at] and -least < f[i] < least:
                best, least, rows, row = mids[i], abs(f[i]), z_hat, i
        a, b, iterations = *mids[at : at + 2], far
    elif far:  # the check failed: the first round classifies the whole path from (a, b)
        mids = []
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break  # bracket has collapsed to adjacent floats
        try:  # the round's entries before node lie outside (a, b), so mid is not among them
            node = mids.index(mid, node)
        except ValueError:  # a new round from the bracket (a, b), whose entry 0 is mid
            mids = _path(a, b, guess) if guess is not None and not mids else _midpoints(a, b)
            f, z_hat, _ = eq.classify(np.array(mids))
            f, node = f.tolist(), 0
        fm = f[node]
        iterations += 1
        if -least < fm < least:  # |fm| < least; fm is inf where the shifted matrix is not PD
            best, least, rows, row = mid, abs(fm), z_hat, node
        if fm == 0.0:
            break
        if fm > 0.0:
            a = mid
        else:
            b = mid
    return best, rows[row], iterations


def _power_dbm(u, ple):
    """Power read-out 5*beta*log10(u) of each ``u`` > 0, with its scalar read-out's bits."""
    return 5.0 * ple * np.log10(u)


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
    scale = _norms(shifted.reshape(len(z), z.shape[1] ** 2)) * _norms(z) + _norms(rhs)
    return np.where(scale > 0, residual / scale, residual), np.isfinite(residual + scale)


def _finalize(eq, lam, z_hat, iterations, errors):
    """The _Solved stack of the finished searches of ``eq``, one entry per row in each
    argument; a row that ``errors`` drops gets z = 0, so no power."""
    z = z_hat * eq.scale
    z[[error is not None for error in errors]] = 0.0
    valid = (z[:, -1] > 0.0) & (eq.dimension == z.shape[-1] - 2)  # u > 0, in a joint system
    return _Solved(lam, z, iterations, valid, errors)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _kkt(normal, moment, dimension, lam, z):
    """Estimate diagnostics (stationarity, constraint, min_eig_ratio) of the solutions
    ``lam``, ``z`` of R^T R ``normal``, R^T v ``moment`` and k ``dimension``, per row, in one
    stacked pass that gives each matrix its own arithmetic.  No sweep calls it."""
    quad, lin = (lift.take(dimension, axis=0) for lift in _liftings(normal.shape[-1]))
    rhs = moment - lam[:, None] * lin
    shifted = normal + lam[:, None, None] * quad
    stationarity, finite = _stationarity(shifted, z, rhs)
    if not finite.all():  # norms that overflow: divide M and rhs by their largest entry
        over = ~finite
        top = np.maximum(abs(shifted[over]).max(axis=(1, 2)), abs(rhs[over]).max(axis=1))
        stationarity[over] = _stationarity(
            shifted[over] / top[:, None, None], z[over], rhs[over] / top[:, None])[0]
    min_eig = _umath_linalg.eigvalsh_lo(shifted, signature="d->d").min(axis=1)
    return (stationarity, _quadratic(z, quad, 2.0 * lin),
            min_eig / _umath_linalg.svd(normal, signature="d->d").max(axis=1))


def _estimates(solved, stack, systems):
    """Per row of the _Solved stack of ``stack`` (a _Stack or _Equilibrated) and ``systems``,
    its Estimate with its system's ple and :func:`_kkt`, or the UwlocError that dropped it."""
    kkt = _kkt(stack.normal, stack.moment, stack.dimension, solved.multiplier, solved.z)
    rows = zip(systems, solved.errors, solved.z, solved.power_valid.tolist(),
               solved.multiplier.tolist(), solved.iterations.tolist(), *map(np.ndarray.tolist, kkt))
    return [error or Estimate(z, z[: s.dimension].copy(),
                              _power_dbm(z[-1], s.ple) if valid else None, valid, lam, steps, *kkt)
            for s, error, z, valid, lam, steps, *kkt in rows]


def solve(system):
    """Solve a GTRS by bisection on the multiplier.

    Serves both system kinds: the joint position/power system of
    :func:`build_system` and the smaller known-power system of
    :func:`build_known_power_system`, whose estimate carries no power.
    The bisection runs, with no step cap, until the bracket collapses to
    adjacent floating-point numbers or the residual is exactly zero,
    keeping the multiplier with the smallest constraint residual seen.
    """
    eq = _Equilibrated([system])
    lam, z_hat, iterations = _search(eq[0])
    solved = _finalize(eq, np.array([lam]), z_hat[None], np.array([iterations]), [None])
    return _estimates(solved, eq, [system])[0]


# The known-power system needs no solver of its own; the name stays public.
solve_known_power = solve


def solve_many(systems):
    """:func:`solve` of every system, bit for bit, by one :func:`_solve_stack`: in
    order, its Estimate or the UwlocError solve raises.  Mixed design widths
    are a ValueError."""
    if not systems:
        return []
    widths = sorted({system.design.shape[1] for system in systems})
    if len(widths) > 1:
        raise ValueError(f"solve_many takes systems of one design width, got widths {widths}")
    stack = _stack(systems)
    return _estimates(_solve_stack(stack), stack, systems)


def _skip_far_steps(eq, rows, lower, upper, lam, least, z):
    """Predict, advance, check (module docstring): the steps each stack row of ``rows``
    skipped, 0 where it bisects from (lower, upper); a row that skips has its bracket
    and best point (lam, least, z) updated in place."""
    skipped = np.zeros(len(rows), dtype=int)
    if not rows.size:
        return skipped
    k = eq.dimension[rows[0]]
    at = np.flatnonzero(eq.dimension[rows] == k)
    guess, floor = _guesses(eq.kernel(rows[at]), k, lower[at], upper[at])
    margin = SKIP_MARGIN * np.abs(guess) * np.maximum(1.0, SKIP_FLOOR / floor)
    a, b, steps, last_low = _far_steps(lower[at], upper[at], guess, margin)
    moved = steps > 0
    at, a, b, steps, last_low = (x[moved] for x in (at, a, b, steps, last_low))
    if not at.size:
        return skipped
    f, z_hat, _ = eq.kernel(np.tile(rows[at], 2)).classify(np.concatenate([a, b]))
    (f_a, f_b), (z_a, z_b) = np.split(f, 2), np.split(z_hat, 2)
    held = (f_a > 0.0) & (f_b < 0.0)  # a reads low and b high
    for end_a in (~last_low, last_low):  # the end the last step moved was reached last
        size = np.abs(np.where(end_a, f_a, f_b))
        better = held & np.where(end_a, a != lower[at], b != upper[at]) & (size < least[at])
        lam[at[better]], least[at[better]] = np.where(end_a, a, b)[better], size[better]
        z[at[better]] = np.where(end_a[:, None], z_a, z_b)[better]
    at = at[held]
    lower[at], upper[at], skipped[at] = a[held], b[held], steps[held]
    return skipped


@_lapack_errors
def _solve_stack(stack):
    """The _Solved stack of the _Stack ``stack``: each row as :func:`solve` solves it.

    The stages of :func:`_search` run over one :class:`_Equilibrated` as array
    state: one call classifies every row at 0 and at ||G||_F, rows negative at
    0 take the bracket [bound, 0], positive ones expand upward together, and
    every bracketed row skips its far steps where :func:`_skip_far_steps` vouches
    for them (module docstring) and then bisects, one step per round on a
    compact stack of its rows (taken anew once a quarter of them have
    finished); its iterations count the skipped steps.  A dropped row is
    not searched; a failed search gets the error solve raises.
    """
    eq = _Equilibrated(stack)
    n = len(stack.errors)
    a, b = np.zeros(n), np.zeros(n)
    best_lam, best_abs, best_z = np.zeros(n), np.zeros(n), np.zeros_like(eq.rhs0)
    iterations = np.zeros(n, dtype=int)
    errors = list(stack.errors)
    built = np.array([error is None for error in errors])

    def fail(rows, error):
        for row in rows.tolist():
            errors[row] = error(row)

    def keep(rows, lams, residual, z_hat):
        """Record the multipliers ``lams`` classified at ``rows`` as their best."""
        best_lam[rows], best_abs[rows], best_z[rows] = lams, np.abs(residual), z_hat

    fail(np.flatnonzero(built & ~eq.valid), lambda r: GeometryError(_NONPOSITIVE_DIAGONAL))
    rows = np.flatnonzero(built & eq.valid)
    start = eq.gram_norm()[rows]
    opening = eq.kernel(np.tile(rows, 2)).classify(np.concatenate([a[rows], start]))
    (f, up_f), (z_hat, up_z), (solved, up_solved) = (np.split(x, 2) for x in opening)
    keep(rows, 0.0, f, z_hat)
    fail(rows[~solved], lambda r: GeometryError("normal matrix is not positive definite"))
    # A negative root's bracket is [bound, 0], with 0 as its best point so far.
    down = rows[solved & ~(f >= 0.0)]
    a[down] = eq.bound()[down]
    bracketed = [down]

    # Upward: double b until the residual turns negative, which it does (module
    # docstring), or its solve fails.  Each row keeps its last b as its best.
    up = solved & (f > 0.0)
    rows, f, z_hat, solved = rows[up], up_f[up], up_z[up], up_solved[up]
    b[rows] = start[up]
    while True:
        fail(rows[~solved], lambda r: _unsolved(float(b[r])))
        low = f > 0.0
        keep(rows[~low], b[rows[~low]], f[~low], z_hat[~low])
        bracketed.append(rows[~low])
        rows = rows[low & solved]
        if not rows.size:
            break
        a[rows], b[rows] = b[rows], 2.0 * b[rows]
        f, z_hat, solved = eq.kernel(rows).classify(b[rows])

    # Bisection: keep the best, else halve.  A zero residual closes its bracket
    # at the midpoint, so one collapse test ends both exits, and a collapsed
    # bracket stays so.  The brackets and best points are compact arrays, written
    # back once a quarter of their rows have finished (module docstring).
    rows = np.concatenate(bracketed)
    lower, upper, lam, least, z = a[rows], b[rows], best_lam[rows], best_abs[rows], best_z[rows]
    steps = _skip_far_steps(eq, rows, lower, upper, lam, least, z)
    mid, live = np.empty_like(lower), None
    while True:
        np.add(lower, upper, out=mid)
        mid *= 0.5
        go = (mid != lower) & (mid != upper)
        if live is None or 4 * (len(go) - np.count_nonzero(go)) >= len(go):
            done = rows[~go]
            iterations[done], best_lam[done], best_z[done] = steps[~go], lam[~go], z[~go]
            rows, lower, upper, mid, lam, least, z, steps, go = (
                x[go] for x in (rows, lower, upper, mid, lam, least, z, steps, go))
            if not rows.size:
                break
            live = eq.kernel(rows)
        f, z_hat, _ = live.classify(mid)
        steps += go
        size = np.abs(f)
        better = (size < least) & go  # f is inf where not solved; a collapsed row's is no step's
        np.copyto(lam, mid, where=better)
        np.copyto(least, size, where=better)
        np.copyto(z, z_hat, where=better[:, None])
        np.copyto(lower, mid, where=f >= 0.0)  # a zero residual moves both ends
        np.copyto(upper, mid, where=~(f > 0.0))

    return _finalize(eq, best_lam, best_z, iterations, errors)
