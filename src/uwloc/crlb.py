"""Fisher information and Cramer-Rao lower bounds.

Under independent Gaussian measurement noise the log-likelihood of the RSS
vector given theta = (t, P_t) is, up to a constant,

    -(1/2) * sum_i f_i^2 / sigma_i^2,
    f_i = P_i - P_t + 10*beta*log10(d_i) + alpha*d_i - alpha,

with d_i = ||t - s_i|| and the reference distance d0 = 1 m of
:mod:`uwloc.channel`.  The information matrix blocks follow from the
gradient direction c_i = (10*beta + alpha*ln10*d_i) * (t - s_i):

    A = sum_i c_i c_i^T / (sigma_i^2 (ln10)^2 d_i^4)      position block
    b = sum_i -c_i / (sigma_i^2 ln10 d_i^2)               cross block
    c = sum_i 1 / sigma_i^2                               power block

For any probe [x; y] the quadratic form collapses to a sum of squares,

    [x^T, y] F [x; y] = sum_i (1/sigma_i^2) * (x^T c_i / (ln10 d_i^2) - y)^2,

which is the executable form of the positive-definiteness argument (the
minus sign on y is forced by the sign of the cross block b).

Each bound is one assembly step and one report step.
:func:`_position_block` builds A from c_i of ``Scenario.gradient`` and
d_i^4 of ``Scenario.range_powers``, kept since the Scenario was validated,
and the unknown-power bound adds b and c.  :func:`_report` gates and
inverts through the LAPACK gufuncs behind ``np.linalg.eigh`` and
``np.linalg.inv``, the same bits without the wrappers' cost.  A gufunc
returns NaN where its wrapper raised, so a Fisher entry that is not finite
is a NumericalError raised before the eigen-solve, as is a sigma whose
square overflows or underflows, or one so large that an anchor's position
term falls below the normal range (also in :func:`hessian_loglik`); a
sigma that is not positive and finite is a ValueError.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import LN10, gradient_directions
from .errors import GeometryError, NumericalError

# A Fisher matrix whose smallest eigenvalue falls below this fraction of the
# largest is reported as degenerate rather than silently inverted.
DEFINITENESS_TOL = 1e-12

# 1 / (the smallest normal double), a power of two: 1/x is normal up to here.
_NORMAL_INVERSE = 1.0 / sys.float_info.min


@dataclass(frozen=True)
class FimReport:
    """Fisher information matrix and the bounds derived from it.

    ``crlb_p_db`` is None for the known-power bound (no power row).
    ``condition_estimate`` is the eigenvalue ratio of the Fisher matrix.
    """

    fim: np.ndarray
    crlb_t_m: float
    crlb_p_db: float | None
    condition_estimate: float


def _noise_variances(sigmas, n):
    """Noise variances: a float from one sigma, an array from one per anchor.

    A sigma that is not positive and finite is a ValueError; one whose
    square overflows or underflows (is not a normal float) is a
    NumericalError naming it.
    """
    sig = np.asarray(sigmas, dtype=float)
    if sig.ndim == 0:
        lo = hi = float(sig)
    elif sig.shape != (n,):
        raise ValueError(f"expected {n} noise sigmas, got shape {sig.shape}")
    else:  # a NaN reaches both ends
        lo, hi = float(sig.min()), float(sig.max())
    if lo <= 0:
        raise ValueError("noise sigmas must be positive")
    if not hi < math.inf:
        raise ValueError("noise sigmas must be finite")
    # Squared as Python floats, the ends overflow and underflow without a warning.
    if not hi * hi < math.inf:
        raise NumericalError(f"noise sigma {hi:g} dB overflows: its square is not finite")
    if not lo * lo >= sys.float_info.min:
        raise NumericalError(
            f"noise sigma {lo:g} dB underflows: its square is below the smallest normal float"
        )
    return lo * lo if sig.ndim == 0 else sig**2


def residuals(measurements, anchors_m, position_m, transmit_power_dbm, env):
    """Mean-removed residuals f_i of all measurements at the given parameters.

    Each entry is zero in expectation at the true parameters and decreases
    one-for-one when the assumed transmit power increases.  The readings may
    be at any subset of the anchors; an index outside the list is a ConfigError.
    """
    position_m = np.asarray(position_m, dtype=float)
    d = np.linalg.norm(position_m - measurements.subset_rows(anchors_m), axis=1)
    if np.any(d == 0.0):
        raise ValueError("position coincides with an anchor")
    alpha = env.absorption_db_per_m
    return (
        measurements.rss_dbm
        - transmit_power_dbm
        + 10.0 * env.ple * np.log10(d)
        + alpha * d
        - alpha
    )


def c_vector(target_m, anchor_m, env):
    """Scaled gradient direction (10*beta + alpha*ln10*d) * (t - s).

    Always parallel to the target-anchor offset.
    """
    anchor_m = np.asarray(anchor_m, dtype=float)[None, :]
    _, d, c = gradient_directions(np.asarray(target_m, dtype=float), anchor_m, env)
    if d[0] == 0.0:
        raise ValueError("target coincides with the anchor")
    return c[0]


def hessian_loglik(measurements, anchors_m, position_m, transmit_power_dbm, env, sigmas):
    """Hessian of the log-likelihood with respect to (position, power).

    Exact expression including the residual-weighted curvature terms; at
    noiseless measurements and the true parameters it equals the negated
    Fisher information matrix.  The curvature of c_i is
    D_i = (10*beta + alpha*ln10*d_i)*I + alpha*ln10*(t - s_i)(t - s_i)^T/d_i.
    """
    position_m = np.asarray(position_m, dtype=float)
    k = position_m.shape[0]
    sig2 = np.full(len(measurements), _noise_variances(sigmas, len(measurements)))
    f = residuals(measurements, anchors_m, position_m, transmit_power_dbm, env)
    diff, d, c = gradient_directions(position_m, measurements.subset_rows(anchors_m), env)
    with np.errstate(over="ignore"):  # checked in _term_scale
        scale = _term_scale(sig2, d**4, sigmas, "log-likelihood Hessian")
    s = 1.0 / scale
    g = s * LN10 * d**2 * f  # weight of D_i
    alpha_ln10 = env.absorption_db_per_m * LN10
    coef = 10.0 * env.ple + alpha_ln10 * d
    hess = np.empty((k + 1, k + 1))
    hess[:k, :k] = -(
        (c * s[:, None]).T @ c
        + (g @ coef) * np.eye(k)
        + alpha_ln10 * (diff * (g / d)[:, None]).T @ diff
        - 2.0 * LN10 * (c * (s * f)[:, None]).T @ diff
    )
    hess[:k, k] = hess[k, :k] = np.sum(c / (sig2 * LN10 * d**2)[:, None], axis=0)
    hess[k, k] = -np.sum(1.0 / sig2)
    return hess


def _sigma_error(matrix, sigmas, fault):
    """The NumericalError of a ``matrix`` that ``sigmas`` put out of the float range."""
    sig = np.asarray(sigmas, dtype=float)
    named = f"{sig.item():g}" if sig.ndim == 0 else f"{sig.min():g} to {sig.max():g}"
    return NumericalError(f"{matrix} at noise sigma {named} dB {fault}")


def _term_scale(sig2, d4, sigmas, matrix, d4_max=None):
    """sigma_i^2 ln10^2 d_i^4, the divisor of anchor i's position term c_i c_i^T;
    past 1/tiny the term is below the normal range, a NumericalError naming
    ``sigmas``.  One sigma (a float ``sig2``) takes the largest from ``d4_max``."""
    scale = sig2 * LN10**2 * d4
    top = sig2 * LN10**2 * d4_max if type(sig2) is float else np.maximum.reduce(scale)
    if not top <= _NORMAL_INVERSE:
        raise _sigma_error(
            matrix, sigmas, "underflows: an anchor's term is below the smallest normal float"
        )
    return scale


def _position_block(scenario, sigmas, context):
    """The Fisher position block A and the noise variances; the Scenario's regular
    geometry makes every anchor's term count, so one that underflows is a noise fault."""
    sig2 = _noise_variances(sigmas, scenario.n_anchors)
    _, c = scenario.gradient
    _, d4, d4_max = scenario.range_powers
    scale = _term_scale(sig2, d4, sigmas, f"{context}: Fisher matrix", d4_max)
    return (c / scale[:, None]).T @ c, sig2


def _report(fim, k, context, sigmas):
    """The bounds of a Fisher matrix built at ``sigmas``, with k position rows.

    An entry that is not finite is a NumericalError naming the sigmas; a
    smallest eigenvalue at or below DEFINITENESS_TOL times the largest
    (NaN too) is a GeometryError.  ``eigh_lo`` reads the lower triangle.
    """
    if not np.isfinite(fim).all():
        raise _sigma_error(f"{context}: Fisher matrix", sigmas, "is not finite")
    w = _umath_linalg.eigh_lo(fim, signature="d->dd")[0]
    if not w[0] > DEFINITENESS_TOL * w[-1]:
        raise GeometryError(
            f"{context}: Fisher matrix is not positive definite"
            f" (smallest eigenvalue {w[0]:.3e}, largest {w[-1]:.3e})"
        )
    inv = _umath_linalg.inv(fim, signature="d->d")
    return FimReport(
        fim=fim,
        crlb_t_m=math.sqrt(inv[:k, :k].trace()),
        crlb_p_db=math.sqrt(inv[k, k]) if k < len(fim) else None,
        condition_estimate=float(w[-1] / w[0]),
    )


# Both bounds assemble quietly: _report names an entry that is not finite.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fim_unknown_power(scenario, sigmas):
    """Fisher information and bounds for joint position/power estimation.

    CRLB_t is the square root of the position-block trace of the inverse;
    CRLB_p the square root of the power diagonal entry.
    """
    k, context = scenario.dimension, "unknown-power bound"
    fim = np.empty((k + 1, k + 1))
    fim[:k, :k], sig2 = _position_block(scenario, sigmas, context)
    _, c = scenario.gradient
    d2 = scenario.range_powers[0]
    fim[:k, k] = fim[k, :k] = -np.add.reduce(c / (sig2 * LN10 * d2)[:, None], axis=0)
    fim[k, k] = np.add.reduce(np.full(scenario.n_anchors, 1.0 / sig2))
    return _report(fim, k, context, sigmas)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fim_known_power(scenario, sigmas):
    """Fisher information and position bound when the transmit power is known."""
    context = "known-power bound"
    a_block, _ = _position_block(scenario, sigmas, context)
    return _report(a_block, scenario.dimension, context, sigmas)
