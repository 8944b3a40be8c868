"""Fisher information and Cramer-Rao lower bounds.

Under independent Gaussian measurement noise the log-likelihood of the RSS
vector given theta = (t, P_t) is, up to a constant,

    -(1/2) * sum_i f_i^2 / sigma_i^2,
    f_i = P_i - P_t + 10*beta*log10(d_i) + alpha*d_i - alpha,

with d_i = ||t - s_i||.  The information matrix blocks follow from the
gradient direction c_i = (10*beta + alpha*ln10*d_i) * (t - s_i):

    A = sum_i c_i c_i^T / (sigma_i^2 (ln10)^2 d_i^4)      position block
    b = sum_i -c_i / (sigma_i^2 ln10 d_i^2)               cross block
    c = sum_i 1 / sigma_i^2                               power block

For any probe [x; y] the quadratic form collapses to a sum of squares,

    [x^T, y] F [x; y] = sum_i (1/sigma_i^2) * (x^T c_i / (ln10 d_i^2) - y)^2,

which is the executable form of the positive-definiteness argument (the
minus sign on y is forced by the sign of the cross block b).
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import LN10, gradient_directions
from .errors import GeometryError

# A Fisher matrix whose smallest eigenvalue falls below this fraction of the
# largest is reported as degenerate rather than silently inverted.
DEFINITENESS_TOL = 1e-12


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


def _per_anchor_sigmas(sigmas, n):
    sig = np.asarray(sigmas, dtype=float)
    if sig.ndim == 0:
        sig = np.full(n, float(sig))
    if sig.shape != (n,):
        raise ValueError(f"expected {n} noise sigmas, got shape {sig.shape}")
    if np.any(sig <= 0):
        raise ValueError("noise sigmas must be positive")
    return sig


def residuals(measurements, anchors_m, position_m, transmit_power_dbm, env):
    """Mean-removed residuals f_i of all measurements at the given parameters.

    Each entry is zero in expectation at the true parameters and decreases
    one-for-one when the assumed transmit power increases.
    """
    anchors_m = np.atleast_2d(np.asarray(anchors_m, dtype=float))
    position_m = np.asarray(position_m, dtype=float)
    d = np.linalg.norm(position_m - anchors_m[measurements.anchor_index], axis=1)
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


def residual_f(index, measurements, anchors_m, position_m, transmit_power_dbm, env):
    """Single-measurement version of :func:`residuals`."""
    return float(
        residuals(measurements, anchors_m, position_m, transmit_power_dbm, env)[index]
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
    anchors_m = np.atleast_2d(np.asarray(anchors_m, dtype=float))
    position_m = np.asarray(position_m, dtype=float)
    k = position_m.shape[0]
    sig2 = _per_anchor_sigmas(sigmas, len(measurements)) ** 2
    f = residuals(measurements, anchors_m, position_m, transmit_power_dbm, env)
    diff, d, c = gradient_directions(position_m, anchors_m[measurements.anchor_index], env)
    s = 1.0 / (sig2 * LN10**2 * d**4)
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


def _fim_blocks(scenario, sigmas):
    sig2 = _per_anchor_sigmas(sigmas, scenario.n_anchors) ** 2
    _, d, c = gradient_directions(scenario.target_m, scenario.anchors_m, scenario.environment)
    a_block = (c / (sig2 * LN10**2 * d**4)[:, None]).T @ c
    b_block = -np.sum(c / (sig2 * LN10 * d**2)[:, None], axis=0)
    return a_block, b_block, np.sum(1.0 / sig2)


def _invert_reported(fim, context):
    """Inverse of a Fisher matrix that passes a positive-definiteness gate,
    with its eigenvalue ratio."""
    w, _ = numerics.sym_eig(fim)
    if w[0] <= DEFINITENESS_TOL * w[-1]:
        raise GeometryError(
            f"{context}: Fisher matrix is not positive definite"
            f" (smallest eigenvalue {w[0]:.3e}, largest {w[-1]:.3e})"
        )
    return np.linalg.inv(fim), float(w[-1] / w[0])


def fim_unknown_power(scenario, sigmas):
    """Fisher information and bounds for joint position/power estimation.

    CRLB_t is the square root of the position-block trace of the inverse;
    CRLB_p the square root of the power diagonal entry.
    """
    a_block, b_block, c_block = _fim_blocks(scenario, sigmas)
    k = scenario.dimension
    fim = np.zeros((k + 1, k + 1))
    fim[:k, :k] = a_block
    fim[:k, k] = b_block
    fim[k, :k] = b_block
    fim[k, k] = c_block
    inv, condition = _invert_reported(fim, "unknown-power bound")
    return FimReport(
        fim=fim,
        crlb_t_m=float(np.sqrt(np.trace(inv[:k, :k]))),
        crlb_p_db=float(np.sqrt(inv[k, k])),
        condition_estimate=condition,
    )


def fim_known_power(scenario, sigmas):
    """Fisher information and position bound when the transmit power is known."""
    a_block, _, _ = _fim_blocks(scenario, sigmas)
    inv, condition = _invert_reported(a_block, "known-power bound")
    return FimReport(
        fim=a_block,
        crlb_t_m=float(np.sqrt(np.trace(inv))),
        crlb_p_db=None,
        condition_estimate=condition,
    )
