"""Distance-based link weighting.

For a fixed noise level the distance-domain error of an RSS-derived range
grows with the true range, so closer anchors carry more reliable
information.  ``link_weights`` turns each measured RSS into the proxy

    x_i = 10^((alpha - P_i) / (10*beta))

(monotone in the apparent range) and assigns normalized weights that are
anti-monotone in x_i:

    w_i = (S - x_i) / ((N - 1) * S),   S = sum_j x_j

so the weights sum to one and each lies in (0, 1/(N-1)).
"""

import numpy as np


def deviation_diagnostic(distance_m, transmit_power_dbm, delta_db, env):
    """Distance-domain deviation caused by a fixed RSS error of ``delta_db``.

    Evaluates, at range d and transmit power P_t,

        (d * 10^(alpha*d/(10*beta)) / 10^(P_t/(10*beta))) * |10^(-delta/(10*beta)) - 1|

    which is zero for a noiseless measurement and strictly increasing in
    both the range and |delta|.  Used to justify the weighting, not by the
    solver itself.
    """
    d = np.asarray(distance_m, dtype=float)
    beta = env.ple
    alpha = env.absorption_db_per_m
    base = d * 10.0 ** (alpha * d / (10.0 * beta)) / 10.0 ** (transmit_power_dbm / (10.0 * beta))
    return base * np.abs(10.0 ** (-delta_db / (10.0 * beta)) - 1.0)


def link_weights(measurements, env):
    """Normalized per-link weights from a measurement set, one row per fix of a stack.

    The common factor 10^(alpha/(10*beta)) and any shared RSS offset cancel
    in the normalization, so each row's exponents are shifted by their
    maximum before exponentiation to avoid overflow.
    """
    p = measurements.rss_dbm
    n = len(measurements)
    if n < 2:
        raise ValueError(f"need at least 2 links to weight, got {n}")
    expo = (-p + env.absorption_db_per_m) / (10.0 * env.ple)
    if not np.all(np.isfinite(expo)):
        raise ValueError("non-finite weighting exponent")
    x = 10.0 ** (expo - expo.max(axis=-1, keepdims=True))
    total = x.sum(axis=-1, keepdims=True)
    return (total - x) / ((n - 1) * total)
