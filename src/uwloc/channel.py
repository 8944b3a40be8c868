"""Underwater acoustic RSS channel model.

Received signal strength at an anchor follows a log-distance decay with an
additional absorption term that is linear in range:

    P = P_t - 10*beta*log10(d/d0) - alpha*(d - d0) + n

with ``beta`` the path loss exponent, ``alpha`` the frequency-dependent
absorption in dB per meter, ``d0`` = 1 m the reference distance, and ``n``
a noise term in dB.  Distances are meters and powers dBm throughout.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError

LN10 = float(np.log(10.0))

# Reference distance d0 of the channel law.  The solver (gtrs) and the
# residuals (crlb) assume this value, so it is fixed, not configurable.
REFERENCE_DISTANCE_M = 1.0

NOISE_KINDS = ("zero_mean_gaussian", "biased_gaussian", "gaussian_plus_impulsive")

# Rank tolerance for the anchor-geometry regularity test, relative to the
# largest singular value of the stacked gradient directions.
GEOMETRY_RANK_TOL = 1e-10


def absorption_coefficient(frequency_khz):
    """Absorption coefficient in dB/m for a center frequency in kHz.

    Empirical seawater attenuation curve; the constant floor term keeps the
    value positive as the frequency approaches zero.  A frequency that is
    negative or not finite, or one whose square overflows, is a ValueError.
    """
    f = float(frequency_khz)
    if not 0.0 <= f < np.inf:
        raise ValueError(f"frequency must be finite and nonnegative, got {f}")
    f2 = f * f
    alpha = (
        0.11 * f2 / (1.0 + f2)
        + 44.0 * f2 / (4100.0 + f2)
        + 2.75 * f2 / 1e4
        + 0.003
    ) * 1e-3
    if not alpha < np.inf:  # f^2 overflows above ~1e154 kHz, and inf/inf is nan
        raise ValueError(f"absorption at {f:g} kHz is not finite")
    return alpha


@dataclass(frozen=True)
class Environment:
    """Propagation parameters shared by the channel, solver, and bounds.

    ``absorption_db_per_m`` defaults to the value implied by
    ``frequency_khz``; pass it explicitly only to model biased prior
    knowledge of the medium.
    """

    ple: float
    frequency_khz: float
    transmit_power_dbm: float
    absorption_db_per_m: float | None = None

    def __post_init__(self):
        if not self.ple > 0:
            raise ValueError(f"path loss exponent must be positive, got {self.ple}")
        if self.frequency_khz < 0:
            raise ValueError("frequency must be nonnegative")
        if self.absorption_db_per_m is None:
            object.__setattr__(
                self, "absorption_db_per_m", absorption_coefficient(self.frequency_khz)
            )
        if not 0.0 <= self.absorption_db_per_m < np.inf:
            raise ValueError(
                f"absorption must be finite and nonnegative, got {self.absorption_db_per_m}"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise description for one of the three studied regimes.

    ``sigma_db`` is always the total standard deviation.  For the
    Gaussian-plus-impulsive mixture the Gaussian and uniform components each
    carry half the variance, so the uniform upper bound is
    ``sigma_db * sqrt(6)`` (a U[0, a] variable has variance a^2/12).
    """

    kind: str
    sigma_db: float
    mean_db: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not self.sigma_db > 0:
            raise ValueError("sigma_db must be positive")
        if self.mean_db is None:
            object.__setattr__(self, "mean_db", 0.0 if self.kind == "zero_mean_gaussian" else 2.0)
        if self.kind == "zero_mean_gaussian" and self.mean_db != 0.0:
            raise ValueError("zero_mean_gaussian requires mean_db = 0")


def sample_noise(model, rng, size=None):
    """Draw noise in dB from ``model`` using the caller-owned generator.

    zero_mean_gaussian        N(0, sigma^2)
    biased_gaussian           N(mean, sigma^2)
    gaussian_plus_impulsive   N(mean, sigma^2/2) + U[0, sigma*sqrt(6)], so
                              the total standard deviation equals sigma.
    """
    if model.kind == "zero_mean_gaussian":
        return rng.normal(0.0, model.sigma_db, size)
    if model.kind == "biased_gaussian":
        return rng.normal(model.mean_db, model.sigma_db, size)
    gauss = rng.normal(model.mean_db, model.sigma_db / np.sqrt(2.0), size)
    return gauss + rng.uniform(0.0, model.sigma_db * np.sqrt(6.0), size)


def gradient_directions(position_m, anchors_m, env):
    """Offsets t - s_i, ranges d_i and gradient directions c_i, one row each.

    c_i = (10*beta + alpha*ln10*d_i) * (t - s_i) is the range-gradient of
    the mean RSS scaled by ln(10)*d_i^2; the Fisher information and the
    regularity test of :class:`Scenario` are built from it.
    """
    diff = position_m - anchors_m
    d = np.linalg.norm(diff, axis=1)
    return diff, d, (10.0 * env.ple + env.absorption_db_per_m * LN10 * d)[:, None] * diff


@dataclass(frozen=True)
class Scenario:
    """Anchor/target geometry plus the environment it lives in.

    Positions are meters.  Construction validates that the anchor count
    supports a joint position/power solve (N >= k + 2), that no anchor sits
    inside the reference distance, and that the anchor placement is regular
    (non-collinear/coplanar in the information-matrix sense).

    The Scenario holds read-only copies of the positions it is given.
    ``gradient`` is the pair (d, c) of :func:`gradient_directions` at the
    target, kept read-only from the regularity test for the Fisher bounds,
    and ``range_powers`` is (d**2, d**4, the largest d**4 as a float); they
    are neither constructor arguments nor part of repr or equality.
    """

    anchors_m: np.ndarray
    target_m: np.ndarray
    environment: Environment
    gradient: tuple = field(init=False, repr=False, compare=False)
    range_powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        anchors = np.array(self.anchors_m, dtype=float, ndmin=2)
        target = np.array(self.target_m, dtype=float).ravel()
        anchors.flags.writeable = target.flags.writeable = False
        object.__setattr__(self, "anchors_m", anchors)
        object.__setattr__(self, "target_m", target)
        n, k = anchors.shape
        if target.shape != (k,):
            raise GeometryError(
                f"target dimension {target.shape} does not match anchors ({k}-d)"
            )
        if n < k + 2:
            raise GeometryError(
                f"need at least k + 2 = {k + 2} anchors for a joint"
                f" position/power solve, got {n}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
            _, d, c = gradient_directions(target, anchors, self.environment)
            # Regular only when the rows [c_i^T, ln(10)*d_i^2] span dimension k + 1.
            rows = np.column_stack([c, LN10 * d**2])
        if np.any(d < REFERENCE_DISTANCE_M):
            i = int(np.argmin(d))
            raise GeometryError(
                f"anchor {i} lies inside the reference distance"
                f" (d = {d[i]:.3g} m)"
            )
        if not np.all(np.isfinite(rows)):
            raise GeometryError(
                "gradient directions overflow; coordinates or ple are too large"
            )
        s = np.linalg.svd(rows, compute_uv=False)
        if s[-1] <= GEOMETRY_RANK_TOL * s[0]:
            raise GeometryError(
                "degenerate anchor placement: gradient directions do not"
                f" span dimension {k + 1} (singular value ratio {s[-1] / s[0]:.2e})"
            )
        d2, d4 = d**2, d**4
        d.flags.writeable = c.flags.writeable = d2.flags.writeable = d4.flags.writeable = False
        object.__setattr__(self, "gradient", (d, c))
        object.__setattr__(self, "range_powers", (d2, d4, float(d4.max())))

    @property
    def n_anchors(self):
        return self.anchors_m.shape[0]

    @property
    def dimension(self):
        return self.anchors_m.shape[1]

    def distances_m(self):
        return np.linalg.norm(self.target_m - self.anchors_m, axis=1)

    def subset(self, n_anchors):
        """Scenario restricted to the first ``n_anchors`` anchors as listed."""
        return Scenario(self.anchors_m[:n_anchors], self.target_m, self.environment)


@dataclass(frozen=True)
class MeasurementSet:
    """Per-anchor RSS values in dBm plus the environment used to generate them.

    ``rss_dbm`` may stack fixes taken at the same anchors, one row each;
    ``len`` counts the readings of one fix.
    """

    anchor_index: np.ndarray
    rss_dbm: np.ndarray
    environment: Environment

    def __post_init__(self):
        raw = np.asarray(self.anchor_index)
        with np.errstate(invalid="ignore"):  # NaN and out-of-range entries cast to garbage
            idx = raw.astype(int, copy=False)
        if not np.array_equal(idx, raw):  # the cast would truncate 0.7 to anchor 0
            raise ValueError(f"anchor_index entry {raw[idx != raw][0].item()!r} is not an integer")
        rss = np.asarray(self.rss_dbm, dtype=float)
        object.__setattr__(self, "anchor_index", idx)
        object.__setattr__(self, "rss_dbm", rss)
        if idx.shape != rss.shape[-1:] or idx.ndim != 1 or rss.ndim > 2:
            raise ValueError("anchor_index and rss_dbm must be matching 1-d arrays")
        if not np.all(np.isfinite(rss)):
            raise ValueError("RSS values must be finite")

    def __len__(self):
        return self.rss_dbm.shape[-1]

    def anchor_rows(self, anchors_m):
        """The row of ``anchors_m`` each reading was taken at; a ConfigError for a
        reading count other than the anchor count or an index outside the list."""
        anchors = np.atleast_2d(np.asarray(anchors_m, dtype=float))
        n = len(anchors)
        if len(self) != n:
            raise ConfigError(f"{len(self)} measurements for {n} anchors")
        outside = self.anchor_index[(self.anchor_index < 0) | (self.anchor_index >= n)]
        if outside.size:
            raise ConfigError(f"anchor_index {outside[0]} is outside [0, {n - 1}]")
        return anchors[self.anchor_index]


def noiseless_rss(target_m, anchor_m, env):
    """Mean received power in dBm at ``anchor_m`` from a source at ``target_m``.

    Undefined inside the reference distance (the log-distance law only
    applies beyond d0).
    """
    target_m = np.asarray(target_m, dtype=float)
    anchor_m = np.asarray(anchor_m, dtype=float)
    d = np.linalg.norm(target_m - anchor_m, axis=-1)
    d0 = REFERENCE_DISTANCE_M
    if np.any(d < d0):
        raise ValueError(f"distance {np.min(d):.3g} m is inside the reference distance {d0} m")
    return (
        env.transmit_power_dbm
        - 10.0 * env.ple * np.log10(d / d0)
        - env.absorption_db_per_m * (d - d0)
    )


def generate_measurements(scenario, model, rng):
    """One noisy RSS measurement per anchor, in anchor order."""
    clean = noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
    noisy = clean + sample_noise(model, rng, size=scenario.n_anchors)
    return MeasurementSet(
        anchor_index=np.arange(scenario.n_anchors),
        rss_dbm=noisy,
        environment=scenario.environment,
    )
