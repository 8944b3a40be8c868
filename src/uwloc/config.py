"""Scenario/configuration file ingestion.

Scenario files are JSON with positions in meters and powers in dBm; the
bundled default describes the reference ten-anchor 3-D network this
package's experiments run on.  Measurement files share the format with
keys ``anchor_index`` and ``rss_dbm``.  A key outside these formats is a
ConfigError, so a typo fails instead of running on a default.
"""

import json
import sys
from importlib import resources

import numpy as np

from .channel import Environment, MeasurementSet, NoiseModel, Scenario
from .errors import ConfigError, GeometryError
from .experiments import ExperimentConfig


def bundled_scenario_path():
    """Path of the packaged default scenario file."""
    return resources.files("uwloc").joinpath("data/default_scenario.json")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _number(value, kind, what):
    """``value`` as a finite ``kind`` (float or int), else a ConfigError.

    An int is accepted where a float is asked for, never the reverse, and
    a bool is neither.
    """
    allowed = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge ints
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return kind(value)


SCENARIO_KEYS = (
    "anchors_m", "target_m", "ple", "frequency_khz", "transmit_power_dbm",
    "absorption_db_per_m", "reference_distance_m", "noise", "sigma_grid_db",
    "mc_trials", "master_seed", "solver", "sweep",
)
NOISE_KEYS = ("kind", "sigma_db", "mean_db")
SOLVER_KEYS = ("weighted", "known_power")
SWEEP_KEYS = (
    "kind", "sigma_db", "anchor_counts", "ple_grid", "frequency_grid_khz",
    "noise_kinds", "bias_scenarios",
)
MEASUREMENT_KEYS = ("anchor_index", "rss_dbm")


def _known_keys(doc, keys, context):
    """``doc`` if it is a JSON object whose keys are all in ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{context}: unknown field {key!r}; expected one of {keys}")
    return doc


def _require(doc, key, kind, context):
    if key not in doc:
        raise ConfigError(f"{context}: missing required field {key!r}")
    value = doc[key]
    if kind in (float, int):
        return _number(value, kind, f"{context}: field {key!r}")
    if isinstance(value, kind):
        return value
    raise ConfigError(f"{context}: field {key!r} must be a {kind.__name__}")


def _optional(doc, key, kind, context, default):
    if key not in doc:
        return default
    return _require(doc, key, kind, context)


def _numbers(doc, key, kind, context):
    """Required list field whose entries are finite numbers of ``kind``."""
    entries = _require(doc, key, list, context)
    return tuple(_number(entry, kind, f"{context}: {key} entry") for entry in entries)


def _grid(doc, key, kind, context, default):
    """Optional list field whose entries are finite numbers of ``kind``."""
    return _numbers(doc, key, kind, context) if key in doc else default


def _positions(doc, key, context, ndim):
    """Required ``ndim``-dimensional array field of finite numbers."""
    what = f"{context}: field {key!r}"

    def entries(value):
        if isinstance(value, list):
            return [entries(entry) for entry in value]
        return _number(value, float, f"{what} entry")

    values = entries(_require(doc, key, list, context))
    try:
        arr = np.array(values, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{what} must be a regular array: {exc}") from exc
    if arr.ndim != ndim:
        raise ConfigError(f"{what} must be a {ndim}-d array, got {arr.ndim}-d")
    return arr


def parse_scenario(path):
    """Parse and fully validate a scenario file into an ExperimentConfig.

    Raises ConfigError naming the offending field, or GeometryError when
    the anchor/target layout is unusable.
    """
    ctx = str(path)
    doc = _known_keys(_load_json(path), SCENARIO_KEYS, ctx)
    anchors = _positions(doc, "anchors_m", ctx, 2)
    target = _positions(doc, "target_m", ctx, 1)
    try:
        env = Environment(
            ple=_require(doc, "ple", float, ctx),
            frequency_khz=_require(doc, "frequency_khz", float, ctx),
            transmit_power_dbm=_require(doc, "transmit_power_dbm", float, ctx),
            absorption_db_per_m=_optional(doc, "absorption_db_per_m", float, ctx, None),
            reference_distance_m=_optional(doc, "reference_distance_m", float, ctx, 1.0),
        )
    except ConfigError:
        raise  # already names its field with this context
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    scenario = Scenario(anchors, target, env)

    noise_ctx = f"{ctx}: noise"
    noise_doc = _known_keys(_optional(doc, "noise", dict, ctx, {}), NOISE_KEYS, noise_ctx)
    try:
        noise = NoiseModel(
            kind=_optional(noise_doc, "kind", str, noise_ctx, "zero_mean_gaussian"),
            sigma_db=_optional(noise_doc, "sigma_db", float, noise_ctx, 3.0),
            mean_db=_optional(noise_doc, "mean_db", float, noise_ctx, None),
        )
    except ConfigError:
        raise  # already names its field with this context
    except ValueError as exc:
        raise ConfigError(f"{noise_ctx}: {exc}") from exc

    solver_ctx = f"{ctx}: solver"
    solver_doc = _known_keys(_optional(doc, "solver", dict, ctx, {}), SOLVER_KEYS, solver_ctx)
    sweep_ctx = f"{ctx}: sweep"
    sweep_doc = _known_keys(_optional(doc, "sweep", dict, ctx, {}), SWEEP_KEYS, sweep_ctx)

    bias_raw = _optional(sweep_doc, "bias_scenarios", list, sweep_ctx, None)
    bias_scenarios = None
    if bias_raw is not None:
        bias_scenarios = []
        for entry in bias_raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not isinstance(entry[0], str)
            ):
                raise ConfigError(
                    f"{sweep_ctx}: bias_scenarios entries must be"
                    " [label, ple_bias_fraction, absorption_bias_fraction]"
                )
            what = f"{sweep_ctx}: bias_scenarios entry {entry[0]!r}"
            bias_scenarios.append(
                (entry[0], _number(entry[1], float, what), _number(entry[2], float, what))
            )

    default = ExperimentConfig  # the class attributes hold the field defaults
    config = ExperimentConfig(
        scenario=scenario,
        noise=noise,
        sigma_grid_db=_grid(doc, "sigma_grid_db", float, ctx, default.sigma_grid_db),
        mc_trials=_optional(doc, "mc_trials", int, ctx, default.mc_trials),
        master_seed=_optional(doc, "master_seed", int, ctx, default.master_seed),
        weighted=_optional(solver_doc, "weighted", bool, solver_ctx, default.weighted),
        known_power=_optional(solver_doc, "known_power", bool, solver_ctx, default.known_power),
        sweep_kind=_optional(sweep_doc, "kind", str, sweep_ctx, default.sweep_kind),
        sweep_sigma_db=_optional(sweep_doc, "sigma_db", float, sweep_ctx, default.sweep_sigma_db),
        anchor_counts=_grid(sweep_doc, "anchor_counts", int, sweep_ctx, default.anchor_counts),
        ple_grid=_grid(sweep_doc, "ple_grid", float, sweep_ctx, default.ple_grid),
        frequency_grid_khz=_grid(
            sweep_doc, "frequency_grid_khz", float, sweep_ctx, default.frequency_grid_khz
        ),
        noise_kinds=tuple(
            _optional(sweep_doc, "noise_kinds", list, sweep_ctx, list(default.noise_kinds))
        ),
        bias_scenarios=tuple(bias_scenarios) if bias_scenarios is not None else default.bias_scenarios,
    )
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    return config


def load_measurements(path, env):
    """Read a measurement file (anchor_index / rss_dbm) against ``env``."""
    ctx = str(path)
    doc = _known_keys(_load_json(path), MEASUREMENT_KEYS, ctx)
    index = _numbers(doc, "anchor_index", int, ctx)
    rss = _numbers(doc, "rss_dbm", float, ctx)
    try:
        return MeasurementSet(anchor_index=index, rss_dbm=rss, environment=env)
    except (OverflowError, ValueError) as exc:  # OverflowError: an index past int64
        raise ConfigError(f"{ctx}: {exc}") from exc
