"""Workload inputs, derived from the benchmark seed alone.

Everything here is plain numpy and JSON: the program under test never sees
the seed, only the arrays and files built from it, and the same seed always
gives byte-identical inputs.
"""

import json
from dataclasses import dataclass

import numpy as np

# Stream tags keep the draws of independent input families apart.
_GEOMETRY_STREAM = 1
_SWEEP_STREAM = 2

SWEEP_SIGMA_GRID_DB = (1.0, 3.0, 5.0, 7.0, 9.0)
BOUNDS_SIGMA_GRID_DB = (1.0, 3.0, 5.0, 7.0, 9.0)


@dataclass(frozen=True)
class Instance:
    """One random single-fix problem: geometry, channel, noise draw.

    ``unit_noise`` is a standard-normal draw per anchor; the measured RSS is
    the noiseless RSS plus ``sigma_db * unit_noise``.
    """

    anchors_m: np.ndarray
    target_m: np.ndarray
    ple: float
    frequency_khz: float
    transmit_power_dbm: float
    sigma_db: float
    unit_noise: np.ndarray


def random_instances(seed, count):
    """``count`` random geometries drawn like the test suite's solver instances.

    k in {2, 3}, N in [k + 2, 12], anchors uniform in [0, 5000] m, target
    uniform in [500, 4500] m, beta in [1.5, 2.5], f in [5, 50] kHz,
    P_t in [-10, 10] dBm, sigma in [0.5, 6] dB.  Nothing is filtered here;
    the caller drops only what the program's Scenario validation rejects.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _GEOMETRY_STREAM]))
    out = []
    for _ in range(count):
        k = int(rng.choice((2, 3)))
        n = int(rng.integers(k + 2, 13))
        anchors = rng.uniform(0.0, 5000.0, (n, k))
        target = rng.uniform(500.0, 4500.0, k)
        ple = float(rng.uniform(1.5, 2.5))
        frequency = float(rng.uniform(5.0, 50.0))
        power = float(rng.uniform(-10.0, 10.0))
        sigma = float(rng.uniform(0.5, 6.0))
        noise = rng.standard_normal(n)
        out.append(Instance(anchors, target, ple, frequency, power, sigma, noise))
    return out


def sweep_master_seed(seed):
    """Master seed handed to ``uwloc simulate`` for this benchmark seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SWEEP_STREAM]))
    return int(rng.integers(0, 2**31 - 1))


def sweep_scenario_bytes(bundled_doc, seed, mc_trials):
    """Scenario file for the sigma sweep: the bundled network, joint power.

    Only the master seed, the trial count and the sigma grid are set; every
    other key keeps its bundled value.
    """
    doc = dict(bundled_doc)
    doc["master_seed"] = sweep_master_seed(seed)
    doc["mc_trials"] = int(mc_trials)
    doc["sigma_grid_db"] = list(SWEEP_SIGMA_GRID_DB)
    doc["solver"] = dict(doc.get("solver", {}), known_power=False)
    doc["sweep"] = dict(doc.get("sweep", {}), kind="sigma")
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def instance_scenario_bytes(inst):
    """Scenario file describing one instance's geometry and channel."""
    doc = {
        "anchors_m": inst.anchors_m.tolist(),
        "target_m": inst.target_m.tolist(),
        "ple": inst.ple,
        "frequency_khz": inst.frequency_khz,
        "transmit_power_dbm": inst.transmit_power_dbm,
        "noise": {"kind": "zero_mean_gaussian", "sigma_db": inst.sigma_db},
        "sigma_grid_db": [inst.sigma_db],
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
