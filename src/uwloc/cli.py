"""Command-line interface.

Exit codes: 0 success, 1 usage or configuration errors, 2 computational
failures (degenerate geometry, overflow or underflow, singular matrices).
All randomness flows from the scenario file's master_seed; wall-clock time
never enters the results (the CSV's seconds_per_solve column is zeroed
unless --timing is given, and measured timing goes to stderr instead).
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import experiments, weighting
from .channel import absorption_coefficient
from .config import load_measurements, parse_scenario
from .errors import ConfigError, UwlocError

SIMULATE_EPILOG = (
    "Output CSV columns, in order: "
    + ", ".join(experiments.CSV_COLUMNS)
    + ". Numbers use 9 significant digits and '.' as the decimal separator. "
    "Two runs with the same config and seed produce byte-identical files "
    "(timing is only written with --timing)."
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for computational failures, so route through exit 1.
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # one argparse tree per process; parse_args keeps no state in it
def _build_parser():
    parser = _Parser(
        prog="uwloc",
        description="RSS-based underwater localization with unknown transmit power.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run the configured Monte Carlo sweep and write a CSV",
        epilog=SIMULATE_EPILOG,
    )
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and has no effect: sweep points are"
        " solved in batches in this process",
    )
    sim.add_argument(
        "--timing",
        action="store_true",
        help="write measured seconds_per_solve into the CSV (breaks byte-identical"
        " reruns); it is the wall time of the batch a point was solved in, building"
        " included, divided by that batch's trials",
    )

    bound = sub.add_parser("crlb", help="print position/power bounds across the sigma grid")
    bound.add_argument("--config", required=True, help="scenario JSON file")

    loc = sub.add_parser("locate", help="estimate position and power from a measurement file")
    loc.add_argument("--config", required=True, help="scenario JSON file")
    loc.add_argument("--measurements", required=True, help="measurement JSON file")

    wgt = sub.add_parser("weights", help="print link weights for a measurement file")
    wgt.add_argument("--config", required=True, help="scenario JSON file")
    wgt.add_argument("--measurements", required=True, help="measurement JSON file")

    absn = sub.add_parser("absorption", help="print the absorption coefficient in dB/m")
    absn.add_argument("--freq-khz", type=float, required=True, help="center frequency in kHz")

    return parser


def _cmd_simulate(args):
    config = parse_scenario(args.config)
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    records = experiments.run_sweep(config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        experiments.write_csv(records, handle, include_timing=args.timing)
    for record in records:
        if record.failures:
            causes = "; ".join(
                f"{name} in {len(trials)}, first trials {', '.join(map(str, trials[:5]))}"
                for name, trials, _ in record.failures
            )
            print(
                f"{record.sweep_coord}: {record.solve_failures} of {record.trials} trials"
                f" dropped from the averages ({causes})",
                file=sys.stderr,
            )
            for name, trials, message in record.failures:
                print(f"  {name}, first at trial {trials[0]}: {message}", file=sys.stderr)
    mean_solve = float(np.mean([r.seconds_per_solve for r in records]))
    print(
        f"seconds_per_solve={mean_solve:.6f} (measured wall clock; informational)",
        file=sys.stderr,
    )
    return 0


def _cmd_crlb(args):
    config = parse_scenario(args.config)
    print("sigma_db,crlb_t_m,crlb_p_db")
    for sigma in config.sigma_grid_db:
        crlb_t, crlb_p = experiments.point_bounds(config.scenario, sigma, config.known_power)
        power = "" if crlb_p is None else f"{crlb_p:.9g}"
        print(f"{sigma:.9g},{crlb_t:.9g},{power}")
    return 0


def _cmd_locate(args):
    config = parse_scenario(args.config)
    env = config.scenario.environment
    measurements = load_measurements(args.measurements, env)
    estimate = experiments.locate(config, measurements, config.scenario.anchors_m, env)
    record = {
        "position_m": [float(x) for x in estimate.position_m],
        "transmit_power_dbm": estimate.transmit_power_dbm,
        "power_valid": estimate.power_valid,
        "multiplier": estimate.multiplier,
        "iterations": estimate.iterations,
        "kkt_stationarity": estimate.kkt_stationarity,
        "kkt_constraint": estimate.kkt_constraint,
        "kkt_min_eig_ratio": estimate.kkt_min_eig_ratio,
    }
    print(json.dumps(record))
    return 0


def _cmd_weights(args):
    scenario = parse_scenario(args.config).scenario
    measurements = load_measurements(args.measurements, scenario.environment)
    measurements.anchor_rows(scenario.anchors_m)  # the reading check of locate
    for value in weighting.link_weights(measurements, scenario.environment):
        print(f"{value:.9g}")
    return 0


def _cmd_absorption(args):
    try:
        alpha = absorption_coefficient(args.freq_khz)
    except ValueError as exc:
        raise ConfigError(f"--freq-khz: {exc}") from exc
    print(f"{alpha:.6e}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "crlb": _cmd_crlb,
    "locate": _cmd_locate,
    "weights": _cmd_weights,
    "absorption": _cmd_absorption,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except UwlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
