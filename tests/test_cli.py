import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwloc
from uwloc.cli import main
from uwloc.config import bundled_scenario_path, load_measurements, parse_scenario
from uwloc.errors import ConfigError, GeometryError
from uwloc.experiments import ExperimentConfig

BUNDLED_DOC = json.loads(bundled_scenario_path().read_text())


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    shutil.copy(bundled_scenario_path(), path)
    return path


@pytest.fixture()
def small_config_path(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["mc_trials"] = 15
    path = tmp_path / "scenario_small.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def zero_absorption_paths(tmp_path, config_path):
    """Config with absorption overridden to zero plus noiseless measurements."""
    doc = json.loads(config_path.read_text())
    doc["absorption_db_per_m"] = 0.0
    cfg = tmp_path / "scenario_zero_absorption.json"
    cfg.write_text(json.dumps(doc))
    parsed = parse_scenario(cfg)
    clean = uwloc.noiseless_rss(
        parsed.scenario.target_m, parsed.scenario.anchors_m, parsed.scenario.environment
    )
    meas = tmp_path / "measurements.json"
    meas.write_text(
        json.dumps({"anchor_index": list(range(10)), "rss_dbm": [float(p) for p in clean]})
    )
    return cfg, meas, parsed


class TestParseScenario:
    def test_bundled_reference_values(self):
        config = parse_scenario(bundled_scenario_path())
        assert config.scenario.anchors_m.shape == (10, 3)
        assert np.array_equal(config.scenario.anchors_m[0], [3380.0, 1270.0, 4460.0])
        assert np.array_equal(config.scenario.anchors_m[-1], [2870.0, 1520.0, 350.0])
        assert np.array_equal(config.scenario.target_m, [2980.0, 3750.0, 3000.0])
        assert config.mc_trials == 3000
        assert config.sigma_grid_db == (1.0, 3.0, 5.0, 7.0, 9.0)

    def test_empty_file_is_a_config_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ConfigError):
            parse_scenario(empty)

    def test_missing_field_named_in_diagnostic(self, tmp_path, config_path):
        doc = json.loads(config_path.read_text())
        del doc["ple"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="ple"):
            parse_scenario(path)

    def test_too_few_anchors_is_a_geometry_error(self, tmp_path, config_path):
        doc = json.loads(config_path.read_text())
        doc["anchors_m"] = doc["anchors_m"][:4]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(uwloc.GeometryError):
            parse_scenario(path)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(data=st.data())
    def test_any_one_entry_changed_parses_or_is_named(self, tmp_path_factory, data):
        """The bundled file with one entry replaced by any JSON value, or
        deleted, parses or fails with a ConfigError or GeometryError."""
        key = data.draw(st.sampled_from(sorted(BUNDLED_DOC)))
        below = entry_paths(BUNDLED_DOC[key], (key,))
        *parents, last = data.draw(st.sampled_from([(key,)] + below), label="path")
        value = data.draw(st.just(DELETE) | json_values, label="value")
        doc = json.loads(json.dumps(BUNDLED_DOC))
        parent = doc
        for step in parents:
            parent = parent[step]
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
        scenario = tmp_path_factory.getbasetemp() / "one_entry_changed.json"
        scenario.write_text(json.dumps(doc))
        try:
            assert isinstance(parse_scenario(scenario), ExperimentConfig)
        except (ConfigError, GeometryError):
            pass

    def test_measurement_loader(self, zero_absorption_paths):
        cfg, meas, parsed = zero_absorption_paths
        loaded = load_measurements(meas, parsed.scenario.environment)
        assert len(loaded) == 10
        assert np.array_equal(loaded.anchor_index, np.arange(10))


def entry_paths(doc, prefix=()):
    """Key/index path of every value below ``doc`` in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    paths = []
    for key, value in items:
        paths += [prefix + (key,)] + entry_paths(value, prefix + (key,))
    return paths


DELETE = "<delete the entry>"

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8,
)


class TestAbsorptionCommand:
    def test_prints_reference_value(self, capsys):
        assert main(["absorption", "--freq-khz", "9"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(9.86e-4, rel=5e-4)

    @pytest.mark.parametrize("freq", ["-1", "nan", "inf", "1e200"])  # 1e200: f^2 overflows
    def test_bad_frequency_is_a_config_error(self, capsys, freq):
        assert main(["absorption", f"--freq-khz={freq}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("configuration error: --freq-khz: ")


class TestSimulateCommand:
    def test_byte_identical_across_thread_counts(self, small_config_path, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(small_config_path), "--out", str(out1)]) == 0
        assert main(
            ["simulate", "--config", str(small_config_path), "--out", str(out2), "--threads", "4"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "seconds_per_solve" in capsys.readouterr().err

    def test_dropped_trials_reported_on_stderr(self, config_path, tmp_path, capsys):
        # At 50 kHz every trial fails the build_system rank gate; the CSV
        # keeps its row and the drops are named on stderr.
        doc = json.loads(config_path.read_text())
        doc["mc_trials"] = 6
        doc["sweep"] = {"kind": "frequency", "frequency_grid_khz": [9, 50]}
        path = tmp_path / "frequency.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        dropped = [line for line in capsys.readouterr().err.splitlines() if "dropped" in line]
        assert dropped == [
            "frequency_khz=50,sigma=2: 6 of 6 trials dropped from the averages"
            " (GeometryError in 6, first trials 0, 1, 2, 3, 4)"
        ]
        assert out.read_text().splitlines()[2].startswith("frequency_khz=50,sigma=2,,,")

    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_power_far_below_the_usual_one_gives_the_same_csv(self, config_path, tmp_path, known_power):
        # Readings 1000 dB down rescale every trial's problem; the bisection
        # runs the extra steps to bracket collapse and lands on the same fixes.
        doc = json.loads(config_path.read_text())
        doc["mc_trials"] = 5
        doc["solver"]["known_power"] = known_power
        csvs = []
        for power in (0.0, -1000.0):
            doc["transmit_power_dbm"] = power
            path = tmp_path / f"power{power:g}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"power{power:g}.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert BUNDLED_DOC["transmit_power_dbm"] == 0.0 and csvs[0] == csvs[1]

    def test_csv_header(self, small_config_path, tmp_path):
        out = tmp_path / "c.csv"
        main(["simulate", "--config", str(small_config_path), "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == (
            "sweep_coord,nrmse_t_m,nrmse_p_db,crlb_t_m,crlb_p_db,"
            "power_failures,trials,seconds_per_solve"
        )


class TestCrlbCommand:
    def test_matches_library_values(self, config_path, capsys):
        assert main(["crlb", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sigma_db,crlb_t_m,crlb_p_db"
        config = parse_scenario(config_path)
        report = uwloc.fim_unknown_power(config.scenario, 1.0)
        sigma, crlb_t, crlb_p = lines[1].split(",")
        assert float(sigma) == 1.0
        assert float(crlb_t) == pytest.approx(report.crlb_t_m, rel=1e-8)
        assert float(crlb_p) == pytest.approx(report.crlb_p_db, rel=1e-8)


class TestLocateCommand:
    def test_noiseless_zero_absorption_recovers_truth(self, zero_absorption_paths, capsys):
        cfg, meas, parsed = zero_absorption_paths
        assert main(["locate", "--config", str(cfg), "--measurements", str(meas)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert np.allclose(record["position_m"], parsed.scenario.target_m, atol=1e-4)
        assert record["power_valid"]
        assert abs(record["transmit_power_dbm"]) <= 1e-6


    def test_anchor_index_selects_anchor_rows(self, config_path, tmp_path, capsys):
        parsed = parse_scenario(config_path)
        scenario = parsed.scenario
        clean = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
        positions = []
        for order in (np.arange(10), np.random.default_rng(3).permutation(10)):
            meas = tmp_path / "measurements.json"
            meas.write_text(json.dumps(
                {"anchor_index": order.tolist(), "rss_dbm": clean[order].tolist()}
            ))
            assert main(["locate", "--config", str(config_path), "--measurements", str(meas)]) == 0
            positions.append(json.loads(capsys.readouterr().out)["position_m"])
        assert np.allclose(positions[0], positions[1], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("bad_index", [99, -1])
    def test_anchor_index_out_of_range_exits_one(self, config_path, tmp_path, capsys, bad_index):
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps(
            {"anchor_index": list(range(9)) + [bad_index], "rss_dbm": [-70.0] * 10}
        ))
        assert main(["locate", "--config", str(config_path), "--measurements", str(meas)]) == 1
        assert f"anchor_index {bad_index}" in capsys.readouterr().err


SHIFT_WEIGHTS = "0.111111111\n0\n" + "0.111111111\n" * 8
WEIGHTING_OVERFLOW = "error: the link weighting exponent overflows: readings are too large\n"
BUILD_OVERFLOW = (
    "error: the weighted system overflows: readings or anchor coordinates are too large\n"
)


class TestWeightsCommand:
    def test_prints_normalized_vector(self, zero_absorption_paths, capsys):
        cfg, meas, _ = zero_absorption_paths
        assert main(["weights", "--config", str(cfg), "--measurements", str(meas)]) == 0
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert len(values) == 10
        assert sum(values) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "index, message",
        [
            ([0, 1, 2], "3 measurements for 10 anchors"),
            (list(range(9)) + [99], "anchor_index 99 is outside [0, 9]"),
            ([0], "1 measurements for 10 anchors"),  # one reading cannot be weighted
        ],
    )
    @pytest.mark.parametrize("command", ["weights", "locate"])
    def test_readings_that_do_not_match_the_anchors_exit_one(
        self, config_path, tmp_path, capsys, command, index, message
    ):
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps({"anchor_index": index, "rss_dbm": [-70.0] * len(index)}))
        assert main([command, "--config", str(config_path), "--measurements", str(meas)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"configuration error: {message}\n"

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the overflow
    @pytest.mark.parametrize(
        "command, rss, code, out, err",
        [
            # At ple 0.05 the weighting exponent 2*(alpha - P_i) of 1e308 overflows.
            ("weights", [1e308] * 10, 2, "", WEIGHTING_OVERFLOW),
            ("locate", [1e308] * 10, 2, "", WEIGHTING_OVERFLOW),
            # Finite exponents whose shift by the largest one overflows to -inf: x = 0.
            ("weights", [8e307, -8e307] + [0.0] * 8, 0, SHIFT_WEIGHTS, ""),
            ("locate", [8e307, -8e307] + [0.0] * 8, 2, "", BUILD_OVERFLOW),
        ],
        ids=["weights-exponent", "locate-exponent", "weights-shift", "locate-shift"],
    )
    def test_overflowing_readings_are_named_errors(
        self, config_path, tmp_path, capsys, command, rss, code, out, err
    ):
        doc = json.loads(config_path.read_text())
        doc["ple"] = 0.05
        cfg = tmp_path / "low_ple.json"
        cfg.write_text(json.dumps(doc))
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps({"anchor_index": list(range(10)), "rss_dbm": rss}))
        assert main([command, "--config", str(cfg), "--measurements", str(meas)]) == code
        assert tuple(capsys.readouterr()) == (out, err)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["survey"]) == 1
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert main(["simulate"]) == 1
        capsys.readouterr()

    def test_config_errors_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["crlb", "--config", str(bad)]) == 1
        capsys.readouterr()

    def test_geometry_errors_exit_two(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["anchors_m"] = doc["anchors_m"][:4]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ple", 0),
            ("frequency_khz", -1),
            ("frequency_khz", 1e200),  # absorption curve gives nan
            ("ple", "2.0"),  # a number in a string is not a number
            ("absorption_db_per_m", -1),
            ("anchors_m", [[[3380.0, 1270.0, 4460.0]]] * 10),
            ("target_m", [[2980.0, 3750.0, 3000.0]]),
        ],
    )
    def test_bad_environment_values_and_array_shapes_exit_one(
        self, tmp_path, config_path, capsys, key, value
    ):
        doc = json.loads(config_path.read_text())
        doc[key] = value
        path = tmp_path / "bad_environment.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coordinates_are_a_geometry_error(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["anchors_m"][0][0] = 1e300
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: gradient directions overflow; coordinates or ple are too large\n"
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "frequency_khz", float("nan")),
            (None, "transmit_power_dbm", float("inf")),
            (None, "sigma_grid_db", ["abc"]),
            ("sweep", "ple_grid", ["x"]),
        ],
    )
    def test_bad_numbers_are_named_config_errors(
        self, tmp_path, config_path, capsys, section, key, value
    ):
        doc = json.loads(config_path.read_text())
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err

    def test_overflowing_transmit_power_locate_known(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["transmit_power_dbm"] = 1e308
        doc["solver"]["known_power"] = True
        path = tmp_path / "huge_power.json"
        path.write_text(json.dumps(doc))
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps({"anchor_index": list(range(10)), "rss_dbm": [-70.0] * 10}))
        assert main(["locate", "--config", str(path), "--measurements", str(meas)]) == 2
        assert capsys.readouterr().err == (
            "error: transmit power 1e+308 dBm overflows u = 10^(P_t/(5*beta))\n"
        )

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the overflow
    @pytest.mark.parametrize(
        "ple, solver",
        [
            (2.0, {"known_power": False}),
            (2.0, {"known_power": True}),
            # At ple 0.05 the weighting exponent overflows first; unweighted, the build does.
            (0.05, {"weighted": True}),
            (0.05, {"weighted": False}),
        ],
        ids=["joint", "known", "weighted-low-ple", "unweighted-low-ple"],
    )
    def test_overflowing_transmit_power_simulate(
        self, tmp_path, config_path, capsys, ple, solver
    ):
        # Readings near 1e308 dBm overflow q^2 in every trial's build.
        doc = json.loads(config_path.read_text())
        doc["transmit_power_dbm"] = 1e308
        doc["ple"] = ple
        doc["solver"].update(solver)
        doc["mc_trials"] = 3
        doc["sigma_grid_db"] = [3.0]
        path = tmp_path / "huge_power.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "huge.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            "sigma=3: 3 of 3 trials dropped from the averages"
            " (NumericalError in 3, first trials 0, 1, 2)"
        )
        assert "Traceback" not in err
        assert out.read_text().splitlines()[1].startswith("sigma=3,,,")

    def test_dropped_trials_name_the_first_message(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["transmit_power_dbm"] = 1e308
        doc["solver"]["known_power"] = True
        doc["mc_trials"] = 3
        doc["sigma_grid_db"] = [3.0]
        path = tmp_path / "huge_power.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().err.splitlines()[1] == (
            "  NumericalError, first at trial 0:"
            " transmit power 1e+308 dBm overflows u = 10^(P_t/(5*beta))"
        )

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the underflow
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_underflowing_readings_are_a_numerical_error(
        self, tmp_path, config_path, capsys, known_power
    ):
        # At -1500 dBm every reading is too weak for the Jacobi scaling of
        # the normal matrix; the build drops each trial, and locate exits 2.
        doc = json.loads(config_path.read_text())
        doc["transmit_power_dbm"] = -1500.0
        doc["solver"]["known_power"] = known_power
        doc["mc_trials"] = 3
        doc["sigma_grid_db"] = [3.0]
        path = tmp_path / "faint_power.json"
        path.write_text(json.dumps(doc))
        underflows = (
            "the weighted system underflows: readings or anchor coordinates are too small"
        )
        out = tmp_path / "faint.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[:2] == [
            "sigma=3: 3 of 3 trials dropped from the averages"
            " (NumericalError in 3, first trials 0, 1, 2)",
            f"  NumericalError, first at trial 0: {underflows}",
        ]
        assert out.read_text().splitlines()[1].startswith("sigma=3,,,")
        scenario = parse_scenario(path).scenario
        clean = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps({"anchor_index": list(range(10)), "rss_dbm": clean.tolist()}))
        assert main(["locate", "--config", str(path), "--measurements", str(meas)]) == 2
        assert capsys.readouterr().err == f"error: {underflows}\n"

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the square
    @pytest.mark.parametrize(
        "sigma, message",
        [
            (1e-200, "noise sigma 1e-200 dB underflows: its square is below the smallest normal float"),
            (1e200, "noise sigma 1e+200 dB overflows: its square is not finite"),
        ],
        ids=["underflow", "overflow"],
    )
    @pytest.mark.parametrize("command", ["crlb", "simulate"])
    def test_sigma_whose_square_leaves_the_float_range(
        self, tmp_path, config_path, capsys, command, sigma, message
    ):
        doc = json.loads(config_path.read_text())
        doc["sigma_grid_db"] = [sigma]
        doc["mc_trials"] = 3
        path = tmp_path / "extreme_sigma.json"
        path.write_text(json.dumps(doc))
        args = [command, "--config", str(path)]
        if command == "simulate":
            args += ["--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the Fisher terms
    @pytest.mark.parametrize("command", ["crlb", "simulate"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_sigma_whose_fisher_terms_underflow(
        self, tmp_path, config_path, capsys, command, known_power
    ):
        # 1e154 squares to a normal float, but sigma^2 d^4 overflows, so every
        # anchor's Fisher term would read 0 and the bound would blame the anchors.
        doc = json.loads(config_path.read_text())
        doc["sigma_grid_db"] = [1.0, 1e154]
        doc["mc_trials"] = 3
        doc["solver"]["known_power"] = known_power
        path = tmp_path / "huge_sigma.json"
        path.write_text(json.dumps(doc))
        args = [command, "--config", str(path)]
        if command == "simulate":
            args += ["--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        context = "known-power bound" if known_power else "unknown-power bound"
        assert capsys.readouterr().err == (
            f"error: {context}: Fisher matrix at noise sigma 1e+154 dB underflows:"
            " an anchor's term is below the smallest normal float\n"
        )

    def test_sweep_is_bounded_before_its_first_trial(
        self, tmp_path, config_path, capsys, monkeypatch
    ):
        drawn = []
        trial_rng = uwloc.experiments.trial_rng
        monkeypatch.setattr(uwloc.experiments, "trial_rng", lambda *args: (
            drawn.append(args) or trial_rng(*args)))
        doc = json.loads(config_path.read_text())
        doc["sigma_grid_db"] = [1, 1e200]
        doc["mc_trials"] = 50
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "never.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: noise sigma 1e+200 dB overflows: its square is not finite\n"
        )
        assert drawn == [] and not out.exists()

    def test_unknown_noise_kind_fails_before_the_sweep(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["sweep"] = {"kind": "noise_scenarios", "noise_kinds": ["x"]}
        path = tmp_path / "bad_kind.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "never.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "noise_kinds entry 'x'" in err
        assert not out.exists()

    def test_noise_field_error_names_its_context_once(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["noise"]["sigma_db"] = "a"
        path = tmp_path / "bad_noise.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count(f"{path}: noise") == 1 and "'sigma_db'" in err

    def test_fewer_readings_than_anchors_exits_one(self, config_path, tmp_path, capsys):
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps({"anchor_index": list(range(9)), "rss_dbm": [-70.0] * 9}))
        assert main(["locate", "--config", str(config_path), "--measurements", str(meas)]) == 1
        err = capsys.readouterr().err
        assert err == "configuration error: 9 measurements for 10 anchors\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "squared_weights", True),
            ("solver", "tol_lambda", 0.0),
            (None, "mc_trails", 10),
            ("noise", "sigma", 3.0),
            ("sweep", "ple_gird", [2.0]),
            ("solver", "tol_phi", 0.0),
            ("solver", "max_iter", 0),
            ("noise", "impulsive_upper_db", 50.0),
            (None, "reference_distance_m", 0),
        ],
    )
    def test_unknown_keys_are_named_config_errors(
        self, tmp_path, config_path, capsys, section, key, value
    ):
        doc = json.loads(config_path.read_text())
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "unknown_key.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"unknown field {key!r}" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "master_seed", -1),
            ("sweep", "ple_grid", []),
            ("sweep", "frequency_grid_khz", []),
            ("sweep", "anchor_counts", []),
            ("sweep", "noise_kinds", []),
            ("sweep", "bias_scenarios", []),
            ("sweep", "bias_scenarios", [["ple_minus_100pct", -1.0, 0.0]]),
            ("sweep", "bias_scenarios", [["absorption_minus_150pct", 0.0, -1.5]]),
            ("sweep", "frequency_grid_khz", [9, 1e200]),  # absorption is not finite
        ],
    )
    def test_values_that_break_a_sweep_fail_at_parse_time(
        self, tmp_path, config_path, capsys, section, key, value
    ):
        doc = json.loads(config_path.read_text())
        doc["mc_trials"] = 5
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "bad_sweep.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "never.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, entry",
        [
            ("anchor_index", 0.7),
            ("anchor_index", "3"),
            ("anchor_index", True),
            ("rss_dbm", "-70"),
            ("rss_dbm", None),
        ],
    )
    def test_measurement_entries_are_typed(self, config_path, tmp_path, capsys, field, entry):
        doc = {"anchor_index": list(range(10)), "rss_dbm": [-70.0] * 10}
        doc[field][3] = entry
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps(doc))
        assert main(["locate", "--config", str(config_path), "--measurements", str(meas)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"{field} entry" in err

    def test_unknown_measurement_key_is_a_config_error(self, config_path, tmp_path, capsys):
        meas = tmp_path / "measurements.json"
        meas.write_text(json.dumps(
            {"anchor_index": list(range(10)), "rss_dbm": [-70.0] * 10, "rss_dmb": []}
        ))
        assert main(["locate", "--config", str(config_path), "--measurements", str(meas)]) == 1
        assert "unknown field 'rss_dmb'" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--help"])
        assert excinfo.value.code == 0
