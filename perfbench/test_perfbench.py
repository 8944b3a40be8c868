"""Tests of the benchmark's own logic: inputs, span arithmetic, speed gauge,
end-to-end metric arithmetic.

Run with ``python3 -m pytest perfbench``; nothing here imports uwloc.
"""

import importlib
import json
import types

import numpy as np
import pytest

import inputs
import spans
import speed


def _instances_bytes(instances):
    parts = []
    for inst in instances:
        scalars = [inst.ple, inst.frequency_khz, inst.transmit_power_dbm, inst.sigma_db]
        parts += [inst.anchors_m.tobytes(), inst.target_m.tobytes(), np.array(scalars).tobytes(),
                  inst.unit_noise.tobytes()]
    return b"".join(parts)


def test_same_seed_gives_byte_identical_inputs():
    first = _instances_bytes(inputs.random_instances(7, 40))
    again = _instances_bytes(inputs.random_instances(7, 40))
    other = _instances_bytes(inputs.random_instances(8, 40))
    assert first == again
    assert first != other


def test_sweep_scenario_file_is_a_function_of_the_seed():
    bundled = {"master_seed": 5, "mc_trials": 3000, "ple": 2.0, "solver": {"weighted": True}}
    first = inputs.sweep_scenario_bytes(bundled, 3, 50)
    assert first == inputs.sweep_scenario_bytes(bundled, 3, 50)
    assert first != inputs.sweep_scenario_bytes(bundled, 4, 50)
    doc = json.loads(first)
    assert doc["mc_trials"] == 50
    assert doc["master_seed"] == inputs.sweep_master_seed(3)
    assert doc["sigma_grid_db"] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert doc["solver"] == {"weighted": True, "known_power": False}
    assert bundled["master_seed"] == 5  # the bundled document is not modified


def test_instances_stay_in_the_documented_ranges():
    for inst in inputs.random_instances(11, 200):
        n, k = inst.anchors_m.shape
        assert k in (2, 3)
        assert k + 2 <= n <= 12
        assert inst.target_m.shape == (k,)
        assert inst.unit_noise.shape == (n,)
        assert np.all((inst.anchors_m >= 0.0) & (inst.anchors_m <= 5000.0))
        assert np.all((inst.target_m >= 500.0) & (inst.target_m <= 4500.0))
        assert 1.5 <= inst.ple <= 2.5
        assert 5.0 <= inst.frequency_khz <= 50.0
        assert 0.5 <= inst.sigma_db <= 6.0


def _span(name, layer, start, end, parent=None, error=None):
    return spans.Span(name, layer, start, end, parent, None, error)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.main", "cli", 0.0, 10.0),
        _span("gtrs.solve", "gtrs.solve", 1.0, 4.0, parent=0),
        _span("numerics.sym_eig", "numerics", 2.0, 3.0, parent=1),
        _span("crlb.fim_unknown_power", "crlb", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    layer_self, calls, failures = spans.summarize(tree)
    assert sum(layer_self.values()) == pytest.approx(10.0)
    assert layer_self == pytest.approx({"cli": 3.0, "gtrs.solve": 2.0, "numerics": 1.0, "crlb": 4.0})
    assert calls == {"cli": 1, "gtrs.solve": 1, "numerics": 1, "crlb": 1}
    assert failures == {}


def test_nested_call_within_a_layer_counts_once_and_failure_at_outermost():
    tree = [
        _span("gtrs.build_known_power_system", "gtrs.build", 0.0, 5.0, error="GeometryError"),
        _span("gtrs.build_system", "gtrs.build", 1.0, 4.0, parent=0, error="GeometryError"),
        _span("numerics.sym_eig", "numerics", 2.0, 3.0, parent=1, error="SingularMatrixError"),
    ]
    layer_self, calls, failures = spans.summarize(tree)
    assert layer_self["gtrs.build"] == pytest.approx(4.0)
    assert calls == {"gtrs.build": 1, "numerics": 1}
    assert failures == {"GeometryError": [None]}


def test_tracer_records_parents_ops_and_errors_then_restores():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace(__name__="pkg.mod")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return module.leaf(x) + 1

    module.leaf, module.outer = leaf, outer
    seen = []
    tracer.wrap(module, "leaf", "inner")
    tracer.wrap(module, "outer", "top", after=seen.append)
    tracer.op = "op1"
    assert module.outer(2) == 3
    tracer.op = "op2"
    with pytest.raises(ValueError):
        module.outer(-1)
    tracer.uninstall()
    assert module.leaf is leaf and module.outer is outer
    assert seen == [3]
    names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
    assert names == [
        ("mod.outer", None, "op1", None),
        ("mod.leaf", 0, "op1", None),
        ("mod.outer", None, "op2", "ValueError"),
        ("mod.leaf", 2, "op2", "ValueError"),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def test_gauge_rescales_each_block_by_the_kernel_times_around_it():
    times = iter([2.0, 4.0, 6.0])
    gauge = speed.Gauge(kernel=lambda: next(times), reference_s=2.0)
    assert gauge.block_slowdown() == pytest.approx(1.5)  # (2 + 4) / (2 * 2)
    assert gauge.block_slowdown() == pytest.approx(2.5)  # (4 + 6) / (2 * 2)
    assert gauge.slowdowns == pytest.approx([1.5, 2.5])


def test_end_to_end_metrics_use_rescaled_per_input_medians(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # importing run pins these; undone after the test
    run = importlib.import_module("run")
    outcome = run.Outcome()
    outcome.success("a", 0.004)
    outcome.success("b", 0.008)
    outcome.close_block(2.0)  # a 2 ms, b 4 ms
    outcome.success("a", 0.002)
    outcome.success("b", 0.008)
    outcome.close_block(1.0)  # a 2 ms, b 8 ms
    outcome.success("a", 0.006)
    outcome.close_block(1.0)  # a 6 ms
    outcome.failure("c", "fixc", "GeometryError")
    outcome.failure("c", "fixc", "GeometryError")
    metrics = run.end_to_end_metrics(outcome, setup_s=0.5)
    # One latency per input, the median of its repeats: a 2 ms, b 6 ms.
    assert metrics["work_per_s"] == pytest.approx(2 / 0.008)
    assert metrics["op_p50_ms"] == pytest.approx(4.0)
    assert metrics["op_p99_ms"] == pytest.approx(2.0 + 0.99 * 4.0)
    assert metrics["solved_frac"] == pytest.approx(2 / 3)
    assert metrics["setup_s"] == 0.5
    assert (outcome.attempted, outcome.failed) == (7, 2)
    assert outcome.failures == {"GeometryError": ["fixc"]}


def test_gram_floor_separates_rank_deficient_designs(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = importlib.import_module("run")
    orthogonal = np.diag([3.0, 1e-6, 5e4])
    assert run.normalized_gram_floor(orthogonal) == pytest.approx(1.0)  # scale-free
    deficient = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    assert run.normalized_gram_floor(deficient) < run.GRAM_HEADROOM
