"""Checks of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

import campaign
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def span(name, parent, start, end, unit=-1):
    return (name, parent, unit, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a1", 1, 2.0, 3.0),
        span("b", 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_layer_metrics_on_a_synthetic_campaign():
    s = 1e-3  # spans are in seconds, metrics in ms
    spans = [
        span("runner.run_link_level", -1, 0, 100 * s),
        span("evaluation.link_trial", 0, 10 * s, 90 * s, unit=0),
        span("evaluation.design_precoders", 1, 10 * s, 60 * s, unit=0),
        span("solver.gpip_iterate", 2, 12 * s, 58 * s, unit=0),
        span("numerics.solve_hermitian", 3, 20 * s, 30 * s, unit=0),
        span("numerics.solve_hermitian", 3, 30 * s, 40 * s, unit=0),
        span("solver.kkt_residual", 3, 50 * s, 55 * s, unit=0),
        span("baselines.sus_zf", 1, 60 * s, 80 * s, unit=0),
        span("baselines.waterfill", 7, 70 * s, 75 * s, unit=0),
        span("runner._write_csv", 0, 92 * s, 98 * s),
    ]
    m = tracing.layer_metrics(spans, {"gpip": [4], "covfree": [], "coop": []})
    assert m["solver.gpip_calls"] == 1
    assert m["solver.gpip_ms_p50"] == pytest.approx(46.0)
    assert m["solver.gpip_self_ms"] == pytest.approx(46.0 - 20.0 - 5.0)
    assert m["solver.gpip_sweeps_mean"] == 4
    assert m["solver.gpip_ms_per_sweep"] == pytest.approx(46.0 / 4)
    assert m["solver.kkt_ms"] == pytest.approx(5.0)
    assert m["numerics.solve_calls"] == 2
    assert m["numerics.solve_ms"] == pytest.approx(20.0)
    assert m["baselines.calls"] == 1  # waterfill runs inside sus_zf
    assert m["baselines.ms"] == pytest.approx(20.0)
    assert m["evaluation.design_self_ms"] == pytest.approx(50.0 - 46.0)
    assert m["runner.unit_ms_p50"] == pytest.approx(80.0)
    assert m["runner.write_ms"] == pytest.approx(6.0)
    assert m["runner.self_ms"] == pytest.approx(14.0 + 6.0)  # run_link_level + _write_csv
    assert m["coop.coop_calls"] == 0 and m["coop.coop_ms_per_sweep"] == 0.0


def test_percentile_interpolates():
    assert tracing.percentile([], 50) == 0.0
    assert tracing.percentile([3.0], 95) == 3.0
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert tracing.percentile(list(range(101)), 95) == pytest.approx(95.0)


def _function_bindings():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "gpip" or name.startswith("gpip.")
            for attr, obj in vars(mod).items() if isinstance(obj, types.FunctionType)}


def test_tracer_rebinds_by_name_imports_and_restores_them():
    import numpy as np

    import gpip
    from gpip import numerics, solver

    before = _function_bindings()
    original = numerics.solve_hermitian
    tracer = tracing.Tracer()
    with tracer:
        assert set(campaign.REQUIRED_SITES) <= tracer.sites
        assert solver.solve_hermitian is not original
        rng = np.random.default_rng(1)
        est = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        gpip.gpip_iterate(gpip.build_effective_pairs(est, None, 0.1))
    assert _function_bindings() == before
    spans = tracer.named_spans()
    names = [s[0] for s in spans]
    top = names.index("solver.gpip_iterate")
    solves = [s for s in spans if s[0] == "numerics.solve_hermitian"]
    assert solves and all(s[1] == top for s in solves)
    assert all(s[3] <= s[4] for s in spans)


def test_tracing_leaves_campaign_artifacts_byte_identical(tmp_path):
    import gpip
    from gpip.config import config_from_dict

    cfg = dict(workloads.warmup_config("system-19cell"), n_blocks=2)
    gpip.run(config_from_dict(dict(cfg)), tmp_path / "plain")
    with tracing.Tracer() as tracer:
        gpip.run(config_from_dict(dict(cfg)), tmp_path / "traced")
    assert tracer.named_spans()
    assert campaign.digest(tmp_path / "plain") == campaign.digest(tmp_path / "traced")


def test_summary_compare_tolerance():
    header = ["algorithm", "snr_db", "n_trials", "mean_sum_se", "mean_iterations"]
    ref = [["gpip", "0.0", "20", "5.5", "17.0"], ["zf", "0.0", "20", "4.25", ""]]
    assert reference.compare(header, ref, header, [r[:] for r in ref]) == []
    close = [["gpip", "0.0", "20", repr(5.5 * (1 + 1e-8)), "17.0"], ref[1]]
    assert reference.compare(header, ref, header, close) == []
    far = [["gpip", "0.0", "20", repr(5.5 * (1 + 1e-4)), "17.0"], ref[1]]
    assert len(reference.compare(header, ref, header, far)) == 1
    key = [["gpip", "5.0", "20", "5.5", "17.0"], ref[1]]
    assert len(reference.compare(header, ref, header, key)) == 1
    blank = [ref[0], ["zf", "0.0", "20", "4.25", "3.0"]]
    assert len(reference.compare(header, ref, header, blank)) == 1
    nan = [["gpip", "0.0", "20", "nan", "17.0"], ref[1]]
    assert len(reference.compare(header, ref, header, nan)) == 1
    assert reference.compare(header, ref, header, ref[:1])


def test_seed_pool_and_held_out_split():
    assert workloads.pool_entry(workloads.POOL_SIZE + 3) == 3
    assert not workloads.is_held_out(0)
    assert workloads.is_held_out(workloads.HELD_OUT_FROM)
    seeds = set()
    for entry in range(workloads.POOL_SIZE):
        for cfg in workloads.campaign_configs("system-19cell", entry):
            assert cfg["seed"] not in seeds
            seeds.add(cfg["seed"])
    assert workloads.campaign_configs("link-sweep", 5)[0]["seed"] == 5
