"""The benchmark's output gate in the test suite.

Part 0 of every benchmark workload at benchmark seed 0 runs through
`gpip.run` as `bench/campaign.py` runs it (its config written as JSON and
loaded back) and must pass `bench/reference.py`'s check against the recorded
summaries. The benchmark modules are imported read-only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gpip
from gpip import runner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference  # noqa: E402
import workloads  # noqa: E402


def run_part0(workload: str, out: Path) -> dict:
    """Run part 0 of `workload` at benchmark seed 0 into `out`; returns its config."""
    cfg = workloads.campaign_configs(workload, 0)[0]
    out.mkdir()
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    gpip.run(gpip.load_config(path), out)
    return cfg


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_part0_matches_its_reference(tmp_path, workload):
    cfg = run_part0(workload, tmp_path / "out")
    assert reference.check(workload, cfg, tmp_path / "out") == []


def test_system_part0_is_byte_identical_on_one_and_two_setup_threads(tmp_path, monkeypatch):
    # 19 serving BSs split between the caller and one helper, against the plain loop
    outs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda cpus=cpus: cpus)
        cfg = run_part0("system-19cell", tmp_path / f"cpus{cpus}")
        outs[cpus] = artifacts(tmp_path / f"cpus{cpus}")
    assert sorted(outs[1]) == workloads.expected_artifacts(cfg)
    assert outs[1] == outs[2]
