"""Output gate: a campaign's artifacts against a reference recorded earlier.

`reference/<workload>.json` holds the summary.csv rows a known-good commit
wrote for every campaign seed the workload can run (every part of every
pool entry). A campaign passes the gate when every expected artifact exists
and is non-empty and every summary value matches: key columns and empty
cells exactly, numbers within RTOL relative plus ATOL absolute. The tolerance admits floating-point reordering in the solver, not
a change of what the algorithms compute; a change that means to alter the
outputs records the reference again with `run.py --record`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads

RTOL = 1e-6
ATOL = 1e-9
KEY_COLUMNS = ("algorithm", "snr_db", "tx_snr_db", "n_trials", "n_drops")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_summary(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def _base_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "seed"}


def compare(ref_header, ref_rows, header, rows) -> list[str]:
    """Mismatches between a summary and its reference, one line each."""
    if header != ref_header:
        return [f"summary header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"summary has {len(rows)} rows, reference {len(ref_rows)}"]
    out = []
    for row, ref in zip(rows, ref_rows):
        for col, got, want in zip(header, row, ref):
            if got == want:
                continue
            if col not in KEY_COLUMNS and got and want:
                a, b = float(got), float(want)
                if math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b):
                    continue
            out.append(f"{row[0]} @ {row[1]}: {col} = {got}, reference {want}")
    return out


def check(workload: str, cfg: dict, out_dir: Path) -> list[str]:
    """Every problem found with one campaign's artifacts; empty when it passes."""
    problems = [f"artifact missing or empty: {name}"
                for name in workloads.expected_artifacts(cfg)
                if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]
    path = reference_path(workload)
    if not path.is_file():
        return problems + [f"no reference file {path.name}"]
    ref = json.loads(path.read_text())
    if ref["config"] != _base_config(cfg):
        return problems + ["reference was recorded for a different workload config"]
    rows = ref["summaries"].get(str(cfg["seed"]))
    if rows is None:
        return problems + [f"no reference for campaign seed {cfg['seed']}"]
    if (out_dir / "summary.csv").is_file():
        problems += compare(ref["header"], rows, *read_summary(out_dir / "summary.csv"))
    return problems


def write_reference(workload: str, summaries: dict, header: list[str], src_sha256: str) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    data = {
        "workload": workload,
        "config": _base_config(workloads.campaign_configs(workload, 0)[0]),
        "src_sha256": src_sha256,
        "tolerance": {"rtol": RTOL, "atol": ATOL},
        "header": header,
        "summaries": {str(s): summaries[s] for s in sorted(summaries)},
    }
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return path
