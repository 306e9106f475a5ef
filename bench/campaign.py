"""The campaign process: runs one workload's campaign through `gpip.run`.

Started by run.py with the thread variables pinned. A pass runs every part
of the workload once, each between two samples of the speed probe.
Untraced, passes repeat while the time budget lasts. Traced, one untraced
pass is followed by passes with the tracer installed, and the per-layer
metrics come from their spans. Every campaign's artifacts are digested, so
repeats and traced runs are held byte for byte against the first pass.

    python3 bench/campaign.py --workload link-sweep --seed 0 --seconds 10 \
        --trace 0 --work .bench_work/x --result .bench_work/x/result.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads
from run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
# call sites that import a callee by name; tracing must rebind each of them
REQUIRED_SITES = ("gpip.solver.solve_hermitian", "gpip.coop.solve_hermitian",
                  "gpip.channel.solve_hermitian", "gpip.baselines.solve_hermitian",
                  "gpip.solver.rank1_inverse_update", "gpip.runner.link_trial")


def digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def read_sweeps(out_dirs) -> dict:
    """Per-solve iteration counts by solver kind, from the solver CSVs."""
    kinds = {"gpip": "gpip", "gpip-covfree": "covfree", "gpip-coop": "coop"}
    sweeps = {"gpip": [], "covfree": [], "coop": []}
    for out_dir in out_dirs:
        for name in ("solver.csv", "solver_coop.csv"):
            path = Path(out_dir) / name
            if not path.is_file():
                continue
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    sweeps[kinds[row["algorithm"]]].append(int(row["iterations"]))
    return sweeps


def environment(workload: str, seed: int, seconds: int, trace_on: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None  # an exported checkout has no history; src_sha256 identifies it then
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "gpip").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "pool_entry": workloads.pool_entry(seed),
        "campaign_seeds": [c["seed"] for c in workloads.campaign_configs(workload, seed)],
        "held_out": workloads.is_held_out(seed),
        "seconds": seconds,
        "trace": trace_on,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Campaigns:
    """Runs the parts of a workload and checks each against its first run."""

    def __init__(self, gpip, work: Path, cfg_paths: list[Path]):
        self.gpip, self.work, self.cfg_paths = gpip, work, cfg_paths
        self.attempted = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, dict] = {}

    def run(self, label: str, part: int, tracer=None):
        """One campaign; returns (wall seconds or None if it failed, output dir)."""
        out = self.work / f"{label}-part{part}"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                cfg = self.gpip.load_config(self.cfg_paths[part])
                t0 = perf_counter()
                self.gpip.run(cfg, out)
                wall = perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception:  # a failed campaign is counted, not fatal
            self.problems.append(f"{out.name}: raised\n{traceback.format_exc()}")
            return None, out
        got = digest(out)
        first = self.first_digest.setdefault(part, got)
        if got != first:
            bad = sorted(n for n in set(got) | set(first) if got.get(n) != first.get(n))
            self.problems.append(f"{out.name}: artifacts differ from the first run: {bad}")
            return None, out
        return wall, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gpip

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    parts = workloads.campaign_configs(args.workload, args.seed)
    cfg_paths = []
    for j, cfg in enumerate(parts):
        cfg_paths.append(work / f"part{j}.json")
        cfg_paths[-1].write_text(json.dumps(cfg, sort_keys=True))
    warm_path = work / "warmup.json"
    warm_path.write_text(json.dumps(workloads.warmup_config(args.workload), sort_keys=True))
    result = {"env": environment(args.workload, args.seed, args.seconds, args.trace)}

    warm = Campaigns(gpip, work, [warm_path])
    warm.run("warmup", 0)
    for problem in warm.problems:
        print(f"warm-up campaign: {problem}", file=sys.stderr)
    probe = speed.SpeedProbe()
    probes = [probe.sample()]
    camp = Campaigns(gpip, work, cfg_paths)
    start = perf_counter()

    def run_pass(label, tracer=None):
        """Every part once: ([[wall, speed factor]] per part, or None if one
        failed, output dirs, seconds the pass took)."""
        t0 = perf_counter()
        timings, outs = [], []
        for j in range(len(parts)):
            wall, out = camp.run(label, j, tracer)
            probes.append(probe.sample())
            outs.append(out)
            timings.append(wall and [wall, (probes[-2] + probes[-1]) / 2.0 / speed.REFERENCE_S])
        ok = all(timings)
        return (timings if ok else None), outs, perf_counter() - t0

    def time_left(last_pass_s):
        return perf_counter() - start + last_pass_s <= args.seconds

    first, first_outs, took = run_pass("pass0")
    passes = [first] if first else []
    if not args.trace:
        i = 1
        while first and time_left(took):
            timings, outs, took = run_pass(f"pass{i}")
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            if not timings:
                break
            passes.append(timings)
            i += 1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        per_pass, spans_by_pass, traced_passes, coverage, overheads = [], [], [], [], []
        untraced, took_untraced, i = first, took, 0
        while untraced:
            # traced passes alternate with untraced ones, so the overhead is
            # measured between neighbours
            tracer.reset()
            timings, outs, took = run_pass(f"traced{i}", tracer)
            if i == 0:
                missing = sorted(set(REQUIRED_SITES) - tracer.sites)
                coverage += [f"call site not traced: {s}" for s in missing]
            if timings:
                spans = tracer.named_spans()
                sweeps = read_sweeps(outs)
                m = tracing.layer_metrics(spans, sweeps)
                coverage += cross_check(m, sweeps, spans, parts)
                per_pass.append(m)
                spans_by_pass.append(spans)
                traced_passes.append(timings)
                overheads.append(scaled_seconds(timings) / scaled_seconds(untraced) - 1.0)
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            if not timings or not time_left(took + took_untraced):
                break
            i += 1
            untraced, outs, took_untraced = run_pass(f"pass{i}")
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
        tracing.write_spans(work / "spans.csv", spans_by_pass)
        metrics = {k: statistics.median(m[k] for m in per_pass)
                   for k in (per_pass[0] if per_pass else {})}
        if overheads:
            # both sides in probe-scaled seconds
            metrics["trace_overhead_frac"] = statistics.median(overheads)
        result["layer_metrics"] = metrics
        result["traced_passes"] = traced_passes
        result["coverage_problems"] = sorted(set(coverage))
    result["passes"] = passes
    result["probes"] = probes
    result["attempted"] = camp.attempted
    result["problems"] = camp.problems
    result["output_dirs"] = [str(out) for out in first_outs]
    result["sweeps"] = read_sweeps(first_outs) if first else {}
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


def scaled_seconds(timings) -> float:
    """A pass's campaign time at the probe's reference speed."""
    return sum(wall / factor for wall, factor in timings)


def cross_check(m: dict, sweeps: dict, spans, parts: list[dict]) -> list[str]:
    """Span counts must match what the artifacts say ran."""
    out = []
    for key, metric in (("gpip", "solver.gpip_calls"), ("covfree", "solver.covfree_calls"),
                        ("coop", "coop.coop_calls")):
        if m[metric] != len(sweeps[key]):
            out.append(f"{metric} = {m[metric]} but the solver CSVs hold {len(sweeps[key])} solves")
    n_units = sum(1 for s in spans if s[tracing.NAME] in tracing.UNIT_SPANS)
    expected = sum(workloads.units(cfg) for cfg in parts)
    if n_units != expected:
        out.append(f"{n_units} unit spans for {expected} units")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
