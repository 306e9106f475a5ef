"""Campaign benchmark for gpip: end-to-end metrics untraced, per-layer traced.

    python3 bench/run.py --workload link-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload link-sweep --seed 0 --seconds 30 --trace 1
    python3 bench/run.py --workload link-sweep --record   # re-record the reference

Run from anywhere; the checkout is found from this file's location, and all
scratch output goes to `.bench_work/` at its root. Every metric is printed by
name with its unit and sample count; the last line of standard output is the
JSON result. BLAS and OpenMP threads are pinned to one for the processes
this script starts, never for the caller's shell.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# what a user pays before the first campaign starts: import plus config load
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import gpip; "
               "gpip.load_config(sys.argv[1]); t = time.perf_counter() - t; "
               "import speed; print(t, speed.SpeedProbe().sample() / speed.REFERENCE_S)")
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and reaped."""
    return subprocess.run([str(c) for c in cmd], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))


def measure_setup(cfg_path: Path, deadline: float) -> list[list[float]]:
    """[seconds, speed factor] of import plus config load in fresh interpreters.

    One warm-up probe runs first and is dropped.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        p = run_child([sys.executable, "-c", SETUP_PROBE, cfg_path], deadline - perf_counter())
        if p.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{p.stderr}")
        if i:
            samples.append([float(x) for x in p.stdout.split()[-2:]])
    return samples


def run_campaigns(workload: str, seed: int, seconds: float, trace: int, work: Path,
                  deadline: float) -> dict:
    result_path = work / "result.json"
    p = run_child([sys.executable, BENCH / "campaign.py", "--workload", workload,
                   "--seed", seed, "--seconds", seconds, "--trace", trace,
                   "--work", work, "--result", result_path], deadline - perf_counter())
    sys.stderr.write(p.stderr)
    if p.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"campaign process exited with {p.returncode}")
    return json.loads(result_path.read_text())


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload: str, parts: list[dict], result: dict,
               setup: list[list[float]]) -> tuple[dict, dict]:
    """(metric values, sample notes) of an untraced run."""
    out_dirs = [Path(d) for d in result["output_dirs"]]
    n_units = sum(workloads.units(cfg) for cfg in parts)
    passes = result["passes"]
    rates = [n_units / sum(w / f for w, f in p) for p in passes]
    raw = statistics.median(n_units / sum(w for w, _ in p) for p in passes)
    factors = [f for p in passes for _, f in p]
    q1, med, q3 = quartiles(rates)
    setup_s = [t / f for t, f in setup]
    values = {"units_per_s": med, "setup_s": statistics.median(setup_s),
              "peak_rss_mb": result["peak_rss_mb"]}
    notes = {
        "units_per_s": f"n={len(rates)} passes of {len(parts)} campaigns, {n_units} units; "
                       f"q1={q1:.6g} q3={q3:.6g}; unscaled {raw:.6g}; "
                       f"speed {min(factors):.3g}..{max(factors):.3g}",
        "setup_s": f"n={len(setup)} fresh interpreters, min={min(setup_s):.6g} "
                   f"max={max(setup_s):.6g}; unscaled {statistics.median(t for t, _ in setup):.6g}",
        "peak_rss_mb": "n=1 campaign process",
    }
    se = {"gpip": [], workloads.WORKLOADS[workload]["variant"]: []}
    for out in out_dirs:
        header, rows = reference.read_summary(out / "summary.csv")
        col = header.index("mean_sum_se" if parts[0]["scenario"] == "link" else "mean_cell_sum_se")
        for r in rows:
            if r[0] in se:
                se[r[0]].append(float(r[col]))
    for metric, alg in (("gpip_se", "gpip"), ("variant_se", workloads.WORKLOADS[workload]["variant"])):
        values[metric] = sum(se[alg]) / len(se[alg])
        notes[metric] = f"n={len(se[alg])} (campaign, operating point) means of {alg}"
    max_iter = json.loads((out_dirs[0] / "manifest.json").read_text())["max_iter"]
    solves = [it for its in result["sweeps"].values() for it in its]
    at_max = sum(1 for it in solves if it >= max_iter)
    values["converged_frac"] = 1.0 - at_max / len(solves)
    notes["converged_frac"] = f"maxiter_frac={at_max}/{len(solves)} joint-design solves"
    return values, notes


def traced(workload: str, result: dict) -> tuple[dict, dict, list[str]]:
    values = dict(result["layer_metrics"])
    n = len(result["traced_passes"])
    notes = {k: f"n={n} traced passes" for k in values}
    notes["trace_overhead_frac"] = "median over traced passes of traced / preceding untraced - 1"
    problems = list(result["coverage_problems"])
    problems += [f"{name} reads zero on {workload}"
                 for name in workloads.WORKLOADS[workload]["must_trace"] if not values.get(name)]
    return values, notes, problems


def measure(args) -> int:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    if not (ROOT / "src" / "gpip" / "__init__.py").is_file():
        print(f"no gpip sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    parts = workloads.campaign_configs(args.workload, args.seed)

    setup = []
    if not args.trace:
        cfg_path = work / "setup-config.json"
        cfg_path.write_text(json.dumps(parts[0]))
        setup = measure_setup(cfg_path, deadline)
    result = run_campaigns(args.workload, args.seed, args.seconds, args.trace, work, deadline)

    problems = list(result["problems"])
    attempted = result["attempted"]
    failed = len(problems)
    campaign_ok = bool(result["passes"])
    if campaign_ok:
        gate = [f"campaign seed {cfg['seed']}: {p}"
                for cfg, out in zip(parts, result["output_dirs"])
                for p in reference.check(args.workload, cfg, Path(out))]
        if gate:
            # every repeat is byte-identical to the first pass, so shares its fault
            failed = attempted
            problems += gate
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, notes = {}, {}
    if campaign_ok and args.trace:
        values, notes, coverage = traced(args.workload, result)
        problems += coverage
    elif campaign_ok:
        values, notes = end_to_end(args.workload, parts, result, setup)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if campaign_ok and missing:
        problems += [f"metric not measured: {name}" for name in missing]

    for problem in problems:
        print(f"[{args.workload}] FAIL {problem}")
    env = result["env"]
    print(f"[{args.workload}] env: seed={env['seed']} campaign_seeds={env['campaign_seeds']} "
          f"held_out={env['held_out']} git={env['git_sha']} src={env['src_sha256'][:12]} "
          f"nproc={env['nproc']} blas={env['blas']['name']} {env['blas']['version']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"threads={env['threads']['OPENBLAS_NUM_THREADS']}")
    print(f"[{args.workload}] failed_frac = {failed}/{attempted} campaigns")
    metrics = {}
    for m in listed:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"[{args.workload}] {m['name']:<30} {value:<14.6g} {m['unit']:<10} "
              f"({m['better']} is better) {notes.get(m['name'], '')}")
    line = {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    (work / "record.json").write_text(json.dumps(
        {"env": env, "result": line, "problems": problems, "notes": notes,
         "setup_samples": setup, "passes": result["passes"]}, indent=1))
    print(json.dumps(line))
    return 0


def record(workload: str) -> int:
    """Run every pool entry once and store each campaign's summary as the reference."""
    summaries, header, src = {}, None, None
    for seed in range(workloads.POOL_SIZE):
        work = WORK / f"record-{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        result = run_campaigns(workload, seed, 0, 0, work, perf_counter() + 3600)
        if result["problems"] or not result["passes"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        for cfg, out in zip(workloads.campaign_configs(workload, seed), result["output_dirs"]):
            header, summaries[cfg["seed"]] = reference.read_summary(Path(out) / "summary.csv")
        src = result["env"]["src_sha256"]
        print(f"{workload} pool entry {seed}: {sum(w for w, _ in result['passes'][0]):.2f} s",
              flush=True)
        shutil.rmtree(work, ignore_errors=True)
    print(reference.write_reference(workload, summaries, header, src))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the reference summaries of every pool seed")
    args = ap.parse_args(argv)
    if args.record:
        return record(args.workload)
    if args.seed is None or args.seconds is None:
        ap.error("--seed and --seconds are required")
    try:
        return measure(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
