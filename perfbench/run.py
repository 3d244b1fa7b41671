"""chardisp benchmark: one workload, end-to-end or traced, with checked outputs.

    python3 perfbench/run.py --workload riesz-gram --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload riesz-gram --seed 0 --seconds 30 --trace 1

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/`` of that checkout, and all files the benchmark writes
go to ``.perfbench_work/`` at its root.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it give every metric with its unit and
sample count, and the run context.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One thread for every numeric library, in this process and its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_FLOOR_PCT = 90.0

END_TO_END_UNITS = {"pass_s_p50": "s", "pass_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "charfn.eval_us_15pt": "us", "charfn.eval_ns_per_pt_1e6": "ns",
    "deviance.check_unit_deviance_s": "s",
    "quadrature.gk15_evals": "count", "quadrature.kernel_calls": "count",
    "quadrature.abscissae_per_call": "count", "quadrature.us_per_gk15": "us",
    "normalizer.trivial_normalizer_s": "s", "normalizer.perturbed_normalizer_s": "s",
    "normalizer.fft_deconvolve_s": "s",
    **{f"riesz.gram_matrix_s.{p}": "s" for p in workloads.PAIRS},
    **{f"riesz.gram_gk15_evals.{p}": "count" for p in workloads.PAIRS},
    "riesz.gram_displacements": "count", "riesz.orthogonality_residual_s": "s",
    "riesz.orthogonality_gk15_evals": "count",
    "model.diagnostics_s": "s", "model.diagnostics_gk15_evals": "count", "model.density_s": "s",
    "model.sample_s": "s", "model.sample_proposals": "count", "model.sample_acceptance": "ratio",
    "cli.self_s": "s", "cli.output_bytes": "bytes", "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter spends importing chardisp.cli, measured
    inside that interpreter (interpreter start-up itself excluded) under a
    Speedometer: raw, and at reference speed (see calib.py).  One unrecorded
    import first writes the bytecode caches."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calib\n"
            "with calib.Speedometer(calib.python_probe) as sp:\n    import chardisp.cli\n"
            "print(sp.work, sp.seconds)")
    raw, normalized = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code, str(HERE)], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            work, seconds = (float(v) for v in out.stdout.split())
            raw.append(work)
            normalized.append(seconds)
    return raw, normalized


def tail(times: list[float]) -> tuple[float, float]:
    """Pass time at the highest percentile with at least TAIL_BEYOND passes
    beyond it, 100 (N - 10) / N for N passes, but never below p90: with
    fewer than 100 passes that rule would sink towards the median, so p90
    (linear interpolation) is reported instead.  Returns (value, percentile)."""
    n = len(times)
    pct = max(TAIL_FLOOR_PCT, 100.0 * (n - TAIL_BEYOND) / n)
    s = sorted(times)
    pos = (n - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo), pct


def context(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def check_passes(doc: dict, cmds, seed: int) -> tuple[int, int, list[str]]:
    """Check every command of every pass.  Passes that wrote the same bytes
    as the checked final pass share its verdict; a digest that differs from
    the first pass is a failure (same seed, same bytes)."""
    import checks

    refs = json.loads((HERE / "references.json").read_text())
    by_name = {c.name: c for c in cmds}
    attempted = failed = 0
    problems = []
    final = {r["name"]: r for r in doc["passes"][-1]["commands"]}
    first = {r["name"]: r for r in doc["passes"][0]["commands"]}
    verdict = {}
    for name, rec in final.items():
        cmd = by_name[name]
        use_ref = seed == refs["seed"] == workloads.REFERENCE_SEED or cmd.sub == "figures"
        ref = refs["commands"].get(name) if use_ref else None
        if rec["rc"] != 0:
            verdict[name] = f"{name}: exit code {rec['rc']}"
        else:
            verdict[name] = checks.check_output(cmd, cmd.out_path(WORK), ref)
    for p in doc["passes"]:
        for rec in p["commands"]:
            attempted += 1
            name = rec["name"]
            why = ""
            if rec["rc"] != 0:
                why = f"{name}: exit code {rec['rc']}"
            elif rec["digest"] != first[name]["digest"]:
                why = f"{name}: output bytes differ between passes of the same seed"
            elif rec["digest"] == final[name]["digest"]:
                why = verdict[name]
            if why:
                failed += 1
                problems.append(why)
    return attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "chardisp" / "cli.py").is_file():
        print(f"error: no chardisp sources under {SRC}; run inside a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cmds = workloads.commands(args.workload, args.seed)
    if WORK.exists():
        import shutil

        shutil.rmtree(WORK)
    WORK.mkdir()
    result = WORK / "worker.json"

    setup_raw, setup = ([], []) if args.trace else measure_setup()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
             str(args.trace), str(WORK), str(result)],
            env=_child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 2
    doc = json.loads(result.read_text())

    attempted, failed, problems = check_passes(doc, cmds, args.seed)
    if args.trace:
        missing = [f"traced run produced no {key}" for key in PER_LAYER_UNITS if key not in doc["layer"]]
        attempted += doc["replays"]
        failed += len(doc["failures"]) + len(missing)
        problems += doc["failures"] + missing
    for why in problems[:20]:
        print(f"FAILED {why}")

    ctx = context(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  worker wall {wall:.1f} s")
    print("context " + json.dumps(ctx, sort_keys=True))
    times = [p["seconds"] for p in doc["passes"]]
    walls = [p["wall_seconds"] for p in doc["passes"]]
    n = len(times)
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} commands)")
    metrics = {}
    if args.trace:
        for key, unit in PER_LAYER_UNITS.items():
            if key not in doc["layer"]:
                continue
            metrics[key] = {"value": doc["layer"][key], "unit": unit}
            src = doc["filled_from"].get(key)
            if src:
                note = f"from one traced replay of {src}"
            elif key == "charfn.eval_us_15pt":
                note = "median of 7 timed blocks of 400 calls per family"
            elif key == "charfn.eval_ns_per_pt_1e6":
                note = "median of 3 timed blocks of one call per family"
            else:
                note = f"median of {n} traced passes"
            print(f"{key} = {doc['layer'][key]:.6g} {unit}  ({note})")
    else:
        tail_s, tail_pct = tail(times)
        values = {
            "pass_s_p50": statistics.median(times),
            "pass_s_tail": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": doc["maxrss_kb"] / 1024.0,
        }
        notes = {
            "pass_s_p50": f"median of {n} passes; raw wall {statistics.median(walls):.4g} s",
            "pass_s_tail": f"p{tail_pct:.1f} of {n} passes; raw wall {tail(walls)[0]:.4g} s",
            "setup_s": f"median of {len(setup)} fresh imports; raw {statistics.median(setup_raw):.4g} s",
            "peak_rss_mb": "ru_maxrss of the worker process, 1 sample",
        }
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": values[key], "unit": unit}
            print(f"{key} = {values[key]:.6g} {unit}  ({notes[key]})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
