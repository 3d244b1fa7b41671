"""One workload in one fresh process, driving ``chardisp.cli.run`` in-process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

Untraced (TRACE=0): passes through the command list until the next pass
would end after SECONDS.  Each command is timed under a Speedometer
(calib.py), which also gives its time at reference speed.  Output files are
hashed between passes, outside the timed region, and ``ru_maxrss`` is read
at the end, so the process's peak memory is the workload's own.

Traced (TRACE=1): rounds of one untraced CLI pass, one plain replay and one
traced replay (see ``tracing.py``), then the layer metrics this workload's
commands do not reach are filled from one traced replay of the workload
that does, and the charfn layer is timed on the workload's families.

The raw records go to RESULT as JSON; ``run.py`` checks and summarizes them.
"""
from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from chardisp import cli  # noqa: E402
from chardisp.riesz import rational_enumeration  # noqa: E402

import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2  # the same seed must produce the same bytes twice


def _digest(path: Path) -> tuple[str, int]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    h = hashlib.sha256()
    size = 0
    for f in files:
        h.update(f.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        with f.open("rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
        size += f.stat().st_size
    return h.hexdigest(), size


def _clear(path: Path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def cli_pass(cmds, work: Path) -> dict:
    """One pass.  Each command runs under a Speedometer (calib.py): its
    ``seconds`` are at reference speed, its ``wall_seconds`` raw."""
    for c in cmds:
        _clear(c.out_path(work))
    records = []
    for c in cmds:
        with calib.Speedometer() as sp:
            rc = cli.run(c.argv(work))
        records.append({"name": c.name, "rc": rc, "seconds": sp.seconds, "wall_seconds": sp.work})
    for rec, c in zip(records, cmds):
        path = c.out_path(work)
        rec["digest"], rec["bytes"] = _digest(path) if path.exists() else ("", 0)
    return {"seconds": sum(r["seconds"] for r in records),
            "wall_seconds": sum(r["wall_seconds"] for r in records), "commands": records}


def _keep_going(times: list[float], start: float, seconds: float) -> bool:
    """Another pass fits if the run would still end within ``seconds``."""
    if len(times) < MIN_PASSES:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def run_untraced(cmds, work: Path, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while _keep_going([p["wall_seconds"] for p in passes], start, seconds):
        passes.append(cli_pass(cmds, work))
    return {"passes": passes}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def replay_pass(cmds, traced: bool, failures: list) -> tuple[float, dict, "tracing.Tracer", dict]:
    """Replay every command once, each under a Speedometer.  Returns the pass
    time at reference speed, each command's factor to reference speed (for
    its spans), the tracer and the values the replays returned."""
    tr = tracing.Tracer(traced)
    values, factors = {}, {}
    seconds = 0.0
    for c in cmds:
        sp = calib.Speedometer()
        tr.clock = sp.clock
        try:
            with sp:
                values[c.name] = tracing.replay(tr, c)
        except tracing.TraceError as exc:
            failures.append(str(exc))
        factors[c.name] = sp.factor
        seconds += sp.seconds
    return seconds, factors, tr, values


def layer_metrics(tr: "tracing.Tracer", factors: dict, values: dict, cmds) -> dict:
    """Per-layer figures of one traced replay pass, times at reference speed.
    Span names are the time metrics they feed."""
    out = defaultdict(float)
    for s in tr.spans:
        out[s.name] += s.seconds * factors[s.command]

    def gk15(spans):
        return sum(s.abscissae for s in spans) / tracing.GK15_POINTS

    quad = [s for s in tr.spans if s.quadrature]
    calls = sum(s.kernel_calls for s in quad)
    if calls:  # none when every quadrature span failed the trace
        out["quadrature.gk15_evals"] = gk15(quad)
        out["quadrature.kernel_calls"] = calls
        out["quadrature.abscissae_per_call"] = gk15(quad) * tracing.GK15_POINTS / calls
        out["quadrature.us_per_gk15"] = 1e6 * sum(s.seconds * factors[s.command] for s in quad) / gk15(quad)
    for metric, span in [(f"riesz.gram_gk15_evals.{p}", f"riesz.gram_matrix_s.{p}") for p in workloads.PAIRS] + [
            ("riesz.orthogonality_gk15_evals", "riesz.orthogonality_residual_s"),
            ("model.diagnostics_gk15_evals", "model.diagnostics_s")]:
        if span in out:
            out[metric] = gk15(s for s in tr.spans if s.name == span)
    riesz = [c for c in cmds if c.sub == "riesz"]
    if riesz:
        pts = rational_enumeration(riesz[0].n)
        out["riesz.gram_displacements"] = len({abs(p - q) for p in pts for q in pts})
    sampled = [v for v in values.values() if "proposals" in v]
    if sampled:
        out["model.sample_proposals"] = sum(v["proposals"] for v in sampled)
        out["model.sample_acceptance"] = sum(v["draws"] for v in sampled) / out["model.sample_proposals"]
    return dict(out)


COUNT_METRICS_PREFIXES = ("quadrature.gk15_evals", "quadrature.kernel_calls", "riesz.gram_gk15_evals",
                          "riesz.orthogonality_gk15_evals", "model.diagnostics_gk15_evals",
                          "model.sample_proposals")


def _median_metrics(rows: list[dict], failures: list) -> dict:
    out = {}
    for key in set().union(*rows):
        vals = [r[key] for r in rows if key in r]
        if key.startswith(COUNT_METRICS_PREFIXES) and len(set(vals)) != 1:
            failures.append(f"count {key} differs between traced passes: {sorted(set(vals))}")
        out[key] = statistics.median(vals)
    return out


def charfn_timings(cmds) -> dict:
    """Time the workload's characteristic functions on 15 abscissae (one
    GK15 panel) and on 1e6 abscissae (a sampling batch)."""
    tokens = sorted({t for c in cmds for t in (c.phi, c.psi) if t})
    if not tokens:  # figures only: the showcase families
        tokens = ["normal:1", "cauchy:1", "laplace:1"]
    fns = [cli.parse_charfn(t) for t in tokens]
    x15 = np.linspace(-20.0, 20.0, 15)
    x1e6 = np.linspace(-20.0, 20.0, 1_000_000)
    reps = 400
    small, large = [], []
    for _ in range(7):
        with calib.Speedometer() as sp:
            for _ in range(reps):
                for f in fns:
                    f.eval(x15)
        small.append(sp.seconds / (reps * len(fns)))
    for _ in range(3):
        with calib.Speedometer() as sp:
            for f in fns:
                f.eval(x1e6)
        large.append(sp.seconds / (len(fns) * x1e6.size))
    return {"charfn.eval_us_15pt": 1e6 * statistics.median(small),
            "charfn.eval_ns_per_pt_1e6": 1e9 * statistics.median(large)}


def run_traced(workload: str, seed: int, cmds, work: Path, seconds: float) -> dict:
    failures: list[str] = []
    passes, plain_s, traced_s, rows, self_s = [], [], [], [], []
    start = time.perf_counter()
    while _keep_going([p["wall_seconds"] + a + b for p, a, b in zip(passes, plain_s, traced_s)], start, seconds):
        p = cli_pass(cmds, work)
        passes.append(p)
        t_plain, _, _, _ = replay_pass(cmds, False, failures)
        t_traced, factors, tr, values = replay_pass(cmds, True, failures)
        plain_s.append(t_plain)
        traced_s.append(t_traced)
        rows.append(layer_metrics(tr, factors, values, cmds))
        # The plain replay makes the same layer calls with no tracing cost, so
        # what the CLI pass spends beyond it is the CLI's own work.
        self_s.append(p["seconds"] - t_plain)
        for c in cmds:  # the counting kernel must not change a single bit
            if "gram" in values.get(c.name, {}):
                doc = json.loads((c.out_path(work) / "riesz.json").read_text())
                if not np.array_equal(np.array(doc["gram_report"]["gram"]), values[c.name]["gram"]):
                    failures.append(f"{c.name}: replayed gram matrix differs from the CLI's")
    layer = _median_metrics(rows, failures)
    layer["charfn.eval_us_15pt"], layer["charfn.eval_ns_per_pt_1e6"] = charfn_timings(cmds).values()
    layer["cli.self_s"] = statistics.median(self_s)
    layer["cli.output_bytes"] = statistics.median(sum(r["bytes"] for r in p["commands"]) for p in passes)
    layer["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)

    # Layers this workload's commands do not reach: one traced replay of the
    # workload whose commands do, with the same seed.
    filled = {}
    replays = 2 * len(cmds) * len(passes)
    for other in workloads.WORKLOADS:
        if other == workload:
            continue
        other_cmds = workloads.commands(other, seed)
        replays += len(other_cmds)
        _, factors, tr, values = replay_pass(other_cmds, True, failures)
        for key, value in layer_metrics(tr, factors, values, other_cmds).items():
            if key not in layer:
                layer[key] = value
                filled[key] = other
    return {"passes": passes, "layer": layer, "filled_from": filled, "failures": failures,
            "replays": replays}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, result = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    work = Path(workdir)
    cmds = workloads.commands(workload, seed)
    if trace:
        doc = run_traced(workload, seed, cmds, work, seconds)
    else:
        doc = run_untraced(cmds, work, seconds)
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
