"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from chardisp import cli  # noqa: E402
from chardisp.charfn import Laplace  # noqa: E402
from chardisp.deviance import UnitDeviancePair  # noqa: E402
from chardisp.normalizer import KernelSpec, Window  # noqa: E402
from chardisp.riesz import TranslateSystem, gram_matrix, rational_enumeration  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402


def _small_commands(seed):
    """verify-diag plus one cusp-heavy riesz command at n = 8, to stay quick."""
    stable = workloads.pair_tokens(seed)["stable07_normal"]
    riesz = Command("riesz.stable07_normal", "riesz", "stable07_normal", *stable, n=8)
    return workloads.commands("verify-diag", seed) + [riesz]


def _traced_counts(cmds):
    failures = []
    _, factors, tr, values = worker.replay_pass(cmds, True, failures)
    assert failures == []
    layer = worker.layer_metrics(tr, factors, values, cmds)
    return {k: v for k, v in layer.items() if run.PER_LAYER_UNITS[k] in ("count", "ratio")}


def test_two_traced_runs_give_identical_counts():
    cmds = _small_commands(3)
    first, second = _traced_counts(cmds), _traced_counts(cmds)
    assert first == second
    assert first["quadrature.gk15_evals"] > 0
    assert first["riesz.gram_gk15_evals.stable07_normal"] > 0
    assert first["model.diagnostics_gk15_evals"] > 0


def test_quadrature_span_without_kernel_abscissae_fails_the_trace():
    tr = tracing.Tracer(True)
    tr.command = "bypass"
    with pytest.raises(tracing.TraceError, match="zero kernel abscissae"):
        with tr.span("riesz.gram_matrix.normal", quadrature=True):
            pass  # a refactor that integrates without KernelSpec.eval


def test_counting_kernel_leaves_gram_matrix_bit_identical():
    pair = UnitDeviancePair(Laplace(1.1), Laplace(0.9))
    pts = tuple(rational_enumeration(8))
    plain = gram_matrix(TranslateSystem(KernelSpec(pair, 1.0), pts, Window())).gram
    tally = tracing.Tally()
    counted = gram_matrix(TranslateSystem(tracing.CountingKernel(pair, 1.0, tally=tally), pts, Window())).gram
    assert np.array_equal(plain, counted)
    assert tally.abscissae == 15 * tally.calls > 0


def test_workloads_are_a_function_of_the_seed():
    assert workloads.commands("riesz-gram", 7) == workloads.commands("riesz-gram", 7)
    assert workloads.commands("riesz-gram", 7) != workloads.commands("riesz-gram", 8)
    for phi, psi in workloads.pair_tokens(7).values():
        for token in (phi, psi):
            scale = float(token.rsplit(",", 1)[-1].rsplit(":", 1)[-1])
            assert workloads.SCALE_RANGE[0] <= scale <= workloads.SCALE_RANGE[1]
    # every sample command carries its own seed drawn from the workload seed
    seeds = [c.seed for c in workloads.commands("sample-emit", 7)]
    assert len(set(seeds)) == 2 and seeds != [c.seed for c in workloads.commands("sample-emit", 8)]


def test_tail_has_ten_passes_beyond_it_and_never_sinks_below_p90():
    times = [float(i) for i in range(200)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 95.0
    value, pct = run.tail([float(i) for i in range(11)])
    assert (value, pct) == (9.0, 90.0)
    assert run.tail([2.0, 1.0]) == (1.9, 90.0)


def test_checks_reject_a_corrupted_gram_matrix(tmp_path):
    cmd = Command("riesz.laplace", "riesz", "laplace", "laplace:1.1", "laplace:0.9", n=8)
    assert cli.run(cmd.argv(tmp_path)) == 0
    out = cmd.out_path(tmp_path)
    assert checks.check_output(cmd, out, None) == ""
    doc = json.loads((out / "riesz.json").read_text())
    doc["gram_report"]["gram"][0][1] += 1e-6
    (out / "riesz.json").write_text(json.dumps(doc))
    assert "not symmetric" in checks.check_output(cmd, out, None)


def test_checks_compare_against_the_oracle(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    assert refs["seed"] == workloads.REFERENCE_SEED
    (cmd,) = [c for c in workloads.commands("verify-diag", refs["seed"]) if c.name == "verify.laplace"]
    assert cli.run(cmd.argv(tmp_path)) == 0
    ref = refs["commands"][cmd.name]
    assert checks.check_output(cmd, cmd.out_path(tmp_path), ref) == ""
    shifted = dict(ref, residuals=[r + 1e-7 for r in ref["residuals"]])
    assert "residuals vs oracle" in checks.check_output(cmd, cmd.out_path(tmp_path), shifted)


def test_benchmark_json_declares_the_metrics_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
