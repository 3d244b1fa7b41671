"""The benchmark under perfbench/ imports the package's names at module
level, so a renamed name would fail every benchmark run: import its modules
and replay one command through its tracer."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_modules_import_and_replay_a_command(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks  # noqa: F401
    import tracing
    import worker  # noqa: F401
    import workloads

    tr = tracing.Tracer(True)
    cmd = workloads.Command("riesz", "riesz", phi="normal:1", psi="normal:1", n=4)
    tracing.replay(tr, cmd)
    assert len(tr.spans) == 2
    assert all(span.abscissae > 0 for span in tr.spans)
