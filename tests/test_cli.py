import enum
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chardisp import charfn, cli, g17
from chardisp.charfn import InvalidSpecError, Laplace, Normal, SymmetricStable
from chardisp.normalizer import CosineGaussian, OddGaussian, Zero


def run(args, capsys=None):
    return cli.run(args)


def _reject_constant(name):
    """``parse_constant`` for strict JSON: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


def _key_paths(doc, prefix=()):
    """The path of keys to every value that is not a dict."""
    if not isinstance(doc, dict):
        return {".".join(prefix)}
    return set().union(*(_key_paths(v, prefix + (k,)) for k, v in doc.items()))


class TestParsers:
    def test_charfn_shorthand(self):
        assert cli.parse_charfn("normal:1") == Normal(1.0)
        assert cli.parse_charfn("laplace") == Laplace(1.0)
        assert cli.parse_charfn("stable:1.5,2") == SymmetricStable(1.5, 2.0)
        with pytest.raises(InvalidSpecError, match="poisson"):
            cli.parse_charfn("poisson:1")
        with pytest.raises(InvalidSpecError):
            cli.parse_charfn("normal:a")
        with pytest.raises(InvalidSpecError):
            cli.parse_charfn("normal:1,2,3")

    def test_perturb_shorthand(self):
        assert cli.parse_perturbation("zero") == Zero()
        assert cli.parse_perturbation("cosgauss:2,3,1.5") == CosineGaussian(2.0, 3.0, 1.5)
        assert cli.parse_perturbation("oddgauss:1,2") == OddGaussian(1.0, 2.0)
        with pytest.raises(InvalidSpecError):
            cli.parse_perturbation("bump:1")

    @pytest.mark.parametrize("parse, token", [
        (cli.parse_charfn, "normal:1,2"),
        (cli.parse_charfn, "stable:1.5,1,2"),
        (cli.parse_perturbation, "cosgauss:1,2,3,4"),
    ])
    def test_too_many_parameters(self, parse, token):
        with pytest.raises(InvalidSpecError, match="too many parameters"):
            parse(token)


class TestDensity:
    def test_smoke_to_stdout(self, capsys):
        code = run(["density", "--phi", "normal:1", "--psi", "normal:1",
                    "--lambda", "1", "--mu", "0", "--grid", "64"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "y,density"
        assert len(lines) == 66  # header + grid + 1 points
        y, p = lines[1].split(",")
        assert float(p) > 0.0

    def test_writes_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["density", "--phi", "laplace:1", "--psi", "laplace:1",
                    "--grid", "64", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("y,density\n")

    def test_curve_is_pinned(self, tmp_path):
        # changes only when the model's numbers or the CSV formatting change
        out = tmp_path / "curve.csv"
        assert run(["density", "--phi", "cauchy:1", "--psi", "normal:1", "--mu", "0.5",
                    "--grid", "64", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1d967982d5be372815d6634a62795db336f3452b6175a8b7fbc263b051b64b6a"
        )

    def test_asymmetric_window_grid_spans_the_window(self, capsys):
        assert run(["density", "--phi", "normal:1", "--psi", "normal:1", "--window", "1", "30",
                    "--mu", "10", "--grid", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "y,density"
        ys = [float(line.split(",")[0]) for line in lines[1:]]
        assert ys == np.linspace(1.0, 30.0, 17).tolist()

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "curve.csv"
        run(["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "64",
             "--out", str(out)])
        row = out.read_text().splitlines()[2]
        _, p = row.split(",")
        # 17 significant digits survive a round trip through repr
        assert float(p) == float(f"{float(p):.17g}")
        assert len(p.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


def reference_csv(header, *columns):
    """The cell-by-cell formatter _csv must match byte for byte."""
    lines = [header] + [",".join("{:.17g}".format(float(v)) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def csv_bytes(header, *columns):
    """The file _csv's byte chunks make, asserted the same on both of g17's
    routes: a chunk of fewer than SMALL_TABLE_CELLS cells through one ``%``
    (the default) and every chunk on the array path (threshold 0)."""
    text = b"".join(cli._csv(header, *columns))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g17, "SMALL_TABLE_CELLS", 0)
        assert b"".join(cli._csv(header, *columns)) == text
    return text


AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
           0.1, 1 / 3, -2 / 3, 1e16, 123456789012345678.0, 1e-5, 0.5, -1.0]


def _ulp_neighbours(x, steps=2):
    """x and the doubles up to `steps` ulps either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = float(np.nextafter(lo, -math.inf)), float(np.nextafter(hi, math.inf))
        out += [lo, hi]
    return out


# Cells where the digits of %.17g hinge on exact rounding.  Ties round half
# to even; just below a power of ten log10 misjudges the decade, so those
# cells are redone a decade down; 1e-4 is the smallest value %g prints in
# fixed notation, the double below it the largest printed in scientific.
EXACT_ROUNDING = {
    "ties": [1000000000000000.25, 1000000000000000.75] + [1e15 + 0.125 * i for i in range(64)],
    "powers_of_ten": [y for p in range(-6, 19) for y in _ulp_neighbours(10.0 ** p)],
    "notation_switch": [1e-4, float(np.nextafter(1e-4, 0.0)), 1e-5, 1e16, 1e17, -0.0],
}


class TestCsv:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_awkward_values_match_the_reference(self, k):
        columns = [AWKWARD[i:] + AWKWARD[:i] for i in range(k)]
        assert csv_bytes("h", *columns) == reference_csv("h", *columns).encode()

    def test_integer_index_column(self):
        index = np.arange(5)
        ys = np.linspace(-1.0, 1.0, 5)
        text = csv_bytes("index,y,value", index, ys, ys / 3)
        assert text == reference_csv("index,y,value", index, ys, ys / 3).encode()
        assert text.splitlines()[2].startswith(b"1,-0.5,")

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        for rows in (0, 1, 3, 7):
            column = AWKWARD[:rows]
            assert csv_bytes("value", column) == reference_csv("value", column).encode()
            assert csv_bytes("a,b", column, column[::-1]) == reference_csv("a,b", column, column[::-1]).encode()
            rows_per_chunk = [chunk.count(b"\n") for chunk in cli._csv("value", column)]
            assert rows_per_chunk == [1] + [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0)

    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_any_floats_match_the_reference(self, values):
        assert csv_bytes("a,b", values, values[::-1]) == reference_csv("a,b", values, values[::-1]).encode()

    @given(values=st.lists(st.floats(-1e17, 1e17), max_size=40))
    def test_fixed_notation_range_matches_the_reference(self, values):
        assert csv_bytes("a,b", values, values[::-1]) == reference_csv("a,b", values, values[::-1]).encode()

    @given(values=st.lists(st.floats(-20.0, 20.0), max_size=40))
    def test_window_range_matches_the_reference(self, values):
        assert csv_bytes("a,b", values, values[::-1]) == reference_csv("a,b", values, values[::-1]).encode()

    @pytest.mark.parametrize("case", sorted(EXACT_ROUNDING))
    def test_exact_rounding_cases(self, case):
        values = EXACT_ROUNDING[case]
        assert csv_bytes("a,b", values, values[::-1]) == reference_csv("a,b", values, values[::-1]).encode()

    def test_notation_switch_in_mixed_rows(self):
        text = csv_bytes("a,b,c", [1e-4, 0.5], [float(np.nextafter(1e-4, 0.0)), -0.0], [-3.25, 1e17])
        assert text == b"a,b,c\n0.0001,9.9999999999999991e-05,-3.25\n0.5,-0,1e+17\n"

    @pytest.mark.parametrize("chunk_rows", [65536, cli.CSV_CHUNK_ROWS, 3])
    def test_bulk_random_values_match_the_reference(self, monkeypatch, chunk_rows):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
        uniform = rng.uniform(-20.0, 20.0, size=200_000)
        # 3-row chunks cost a call each, so that case takes a 6,000-value prefix
        rows = 100_000 if chunk_rows > 3 else 3_000
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        for values in (bits, uniform):
            a, b = values[:rows], values[rows:2 * rows]
            assert csv_bytes("a,b", a, b) == reference_csv("a,b", a, b).encode()

    def test_working_memory_is_bounded(self):
        # the chunks are rendered as they are read: one chunk's temporaries
        # and the previous chunk, about 200 bytes a row, whatever n is
        for n in (2 ** 18, 2 ** 21):
            column = np.random.default_rng(0).uniform(-20.0, 20.0, n)
            tracemalloc.start()
            try:
                size = sum(len(chunk) for chunk in cli._csv("value", column))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert size > 17 * n
            assert peak <= 250 * cli.CSV_CHUNK_ROWS, n

    def test_bad_column_fails_before_any_text(self):
        with pytest.raises(ValueError):
            cli._csv("value", ["not a number"])


class TestSmallTableRoute:
    @pytest.mark.parametrize("cells, cols, array_path", [
        (g17.SMALL_TABLE_CELLS - 1, 1, False), (g17.SMALL_TABLE_CELLS - 1, 3, False),
        (g17.SMALL_TABLE_CELLS, 1, True), (g17.SMALL_TABLE_CELLS, 2, True),
    ])
    def test_tables_either_side_of_the_threshold(self, monkeypatch, cells, cols, array_path):
        values = [v for case in sorted(EXACT_ROUNDING) for v in EXACT_ROUNDING[case]] + AWKWARD
        table = np.resize(np.array(values), (cells // cols, cols))
        assert table.size == cells  # 255 = 3 * 85, 256 = 2 * 128
        calls = []
        digits = g17._digits
        monkeypatch.setattr(g17, "_digits", lambda n, out: (calls.append(n.size), digits(n, out)))
        columns = list(table.T)
        header = ",".join("abc"[:cols])
        assert b"".join(cli._csv(header, *columns)) == reference_csv(header, *columns).encode()
        assert calls == ([cells] if array_path else [])


def reference_json(doc):
    """The oracle _json must match byte for byte: strict JSON, NaN and the
    infinities refused."""
    return [(json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("ascii")]


class Level(enum.IntEnum):
    HIGH = 7


# Floats where repr is delicate or repeats are likely: zeros of both signs,
# subnormals, NaN and infinities; lists drawn from a small pool repeat them.
_JSON_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, math.nan, math.inf, -math.inf])
_JSON_TEXT = st.text() | st.text('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a ', max_size=8)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64) | _JSON_FLOATS | _JSON_TEXT
    | st.lists(_JSON_FLOATS, min_size=1, max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=8)),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=5),
    max_leaves=30,
)


class TestJson:
    @given(doc=_JSON_DOCS)
    def test_any_document_matches_json_dumps(self, doc):
        try:
            expected = reference_json(doc)
        except ValueError as exc:  # a NaN or an infinity: the same error
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                cli._json(doc)
        else:
            assert cli._json(doc) == expected

    @pytest.mark.parametrize("doc", [
        [0.0, -0.0, 1.5, 0.0, 1.5, -0.0, -2.5, -2.5],
        {"a": [[0.25, 0.25, 0.5], [0.5, -0.0]], "b": -0.0, "c": 0.0, "d": [0.25]},
        [np.float64(0.1), 0.1, np.float64(-0.0), np.float64(3.0), 3.0],
        {"level": Level.HIGH, "levels": [Level.HIGH, 1]},
        {"1": "int", "2.5": "float", "-0.0": "zero", "Infinity": "inf", "true": "bool", "null": "none", "s": "str"},
        {"": [], "e": {}, "t": (), "n": [[], {}, ()]},
        ["\"quoted\"", "tab\tand\x01", "caf\u00e9 \u2603 \U0001f600"],
        [10 ** 100, -(2 ** 64), True, False, None],
        1.5, "top", None,
    ])
    def test_explicit_documents_match_json_dumps(self, doc):
        assert cli._json(doc) == reference_json(doc)

    @pytest.mark.parametrize("doc", [
        {"n": np.int64(3)}, [1.0, {1, 2}], {"k": [np.bool_(True)]}, {"k": (1, np.float32(2.0))}, [[b"bytes"]],
    ])
    def test_unserializable_values_raise_as_json_dumps_does(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            cli._json(doc)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)])
    @pytest.mark.parametrize("place", [lambda x: x, lambda x: [1.5, x], lambda x: {"a": [[x, 0.0]]}],
                             ids=["bare", "float_list", "nested"])
    def test_non_finite_floats_raise_as_strict_json_dumps_does(self, x, place):
        doc = place(x)
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            cli._json(doc)

    @pytest.mark.parametrize("key", [1, 2.5, -0.0, math.inf, True, None, (1, 2), np.int64(1)])
    def test_keys_must_be_str(self, key):
        # json would coerce the first six to strings; the encoder refuses every one
        with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
            cli._json({"s": 1.0, "outer": {key: "value"}})

    def test_floats_are_printed_once_per_distinct_value(self, monkeypatch):
        printed = []
        float_text = cli._float_text
        monkeypatch.setattr(cli, "_float_text", lambda x: (printed.append(x), float_text(x))[1])
        gram = [[float(abs(i - j)) + 0.5 for j in range(6)] for i in range(6)]
        doc = {"gram": gram, "diag": 0.5, "zeros": [0.0, -0.0]}
        assert cli._json(doc) == reference_json(doc)
        assert sorted(printed) == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        assert cli._json(doc) == reference_json(doc)
        assert len(printed) == 12  # nothing is kept from one document to the next


class TestExtremeScales:
    @pytest.mark.parametrize("token", ["normal:1e300", "cauchy:1e300", "laplace:1e300", "stable:1.5,1e300",
                                       "nig:1,1e300"])
    def test_verify_runs_without_warnings(self, tmp_path, token):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--phi", token, "--psi", "normal:1", "--out", str(tmp_path / "v")]) == 0


class TestValidationErrors:
    def test_nig_alpha_whose_square_overflows(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "--phi", "nig:1e200", "--psi", "normal:1", "--out", str(tmp_path / "v")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: nig alpha must have a finite square, got 1e+200\n"
        assert not (tmp_path / "v").exists()

    def test_window_whose_width_overflows(self, capsys):
        # both ends are finite, but hi - lo is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["density", "--phi", "normal:1", "--psi", "normal:1", "--window", "-1e308", "1e308"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: window width overflows a float, got [-1e+308, 1e+308]\n"

    def test_invalid_stable_index_names_value(self, capsys, tmp_path):
        code = run(["verify", "--phi", "stable:2.5,1", "--psi", "normal:1",
                    "--out", str(tmp_path / "v")])
        assert code == 1
        err = capsys.readouterr().err
        assert "2.5" in err
        assert not (tmp_path / "v").exists()  # no partial output

    def test_tolerance_below_rounding_floor_exits_two(self, capsys, tmp_path):
        args = ["density", "--phi", "normal:1", "--psi", "normal:1", "--tol", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("numerical failure: quadrature tolerance is below the integral's rounding floor ")
            assert err.count("\n") == 1 and err.endswith("\n")
            assert run([*args, "--out", str(tmp_path / "curve.csv")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_infinite_tolerance_exits_one(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["density", "--phi", "normal:1", "--psi", "normal:1", "--tol", "inf"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tol must be positive and finite, got inf\n"

    # 2^50 float64s are 8 PiB, beyond any x86-64 user address space, so no
    # overcommit can grant the allocation and start a long run
    @pytest.mark.parametrize("args", [
        ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", str(2**50)],
        ["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", str(2**50)],
    ], ids=["sample-n", "density-grid"])
    def test_request_too_large_for_memory_exits_one(self, args, capsys, tmp_path):
        assert run([*args, "--out", str(tmp_path / "out.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag(self, capsys):
        assert run(["density", "--phl", "normal:1"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["dance"]) == 1

    def test_missing_pair(self, capsys):
        assert run(["density"]) == 1
        assert "--phi" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0


class TestParserTable:
    # flag dest -> (its arguments, the parsed value)
    VALUES = {
        "phi": (["normal:1"], "normal:1"),
        "psi": (["laplace:1"], "laplace:1"),
        "lambda": (["1.5"], 1.5),
        "window": (["-2e1", "20"], [-20.0, 20.0]),
        "grid": (["64"], 64),
        "mu": (["-1e-3"], -1e-3),
        "perturb": (["cosgauss"], "cosgauss"),
        "tol": (["1e-9"], 1e-9),
        "seed": (["7"], 7),
        "n": (["12"], 12),
        "out": (["o.csv"], "o.csv"),
        "config": (["run.json"], "run.json"),
    }

    def test_dests_are_the_config_keys(self):
        dests = {action.dest for action in cli.build_parser()._actions} - {"help"}
        assert dests == set(cli._KEYS) - {"perturbation"} | {"subcommand", "config"}
        assert dests == set(self.VALUES) | {"subcommand"}

    @pytest.mark.parametrize("sub", list(cli._COMMANDS))
    def test_every_flag_parses_beside_every_subcommand(self, sub):
        for dest, (values, parsed) in self.VALUES.items():
            for argv in ([sub, f"--{dest}", *values], [f"--{dest}", *values, sub]):
                args = cli.build_parser().parse_args(argv)
                assert args.subcommand == sub
                assert getattr(args, dest) == parsed

    def test_help_lists_subcommands_and_flags(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for name, (_, text, _) in cli._COMMANDS.items():
            assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.MULTILINE), name
        for dest in self.VALUES:
            assert f"--{dest} " in out


class TestNegativeExponents:
    BASE = ["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16"]

    def test_mu_as_separate_argument(self, tmp_path):
        assert run([*self.BASE, "--mu", "-1e-3", "--out", str(tmp_path / "a.csv")]) == 0
        assert run([*self.BASE, "--mu=-1e-3", "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_window(self, tmp_path):
        assert run([*self.BASE, "--window", "-2e1", "20", "--out", str(tmp_path / "w.csv")]) == 0
        lines = (tmp_path / "w.csv").read_text().splitlines()
        assert lines[1].startswith("-20,") and lines[-1].startswith("20,")


class TestConfigFile:
    def test_config_drives_run(self, tmp_path, capsys):
        cfg = {
            "phi": {"family": "normal", "params": {"scale": 1.0}},
            "psi": {"family": "normal", "params": {"scale": 1.0}},
            "lambda": 1.0,
            "window": {"lo": -10.0, "hi": 10.0, "n_grid": 64},
            "mu": 0.0,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run(["density", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("y,density")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = {
            "phi": {"family": "normal", "params": {"scale": 1.0}},
            "psi": {"family": "normal", "params": {"scale": 1.0}},
            "mu": 0.0,
            "window": [-10.0, 10.0, 64],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        run(["density", "--config", str(path), "--mu", "2.0"])
        out1 = capsys.readouterr().out
        run(["density", "--config", str(path)])
        out2 = capsys.readouterr().out
        assert out1 != out2  # the flag moved the curve

    def test_malformed_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        assert run(["density", "--config", str(path)]) == 1
        path.write_text(json.dumps({"phi": {"family": "normal", "params": {}}, "frequency": 1}))
        assert run(["density", "--config", str(path)]) == 1
        assert "frequency" in capsys.readouterr().err

    def test_missing_config_file_named(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run(["density", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {str(path)!r}: ")

    def test_config_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        assert run(["density", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config file {str(path)!r} must hold a JSON object\n"


class TestVerify:
    def test_outputs(self, tmp_path):
        out = tmp_path / "verify"
        code = run(["verify", "--phi", "normal:1", "--psi", "normal:1",
                    "--grid", "256", "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["axioms"]["passed"] is True
        assert doc["diagnostics"]["classification"] == "PDM"
        assert doc["diagnostics"]["regularity"]["is_regular"] is True
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "mu,residual"
        assert len(lines) == 22
        lines = (out / "deconvolution.csv").read_text().splitlines()
        assert lines[0] == "index,y,value"
        assert len(lines) == 257  # header + n_grid solution entries

    def test_outputs_are_pinned(self, tmp_path):
        # changes only when the diagnostics' numbers or the output formatting change
        out = tmp_path / "verify"
        assert run(["verify", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss",
                    "--grid", "64", "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {
            "deconvolution.csv": "4d65bbc9b1cc15ca5d51d84996ee9fe7e3e58192f37942c7f4a2819744c3430a",
            "residuals.csv": "3c46ec4f6e56f9bdac9b1cc3735616f5471b88cf8d0c5fbf53fbfdd6d196903f",
            "verify.json": "cd3a10a43eeadf67e31468bcfb4d26110306292ebdc8b47c3c3ea601d946ddef",
        }

    def test_document_keys(self, tmp_path):
        # every key of verify.json; a new one is a deliberate output change
        out = tmp_path / "verify"
        assert run(["verify", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss",
                    "--grid", "64", "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text(), parse_constant=_reject_constant)
        residuals = doc["diagnostics"].pop("normalization_residuals")
        assert list(residuals) == [str(float(mu)) for mu in range(-10, 11)]
        model = {"kernel.pair.phi.family", "kernel.pair.phi.params.scale", "kernel.pair.psi.family",
                 "kernel.pair.psi.params.scale", "kernel.lam", "normalizer.kind", "normalizer.a_tilde",
                 "normalizer.window.lo", "normalizer.window.hi", "normalizer.window.n_grid",
                 "normalizer.perturbation.family", "normalizer.perturbation.params.amplitude",
                 "normalizer.perturbation.params.frequency", "normalizer.perturbation.params.width",
                 "position_domain"}
        assert _key_paths(doc) == {f"model.{key}" for key in model} | {
            "axioms.passed", "axioms.max_abs_diagonal", "axioms.min_off_diagonal", "axioms.n_diagonal",
            "axioms.n_off_diagonal", "axioms.diagonal_tol", "axioms.violations",
            "diagnostics.classification",
            "diagnostics.regularity.is_regular", "diagnostics.regularity.kink_detected",
            "diagnostics.regularity.local_exponent", "diagnostics.truncation_drift",
            "fft_deconvolution.dc_value", "fft_deconvolution.n_guarded", "fft_deconvolution.n_grid",
        }

    @pytest.mark.parametrize("scale", ["3000", "1e-3"])
    def test_regularity_at_any_scale(self, tmp_path, scale):
        # phi's declared exponent holds at every scale: no kink at 3000 and a
        # finite exponent at 1e-3, so the document is strict JSON
        out = tmp_path / "verify"
        assert run(["verify", "--phi", f"normal:{scale}", "--psi", "normal:1", "--grid", "64",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text(), parse_constant=_reject_constant)
        assert doc["diagnostics"]["regularity"] == {"is_regular": True, "kink_detected": False, "local_exponent": 2.0}

    @pytest.mark.parametrize("n", [17, 1000])
    def test_any_grid(self, tmp_path, n):
        out = tmp_path / "verify"
        assert run(["verify", "--phi", "normal:1", "--psi", "normal:1", "--grid", str(n),
                    "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["fft_deconvolution"]["n_grid"] == n
        lines = (out / "deconvolution.csv").read_text().splitlines()
        assert len(lines) == n + 1

    def test_perturbed_classification(self, tmp_path):
        out = tmp_path / "verify"
        code = run(["verify", "--phi", "laplace:1", "--psi", "laplace:1",
                    "--perturb", "cosgauss", "--grid", "256", "--tol", "1e-8",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["diagnostics"]["classification"] == "NSDM_candidate"

    def test_residual_curve_is_even_on_any_symmetric_window(self, tmp_path):
        # the 21 mu of [-3.5, 3.5] mirrored about 0, though linspace's step
        # 0.35 is not exact, so each |mu| is integrated once
        out = tmp_path / "verify"
        assert run(["verify", "--phi", "cauchy:1", "--psi", "normal:1", "--window", "-7", "7",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "residuals.csv").read_text().splitlines()[1:]]
        mus, values = [float(mu) for mu, _ in rows], [value for _, value in rows]
        assert len(rows) == 21 and mus == [-mu for mu in mus[::-1]]
        assert values == values[::-1]

    def test_zero_amplitude_is_a_constant_normalizer(self, tmp_path):
        out = tmp_path / "verify"
        code = run(["verify", "--phi", "normal:1", "--psi", "normal:1",
                    "--perturb", "cosgauss:0", "--grid", "64", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["diagnostics"]["classification"] == "PDM"


class TestRiesz:
    def test_outputs(self, tmp_path):
        out = tmp_path / "riesz"
        code = run(["riesz", "--phi", "laplace:1", "--psi", "laplace:1",
                    "--n", "4", "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "riesz.json").read_text())
        assert doc["points"] == [0.0, 1.0, -1.0, 0.5]
        gram = np.array(doc["gram_report"]["gram"])
        assert gram.shape == (4, 4)
        assert 0.0 < doc["gram_report"]["max_entry_error_bound"] <= 1e-9 + 1e-12
        assert 0 < doc["frame_bounds"]["lower_over_k_norm_sq"] < 1 < doc["frame_bounds"]["upper_over_k_norm_sq"]
        lines = (out / "orthogonality.csv").read_text().splitlines()
        assert lines[0] == "mu,residual"

    def test_outputs_are_pinned(self, tmp_path):
        # changes only when the Gram matrix, the residual curve or the output formatting change
        out = tmp_path / "riesz"
        assert run(["riesz", "--phi", "laplace:1", "--psi", "laplace:1", "--n", "8", "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {
            "orthogonality.csv": "7300a34d64e1c3ad66cd02665b94acdf2d9fa0731e9e1c86ff64a65cd1ed3f14",
            "riesz.json": "d9a91d5264bd926f5036950a00c76952e99ea70719a6ae2bf01196e9ae5b24e4",
        }

    def test_orthogonality_curve_is_even_on_any_symmetric_window(self, tmp_path):
        out = tmp_path / "riesz"
        assert run(["riesz", "--phi", "laplace:1", "--psi", "laplace:1", "--n", "2", "--window", "-8", "8",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "orthogonality.csv").read_text().splitlines()[1:]]
        mus, values = [float(mu) for mu, _ in rows], [value for _, value in rows]
        assert len(rows) == 21 and mus == [-mu for mu in mus[::-1]]
        assert values == values[::-1]

    def test_document_keys(self, tmp_path):
        # every key of riesz.json; a new one is a deliberate output change
        out = tmp_path / "riesz"
        assert run(["riesz", "--phi", "laplace:1", "--psi", "laplace:1", "--n", "4", "--out", str(out)]) == 0
        doc = json.loads((out / "riesz.json").read_text(), parse_constant=_reject_constant)
        assert _key_paths(doc) == {
            "points",
            "gram_report.gram", "gram_report.min_eigenvalue", "gram_report.max_eigenvalue",
            "gram_report.k_norm_sq", "gram_report.tight_claim_gap", "gram_report.max_entry_error_bound",
            "frame_bounds.lower_over_k_norm_sq", "frame_bounds.upper_over_k_norm_sq",
            "frame_bounds.eigenvalue_floor", "frame_bounds.lower_resolved",
            "perturbation.family", "perturbation.params.amplitude", "perturbation.params.frequency",
            "perturbation.params.width",
        }

    @pytest.mark.parametrize("phi", ["normal:1", "nig:1,1"])
    def test_vanishing_kernel_is_one_error_line(self, capsys, tmp_path, phi):
        # at lambda = 1e100, K underflows at every node: its squared norm is 0
        out = tmp_path / "riesz"
        assert run(["riesz", "--phi", phi, "--psi", "normal:1", "--lambda", "1e100", "--n", "2",
                    "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: squared kernel norm over the window is 0.0; "
                                           "no frame bound is measured\n")
        assert not out.exists()


class TestSample:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "500",
                "--seed", "7", "--grid", "64"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 501

    def test_zero_draws_write_the_header_alone(self, tmp_path):
        out = tmp_path / "none.csv"
        assert run(["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "0",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == b"value\n"

    def test_seeded_draws_are_pinned(self, tmp_path):
        # changes only when the sampler's envelope or its use of the random stream changes
        out = tmp_path / "draws.csv"
        assert run(["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "1000",
                    "--seed", "7", "--grid", "64", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5f30853c50da0a89b40972b3f82285c3905ea279b2f94f5b11c2f0d0c9706da5"
        )

    def test_seeded_draws_of_a_perturbed_model_are_pinned(self, tmp_path):
        # proposals from the step envelope of a non-constant normalizer
        out = tmp_path / "draws.csv"
        assert run(["sample", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss",
                    "--n", "100000", "--seed", "11", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d8611690e23f7bdc9f31cd65f0f87b9df8b1121624289cdc2ffedd97b4981740"
        )

    def test_draws_do_not_depend_on_the_grid(self, tmp_path):
        # --grid sets output resolution only, not the envelope
        draws = []
        for grid in ("16", "1000", "1024", "2048"):
            out = tmp_path / f"grid{grid}.csv"
            assert run(["sample", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss",
                        "--n", "10000", "--seed", "11", "--grid", grid, "--out", str(out)]) == 0
            draws.append(out.read_bytes())
        assert draws[1:] == draws[:-1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli.RunConfig, "model", lambda self: pytest.fail("a model was built"))
        args = ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "3", "--out", str(tmp_path / "s.csv")]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            (tmp_path / "run.json").write_text(json.dumps({"seed": -1}))
            args += ["--config", str(tmp_path / "run.json")]
        assert run(args) == 1
        assert capsys.readouterr().err == "error: bad value for 'seed': expected a non-negative integer, got -1\n"
        assert not (tmp_path / "s.csv").exists()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "100", "--grid", "64"]
        run(base + ["--seed", "1", "--out", str(a)])
        run(base + ["--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_peak_memory_is_about_the_draws(self, tmp_path):
        # the draws (8 bytes each) and a few chunks of text, never the file
        n = 2 ** 20
        out = tmp_path / "draws.csv"
        tracemalloc.start()
        try:
            assert run(["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", str(n), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 17 * n
        assert peak <= 2 * 8 * n

    @pytest.mark.parametrize("argv", [
        ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "5000"],
        ["density", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss", "--grid", "4096"],
    ], ids=["sample", "density"])
    def test_stdout_equals_file(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1000)
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes()
        assert out.read_bytes().count(b"\n") > 4000


class TestFigures:
    def test_emits_six_csv_files(self, tmp_path):
        out = tmp_path / "figs"
        code = run(["figures", "--lambda", "1", "--window", "-20", "20",
                    "--grid", "256", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "fig1A.csv", "fig1B.csv", "fig2C.csv", "fig2D.csv",
            "reference_normal.csv", "reference_t3.csv",
        ]
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "y,density"
            assert len(lines) == 258

    def test_curves_are_pinned(self, tmp_path):
        # changes only when a model's numbers or the CSV formatting change
        out = tmp_path / "figs"
        assert run(["figures", "--grid", "64", "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {
            "fig1A.csv": "ecf0fdd75cf4c4c9640a1a769af02ed8e758f7114d529e0147a661a2b1f2bc93",
            "fig1B.csv": "f88f8e7b2557cce5a1c382872f9462a277b16662a18b369a2add518696d6854d",
            "fig2C.csv": "0b3085c5d9fb9a482720ff68c2d611941916e81072beed9ee6258a261ee75f6e",
            "fig2D.csv": "b365276bddfbb851af00741ae85efaccfe88371983384444ede18af314e6e716",
            "reference_normal.csv": "9a48e6a3f4a7c46609350c6664a1111e5f061c6ef8b9c721e794ae434de38875",
            "reference_t3.csv": "3022e431b734824cce5a27fc7c902e88fa7868c137049c3e03fb3873f61bab12",
        }

    def test_reference_curves_are_the_classic_densities(self, tmp_path):
        out = tmp_path / "figs"
        run(["figures", "--grid", "64", "--window", "-20", "20", "--out", str(out)])
        rows = [l.split(",") for l in (out / "reference_normal.csv").read_text().splitlines()[1:]]
        ys = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        assert np.allclose(ps, np.exp(-ys**2 / 2) / np.sqrt(2 * np.pi), rtol=1e-15)
        rows = [l.split(",") for l in (out / "reference_t3.csv").read_text().splitlines()[1:]]
        ps = np.array([float(r[1]) for r in rows])
        assert np.allclose(ps, 2.0 / (np.sqrt(3.0) * np.pi * (1 + ys**2 / 3) ** 2), rtol=1e-15)

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        args = ["figures", "--grid", "128", "--window", "-20", "20"]
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        for name in ("fig1A.csv", "fig2D.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# JSON values holding no number at the top level; numbers nested inside stay
# small so that no run can allocate much.  Strings have no path separator,
# so a run writes nothing outside its working directory.
_WORDS = ["", ".", "..", "x", "normal", "normal:1", "cosgauss", "custom", "zero",
          "family", "params", "scale", "width", "knots", "values", "lo", "hi", "n_grid", "nan"]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(_WORDS), st.text("abc:,.-_ ", max_size=6),
    st.integers(-30, 40), st.floats(-30.0, 30.0), st.just(math.nan),
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=4),
    max_leaves=8,
)
_NON_NUMERIC = st.one_of(
    st.none(), st.booleans(), st.sampled_from(_WORDS), st.text("abc:,.-_ ", max_size=6),
    st.lists(_JSON, max_size=4), st.dictionaries(st.sampled_from(_WORDS), _JSON, max_size=4),
)


def _is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


# Scalar settings and the values they accept; any other value exits 1.
_SCALARS = {
    "lambda": charfn.is_number, "mu": charfn.is_number, "tol": charfn.is_number,
    "seed": _is_integer, "n": _is_integer, "grid": _is_integer,
    "out": lambda v: isinstance(v, str),
}


class TestConfigValues:
    @settings(max_examples=150, deadline=None, database=None)
    @given(key=st.deferred(lambda: st.sampled_from(sorted(cli._KEYS))), value=_NON_NUMERIC)
    @example(key="lambda", value=None)
    @example(key="out", value=None)
    @example(key="lambda", value=True)
    @example(key="seed", value="7")
    @example(key="n", value=2.5)
    @example(key="mu", value=[1])
    @example(key="window", value={"lo": -5, "high": 5})
    @example(key="phi", value={"family": "normal", "params": {"scale": "x"}})
    @example(key="perturb", value={"family": "cosgauss", "params": {"amplitude": "x"}})
    @example(key="lambda", value=10 ** 400)
    @example(key="perturb", value={"family": "cosgauss", "params": {"amplitude": 10 ** 400}})
    @example(key="phi", value={"family": "normal", "params": {"scale": 10 ** 400}})
    def test_malformed_value_exits_cleanly(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                Path("run.json").write_text(json.dumps({key: value}))
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                    code = cli.run(["density", "--phi", "normal:1", "--psi", "normal:1",
                                    "--grid", "16", "--config", "run.json"])
            finally:
                os.chdir(cwd)
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        if key in _SCALARS and not _SCALARS[key](value):
            assert code == 1 and err.getvalue().startswith(f"error: bad value for {key!r}: ")

    @pytest.mark.parametrize("key, value", [("lambda", None), ("mu", [1]), ("window", {"lo": -5, "high": 5})])
    def test_malformed_value_names_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        assert run(["density", "--phi", "normal:1", "--psi", "normal:1", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad value for {key!r}: ")

    def test_no_shorthand_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"phi": "normal:1", "psi": {"family": "normal", "params": {}}}))
        assert run(["density", "--config", str(path)]) == 1
        assert "characteristic function record" in capsys.readouterr().err


class TestPerturbationWidth:
    @pytest.mark.parametrize("token", ["cosgauss:1,3,0", "cosgauss:1,3,-2", "cosgauss:1,3,nan", "oddgauss:1,0"])
    def test_rejected_naming_the_width(self, capsys, token):
        code = run(["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16",
                    "--perturb", token])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "width must be positive" in err


class TestPerturbationFinite:
    @pytest.mark.parametrize("sub, token, message", [
        ("density", "cosgauss:1,inf,1", "cosgauss frequency must be finite, got inf"),
        ("riesz", "cosgauss:nan,3,1", "cosgauss amplitude must be finite, got nan"),
    ])
    def test_rejected_naming_the_parameter(self, capsys, tmp_path, sub, token, message):
        code = run([sub, "--phi", "normal:1", "--psi", "normal:1", "--grid", "16",
                    "--perturb", token, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_custom_record_with_nan_value_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        record = {"family": "custom", "params": {"knots": [0.0, 1.0], "values": [math.nan, 0.0]}}
        path.write_text(json.dumps({"perturbation": record}))
        assert run(["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16",
                    "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: custom values must be finite, got (nan, 0.0)\n"


class TestPerturbationOverflow:
    # finite parameters whose values overflow on the window: A (cos + 1) is
    # inf near the cosine's peaks; A y exp(-y^2 / 2) is finite but far below
    # 0, least at y = -1
    @pytest.mark.parametrize("sub", ["density", "verify"])
    @pytest.mark.parametrize("token, message", [
        ("cosgauss:1e308,3,2", "normalizing function is not finite: value inf at y="),
        ("oddgauss:1e308,1", "normalizing function is not positive: value -6.065306597126334e+307 at y=-1.0\n"),
        # finite everywhere, but the panel sums of its integrals would overflow
        ("cosgauss:8.9e307,3,2", "normalizing function is too large to integrate: value 1.78e+308"),
    ], ids=["cosgauss", "oddgauss", "cosgauss_integrals"])
    def test_one_error_line_and_no_warning(self, capsys, tmp_path, sub, token, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([sub, "--phi", "normal:1", "--psi", "normal:1", "--grid", "16",
                        "--perturb", token, "--out", str(tmp_path / "out")])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("sub", ["density", "verify"])
    def test_cosgauss_overflow_named_where_the_value_overflows(self, capsys, tmp_path, sub):
        # the amplitude is applied last, so the abscissa named is one where
        # the value itself exceeds the float range, near the peak at 0
        code = run([sub, "--phi", "normal:1", "--psi", "normal:1",
                    "--perturb", "cosgauss:1e308,3,2", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        y = float(re.fullmatch(r"error: normalizing function is not finite: value inf at y=(\S+)\n", err)[1])
        assert abs(y) < 0.21
        assert (math.cos(3.0 * y) + 1.0) * math.exp(-y * y / 8.0) > sys.float_info.max / 1e308


class TestPerturbationWidthExtremes:
    # each extreme width against an ordinary one at which the Gaussian
    # envelope already rounds to the same limit on the grid: 1 for a wide
    # envelope; 1 at y = 0 and 0 elsewhere for a narrow one
    @pytest.mark.parametrize("token, ordinary", [
        ("cosgauss:1,3,1e155", "cosgauss:1,3,1e150"),  # 2 s^2 overflows
        ("oddgauss:1,1e-170", "oddgauss:1,1e-150"),  # 2 s^2 underflows to 0
        ("cosgauss:1,3,1e-154", "cosgauss:1,3,1e-150"),  # 2 s^2 is subnormal
    ], ids=["wide", "narrow", "subnormal"])
    def test_limit_values_without_warnings(self, tmp_path, token, ordinary):
        curves = []
        for i, perturb in enumerate((token, ordinary)):
            path = tmp_path / f"{i}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16",
                            "--perturb", perturb, "--out", str(path)]) == 0
            curves.append(path.read_bytes())
        assert curves[0] == curves[1]


class TestPositivityAtAnyGrid:
    # a(y) dips below 0 only near y = -width, between the scan's grid points
    @pytest.mark.parametrize("grid, token, y", [
        ("16", "oddgauss:0.2,0.3", "-0.3"),
        ("1024", "oddgauss:100,0.001", "-0.001"),
    ])
    def test_negative_normalizer_rejected(self, capsys, tmp_path, grid, token, y):
        code = run(["verify", "--phi", "normal:1", "--psi", "normal:1", "--grid", grid,
                    "--perturb", token, "--out", str(tmp_path / "out")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: normalizing function is not positive: value -0.0")
        assert err.endswith(f" at y={y}\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_minimum_between_scan_points_rejected(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["density", "--phi", "normal:1", "--psi", "normal:1", "--window", "1", "30", "--mu", "10",
                    "--perturb", "cosgauss:-0.029226193424446992,3,2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: normalizing function is not positive: value -3.47")
        assert " at y=1.98510" in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["density", "sample"])
    def test_minimum_off_the_origin_rejected(self, capsys, tmp_path, sub):
        # [1, 30] leaves out 0; a's deepest ripple, found by cosgauss's own
        # critical points, dips to -3.5e-6 near y = 1.108797
        out = tmp_path / "out.csv"
        code = run([sub, "--phi", "normal:1", "--psi", "normal:1", "--window", "1", "30", "--mu", "10",
                    "--perturb", "cosgauss:-0.01738574289704768,17,100", "--out", str(out)])
        assert code == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        m = re.fullmatch(r"error: normalizing function is not positive: value (\S+) at y=(\S+)\n", err)
        assert m and -3.5e-6 < float(m[1]) < -3.4e-6 and abs(float(m[2]) - 1.108797) < 1e-6
        assert not out.exists()


class TestFiguresDefaultOut:
    def test_writes_under_figures(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["figures", "--grid", "64"]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in (tmp_path / "figures").iterdir()) == [
            "fig1A.csv", "fig1B.csv", "fig2C.csv", "fig2D.csv",
            "reference_normal.csv", "reference_t3.csv",
        ]


class TestModuleEntry:
    @staticmethod
    def module(*args):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "chardisp.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_python_dash_m_runs_the_cli(self):
        proc = self.module("density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "y,density" and len(lines) == 18

    @pytest.mark.parametrize("args, code, prefix", [
        (["--window", "-1e308", "1e308"], 1, "error: window width overflows a float"),
        (["--tol", "1e-300"], 2, "numerical failure: quadrature tolerance is below the integral's rounding floor"),
    ], ids=["validation", "numerical"])
    def test_failures_exit_with_one_line(self, args, code, prefix):
        # the process, not cli.run: its exit status and all of its stderr
        proc = self.module("density", "--phi", "normal:1", "--psi", "normal:1", *args)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Traceback" not in proc.stderr


class TestParserReuse:
    # One parser serves every run of a process: each run, in this order,
    # gives what a fresh `python -m chardisp.cli` gives, whatever ran before
    BASE = ["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "16"]
    RUNS = [
        (["--help"], 0, None),
        (["density", "--phl", "normal:1"], 1, None),
        ([*BASE, "--mu", "-1e-3"], 0, "mu.csv"),
        (BASE, 0, None),
    ]

    def test_each_run_matches_a_fresh_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the process
        for argv, code, name in self.RUNS:
            outs = {}
            for where in ("run", "process"):
                args = argv if name is None else [*argv, "--out", str(tmp_path / where / name)]
                if where == "run":
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        rc = cli.run(args)
                    result = rc, stdout.getvalue(), stderr.getvalue()
                else:
                    proc = TestModuleEntry.module(*args)
                    result = proc.returncode, proc.stdout, proc.stderr
                file = None if name is None else (tmp_path / where / name).read_bytes()
                outs[where] = (*result, file)
            assert outs["run"] == outs["process"], argv
            assert outs["run"][0] == code

    def test_build_parser_gives_a_new_parser_that_parses_as_runs_do(self):
        argv = [*self.BASE, "--mu", "-1e-3"]
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser().parse_args(argv) == cli._parser().parse_args(argv)


class TestNoReferenceCycles:
    # A successful run frees everything it made by reference counting, so
    # peak memory does not wait on the cyclic collector.  Building the
    # parser is left out: argparse makes a help formatter per argument, a
    # cycle, once per process.
    ARGS = {
        "density": ["density", "--phi", "normal:1", "--psi", "normal:1", "--grid", "64"],
        "verify": ["verify", "--phi", "normal:1", "--psi", "normal:1"],
        "verify_cosgauss": ["verify", "--phi", "laplace:1", "--psi", "laplace:1", "--perturb", "cosgauss"],
        "riesz": ["riesz", "--n", "4", "--phi", "normal:1", "--psi", "normal:1"],
        "riesz_graded": ["riesz", "--n", "4", "--phi", "stable:0.7,1", "--psi", "normal:1"],
        "sample": ["sample", "--phi", "normal:1", "--psi", "normal:1", "--n", "100"],
        "figures": ["figures", "--grid", "64"],
    }

    @pytest.mark.parametrize("name", list(ARGS))
    def test_a_run_leaves_no_cyclic_garbage(self, tmp_path, name):
        cli._parser()
        gc.collect()
        gc.disable()
        try:
            code = cli.run([*self.ARGS[name], "--out", str(tmp_path / "out")])
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == 0
        assert garbage == 0
