"""CLI surface: parsing, formats, presets, footers, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from latticemini import (
    PolytopeParseError, RationalPolynomial, TheoremViolationError, UnsupportedInputError
)
from latticemini import cli, corpus, counting, miniatures, selfcheck
from latticemini.cli import (
    RunConfig, build_parser, config_from_args, decimal_string, main, parse_polytope,
)
from latticemini.geometry import HalfSpace


OVER_LONG_INTEGER = (
    f"an integer in the input has more than {sys.get_int_max_str_digits()} digits, "
    "the interpreter's limit"
)
OVER_LONG_ANSWER = OVER_LONG_INTEGER.replace("the input", "the answer")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_command(*argv):
    """`python -m latticemini ARGV` with this checkout's src/ on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return [sys.executable, "-m", "latticemini", *argv], env


class TestParsePolytope:
    def test_segment(self):
        P = parse_polytope('{"vertices": [[0], [1]]}')
        assert P.vertices == ((0,), (1,))

    def test_triangle(self):
        P = parse_polytope('{"vertices": [[0,0], [1,0], [0,1]]}')
        assert P.dim == 2

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ("[]", "a polytope needs at least one vertex"),
            ("[[]]", "ambient dimension must be at least 1"),
            ("[[0, 0], [1]]", "vertex 1 has 1 coordinates, expected 2"),
            ("[[0, true]]", "non-integer coordinate at vertex 0, index 1: True"),
            ("[[0, 0.5]]", "non-integer coordinate at vertex 0, index 1: 0.5"),
            ("[1, 2]", '"vertices" must be a list of coordinate lists'),
        ],
        ids=["empty", "no-coordinates", "ragged", "bool", "float", "flat"],
    )
    def test_bad_vertices_are_parse_errors(self, vertices, message):
        # the parser words a fault in the document's shape, geometry one in its
        # coordinates; both are parse errors
        with pytest.raises(PolytopeParseError) as exc:
            parse_polytope(f'{{"vertices": {vertices}}}')
        assert str(exc.value) == message

    def test_over_long_integer_is_a_parse_error(self):
        # json.loads refuses to read it; the message names the limit, not the
        # interpreter setting that raises it
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(PolytopeParseError) as exc:
            parse_polytope(f'{{"vertices": [[0], [{digits}]]}}')
        assert str(exc.value) == OVER_LONG_INTEGER

    def test_malformed_json_has_position(self):
        with pytest.raises(PolytopeParseError, match=r"line 1, column"):
            parse_polytope('{"vertices": [[0,')

    def test_missing_key(self):
        with pytest.raises(PolytopeParseError):
            parse_polytope('{"points": [[0]]}')

    def test_round_trip(self):
        first = parse_polytope('{"vertices": [[0,0],[2,0],[0,2],[1,1]]}')
        again = parse_polytope(json.dumps({"vertices": [list(v) for v in first.vertices]}))
        assert again == first


@pytest.mark.parametrize(
    "argv, want",
    [
        (["count", "--preset", "square", "--t-max", "3"],
         RunConfig("count", preset="square", t_max=3)),
        (["ehrhart", "--input", "-", "--format", "json"],
         RunConfig("ehrhart", input="-", format="json")),
        (["copies", "--preset", "triangle", "--n", "4", "--format", "csv"],
         RunConfig("copies", preset="triangle", n=4, format="csv")),
        (["mu", "--preset", "pentagon", "--n-max", "6"],
         RunConfig("mu", preset="pentagon", n_max=6)),
        (["pie", "--input", "X"], RunConfig("pie", input="X")),
        (["oracle", "--preset", "square", "--n", "2", "--summary"],
         RunConfig("oracle", preset="square", n=2, summary=True)),
        (["verify"], RunConfig("verify")),
    ],
    ids=["count", "ehrhart", "copies", "mu", "pie", "oracle-summary", "verify"],
)
def test_config_from_args(argv, want):
    assert config_from_args(build_parser().parse_args(argv)) == want


class TestDecimalString:
    def test_exact_third(self):
        assert decimal_string(Fraction(1, 3)) == "0.333333333333"

    def test_rounding(self):
        assert decimal_string(Fraction(2, 3)) == "0.666666666667"

    def test_negative(self):
        assert decimal_string(Fraction(-1, 8)) == "-0.125000000000"

    def test_integer(self):
        assert decimal_string(Fraction(3)) == "3.000000000000"


class TestSubcommands:
    def test_count_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--preset", "square", "--t-max", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["t,closed,interior", "0,1,0", "1,4,0", "2,9,1"]

    def test_count_zero_dimensional(self, capsys, monkeypatch):
        # a point has no projection tower; its counts are 1 closed, 0 interior
        def no_tower(P):
            raise AssertionError("a point has no projection tower")

        monkeypatch.setattr(counting, "_lift_plan", no_tower)
        code, out, _ = run_cli(
            capsys, "count", "--input", '{"vertices": [[1, 2]]}', "--t-max", "2"
        )
        assert code == 0
        assert out.splitlines() == ["t,closed,interior", "0,1,0", "1,1,0", "2,1,0"]

    def test_ehrhart_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "ehrhart", "--preset", "triangle", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "3/2", "1/2"]}

    def test_ehrhart_human(self, capsys):
        code, out, _ = run_cli(capsys, "ehrhart", "--preset", "square")
        assert code == 0
        assert "t^2 + 2 t + 1" in out
        assert "1, 2, 1" in out

    def test_copies_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "copies", "--preset", "square", "--n", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,count,weighted"
        assert lines[1] == "1,9,9"   # L(2) = 9 unit copies
        assert lines[2] == "2,4,16"  # L(1) = 4 double copies
        assert lines[3] == "3,1,9"   # the copy 3P itself

    def test_mu_footer(self, capsys):
        code, out, _ = run_cli(capsys, "mu", "--preset", "square", "--n-max", "5")
        assert code == 0
        assert "limit = 1/10" in out
        assert "closed_form = 1/10" in out

    def test_mu_csv_exact_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "mu", "--preset", "square", "--n-max", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ratio_num,ratio_den,ratio_decimal"
        assert lines[1] == "1,1,1,1.000000000000"
        assert lines[2] == "2,2,5,0.400000000000"
        assert lines[3].startswith("3,17,63,")
        assert "# limit = 1/10" in lines

    def test_mu_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "mu", "--preset", "triangle", "--n-max", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["limit"] == "1/20"
        assert doc["ratios"][0] == {
            "n": 1, "num": "1", "den": "2", "decimal": "0.500000000000",
        }

    def test_pie_from_file(self, capsys, tmp_path):
        path = tmp_path / "parts.json"
        path.write_text(
            '[{"vertices":[[0,0],[1,0],[0,1],[1,1]]},'
            '{"vertices":[[1,0],[2,0],[1,1],[2,1]]}]'
        )
        code, out, _ = run_cli(capsys, "pie", "--input", str(path))
        assert code == 0
        assert "mu = 1/5" in out

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text('{"vertices": [[0], [2]]}')
        code, out, _ = run_cli(
            capsys, "ehrhart", "--input", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "2"]}

    def test_input_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"vertices": [[0], [1]]}'))
        code, out, _ = run_cli(capsys, "ehrhart", "--input", "-", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "1"]}

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--input", "/nonexistent/poly.json", "--t-max", "1"
        )
        assert code == 2
        assert "not found" in err


class TestExitCodes:
    def test_missing_input_is_precondition(self, capsys):
        code, _, err = run_cli(capsys, "count", "--t-max", "2")
        assert code == 2
        assert "error" in err

    def test_malformed_json_is_precondition(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--input", '{"vertices": [[0,', "--t-max", "1"
        )
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [["count", "--t-max", "1"], ["pie"]])
    def test_deeply_nested_json_is_precondition(self, capsys, argv):
        # json.loads recurses once per bracket; the polytope path and the list path
        code, _, err = run_cli(capsys, *argv, "--input", "[" * 100_000)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_over_long_integer_in_a_list_is_precondition(self, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        # `pie` reads its list through the same loader as a single polytope
        argv = ["pie", "--input", f'[{{"vertices": [[{digits}]]}}]']
        assert run_cli(capsys, *argv) == (2, "", f"error: {OVER_LONG_INTEGER}\n")

    def test_non_integer_coordinate_echoed(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--input", '{"vertices": [[0, 0.5]]}', "--t-max", "1"
        )
        assert code == 2
        assert "0.5" in err

    def test_guard_exceeded_is_precondition(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--preset", "square", "--n", "13")
        assert code == 2
        assert "capped" in err

    def test_lower_dimensional_is_precondition(self, capsys):
        code, _, err = run_cli(
            capsys, "ehrhart", "--input", '{"vertices": [[0,0],[1,1]]}'
        )
        assert code == 2

    def test_theorem_violation_is_exit_three(self, capsys, monkeypatch):
        def explode(P, n_max):
            raise TheoremViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "mu_report", explode)
        code, _, err = run_cli(capsys, "mu", "--preset", "square", "--n-max", "2")
        assert code == 3
        assert "forced" in err

    def test_violated_limit_is_exit_three(self, capsys, monkeypatch):
        # the square handed the enumerator of box(2, 1), of lead 2, not vol = 1:
        # the fit of H = M_0 finds lead 2/3 where the theorem gives 1/3
        real = miniatures.ehrhart_polynomial
        monkeypatch.setattr(
            miniatures,
            "ehrhart_polynomial",
            lambda P: real(corpus.box(2, 1) if P == corpus.square() else P),
        )
        with pytest.raises(TheoremViolationError, match="census moment M_0"):
            miniatures.mu_limit_symbolic(corpus.square())
        code, out, err = run_cli(capsys, "mu", "--preset", "square", "--n-max", "3")
        assert code == 3
        assert out == ""
        assert "census moment M_0" in err

    def test_pie_needs_a_list(self, capsys):
        code, out, err = run_cli(capsys, "pie", "--input", '{"vertices": [[0]]}')
        assert (code, out, err) == (2, "", "error: expected a JSON list of polytope objects\n")

    def test_pie_without_input(self, capsys):
        # the parser requires --input for pie; `run` is also called directly
        code = cli.run(RunConfig("pie"))
        out, err = capsys.readouterr()
        assert (code, out, err) == (
            2, "", "error: this subcommand needs --input with a JSON list\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_run_leaves_stdout_empty(self, capsys, fmt):
        # L(1) has 4,400 digits, past Python's limit for str(int): the t = 0 row
        # is ready before the run fails, and none of it may reach stdout
        b = 10**2200
        doc = json.dumps({"vertices": [[0, 0], [b, 0], [0, b]]})
        code, out, err = run_cli(
            capsys, "count", "--input", doc, "--t-max", "1", "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["count", "--t-max", "1"], ["ehrhart"], ["mu", "--n-max", "1"]],
        ids=["count", "ehrhart", "mu"],
    )
    def test_over_long_answer_names_the_limit(self, capsys, argv):
        # the answer, not the input, is past the limit for str(int): the error
        # names the limit, not the interpreter setting a CLI user cannot reach
        b = 10**2200
        doc = json.dumps({"vertices": [[0, 0], [b, 0], [0, b]]})
        code, out, err = run_cli(capsys, *argv, "--input", doc)
        assert (code, out, err) == (2, "", f"error: {OVER_LONG_ANSWER}\n")

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--preset", "square", "--t-max", "2", "--frobnicate"])
        assert exc.value.code == 2

    def test_nonpositive_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mu", "--preset", "square", "--n-max", "0"])
        assert exc.value.code == 2

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--preset", "dodecahedron", "--t-max", "1"])
        assert exc.value.code == 2


def test_all_presets_resolve(capsys):
    for name in ("triangle", "square", "cube3", "reeve", "pentagon"):
        code, out, _ = run_cli(
            capsys, "ehrhart", "--preset", name, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["coeffs"][0] == "1"


def test_unknown_preset_named():
    with pytest.raises(ValueError) as exc:
        corpus.preset("nope")
    assert str(exc.value) == (
        "unknown preset 'nope'; available: cube3, pentagon, reeve, square, triangle"
    )


# -- whole outputs, byte for byte --

# the unit square cut along its diagonal
DIAGONAL_SPLIT = '[{"vertices":[[0,0],[1,0],[1,1]]},{"vertices":[[0,0],[0,1],[1,1]]}]'


def json_text(doc):
    """The JSON reports' layout: two-space indent, one trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


PENTAGON_ROWS = """\
n,ratio_num,ratio_den,ratio_decimal
1,5,1,5.000000000000
2,35,22,1.590909090909
3,13,12,1.083333333333
4,25,28,0.892857142857
5,31,39,0.794871794872
6,1505,2046,0.735581622678
"""

PENTAGON_JSON = """\
{
  "ratios": [
    {
      "n": 1,
      "num": "5",
      "den": "1",
      "decimal": "5.000000000000"
    },
    {
      "n": 2,
      "num": "35",
      "den": "22",
      "decimal": "1.590909090909"
    },
    {
      "n": 3,
      "num": "13",
      "den": "12",
      "decimal": "1.083333333333"
    },
    {
      "n": 4,
      "num": "25",
      "den": "28",
      "decimal": "0.892857142857"
    },
    {
      "n": 5,
      "num": "31",
      "den": "39",
      "decimal": "0.794871794872"
    },
    {
      "n": 6,
      "num": "1505",
      "den": "2046",
      "decimal": "0.735581622678"
    }
  ],
  "limit": "1/2",
  "closed_form": "1/2",
  "bound_constant": "9/2"
}
"""

VERIFY_OUTPUT = """\
PASS  geometry.hull-idempotence        6 point sets
PASS  geometry.scaling-law             vol(kP) = k^d vol(P), k <= 5
PASS  geometry.translation-invariance  volume and dim
PASS  geometry.pyramid-volume          (d+1) vol(Pyr P) = vol(P)
PASS  counting.monotonicity            t = 0..8
PASS  counting.product-law             [0,1]^d gives (t+1)^d
PASS  counting.lift-vs-membership      closed and interior, t = 1..3
PASS  ehrhart.shape                    constant 1, lead = vol, h* >= 0
PASS  ehrhart.reciprocity              t <= 4 on the corpus
PASS  miniatures.pyramid-identity      H(n) = L_Pyr(n-1), n <= d+2
PASS  miniatures.volume-ratio-limit    limit = vol / C(2d+1, d)
PASS  miniatures.numerator-lead        d!d!/(2d+1)! vol^2, N(2d+4) = direct counts
PASS  miniatures.census-monotone       totals strictly increase
PASS  miniatures.census-vs-counts      polynomial census = direct counts, n = 2d+5
PASS  oracle.census-equivalence        counts and averages match
PASS  oracle.sum-product               lead = p!q!/(p+q+1)!, p,q <= 3
PASS  miniatures.inclusion-exclusion   all three tilings exact
17/17 suites passed
"""

# the `verify` suites, in the order they print
SUITE_NAMES = [line.split()[1] for line in VERIFY_OUTPUT.splitlines()[:-1]]

WHOLE_OUTPUTS = [
    pytest.param(
        ["mu", "--preset", "pentagon", "--n-max", "6", "--format", "csv"],
        PENTAGON_ROWS + "# limit = 1/2\n# closed_form = 1/2\n# bound_constant = 9/2\n",
        id="mu-csv",
    ),
    pytest.param(
        ["mu", "--preset", "pentagon", "--n-max", "6", "--format", "json"],
        PENTAGON_JSON,
        id="mu-json",
    ),
    pytest.param(
        ["mu", "--preset", "pentagon", "--n-max", "6"],
        PENTAGON_ROWS + "limit = 1/2\nclosed_form = 1/2\nbound_constant = 9/2\n",
        id="mu-human",
    ),
    pytest.param(
        ["mu", "--input", '{"vertices":[[0,0],[2,2]]}', "--n-max", "3"],
        "n,ratio_num,ratio_den,ratio_decimal\n"
        "1,0,1,0.000000000000\n"
        "2,0,1,0.000000000000\n"
        "3,0,1,0.000000000000\n"
        "limit = 0\nclosed_form = 0\nbound_constant = 0\n",
        id="mu-lower-dimensional",
    ),
    pytest.param(
        ["copies", "--preset", "triangle", "--n", "4"],
        "i,count,weighted\n1,10,10\n2,6,24\n3,3,27\n4,1,16\n"
        "total = 20\nvolume_sum = 77/32\n",
        id="copies-human",
    ),
    pytest.param(
        ["ehrhart", "--preset", "reeve"],
        "L(t) = 1/3 t^3 + t^2 + 5/3 t + 1\n"
        "coefficients (low to high): 1, 5/3, 1, 1/3\n",
        id="ehrhart-human",
    ),
    pytest.param(["verify"], VERIFY_OUTPUT, id="verify"),
    pytest.param(
        ["count", "--preset", "pentagon", "--t-max", "3", "--format", "json"],
        json_text({"counts": [
            {"t": 0, "closed": 1, "interior": 0},
            {"t": 1, "closed": 10, "interior": 2},
            {"t": 2, "closed": 29, "interior": 13},
            {"t": 3, "closed": 58, "interior": 34},
        ]}),
        id="count-json",
    ),
    pytest.param(
        ["count", "--preset", "pentagon", "--t-max", "3"],
        "t,closed,interior\n0,1,0\n1,10,2\n2,29,13\n3,58,34\n",
        id="count-human",
    ),
    pytest.param(
        ["ehrhart", "--preset", "reeve", "--format", "csv"],
        "k,coeff\n0,1\n1,5/3\n2,1\n3,1/3\n",
        id="ehrhart-csv",
    ),
    pytest.param(
        ["ehrhart", "--preset", "reeve", "--format", "json"],
        json_text({"coeffs": ["1", "5/3", "1", "1/3"]}),
        id="ehrhart-json",
    ),
    pytest.param(
        ["copies", "--preset", "triangle", "--n", "4", "--format", "csv"],
        "i,count,weighted\n1,10,10\n2,6,24\n3,3,27\n4,1,16\ntotal,20,\n",
        id="copies-csv",
    ),
    pytest.param(
        ["copies", "--preset", "triangle", "--n", "4", "--format", "json"],
        json_text({
            "n": 4,
            "per_scale": {"1": 10, "2": 6, "3": 3, "4": 1},
            "total": 20,
            "volume_sum": "77/32",
        }),
        id="copies-json",
    ),
    pytest.param(
        ["pie", "--input", DIAGONAL_SPLIT, "--format", "csv"], "mu\n1/10\n", id="pie-csv"
    ),
    pytest.param(
        ["pie", "--input", DIAGONAL_SPLIT, "--format", "json"],
        json_text({"mu": "1/10", "parts": 2}),
        id="pie-json",
    ),
    pytest.param(
        ["pie", "--input", DIAGONAL_SPLIT],
        "mu = 1/10 (union volume check: consistent)\n",
        id="pie-human",
    ),
    pytest.param(
        ["oracle", "--preset", "triangle", "--n", "2", "--format", "csv"],
        "i,a1,a2\n1,0,0\n1,0,1\n1,1,0\n2,0,0\n",
        id="oracle-csv",
    ),
    pytest.param(
        ["oracle", "--preset", "triangle", "--n", "2", "--format", "json"],
        json_text({"witnesses": [
            {"i": 1, "a": [0, 0]},
            {"i": 1, "a": [0, 1]},
            {"i": 1, "a": [1, 0]},
            {"i": 2, "a": [0, 0]},
        ]}),
        id="oracle-json",
    ),
    pytest.param(
        ["oracle", "--preset", "triangle", "--n", "2", "--summary", "--format", "csv"],
        "i,count\n1,3\n2,1\n",
        id="oracle-summary-csv",
    ),
    pytest.param(
        ["oracle", "--preset", "triangle", "--n", "2", "--summary", "--format", "json"],
        json_text({"per_scale": {"1": 3, "2": 1}, "total": 4}),
        id="oracle-summary-json",
    ),
]


@pytest.mark.parametrize("argv, want", WHOLE_OUTPUTS)
def test_whole_output(capsys, argv, want):
    assert run_cli(capsys, *argv) == (0, want, "")


def test_module_entry_point():
    argv, env = module_command("copies", "--preset", "triangle", "--n", "4")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "total = 20" in proc.stdout


def test_large_census_reads_the_polynomial():
    # 3000 scales, each L(n - i) tabulated from the cube's d+3 Ehrhart counts
    argv, env = module_command(
        "copies", "--preset", "cube3", "--n", "3000", "--format", "json"
    )
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == (3000 * 3001 // 2) ** 2


def test_thin_triangle_from_the_cli():
    # the narrow axis goes outermost: three lines, not 10^9 t
    argv, env = module_command(
        "count", "--input", '{"vertices":[[0,0],[1000000000,0],[0,1]]}', "--t-max", "2"
    )
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "t,closed,interior",
        "0,1,0",
        "1,1000000002,0",
        "2,3000000003,999999999",
    ]


@pytest.mark.parametrize("spec", ["dir", ""], ids=["directory", "empty"])
def test_unreadable_input_is_precondition(tmp_path, spec):
    # "" names the working directory, so both specs read a directory
    spec = str(tmp_path) if spec == "dir" else spec
    argv, env = module_command("count", "--input", spec, "--t-max", "1")
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=10
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("lines_read", [0, 2])
def test_closed_pipe_exits_without_traceback(lines_read):
    argv, env = module_command("mu", "--preset", "square", "--n-max", "400")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    head = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in ((1,) if lines_read == 0 else (0, 1))
    assert head == ["n,ratio_num,ratio_den,ratio_decimal\n", "1,1,1,1.000000000000\n"][:lines_read]
    assert "Traceback" not in err


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(config, out=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    code, out, err = run_cli(capsys, "mu", "--preset", "square", "--n-max", "3")
    assert code == 130
    assert out == err == ""


def _bumped_scale_one(real):
    # off by one at scale 1 past n = 7, which only census-vs-counts reaches
    def census(P, n):
        c = real(P, n)
        if n <= 7:
            return c
        return replace(c, per_scale={**c.per_scale, 1: c.per_scale[1] + 1})

    return census


def _raising(error):
    def corrupt(real):
        def check(*args):
            raise error

        return check

    return corrupt


def _rehull_drops_a_vertex(real):
    # only hull-idempotence re-hulls a 4-D polytope's vertices; the corpus
    # stops at d = 3
    def hull(points):
        if isinstance(points, tuple) and len(points[0]) == 4:
            points = points[1:]
        return real(points)

    return hull


def _census_total_zero_at(n_bad):
    def census(real):
        return lambda P, n: replace(real(P, n), total=0) if n == n_bad else real(P, n)

    return census


def _first_witness_rescaled(real):
    # the same number of witnesses, one of them moved from scale 1 to scale 2
    def copies(P, n):
        first, *rest = real(P, n)
        return [replace(first, scale=first.scale + 1), *rest]

    return copies


def _bumped_offsets(real, bumped):
    # the same polytope with every half-space offset one larger, where bumped
    def call(P, arg):
        Q = real(P, arg)
        if not bumped(arg):
            return Q
        return replace(
            Q, halfspaces=tuple(HalfSpace(h.normal, h.offset + 1) for h in Q.halfspaces)
        )

    return call


def _reeve_for_square(real):
    # Reeve(2) has the square pyramid's volume 1/3, degree 3 and no interior
    # point, so only H(n) = L_Pyr(n - 1) tells it from the square's pyramid
    return lambda P: corpus.reeve(2) if P == corpus.square() else real(P)


def _numerator_plus_one(real):
    # N + 1 keeps N's degree and lead, so only N(2d+4) against direct counts
    # tells it from N
    def numerator(P):
        N = real(P)
        return RationalPolynomial.from_coeffs((N.coeffs[0] + 1,) + N.coeffs[1:])

    return numerator


def _verify_failures(capsys, monkeypatch, call, corrupt):
    """The FAIL lines of `verify`, as [name, detail], with one library call
    corrupted as `verify` sees it; the library itself is intact."""
    monkeypatch.setattr(selfcheck, call, corrupt(getattr(selfcheck, call)))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    failed = [line.split(None, 2)[1:] for line in out.splitlines() if line.startswith("FAIL")]
    assert all(name in SUITE_NAMES for name, _ in failed)
    assert out.endswith(f"{17 - len(failed)}/17 suites passed\n")
    return failed


@pytest.mark.parametrize(
    "call, corrupt, name, detail",
    [
        pytest.param(
            "count_points",
            lambda real: lambda P, t, interior=False: real(P, t, interior) + interior,
            "counting.lift-vs-membership", "segment1, t=1, interior=True",
            id="interior-count",
        ),
        pytest.param(
            "copy_census", _bumped_scale_one,
            "miniatures.census-vs-counts", "triangle",
            id="census-per-scale",
        ),
        pytest.param(
            "enumerate_copies", lambda real: lambda P, n: real(P, n)[1:],
            "oracle.census-equivalence", "segment1",
            id="oracle-witnesses",
        ),
        pytest.param(
            "average_miniature_volume", lambda real: lambda P, n: real(P, n) + 1,
            "oracle.census-equivalence", "segment1, volume average",
            id="volume-average",
        ),
        pytest.param(
            "mu_inclusion_exclusion",
            lambda real: lambda parts: real(parts) + (len(parts) == 3),
            "miniatures.inclusion-exclusion", "sheared 3-D slabs",
            id="inclusion-exclusion",
        ),
        pytest.param(
            "sum_prod_poly", _raising(TheoremViolationError("planted lead mismatch")),
            "oracle.sum-product", "planted lead mismatch",
            id="raising-check",
        ),
        pytest.param(
            # a precondition error, not a violated identity, is a FAIL line too
            "mu_inclusion_exclusion",
            _raising(UnsupportedInputError("planted non-lattice intersection")),
            "miniatures.inclusion-exclusion", "planted non-lattice intersection",
            id="raising-precondition",
        ),
        pytest.param(
            "from_vertices", _rehull_drops_a_vertex,
            "geometry.hull-idempotence", f"failed on {selfcheck._HULL_POINT_SETS[4]}",
            id="rehull-drops-a-vertex",
        ),
        pytest.param(
            "volume", lambda real: lambda P: 2 * real(P),
            "geometry.pyramid-volume", "segment1",
            id="pyramid-volume-doubled",
        ),
        pytest.param(
            "check_reciprocity",
            lambda real: lambda P, t_max: real(P, t_max) and P != corpus.pentagon(),
            "ehrhart.reciprocity", "pentagon",
            id="reciprocity-denied",
        ),
        pytest.param(
            # censuses n = 1..7 on the 2-D corpus; the other census suites take
            # n = 3, 4 and 2d+5
            "copy_census", _census_total_zero_at(6),
            "miniatures.census-monotone", "segment1",
            id="census-total",
        ),
        pytest.param(
            "enumerate_copies", _first_witness_rescaled,
            "oracle.census-equivalence", "segment1, scale 1",
            id="oracle-scales",
        ),
        pytest.param(
            "dilate", lambda real: _bumped_offsets(real, lambda k: k == 5),
            "geometry.scaling-law", "segment1, k=5",
            id="dilate-offsets",
        ),
        pytest.param(
            # inclusion-exclusion translates the square by (1, 0); only the
            # translation suite sees the other shifts
            "translate", lambda real: _bumped_offsets(real, lambda a: a != (1, 0)),
            "geometry.translation-invariance", "segment1, a=(-3,)",
            id="translate-offsets",
        ),
        pytest.param(
            "pyramid", _reeve_for_square,
            "miniatures.pyramid-identity", "square",
            id="pyramid-swapped",
        ),
        pytest.param(
            "numerator_polynomial", _numerator_plus_one,
            "miniatures.numerator-lead", "segment1",
            id="numerator-shifted",
        ),
    ],
)
def test_verify_names_the_failing_suite(capsys, monkeypatch, call, corrupt, name, detail):
    assert _verify_failures(capsys, monkeypatch, call, corrupt) == [[name, detail]]


@pytest.mark.parametrize(
    "corrupt, name, detail",
    [
        pytest.param(
            lambda real: lambda P, t, interior=False: 0 if t == 8 else real(P, t, interior),
            "counting.monotonicity", "segment1",
            id="count-drops-at-8",
        ),
        pytest.param(
            lambda real: lambda P, t, interior=False: real(P, t, interior) + (t == 5),
            "counting.product-law", "d=1, t=5",
            id="count-bumped-at-5",
        ),
    ],
)
def test_verify_names_a_count_fault(capsys, monkeypatch, corrupt, name, detail):
    # census-vs-counts recounts every t <= 8 on the 2-D corpus and every t <= 10
    # on the boxes, so these count faults fail it too
    failed = _verify_failures(capsys, monkeypatch, "count_points", corrupt)
    assert [name, detail] in failed


def test_verify_corpus_is_full_dimensional():
    # the `verify` suites feed every corpus entry to full-dimensional routines
    assert all(P.is_full_dimensional for _, P in corpus.full_corpus())
