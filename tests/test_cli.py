"""CLI surface: parsing, formats, presets, footers, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from latticemini import PolytopeParseError, TheoremViolationError
from latticemini import cli, corpus, counting, miniatures, selfcheck
from latticemini.cli import decimal_string, main, parse_polytope
from latticemini.geometry import HalfSpace

# the `verify` suites, in the order they print
SUITE_NAMES = [
    "geometry.hull-idempotence",
    "geometry.scaling-law",
    "geometry.translation-invariance",
    "geometry.pyramid-volume",
    "counting.monotonicity",
    "counting.product-law",
    "counting.lift-vs-membership",
    "ehrhart.shape",
    "ehrhart.reciprocity",
    "miniatures.pyramid-identity",
    "miniatures.volume-ratio-limit",
    "miniatures.numerator-lead",
    "miniatures.census-monotone",
    "miniatures.census-vs-counts",
    "oracle.census-equivalence",
    "oracle.sum-product",
    "miniatures.inclusion-exclusion",
]


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

    def test_non_integer_coordinate_named(self):
        with pytest.raises(PolytopeParseError, match=r"vertex 0, index 1: 0.5"):
            parse_polytope('{"vertices": [[0, 0.5]]}')

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

    def test_copies_human_total(self, capsys):
        code, out, _ = run_cli(capsys, "copies", "--preset", "triangle", "--n", "4")
        assert code == 0
        assert "total = 20" in out

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

    def test_pie_inline_json(self, capsys):
        parts = '[{"vertices":[[0,0],[1,0],[1,1]]},{"vertices":[[0,0],[0,1],[1,1]]}]'
        code, out, _ = run_cli(capsys, "pie", "--input", parts)
        assert code == 0
        assert "mu = 1/10" in out

    def test_pie_from_file(self, capsys, tmp_path):
        path = tmp_path / "parts.json"
        path.write_text(
            '[{"vertices":[[0,0],[1,0],[0,1],[1,1]]},'
            '{"vertices":[[1,0],[2,0],[1,1],[2,1]]}]'
        )
        code, out, _ = run_cli(capsys, "pie", "--input", str(path))
        assert code == 0
        assert "mu = 1/5" in out

    def test_oracle_witness_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--preset", "triangle", "--n", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["i,a1,a2", "1,0,0", "1,0,1", "1,1,0", "2,0,0"]

    def test_oracle_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--preset", "triangle", "--n", "2", "--summary",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["i,count", "1,3", "2,1"]

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

    def test_pie_csv(self, capsys):
        parts = '[{"vertices":[[0,0],[1,0],[1,1]]},{"vertices":[[0,0],[0,1],[1,1]]}]'
        code, out, _ = run_cli(capsys, "pie", "--input", parts, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["mu", "1/10"]

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--input", "/nonexistent/poly.json", "--t-max", "1"
        )
        assert code == 2
        assert "not found" in err

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert "suites passed" in out
        assert [line.split()[1] for line in out.splitlines()[:-1]] == SUITE_NAMES


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


# -- whole outputs, byte for byte --

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
PASS  ehrhart.shape                    constant 1, lead = vol, d! c_i integral
PASS  ehrhart.reciprocity              t <= 4 on the corpus
PASS  miniatures.pyramid-identity      census polynomial shape and totals
PASS  miniatures.volume-ratio-limit    limit = vol / C(2d+1, d)
PASS  miniatures.numerator-lead        d!d!/(2d+1)! vol^2
PASS  miniatures.census-monotone       totals strictly increase
PASS  miniatures.census-vs-counts      polynomial census = direct counts, n = 2d+5
PASS  oracle.census-equivalence        counts and averages match
PASS  oracle.sum-product               lead = p!q!/(p+q+1)!, p,q <= 3
PASS  miniatures.inclusion-exclusion   all three tilings exact
17/17 suites passed
"""

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
    # 3000 scales, each L(n - i) read off the Ehrhart polynomial of the cube
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


def _raising(real):
    def check(*args):
        raise TheoremViolationError("planted lead mismatch")

    return check


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
            "sum_prod_poly", _raising,
            "oracle.sum-product", "planted lead mismatch",
            id="raising-check",
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
    ],
)
def test_verify_names_the_failing_suite(capsys, monkeypatch, call, corrupt, name, detail):
    # corrupt one library call as `verify` sees it; the library itself is intact
    monkeypatch.setattr(selfcheck, call, corrupt(getattr(selfcheck, call)))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    failed = [line.split(None, 2) for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0][1] in SUITE_NAMES
    assert failed[0][1:] == [name, detail]
    assert out.endswith("16/17 suites passed\n")


def test_verify_corpus_is_full_dimensional():
    # the `verify` suites feed every corpus entry to full-dimensional routines
    assert all(P.is_full_dimensional for _, P in corpus.full_corpus())
