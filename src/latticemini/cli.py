"""Command-line interface: polytope I/O and CSV/JSON/human reports.

Each subcommand returns its exit status and its whole document as text;
`run` alone writes stdout, and only once the command has returned, so a
command that raises leaves stdout empty and one `error:` line on stderr.

Exit codes: 0 success, 2 precondition or input problem, 3 violated exact
identity (formula/oracle mismatch — a test signal, never swallowed), 1 the
reader of stdout closed the pipe, 130 interrupted by Ctrl-C.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb
from pathlib import Path

from . import __version__, corpus
from .counting import count_points
from .ehrhart import ehrhart_polynomial
from .errors import (
    ConstructionError,
    InternalConsistencyError,
    LatticeMiniError,
    PolytopeParseError,
    TheoremViolationError,
)
from .geometry import LatticePolytope, from_vertices
from .miniatures import copy_census, mu_inclusion_exclusion, mu_report
from .oracle import enumerate_copies
from .selfcheck import run_all

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_THEOREM = 3
EXIT_BROKEN_PIPE = 1
EXIT_INTERRUPTED = 130


@dataclass
class RunConfig:
    """One run of a subcommand; each field is the dest of its parser option."""

    subcommand: str
    input: str | None = None
    preset: str | None = None
    n: int | None = None
    n_max: int | None = None
    t_max: int | None = None
    format: str = "human"
    summary: bool = False


def decimal_string(value: Fraction) -> str:
    """Exact fixed-point rendering, rounded half up to 12 decimal digits."""
    sign = "-" if value.numerator < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled, rem = divmod(num * 10**12, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10**12)
    return f"{sign}{whole}.{frac:012d}"


def parse_polytope(text: str) -> LatticePolytope:
    """Parse the polytope JSON document {"vertices": [[int, ...], ...]}."""
    return _polytope_from_doc(_load_json(text))


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise PolytopeParseError("JSON nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise PolytopeParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # json.loads raises no other: an integer past the digit limit
        raise PolytopeParseError(
            f"an integer in the input has more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit"
        ) from None


def _polytope_from_doc(doc) -> LatticePolytope:
    # the shape of the document is checked here, its coordinates by geometry
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolytopeParseError('expected a JSON object with a "vertices" key')
    rows = doc["vertices"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PolytopeParseError('"vertices" must be a list of coordinate lists')
    try:
        return from_vertices(rows)
    except ConstructionError as exc:
        raise PolytopeParseError(str(exc)) from None


def _read_input(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    stripped = spec.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return spec
    try:
        return Path(spec).read_text()
    except OSError as exc:
        # Path("") is the working directory
        if isinstance(exc, FileNotFoundError):
            raise PolytopeParseError(f"input file not found: {spec}") from None
        raise PolytopeParseError(f"cannot read input {spec!r}: {exc.strerror}") from None


def _resolve_polytope(config: RunConfig) -> LatticePolytope:
    if config.preset is not None:
        return corpus.preset(config.preset)
    if config.input is not None:
        return parse_polytope(_read_input(config.input))
    raise PolytopeParseError("no input polytope: pass --preset NAME or --input SPEC")


def _resolve_polytope_list(config: RunConfig) -> list[LatticePolytope]:
    if config.input is None:
        raise PolytopeParseError("this subcommand needs --input with a JSON list")
    doc = _load_json(_read_input(config.input))
    if not isinstance(doc, list):
        raise PolytopeParseError("expected a JSON list of polytope objects")
    return [_polytope_from_doc(entry) for entry in doc]


def _table(header, rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cmd_count(config: RunConfig) -> tuple[int, str]:
    P = _resolve_polytope(config)
    rows = [
        (t, count_points(P, t), count_points(P, t, interior=True))
        for t in range(config.t_max + 1)
    ]
    if config.format == "json":
        return EXIT_OK, _json(
            {"counts": [{"t": t, "closed": c, "interior": i} for t, c, i in rows]}
        )
    return EXIT_OK, _table(["t", "closed", "interior"], rows)


def _cmd_ehrhart(config: RunConfig) -> tuple[int, str]:
    P = _resolve_polytope(config)
    poly = ehrhart_polynomial(P).poly
    if config.format == "json":
        return EXIT_OK, _json({"coeffs": poly.coeff_strings()})
    if config.format == "csv":
        return EXIT_OK, _table(["k", "coeff"], enumerate(poly.coeffs))
    return EXIT_OK, (
        f"L(t) = {poly.pretty()}\n"
        f"coefficients (low to high): {', '.join(poly.coeff_strings())}\n"
    )


def _cmd_copies(config: RunConfig) -> tuple[int, str]:
    P = _resolve_polytope(config)
    census = copy_census(P, config.n)
    per_scale = sorted(census.per_scale.items())
    if config.format == "json":
        return EXIT_OK, _json({
            "n": census.dilate,
            "per_scale": {str(i): c for i, c in per_scale},
            "total": census.total,
            "volume_sum": str(census.volume_sum),
        })
    header = ["i", "count", "weighted"]
    rows = [(i, c, i**P.ambient_dim * c) for i, c in per_scale]
    if config.format == "csv":
        return EXIT_OK, _table(header, [*rows, ("total", census.total, "")])
    footer = f"total = {census.total}\nvolume_sum = {census.volume_sum}\n"
    return EXIT_OK, _table(header, rows) + footer


def _cmd_mu(config: RunConfig) -> tuple[int, str]:
    P = _resolve_polytope(config)
    report = mu_report(P, config.n_max)
    d = P.ambient_dim
    closed_form = P.volume_d / comb(2 * d + 1, d)
    if config.format == "json":
        return EXIT_OK, _json({
            "ratios": [
                {"n": n, "num": str(r.numerator), "den": str(r.denominator),
                 "decimal": decimal_string(r)}
                for n, r in report.ratios
            ],
            "limit": str(report.symbolic_limit),
            "closed_form": str(closed_form),
            "bound_constant": str(report.bound_constant),
        })
    rows = [(n, r.numerator, r.denominator, decimal_string(r)) for n, r in report.ratios]
    p = "# " if config.format == "csv" else ""
    footer = (f"{p}limit = {report.symbolic_limit}\n{p}closed_form = {closed_form}\n"
              f"{p}bound_constant = {report.bound_constant}\n")
    return EXIT_OK, _table(["n", "ratio_num", "ratio_den", "ratio_decimal"], rows) + footer


def _cmd_pie(config: RunConfig) -> tuple[int, str]:
    parts = _resolve_polytope_list(config)
    value = mu_inclusion_exclusion(parts)
    if config.format == "json":
        return EXIT_OK, _json({"mu": str(value), "parts": len(parts)})
    if config.format == "csv":
        return EXIT_OK, _table(["mu"], [[value]])
    return EXIT_OK, f"mu = {value} (union volume check: consistent)\n"


def _cmd_oracle(config: RunConfig) -> tuple[int, str]:
    P = _resolve_polytope(config)
    witnesses = enumerate_copies(P, config.n)
    if config.summary:
        per_scale = sorted(Counter(w.scale for w in witnesses).items())
        if config.format == "json":
            return EXIT_OK, _json(
                {"per_scale": {str(i): c for i, c in per_scale}, "total": len(witnesses)}
            )
        return EXIT_OK, _table(["i", "count"], per_scale)
    if config.format == "json":
        return EXIT_OK, _json(
            {"witnesses": [{"i": w.scale, "a": list(w.shift)} for w in witnesses]}
        )
    header = ["i"] + [f"a{j + 1}" for j in range(P.ambient_dim)]
    return EXIT_OK, _table(header, [(w.scale, *w.shift) for w in witnesses])


def _cmd_verify(config: RunConfig) -> tuple[int, str]:
    results = run_all()
    width = max(len(r.name) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}\n"
             for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} suites passed\n")
    return EXIT_OK if passed == len(results) else EXIT_THEOREM, "".join(lines)


_COMMANDS = {
    "count": _cmd_count,
    "ehrhart": _cmd_ehrhart,
    "copies": _cmd_copies,
    "mu": _cmd_mu,
    "pie": _cmd_pie,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def run(config: RunConfig, out=None) -> int:
    """Run one subcommand, then write its document to out; returns the exit status."""
    try:
        status, document = _COMMANDS[config.subcommand](config)
    except (TheoremViolationError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (LatticeMiniError, ValueError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:
            # str(int) past the limit, in the answer: the interpreter's advice
            # names a setting that a user of the CLI cannot reach
            message = (
                f"an integer in the answer has more than {sys.get_int_max_str_digits()} "
                "digits, the interpreter's limit"
            )
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PRECONDITION
    (out if out is not None else sys.stdout).write(document)
    return status


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticemini",
        description=(
            "Exact Ehrhart polynomials, horizontal lattice-copy censuses and "
            "miniature volume ratios for convex lattice polytopes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--input", help="polytope JSON: file path, inline JSON, or -")
        p.add_argument("--preset", choices=sorted(corpus.PRESETS), help="built-in polytope")
        p.add_argument("--format", choices=["csv", "json", "human"], default="human")

    p = sub.add_parser("count", help="lattice-point counts for t = 0..t_max")
    add_common(p)
    p.add_argument("--t-max", type=_positive_int, required=True)

    p = sub.add_parser("ehrhart", help="exact Ehrhart polynomial")
    add_common(p)

    p = sub.add_parser("copies", help="census of horizontal lattice copies in nP")
    add_common(p)
    p.add_argument("--n", type=_positive_int, required=True)

    p = sub.add_parser("mu", help="miniature volume ratios and their exact limit")
    add_common(p)
    p.add_argument("--n-max", type=_positive_int, required=True)

    p = sub.add_parser("pie", help="inclusion-exclusion over a JSON list of polytopes")
    p.add_argument("--input", required=True,
                   help="JSON list of polytopes: file path, inline JSON, or -")
    p.add_argument("--format", choices=["csv", "json", "human"], default="human")

    p = sub.add_parser("oracle", help="brute-force copy enumeration")
    add_common(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--summary", action="store_true", help="per-scale counts only")

    sub.add_parser("verify", help="run the exact invariant suites")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The parsed options as a RunConfig; those a subcommand lacks keep their defaults."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = run(config_from_args(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Python flushes stdout again at exit, so point
        # it at devnull to keep that flush from raising too (see the SIGPIPE
        # note in the `signal` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    return status


if __name__ == "__main__":
    sys.exit(main())
