"""Command-line interface: polytope I/O and CSV/JSON/human reports.

Exit codes: 0 success, 2 precondition or input problem, 3 violated exact
identity (formula/oracle mismatch — a test signal, never swallowed), 1 the
reader of stdout closed the pipe, 130 interrupted by Ctrl-C.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from . import __version__, corpus
from .counting import count_points
from .ehrhart import ehrhart_polynomial
from .errors import (
    InternalConsistencyError,
    LatticeMiniError,
    PolytopeParseError,
    ResourceLimitError,
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
    subcommand: str
    input_path: str | None = None
    preset: str | None = None
    n: int | None = None
    n_max: int | None = None
    t_max: int | None = None
    format: str = "human"
    summary: bool = False


def decimal_string(value: Fraction) -> str:
    """Exact fixed-point rendering, rounded half up to 12 decimal digits."""
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    scaled, rem = divmod(num * 10**12, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10**12)
    return f"{sign}{whole}.{frac:012d}"


def parse_polytope(text: str) -> LatticePolytope:
    """Parse the polytope JSON document {"vertices": [[int, ...], ...]}."""
    doc = _load_json(text)
    return _polytope_from_doc(doc)


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise PolytopeParseError("JSON nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise PolytopeParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            lineno=exc.lineno,
            colno=exc.colno,
        ) from None


def _polytope_from_doc(doc) -> LatticePolytope:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolytopeParseError('expected a JSON object with a "vertices" key')
    rows = doc["vertices"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PolytopeParseError('"vertices" must be a list of coordinate lists')
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise PolytopeParseError(
                    f"non-integer coordinate at vertex {i}, index {j}: {x!r}"
                )
    return from_vertices(rows)


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
    if config.input_path is not None:
        return parse_polytope(_read_input(config.input_path))
    raise PolytopeParseError("no input polytope: pass --preset NAME or --input SPEC")


def _resolve_polytope_list(config: RunConfig) -> list[LatticePolytope]:
    if config.input_path is None:
        raise PolytopeParseError("this subcommand needs --input with a JSON list")
    doc = _load_json(_read_input(config.input_path))
    if not isinstance(doc, list):
        raise PolytopeParseError("expected a JSON list of polytope objects")
    return [_polytope_from_doc(entry) for entry in doc]


def _csv_writer(out):
    return csv.writer(out, lineterminator="\n")


def _write_json(doc, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _cmd_count(config: RunConfig, out) -> int:
    P = _resolve_polytope(config)
    rows = [
        (t, count_points(P, t), count_points(P, t, interior=True))
        for t in range(config.t_max + 1)
    ]
    if config.format == "json":
        _write_json(
            {"counts": [{"t": t, "closed": c, "interior": i} for t, c, i in rows]}, out
        )
    else:
        writer = _csv_writer(out)
        writer.writerow(["t", "closed", "interior"])
        writer.writerows(rows)
    return EXIT_OK


def _cmd_ehrhart(config: RunConfig, out) -> int:
    P = _resolve_polytope(config)
    poly = ehrhart_polynomial(P).poly
    if config.format == "json":
        _write_json({"coeffs": poly.coeff_strings()}, out)
    elif config.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["k", "coeff"])
        for k, c in enumerate(poly.coeffs):
            writer.writerow([k, str(c)])
    else:
        out.write(f"L(t) = {poly.pretty()}\n")
        out.write(f"coefficients (low to high): {', '.join(poly.coeff_strings())}\n")
    return EXIT_OK


def _cmd_copies(config: RunConfig, out) -> int:
    P = _resolve_polytope(config)
    census = copy_census(P, config.n)
    d = P.ambient_dim
    if config.format == "json":
        _write_json(
            {
                "n": census.dilate,
                "per_scale": {str(i): c for i, c in sorted(census.per_scale.items())},
                "total": census.total,
                "volume_sum": str(census.volume_sum),
            },
            out,
        )
        return EXIT_OK
    writer = _csv_writer(out)
    writer.writerow(["i", "count", "weighted"])
    for i in sorted(census.per_scale):
        c = census.per_scale[i]
        writer.writerow([i, c, i**d * c])
    if config.format == "human":
        out.write(f"total = {census.total}\n")
        out.write(f"volume_sum = {census.volume_sum}\n")
    else:
        writer.writerow(["total", census.total, ""])
    return EXIT_OK


def _cmd_mu(config: RunConfig, out) -> int:
    P = _resolve_polytope(config)
    report = mu_report(P, config.n_max)
    d = P.ambient_dim
    closed_form = P.volume_d / comb(2 * d + 1, d)
    if config.format == "json":
        _write_json(
            {
                "ratios": [
                    {"n": n, "num": str(r.numerator), "den": str(r.denominator),
                     "decimal": decimal_string(r)}
                    for n, r in report.ratios
                ],
                "limit": str(report.symbolic_limit),
                "closed_form": str(closed_form),
                "bound_constant": str(report.bound_constant),
            },
            out,
        )
        return EXIT_OK
    writer = _csv_writer(out)
    writer.writerow(["n", "ratio_num", "ratio_den", "ratio_decimal"])
    for n, r in report.ratios:
        writer.writerow([n, r.numerator, r.denominator, decimal_string(r)])
    prefix = "# " if config.format == "csv" else ""
    out.write(f"{prefix}limit = {report.symbolic_limit}\n")
    out.write(f"{prefix}closed_form = {closed_form}\n")
    out.write(f"{prefix}bound_constant = {report.bound_constant}\n")
    return EXIT_OK


def _cmd_pie(config: RunConfig, out) -> int:
    parts = _resolve_polytope_list(config)
    value = mu_inclusion_exclusion(parts)
    if config.format == "json":
        _write_json({"mu": str(value), "parts": len(parts)}, out)
    elif config.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["mu"])
        writer.writerow([str(value)])
    else:
        out.write(f"mu = {value} (union volume check: consistent)\n")
    return EXIT_OK


def _cmd_oracle(config: RunConfig, out) -> int:
    P = _resolve_polytope(config)
    witnesses = enumerate_copies(P, config.n)
    d = P.ambient_dim
    if config.summary:
        per_scale: dict[int, int] = {}
        for w in witnesses:
            per_scale[w.scale] = per_scale.get(w.scale, 0) + 1
        if config.format == "json":
            _write_json({"per_scale": {str(i): c for i, c in sorted(per_scale.items())},
                         "total": len(witnesses)}, out)
        else:
            writer = _csv_writer(out)
            writer.writerow(["i", "count"])
            for i in sorted(per_scale):
                writer.writerow([i, per_scale[i]])
        return EXIT_OK
    if config.format == "json":
        _write_json(
            {"witnesses": [{"i": w.scale, "a": list(w.shift)} for w in witnesses]}, out
        )
    else:
        writer = _csv_writer(out)
        writer.writerow(["i"] + [f"a{j + 1}" for j in range(d)])
        for w in witnesses:
            writer.writerow([w.scale, *w.shift])
    return EXIT_OK


def _cmd_verify(config: RunConfig, out) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        out.write(f"{tag}  {r.name:<{width}}  {r.detail}\n")
    failed = [r for r in results if not r.passed]
    out.write(f"{len(results) - len(failed)}/{len(results)} suites passed\n")
    return EXIT_OK if not failed else EXIT_THEOREM


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
    """Dispatch one subcommand; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[config.subcommand](config, out)
    except (TheoremViolationError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (LatticeMiniError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


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

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="polytope JSON: file path, inline JSON, or -")
            p.add_argument("--preset", choices=sorted(corpus.PRESETS),
                           help="built-in polytope")
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

    p = sub.add_parser("verify", help="run the exact invariant suites")
    p.add_argument("--format", choices=["human"], default="human")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        input_path=getattr(args, "input", None),
        preset=getattr(args, "preset", None),
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        t_max=getattr(args, "t_max", None),
        format=getattr(args, "format", "human"),
        summary=getattr(args, "summary", False),
    )


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
