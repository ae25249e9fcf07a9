"""Checks on the benchmark itself, so that a bug in it cannot mask a library defect.

    python3 perfbench/selftest.py

1. On tiny inputs of every factor family, the closed-form answers equal the
   library's counts, volumes and Ehrhart coefficients, and for d <= 3 at
   small n the per-scale copy counts of the brute-force `oracle`.
2. Each workload's checks accept the library's answers on one pass and
   reject the same answers made slightly wrong.
3. Two traced runs with one seed give identical exact counters.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import closedform as cf  # noqa: E402
import latticemini as lm  # noqa: E402
import latticemini.cli  # noqa: E402,F401
import workloads  # noqa: E402
from latticemini.oracle import enumerate_copies  # noqa: E402

EXACT_COUNTERS = ("calls", "hull_points", "box_cells", "distinct_share")


def tiny_polytopes(rng: random.Random):
    """Small members of every factor family, alone and in products, placed at random."""
    families = [
        [cf.segment(1)], [cf.segment(3)],
        [cf.simplex(1)], [cf.simplex(2)], [cf.simplex(3)],
        [cf.reeve(1)], [cf.reeve(2)], [cf.reeve(5)],
        [cf.polygon(rng, 3, 3)], [cf.polygon(rng, 4, 5)], [cf.polygon(rng, 5, 6)],
        [cf.segment(2), cf.segment(1)], [cf.simplex(2), cf.segment(2)],
        [cf.polygon(rng, 3, 4), cf.segment(1)], [cf.segment(1)] * 4, [cf.simplex(4)],
    ]
    for factors in families:
        yield cf.place(rng, factors, shears=2, magnitude=1, spread=2)


def check_closed_forms(rng: random.Random) -> list[str]:
    problems = []
    for P in tiny_polytopes(rng):
        name = "x".join(f.name for f in P.factors)
        Q = lm.from_vertices(P.vertices())
        if Q.volume_d != P.volume:
            problems.append(f"{name}: volume {Q.volume_d} != closed form {P.volume}")
        if tuple(lm.ehrhart_polynomial(Q).poly.coeffs) != P.closed:
            problems.append(f"{name}: Ehrhart coefficients differ from the closed form")
        for t in range(4):
            for interior in (False, True):
                if lm.count_points(Q, t, interior) != P.count(t, interior):
                    problems.append(f"{name}: count at t={t}, interior={interior} differs")
        if P.dim <= 3:
            for n in range(1, 4 if P.dim == 3 else 5):
                per_scale: dict[int, int] = {}
                for w in enumerate_copies(Q, n):
                    per_scale[w.scale] = per_scale.get(w.scale, 0) + 1
                expected = {i: c for i, c in P.census(n).items() if c}
                if per_scale != expected:
                    problems.append(f"{name}: oracle census at n={n} differs")
                if lm.mu_ratio(Q, n) != P.mu(n):
                    problems.append(f"{name}: mu({n}) differs")
    for value in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2 * 10**12), Fraction(7)):
        if workloads.decimal12(value) != lm.cli.decimal_string(value):
            problems.append(f"decimal rendering of {value} differs")
    return problems


def _wrong_census(result):
    code, text = result
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[1] = ",".join(fields)
    return code, "\n".join(lines)


# Each request kind's answer, slightly altered.
WRONG = {
    "ehrhart": lambda coeffs: (coeffs[0] + 1,) + tuple(coeffs[1:]),
    "limit": lambda value: value + Fraction(1, 10**9),
    "pie": lambda value: value + Fraction(1, 10**9),
    "census": _wrong_census,
    "deep-count": lambda counts: (counts[0] + 1, counts[1]),
}


def check_checkers() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for request in next(workloads.passes(lm, name, 1)):
            result = request.call()
            if not request.check(result):
                problems.append(f"{name}/{request.kind}: the check rejects the library's answer")
            if request.check(WRONG[request.kind](result)):
                problems.append(f"{name}/{request.kind}: the check accepts a wrong answer")
    return problems


def traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.split(".")[1] in EXACT_COUNTERS}


def check_exact_counters() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        first, second = traced_counters(name, 7), traced_counters(name, 7)
        for key in first:
            if first[key] != second[key]:
                problems.append(
                    f"{name}: {key} differs between runs ({first[key]} != {second[key]})"
                )
    return problems


def main() -> int:
    failed = False
    for title, check in [
        ("closed forms match the library and the oracle",
         lambda: check_closed_forms(random.Random(0))),
        ("checks accept right answers and reject wrong ones", check_checkers),
        ("traced counters repeat exactly", check_exact_counters),
    ]:
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'}  {title}")
        for problem in problems:
            print(f"      {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
