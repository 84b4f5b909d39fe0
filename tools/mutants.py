"""Mutation check for the library's boundary gates (opt-in, stdlib only).

Each mutant loosens one gate by a single textual edit; a gate that the tests
keep in ``tests/oracles.py`` is mutated there. The script copies ``src/``,
``tests/`` and ``bench/`` (which the benchmark hook tests load, and which no
mutant edits) once into a snapshot, so an edit to the working tree during a
run reaches no mutant. For every mutant it copies the snapshot into a fresh
scratch directory, applies the edit there, and runs ``pytest -x`` on the
named test files. A mutant is killed when the tests fail, and survives when
they pass. The working tree is never edited.

    python3 tools/mutants.py                      # the gate tests' files
    python3 tools/mutants.py tests/test_solver.py # other pytest arguments

It exits 0 when every mutant is killed, 1 when one survives, and 2 when the
unmutated copy already fails or a mutant's text is no longer in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new): `old` must occur exactly once in `file`.
MUTANTS = [
    (
        "src/shadowlab/solver.py",
        "if defect >= self.values[n]:",
        "if defect > self.values[n]:",
    ),
    (
        "tests/oracles.py",
        "if extent > epsilon:",
        "if extent > 2 * epsilon:",
    ),
    (
        "src/shadowlab/solver.py",
        "if _reach(d, r, k - j + 1) > epsilon:",
        "if _reach(d, r, k - j + 1) > epsilon + 1e-12:",
    ),
    (
        "src/shadowlab/solver.py",
        "if _reach(distance(w, z), r, k - j) >= delta0:",
        "if _reach(distance(w, z), r, k - j) >= delta0 + 1e-12:",
    ),
    (
        "src/shadowlab/solver.py",
        "m, de = frexp(nextafter(slope * m, inf))",
        "m, de = frexp(nextafter(slope * m, -inf))",
    ),
    (
        # A product's pull reports the smaller factor slope, so radii shrink too fast.
        "src/shadowlab/families.py",
        "return (a, b), max(s, t)",
        "return (a, b), min(s, t)",
    ),
    (
        "src/shadowlab/families.py",
        "if best is None or err < best[1]:",
        "if best is None or err <= best[1]:",
    ),
    (
        "src/shadowlab/products.py",
        "lambda path, errors, defect: min(errors) < eps)",
        "lambda path, errors, defect: min(errors) <= eps)",
    ),
    (
        "src/shadowlab/products.py",
        "return not min(errors) > bound * defect",
        "return not min(errors) >= bound * defect",
    ),
    (
        "src/shadowlab/limits.py",
        "return all(b <= a + 1e-15 for a, b in zip(self.table, self.table[1:]))",
        "return all(b <= a + 1e-3 for a, b in zip(self.table, self.table[1:]))",
    ),
    (
        "src/shadowlab/limits.py",
        "key=lambda k: defect_tails[k] < oracle.modulus(target, k, horizon))",
        "key=lambda k: defect_tails[k] <= oracle.modulus(target, k, horizon))",
    ),
    (
        # The pullback modulus reads the budgets of steps 0 ... horizon - cut - 1
        # instead of the tail's own steps cut ... horizon - 1.
        "src/shadowlab/limits.py",
        "minima = list(accumulate(reversed(values), min))[::-1]",
        "minima = list(accumulate(values, min))[::-1]",
    ),
    (
        # A level's window error skips the cut itself.
        "src/shadowlab/limits.py",
        "oracle.shadow(spliced.orbit, target, cut, _window_hi(cut, horizon))",
        "oracle.shadow(spliced.orbit, target, cut + 1, _window_hi(cut, horizon))",
    ),
    (
        "src/shadowlab/limits.py",
        "best = 0 if len(candidates) == 1 else min(",
        "best = 0 if len(candidates) >= 1 else min(",
    ),
    (
        "src/shadowlab/averaging.py",
        "frac = sum(to_a[c] < epsilon for c in orbit) / window",
        "frac = sum(to_a[c] <= epsilon for c in orbit) / window",
    ),
    (
        "src/shadowlab/averaging.py",
        "return self.final_cesaro_exact <= self.term_shadow_vs_lift + self.term_lift_vs_data",
        "return self.final_cesaro_exact <= 1.001 * (self.term_shadow_vs_lift + self.term_lift_vs_data)",
    ),
    (
        "src/shadowlab/averaging.py",
        "while unsettled and reach >= levels[unsettled - 1]:",
        "while unsettled and reach > levels[unsettled - 1]:",
    ),
    (
        "src/shadowlab/averaging.py",
        "if off_j[k] and (defects[k] >= low or distances[k] >= low):",
        "if off_j[k] and (defects[k] > low or distances[k] >= low):",
    ),
    (
        "src/shadowlab/averaging.py",
        "if off_j[k] and (defects[k] >= low or distances[k] >= low):",
        "if off_j[k] and (defects[k] >= low or distances[k] > low):",
    ),
    (
        "src/shadowlab/density.py",
        "if not (prev_end < a <= b):",
        "if not (prev_end <= a <= b):",
    ),
    (
        "src/shadowlab/density.py",
        "if b >= self.horizon or",
        "if b > self.horizon or",
    ),
    (
        "src/shadowlab/density.py",
        "bisect.bisect_right(members, b) > bisect.bisect_left(members, a)",
        "bisect.bisect_left(members, b) > bisect.bisect_left(members, a)",
    ),
    (
        "src/shadowlab/density.py",
        "if covered != self.horizon - bisect.bisect_left(members, self.horizon):",
        "if covered > self.horizon - bisect.bisect_left(members, self.horizon):",
    ),
    (
        "src/shadowlab/density.py",
        "if min(vals) < 0:",
        "if min(vals) < -1.0:",
    ),
    (
        "src/shadowlab/density.py",
        "if max(vals) > bound or min(vals) < 0.0:",
        "if max(vals) > bound or min(vals) < -1.0:",
    ),
    (
        "src/shadowlab/solver.py",
        "if not delta + lam * epsilon < epsilon:",
        "if not delta + lam * epsilon <= epsilon:",
    ),
    (
        "tests/oracles.py",
        "if ldexp(m, e - bound_e) > bound_m:",
        "if ldexp(m, e - bound_e) > 2 * bound_m:",
    ),
    (
        # pullback_shadow takes a plan built for another shape.
        "src/shadowlab/solver.py",
        "if plan.family is not family or (plan.epsilon, plan.margin, plan.horizon) != (epsilon, margin, k):",
        "if False:",
    ),
    (
        "src/shadowlab/solver.py",
        "verdict=errors[k] < epsilon,",
        "verdict=errors[k] <= epsilon,",
    ),
    (
        "src/shadowlab/solver.py",
        "if p < _RENORMALISE:",
        "if p < 0.0:",
    ),
    (
        "src/shadowlab/cli.py",
        "verdict = max(errors) < epsilon",
        "verdict = max(errors) <= epsilon",
    ),
    (
        # Integer parameters go back to int(), which truncates 1.5 to 1.
        "src/shadowlab/cli.py",
        'if n != value:\n            raise ValueError(f"must be an integer, got {value!r}")\n        if n < low:',
        "if n < low:",
    ),
    (
        "src/shadowlab/cli.py",
        "{acc / n!r}",
        "{acc / n:.16g}",
    ),
    (
        "src/shadowlab/cli.py",
        r'{value!r}\r\n" for key, value in pairs]',
        r'{value!r}\n" for key, value in pairs]',
    ),
    (
        "src/shadowlab/reporting.py",
        "csv.writer(SimpleNamespace(write=lines.append))",
        'csv.writer(SimpleNamespace(write=lines.append), quoting=csv.QUOTE_NONE, escapechar="\\\\")',
    ),
    (
        "src/shadowlab/reporting.py",
        "lines[start : start + _SERIES_CHUNK]",
        "lines[start : start + _SERIES_CHUNK - 1]",
    ),
    (
        # The upper preimage of 1 - 2^-53 under lam = 3/4 stays at 1.0.
        "src/shadowlab/families.py",
        "return [self.lam * w, circle_reduce(self.lam + (1.0 - self.lam) * w)]",
        "return [self.lam * w, self.lam + (1.0 - self.lam) * w]",
    ),
    (
        # A periodic horizon too short to show the period runs, and dies in the solver.
        "src/shadowlab/cli.py",
        'horizon = _param(params, "horizon", _at_least(len(base)), 4 * len(base))',
        'horizon = _param(params, "horizon", _at_least(0), 4 * len(base))',
    ),
    (
        # A limit run at horizon 0 passes without checking a level.
        "src/shadowlab/cli.py",
        'horizon = _param(params, "horizon", _at_least(1), 10_000)  # at 0 no level checks anything',
        'horizon = _param(params, "horizon", _at_least(0), 10_000)  # at 0 no level checks anything',
    ),
    (
        # A limit run on a product family dies on its one-number x0 instead of exiting 2.
        "src/shadowlab/cli.py",
        'def _run_limit(scenario: dict, params: dict):\n    family = _family(scenario, "family", ("circle", "finite"))',
        'def _run_limit(scenario: dict, params: dict):\n    family = _family(scenario, "family")',
    ),
    (
        # A base point off [0, 1) reaches the metric unreduced.
        "src/shadowlab/cli.py",
        "family.space.distance(point, family.space.reduce(base[0]))",
        "family.space.distance(point, base[0])",
    ),
    (
        # A finite family's modulus is epsilon, which lets distinct points in.
        "src/shadowlab/limits.py",
        "return family.space.min_positive_distance()",
        "return epsilon",
    ),
    (
        # The continuous h check reads the chain's landing but no tube.
        "src/shadowlab/products.py",
        "po.points[-1], 0.0, eps)",
        "po.points[-1])",
    ),
    (
        # A scenario name with a separator writes its report outside the out directory.
        "src/shadowlab/cli.py",
        r'if name in ("", ".", "..") or any(c in name for c in "/\\\0"):',
        'if name in ("", ".", ".."):',
    ),
    (
        # expect_fail "false" is read by truthiness and inverts a passing verdict.
        "src/shadowlab/cli.py",
        'if not isinstance(scenario.get("expect_fail", False), bool):',
        'if not isinstance(scenario.get("expect_fail", False), (bool, str)):',
    ),
    (
        # A product descriptor drops its unknown keys.
        "src/shadowlab/families.py",
        'if desc.keys() - {"kind", "factors"}:',
        "if False:",
    ),
]

DEFAULT_TESTS = [
    "tests/test_solver.py",
    "tests/test_one_pass_solver.py",
    "tests/test_families.py",
    "tests/test_finite_kernel.py",
    "tests/test_limits.py",
    "tests/test_limit_properties.py",
    "tests/test_density.py",
    "tests/test_products.py",
    "tests/test_averaging.py",
    "tests/test_average_tables.py",
    "tests/test_cli.py",
    "tests/test_series_lines.py",
    "tests/test_trusted_paths.py",
    "tests/test_acceptance.py::test_criterion_10_determinism",
]


# Caches a test run leaves behind; no copy takes them, so each mutant starts clean.
_IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


def _snapshot(dest: Path) -> None:
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=_IGNORE)


def _tests_pass(copy: Path, tests: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    quiet = subprocess.DEVNULL
    return subprocess.run(cmd, cwd=copy, env=env, stdout=quiet, stderr=quiet).returncode == 0


def run_one(mutant, tests: list, snapshot: Path) -> str:
    """'killed', 'survived' or 'stale' for one mutant, in its own copy of the snapshot."""
    path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(snapshot, copy, ignore=_IGNORE)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        return "survived" if _tests_pass(copy, tests) else "killed"


def main(argv: list) -> int:
    tests = argv or DEFAULT_TESTS
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as scratch:
        snapshot = Path(scratch) / "tree"
        _snapshot(snapshot)
        if not _tests_pass(snapshot, tests):
            print("the unmutated tests fail; no mutant can be judged")
            return 2
        outcomes = []
        for mutant in MUTANTS:
            outcome = run_one(mutant, tests, snapshot)
            outcomes.append(outcome)
            path, old, new = mutant
            print(f"{outcome:8}  {path}: {old!r} -> {new!r}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed}/{len(MUTANTS)} killed")
    if "stale" in outcomes:
        return 2
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
