"""Mutation check for the library's boundary gates (opt-in, stdlib only).

Each mutant loosens one gate by a single textual edit. For every mutant the
script copies ``src/`` and ``tests/`` into a fresh scratch directory, applies
the edit there, and runs ``pytest -x`` on the named test files. A mutant is
killed when the tests fail, and survives when they pass. The working tree is
never edited.

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
        "src/shadowlab/solver.py",
        "if extent > epsilon + _SLACK:",
        "if extent > 2 * epsilon + _SLACK:",
    ),
    (
        "src/shadowlab/families.py",
        "space.distance(orbit[i], target[i]) < epsilon for i in range(n)",
        "space.distance(orbit[i], target[i]) <= epsilon for i in range(n)",
    ),
    (
        "src/shadowlab/limits.py",
        "return all(b <= a + 1e-15 for a, b in zip(self.table, self.table[1:]))",
        "return all(b <= a + 1e-3 for a, b in zip(self.table, self.table[1:]))",
    ),
    (
        "src/shadowlab/density.py",
        "if min(vals) < 0:",
        "if min(vals) < -1.0:",
    ),
]

DEFAULT_TESTS = [
    "tests/test_solver.py",
    "tests/test_families.py",
    "tests/test_limits.py",
    "tests/test_density.py",
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _tests_pass(copy: Path, tests: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    quiet = subprocess.DEVNULL
    return subprocess.run(cmd, cwd=copy, env=env, stdout=quiet, stderr=quiet).returncode == 0


def run_one(mutant, tests: list) -> str:
    """'killed', 'survived' or 'stale' for one mutant, in its own scratch copy."""
    path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        _copy_tree(copy)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        return "survived" if _tests_pass(copy, tests) else "killed"


def main(argv: list) -> int:
    tests = argv or DEFAULT_TESTS
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as scratch:
        _copy_tree(Path(scratch))
        if not _tests_pass(Path(scratch), tests):
            print("the unmutated tests fail; no mutant can be judged")
            return 2
    outcomes = []
    for mutant in MUTANTS:
        outcome = run_one(mutant, tests)
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
