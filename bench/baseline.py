"""Reference figures for the roadmap's performance items, on this host.

    python3 bench/baseline.py > bench/baseline.json

Measures, each as the median of several calls: ``evaluate`` against the bare map ``apply`` (doubling),
doubling pullback per step at k=64, 1024 and 8192, doubling x doubling
pullback at k=1024, ``perturb_orbit`` per step, and doubling
``limit_shadow_point`` at h=4000 with harmonic defects and 8 levels, so a
later change can cite its before and after from the same script.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    if not (run.SRC / "shadowlab" / "__init__.py").is_file():
        print(f"shadowlab sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    families, pseudo_orbits, solver, limits = lib.families, lib.pseudo_orbits, lib.solver, lib.limits
    doubling = families.doubling_family()
    product = families.product_family(doubling, families.doubling_family())
    raw = {}
    calls = 20_000
    apply = doubling.map_at(0).apply
    raw["evaluate_us.doubling"] = _median_seconds(
        lambda: [doubling.evaluate(i, 0.3) for i in range(calls)], 5) / calls * 1e6
    raw["apply_us.doubling"] = _median_seconds(lambda: [apply(0.3) for _ in range(calls)], 5) / calls * 1e6
    for k in (64, 1024, 8192):
        po = pseudo_orbits.perturb_orbit(doubling, 0.123, k, 0.049, 0)
        seconds = _median_seconds(lambda: solver.pullback_shadow(doubling, po, 0.1), 5)
        raw[f"pullback_ms.doubling.k{k}"] = seconds * 1e3
        raw[f"pullback_us_per_step.doubling.k{k}"] = seconds / k * 1e6
    po = pseudo_orbits.perturb_orbit(product, (0.123, 0.456), 1024, 0.049, 0)
    raw["pullback_ms.doubling*doubling.k1024"] = _median_seconds(
        lambda: solver.pullback_shadow(product, po, 0.1), 5) * 1e3
    raw["perturb_orbit_us_per_step.doubling.k4096"] = _median_seconds(
        lambda: pseudo_orbits.perturb_orbit(doubling, 0.123, 4096, 0.049, 0), 5) / 4096 * 1e6
    harmonic = [1.0 / (i + 1) for i in range(4000)]
    limit_po = pseudo_orbits.inject_defects(doubling, 0.2, harmonic)
    raw["limit_shadow_point_s.doubling.h4000"] = _median_seconds(
        lambda: limits.limit_shadow_point(doubling, limit_po, levels=8), 3)

    print(json.dumps({
        "host": {"cpu": _cpu_model(), "vcpus": os.cpu_count(), "python": platform.python_version()},
        "median": raw,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
