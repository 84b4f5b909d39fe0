"""Experiment runner: scenario configs in, reports and plot series out.

A scenario is a JSON object naming one experiment kind (shadow, periodic,
limit, average, density, product) with its family descriptor and parameters.
Each run writes <name>.report.json (deterministic body, metadata separated)
plus CSV series, and exits 0 when every verdict passes, 1 on a failed
verdict or operation error, 2 on an invalid config. `suite` runs a
directory of scenarios and prints one summary row each; scenarios marked
expect_fail invert their verdict in the summary.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Optional

from . import __version__
from .averaging import InvariantSubsystem, average_shadow_point
from .density import cesaro_to_density_zero, density_zero_to_cesaro, upper_density
from .errors import ConfigInvalidError, ShadowlabError
from .families import family_from_descriptor
from .limits import limit_shadow_point
from .products import VariantBudget, product_equivalence_check
from .pseudo_orbits import (
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
    pseudo_orbit_rows,
)
from .reporting import write_report, write_series
from .solver import periodic_shadow, pullback_shadow

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

EXPERIMENTS = ("shadow", "periodic", "limit", "average", "density", "product")


def _require(scenario: dict, field: str, kind=None):
    if field not in scenario:
        raise ConfigInvalidError(f"missing field: {field}")
    value = scenario[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigInvalidError(f"field {field}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _param(params: dict, name: str, default=None, required: bool = False):
    if name in params:
        return params[name]
    if required:
        raise ConfigInvalidError(f"missing parameter: parameters.{name}")
    return default


def _profile_values(profile: dict, horizon: int) -> list:
    kind = profile.get("kind")
    scale = float(profile.get("scale", 1.0))
    if kind == "harmonic":
        return [scale / (i + 1) for i in range(horizon)]
    if kind == "squares_indicator":
        return [scale if math.isqrt(i) ** 2 == i else 0.0 for i in range(horizon)]
    if kind == "zeros":
        return [0.0] * horizon
    raise ConfigInvalidError(f"parameters.profile.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Experiment implementations: each returns (verdict, report, series, key_certificate)


def _run_shadow(scenario: dict, params: dict):
    family = family_from_descriptor(_require(scenario, "family", dict))
    epsilon = float(_param(params, "epsilon", required=True))
    noise = float(_param(params, "noise", required=True))
    horizon = int(_param(params, "horizon", 64))
    margin = float(_param(params, "margin", 0.98))
    n_seeds = int(_param(params, "seeds", 1))
    seed0 = int(_param(params, "seed", 0))
    x_base = float(_param(params, "x0", 0.123))

    runs = []
    rows = []
    orbit_rows = []
    verdict = True
    bound = None
    for s in range(n_seeds):
        seed = seed0 + s
        x0 = (x_base + 0.6180339887498949 * s) % 1.0
        po = perturb_orbit(family, x0, horizon, noise, seed)
        report, _ = pullback_shadow(family, po, epsilon, margin=margin)
        bound = report.diameter_bound
        verdict = verdict and report.verdict
        runs.append(
            {
                "seed": seed,
                "max_error": max(report.per_step_errors),
                "max_defect": report.max_defect,
                "measured_diameter": report.measured_diameter,
                "verdict": report.verdict,
            }
        )
        for i, err in enumerate(report.per_step_errors):
            rows.append([seed, i, err])
        if s == 0:
            orbit_rows = pseudo_orbit_rows(po)
    report = {
        "family": family.name,
        "epsilon": epsilon,
        "noise": noise,
        "horizon": horizon,
        "margin": margin,
        "diameter_bound": bound,
        "runs": runs,
        "max_error_overall": max(r["max_error"] for r in runs),
        "verdict": verdict,
    }
    coords = len(orbit_rows[0]) - 2 if orbit_rows else 1
    orbit_header = ["index"] + [f"x{i}" for i in range(coords)] + ["defect"]
    series = {
        "errors": (["seed", "step", "error"], rows),
        "orbit": (orbit_header, orbit_rows),
    }
    return verdict, report, series, f"diam<={bound:.3g}"


def _run_periodic(scenario: dict, params: dict):
    family = family_from_descriptor(_require(scenario, "family", dict))
    epsilon = float(_param(params, "epsilon", required=True))
    delta = float(_param(params, "delta", required=True))
    base = [float(v) for v in _param(params, "base_points", required=True)]
    horizon = int(_param(params, "horizon", 4 * len(base)))
    seed = int(_param(params, "seed", 0))
    rng = random.Random(seed)
    jitter = [rng.uniform(-delta / 3.0, delta / 3.0) for _ in base]
    cycle = [family.space.reduce(b + j) for b, j in zip(base, jitter)]
    points = [cycle[i % len(cycle)] for i in range(horizon + 1)]
    po = PseudoOrbit.from_points(family, points)
    point, residual, errors = periodic_shadow(family, po, epsilon)
    verdict = residual < 1e-9 and max(errors) < epsilon
    report = {
        "family": family.name,
        "epsilon": epsilon,
        "delta": delta,
        "period": len(base),
        "max_defect": po.max_defect,
        "fixed_point": point,
        "residual": residual,
        "period_errors": list(errors),
        "distance_to_base": family.space.distance(point, base[0]),
        "verdict": verdict,
    }
    series = {"errors": (["step", "error"], [[i, e] for i, e in enumerate(errors)])}
    return verdict, report, series, f"residual={residual:.2e}"


def _run_limit(scenario: dict, params: dict):
    family = family_from_descriptor(_require(scenario, "family", dict))
    horizon = int(_param(params, "horizon", 10_000))
    levels = int(_param(params, "levels", 8))
    profile = _param(params, "profile", {"kind": "harmonic"})
    x0 = float(_param(params, "x0", 0.2))
    po = inject_defects(family, x0, _profile_values(profile, horizon))
    result = limit_shadow_point(family, po, levels=levels)
    final_target = 1.0 / levels
    verdict = result.table_nonincreasing and result.table[-1] < final_target
    report = {
        "family": family.name,
        "horizon": horizon,
        "levels": [
            {
                "level": rec.level,
                "cut": rec.cut,
                "delta": rec.delta,
                "sup_error_vs_spliced": rec.sup_error_vs_spliced,
                "window_error": rec.window_error,
            }
            for rec in result.levels
        ],
        "table": list(result.table),
        "table_nonincreasing": result.table_nonincreasing,
        "final_window_error": result.table[-1],
        "final_target": final_target,
        "converged": result.converged,
        "point": result.point,
        "verdict": verdict,
    }
    rows = [
        [rec.level, rec.cut, rec.target, rec.window_error, result.table[i]]
        for i, rec in enumerate(result.levels)
    ]
    series = {"table": (["level", "cut", "target", "window_error", "final_table"], rows)}
    return verdict, report, series, f"final={result.table[-1]:.3g}"


def _run_average(scenario: dict, params: dict):
    family = family_from_descriptor(_require(scenario, "family", dict))
    horizon = int(_param(params, "horizon", 10_000))
    subset = [int(v) for v in _param(params, "subset", required=True)]
    magnitude = float(_param(params, "magnitude", 1.01))
    tol = float(_param(params, "tolerance", 0.05))
    x0 = int(_param(params, "x0", subset[0]))
    sub = InvariantSubsystem.finite(family, subset)
    displacements = [
        magnitude if math.isqrt(i + 1) ** 2 == i + 1 else 0.0 for i in range(horizon)
    ]
    po = displace_orbit(family, x0, displacements)
    result = average_shadow_point(sub, po)
    verdict = (
        result.lift.support_contained
        and result.final_cesaro_error < tol
        and result.triangle_holds
    )
    report = {
        "family": family.name,
        "subset": list(subset),
        "horizon": horizon,
        "point": result.point,
        "final_cesaro_error": result.final_cesaro_error,
        "tolerance": tol,
        "support_contained": result.lift.support_contained,
        "support_size": len(result.lift.support),
        "allowed_size": len(result.lift.allowed),
        "prime_density": float(upper_density(result.blocks.prime_set, len(po.points))),
        "term_shadow_vs_lift": float(result.term_shadow_vs_lift),
        "term_lift_vs_data": float(result.term_lift_vs_data),
        "triangle_slack_density": float(result.triangle_slack_density),
        "triangle_holds": result.triangle_holds,
        "verdict": verdict,
    }
    rows = [
        ["final_cesaro", result.final_cesaro_error],
        ["term_shadow_vs_lift", float(result.term_shadow_vs_lift)],
        ["term_lift_vs_data", float(result.term_lift_vs_data)],
        ["slack_density", float(result.triangle_slack_density)],
    ]
    series = {
        "certificates": (["term", "value"], rows),
        "lift_defects": (
            ["index", "defect"],
            [[i, d] for i, d in enumerate(result.lift.defects) if d > 0.0],
        ),
    }
    return verdict, report, series, f"cesaro={result.final_cesaro_error:.3g}"


def _run_density(scenario: dict, params: dict):
    horizon = int(_param(params, "horizon", 10_000))
    profile = _param(params, "profile", {"kind": "squares_indicator"})
    bound = float(_param(params, "bound", 1.0))
    values = _profile_values(profile, 2 * horizon)
    extraction = cesaro_to_density_zero(values[:horizon], horizon)
    contract_ok = all(
        sup <= level + 1e-15
        for sup, level in zip(extraction.complement_sups, extraction.levels)
    )
    certificate = density_zero_to_cesaro(values[:horizon], extraction.index_set, bound)
    density_h = upper_density(extraction.index_set, horizon)
    density_2h = upper_density(extraction.index_set.extended(2 * horizon), 2 * horizon)
    halving = abs(float(density_2h) - float(density_h) / 2.0) <= 0.1 * float(density_h) / 2.0 if density_h > 0 else True
    verdict = contract_ok and certificate.holds and halving
    report = {
        "horizon": horizon,
        "profile": profile,
        "density_at_horizon": float(density_h),
        "density_at_doubled_horizon": float(density_2h),
        "set_size": len(extraction.index_set),
        "members": list(extraction.index_set.members),
        "cuts": list(extraction.cuts),
        "levels": list(extraction.levels),
        "complement_sups": list(extraction.complement_sups),
        "certificate": float(certificate.certificate),
        "actual_cesaro": float(certificate.actual_mean),
        "certificate_holds": certificate.holds,
        "contract_holds": contract_ok,
        "fixed_set_halving": halving,
        "verdict": verdict,
    }
    means = []
    acc = 0.0
    for n, v in enumerate(values[:horizon], start=1):
        acc += v
        means.append([n, acc / n])
    series = {"cesaro": (["n", "mean"], means)}
    return verdict, report, series, f"density={float(density_h):.3g}"


def _run_product(scenario: dict, params: dict):
    cases = _param(params, "cases", required=True)
    if not isinstance(cases, list) or not cases:
        raise ConfigInvalidError("parameters.cases must be a nonempty list")
    rows = []
    reports = []
    verdict = True
    for idx, case in enumerate(cases):
        if "variant" not in case:
            raise ConfigInvalidError(f"parameters.cases[{idx}].variant missing")
        left = family_from_descriptor(case["left"])
        right = family_from_descriptor(case["right"])
        budget = VariantBudget(
            epsilon=float(case.get("epsilon", 0.5)),
            delta=float(case.get("delta", 0.25)),
            max_len=int(case.get("max_len", 6)),
            horizon=int(case.get("horizon", 48)),
            trials=int(case.get("trials", 8)),
            seed=int(case.get("seed", 0)),
        )
        record = product_equivalence_check(
            left,
            right,
            case["variant"],
            budget,
            delta_left=case.get("delta_left"),
            delta_right=case.get("delta_right"),
        )
        verdict = verdict and record.consistent
        reports.append(
            {
                "left": left.name,
                "right": right.name,
                "variant": record.variant,
                "basis": record.basis,
                "delta_shared": record.delta_shared,
                "left_passed": record.factor_left.passed,
                "right_passed": record.factor_right.passed,
                "product_passed": record.product_result.passed,
                "consistent": record.consistent,
            }
        )
        rows.append(
            [
                left.name,
                right.name,
                record.variant,
                record.factor_left.passed,
                record.factor_right.passed,
                record.product_result.passed,
                record.consistent,
                repr(record.witness) if record.witness is not None else "",
            ]
        )
    report = {"cases": reports, "all_consistent": verdict, "verdict": verdict}
    series = {
        "cases": (
            [
                "left",
                "right",
                "variant",
                "left_passed",
                "right_passed",
                "product_passed",
                "consistent",
                "witness",
            ],
            rows,
        )
    }
    return verdict, report, series, f"{len(cases)} cases"


RUNNERS = {
    "shadow": _run_shadow,
    "periodic": _run_periodic,
    "limit": _run_limit,
    "average": _run_average,
    "density": _run_density,
    "product": _run_product,
}


# ---------------------------------------------------------------------------
# Scenario loading and dispatch


def load_scenario(path: Path) -> dict:
    try:
        scenario = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(scenario, dict):
        raise ConfigInvalidError("scenario root must be an object")
    _require(scenario, "name", str)
    experiment = _require(scenario, "experiment", str)
    if experiment not in EXPERIMENTS:
        raise ConfigInvalidError(
            f"experiment: unknown kind {experiment!r} (expected one of {EXPERIMENTS})"
        )
    params = scenario.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigInvalidError("parameters must be an object")
    return scenario


def run_scenario(
    path: Path,
    out_dir: Path,
    seed: Optional[int] = None,
    horizon: Optional[int] = None,
    quiet: bool = False,
) -> int:
    """Execute one scenario file; returns the exit code."""
    try:
        scenario = load_scenario(path)
    except ConfigInvalidError as exc:
        if not quiet:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    params = dict(scenario.get("parameters", {}))
    if seed is not None:
        params["seed"] = seed
    if horizon is not None:
        params["horizon"] = horizon
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        verdict, report, series, key = RUNNERS[scenario["experiment"]](scenario, params)
    except ConfigInvalidError as exc:
        if not quiet:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShadowlabError as exc:
        if not quiet:
            print(f"{exc.code}: {exc} (witness: {exc.witness!r})", file=sys.stderr)
        return EXIT_FAIL
    runtime = time.perf_counter() - started
    name = scenario["name"]
    report_payload = {
        "name": name,
        "experiment": scenario["experiment"],
        "parameters": params,
        "tool_version": __version__,
        **report,
    }
    write_report(out_dir / f"{name}.report.json", report_payload, runtime)
    for label, (header, rows) in series.items():
        write_series(out_dir / f"{name}.{label}.csv", header, rows)
    if not quiet:
        status = "PASS" if verdict else "FAIL"
        print(f"{status} {name} [{key}] ({runtime:.2f}s)")
    return EXIT_OK if verdict else EXIT_FAIL


def bundled_scenarios_dir() -> Path:
    return Path(str(resources.files("shadowlab") / "scenarios"))


def run_suite(
    directory: Path,
    out_dir: Path,
    seed: Optional[int] = None,
    horizon: Optional[int] = None,
    quiet: bool = False,
) -> int:
    """Run every scenario in a directory; expect_fail scenarios invert."""
    files = sorted(Path(directory).glob("*.json"))
    rows = []
    worst = EXIT_OK
    for path in files:
        started = time.perf_counter()
        try:
            scenario = load_scenario(path)
        except ConfigInvalidError as exc:
            if not quiet:
                print(f"config error in {path.name}: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_CONFIG)
            continue
        expect_fail = bool(scenario.get("expect_fail", False))
        code = run_scenario(path, out_dir, seed=seed, horizon=horizon, quiet=True)
        runtime = time.perf_counter() - started
        if code == EXIT_CONFIG:
            worst = max(worst, EXIT_CONFIG)
            rows.append((scenario["name"], "CONFIG", runtime))
            continue
        passed = code == EXIT_OK
        ok = passed != expect_fail
        if not ok:
            worst = max(worst, EXIT_FAIL)
        label = "PASS" if passed else "FAIL"
        if expect_fail:
            label += " (expected)" if not passed else " (unexpected pass)"
        rows.append((scenario["name"], label, runtime))
    if not quiet:
        width = max((len(r[0]) for r in rows), default=4)
        for name, label, runtime in rows:
            print(f"{name:<{width}}  {label:<20} {runtime:7.2f}s")
        total = sum(r[2] for r in rows)
        print(f"{len(rows)} scenarios, {total:.2f}s total")
    return worst


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Run shadowing experiments from JSON scenario configs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", type=Path)
    run_p.add_argument("--out", type=Path, default=Path("reports"))
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--horizon", type=int, default=None)
    run_p.add_argument("--quiet", action="store_true")

    suite_p = sub.add_parser("suite", help="run a directory of scenarios")
    suite_p.add_argument(
        "directory",
        type=str,
        help="scenario directory, or 'bundled' for the packaged suite",
    )
    suite_p.add_argument("--out", type=Path, default=Path("reports"))
    suite_p.add_argument("--seed", type=int, default=None)
    suite_p.add_argument("--horizon", type=int, default=None)
    suite_p.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(
            args.scenario, args.out, seed=args.seed, horizon=args.horizon, quiet=args.quiet
        )
    directory = bundled_scenarios_dir() if args.directory == "bundled" else Path(args.directory)
    return run_suite(
        directory, args.out, seed=args.seed, horizon=args.horizon, quiet=args.quiet
    )


if __name__ == "__main__":
    sys.exit(main())
