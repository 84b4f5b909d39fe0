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
import itertools
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
from .families import MapFamily, family_from_descriptor
from .limits import limit_shadow_point
from .products import ShadowingVariant, VariantBudget, product_equivalence_check
from .pseudo_orbits import (
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
    pseudo_orbit_rows,
)
from .reporting import csv_lines, write_report, write_series
from .solver import MARGIN, periodic_shadow, pullback_plan, pullback_shadow

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


def _param(params: dict, name: str, convert, default=None, required: bool = False):
    """parameters.<name> passed through `convert`, or `default` when absent."""
    if name not in params:
        if required:
            raise ConfigInvalidError(f"missing parameter: parameters.{name}")
        return default
    try:
        return convert(params[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalidError(f"parameters.{name}: {exc}") from exc


def _at_least(low: float):
    """A converter to int that rejects booleans, values below `low` and values int() would change."""
    def convert(value) -> int:
        if isinstance(value, bool):
            raise ValueError(f"must be an integer, got {value!r}")
        n = int(value)
        if n != value:
            raise ValueError(f"must be an integer, got {value!r}")
        if n < low:
            raise ValueError(f"must be >= {low}, got {n}")
        return n
    return convert


def _float_where(test, text: str):
    """A converter to float that rejects booleans and values failing `test` (NaN included), named by `text`."""
    def convert(value) -> float:
        if isinstance(value, bool):
            raise ValueError(f"must be a number, got {value!r}")
        x = float(value)
        if not test(x):
            raise ValueError(f"must be {text}, got {x}")
        return x
    return convert


_INTEGER = _at_least(-math.inf)
_POSITIVE = _float_where(lambda x: x > 0.0, "> 0")
_NONNEGATIVE = _float_where(lambda x: x >= 0.0, ">= 0")
_OPEN_UNIT = _float_where(lambda x: 0.0 < x < 1.0, "in (0, 1)")
_FINITE = _float_where(math.isfinite, "finite")


def _nonempty(convert):
    """A converter of a nonempty list, item by item."""
    def convert_list(values) -> list:
        if not isinstance(values, list) or not values:
            raise ValueError(f"must be a nonempty list, got {values!r}")
        return [convert(v) for v in values]
    return convert_list


def _family(holder: dict, field: str, kinds=("circle", "finite", "product")) -> MapFamily:
    """The family described at holder[field]; a rejected descriptor or a space not in `kinds` is a config error."""
    desc = _require(holder, field, dict)
    try:
        family = family_from_descriptor(desc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"{field}: invalid family descriptor {desc!r}: {exc!r}") from exc
    if family.space.kind not in kinds:
        raise ConfigInvalidError(f"{field}: needs a {' or '.join(kinds)} family, got a {family.space.kind} space")
    return family


def _on_squares(value: float, horizon: int, shift: int) -> list:
    """value at each n in [0, horizon) where n + shift (0 or 1) is a perfect square, else 0.0.

    Fills zeros and then writes the squares, so no index takes a root.
    """
    values = [0.0] * horizon
    k = shift  # the least k with k * k >= shift
    while k * k - shift < horizon:
        values[k * k - shift] = value
        k += 1
    return values


def _profile_values(profile: dict, horizon: int) -> list:
    kind = profile.get("kind")
    try:
        scale = _param(profile, "scale", _FINITE, 1.0)
    except ConfigInvalidError as exc:
        raise ConfigInvalidError(f"parameters.profile: {exc}") from exc
    if kind == "harmonic":
        return [scale / (i + 1) for i in range(horizon)]
    if kind == "squares_indicator":
        return _on_squares(scale, horizon, 0)
    if kind == "zeros":
        return [0.0] * horizon
    raise ConfigInvalidError(f"parameters.profile.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV lines of the numeric series, as csv.writer writes the same rows: floats
# through repr, ints and names through str, rows ending "\r\n". No field of
# these series needs quotes.


def _pair_lines(pairs, prefix: str = "") -> list:
    """A line "<prefix><key>,<value>" per (key, value) pair."""
    return [f"{prefix}{key},{value!r}\r\n" for key, value in pairs]


def _orbit_lines(po: PseudoOrbit) -> list:
    """The rows of `pseudo_orbit_rows` ("" is the last defect), each replaced
    by its line in place, so the rows and the lines are never both held whole."""
    lines = pseudo_orbit_rows(po)
    for i, row in enumerate(lines):
        lines[i] = ",".join(map(str, row)) + "\r\n"
    return lines


def _cesaro_lines(values) -> list:
    """A line "<n>,<mean of the first n values>" per n, summed left to right from 0.0."""
    sums = itertools.accumulate(values, initial=0.0)
    next(sums)
    return [f"{n},{acc / n!r}\r\n" for n, acc in enumerate(sums, start=1)]


def _table_lines(records, table) -> list:
    """A line per limit level: level, cut, target, window error, final table entry."""
    return [
        f"{rec.level},{rec.cut},{rec.target!r},{rec.window_error!r},{final!r}\r\n"
        for rec, final in zip(records, table)
    ]


# ---------------------------------------------------------------------------
# Experiment implementations: each returns (verdict, report, series, key_certificate)


def _run_shadow(scenario: dict, params: dict):
    family = _family(scenario, "family", ("circle",))  # x0 is one float
    epsilon = _param(params, "epsilon", _POSITIVE, required=True)
    noise = _param(params, "noise", _NONNEGATIVE, required=True)
    horizon = _param(params, "horizon", _at_least(0), 64)
    margin = _param(params, "margin", _OPEN_UNIT, MARGIN)
    n_seeds = _param(params, "seeds", _at_least(1), 1)
    seed0 = _param(params, "seed", _INTEGER, 0)
    x_base = _param(params, "x0", _FINITE, 0.123)

    runs = []
    lines = []
    verdict = True
    for s in range(n_seeds):
        seed = seed0 + s
        x0 = (x_base + 0.6180339887498949 * s) % 1.0
        po = perturb_orbit(family, x0, horizon, noise, seed)
        if s == 0:  # every seed shares the family, epsilon, margin and horizon
            plan = pullback_plan(family, epsilon, margin, horizon)
            orbit_lines = _orbit_lines(po)
        report, _ = pullback_shadow(family, po, epsilon, margin=margin, plan=plan)
        verdict = verdict and report.verdict
        runs.append(
            {
                "seed": seed,
                "max_error": max(report.per_step_errors),
                "max_defect": report.max_defect,
                "measured_diameter": report.measured_diameter,
                "resolution_floor_step": report.resolution_floor_step,
                "verdict": report.verdict,
            }
        )
        lines += _pair_lines(enumerate(report.per_step_errors), f"{seed},")
    # The seeds share one plan, so the last certificate stands for all.
    bound, (m, e) = report.diameter_bound, report.diameter_pair
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
    coords = orbit_lines[0].count(",") - 1 if orbit_lines else 1  # fields less index and defect
    orbit_header = ["index"] + [f"x{i}" for i in range(coords)] + ["defect"]
    series = {
        "errors": (["seed", "step", "error"], lines),
        "orbit": (orbit_header, orbit_lines),
    }
    return verdict, report, series, f"diam<=2^{math.log2(m) + e:.1f}"


def _run_periodic(scenario: dict, params: dict):
    family = _family(scenario, "family", ("circle",))
    epsilon = _param(params, "epsilon", _POSITIVE, required=True)
    delta = _param(params, "delta", _NONNEGATIVE, required=True)
    base = _param(params, "base_points", _nonempty(_FINITE), required=True)
    # Fewer than len(base) + 1 points show no period.
    horizon = _param(params, "horizon", _at_least(len(base)), 4 * len(base))
    seed = _param(params, "seed", _INTEGER, 0)
    rng = random.Random(seed)
    jitter = [rng.uniform(-delta / 3.0, delta / 3.0) for _ in base]
    cycle = [family.space.reduce(b + j) for b, j in zip(base, jitter)]
    points = [cycle[i % len(cycle)] for i in range(horizon + 1)]
    po = PseudoOrbit.from_points(family, points)
    point, residual, errors = periodic_shadow(family, po, epsilon)
    verdict = max(errors) < epsilon
    report = {
        "family": family.name,
        "epsilon": epsilon,
        "delta": delta,
        "period": len(base),
        "max_defect": po.max_defect,
        "fixed_point": point,
        "residual": residual,
        "period_errors": list(errors),
        "distance_to_base": family.space.distance(point, family.space.reduce(base[0])),
        "verdict": verdict,
    }
    series = {"errors": (["step", "error"], _pair_lines(enumerate(errors)))}
    return verdict, report, series, f"residual={residual:.2e}"


def _run_limit(scenario: dict, params: dict):
    family = _family(scenario, "family", ("circle", "finite"))  # x0 is one number
    horizon = _param(params, "horizon", _at_least(1), 10_000)  # at 0 no level checks anything
    levels = _param(params, "levels", _at_least(1), 8)
    profile = _param(params, "profile", dict, {"kind": "harmonic"})
    finite = family.space.kind == "finite"
    x0 = _param(params, "x0", _INTEGER, 0) if finite else _param(params, "x0", _FINITE, 0.2)
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
    header = ["level", "cut", "target", "window_error", "final_table"]
    series = {"table": (header, _table_lines(result.levels, result.table))}
    return verdict, report, series, f"final={result.table[-1]:.3g}"


def _run_average(scenario: dict, params: dict):
    family = _family(scenario, "family", ("finite",))  # the averaged-shadowing oracle is finite
    horizon = _param(params, "horizon", _at_least(1), 10_000)
    subset = _param(params, "subset", _nonempty(_INTEGER), required=True)
    magnitude = _param(params, "magnitude", _POSITIVE, 1.01)
    tol = _param(params, "tolerance", _POSITIVE, 0.05)
    x0 = _param(params, "x0", _INTEGER, subset[0])
    sub = InvariantSubsystem.finite(family, subset)
    po = displace_orbit(family, x0, _on_squares(magnitude, horizon, 1))
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
    terms = [
        ("final_cesaro", result.final_cesaro_error),
        ("term_shadow_vs_lift", float(result.term_shadow_vs_lift)),
        ("term_lift_vs_data", float(result.term_lift_vs_data)),
        ("slack_density", float(result.triangle_slack_density)),
    ]
    positive = ((i, d) for i, d in enumerate(result.lift.defects) if d > 0.0)
    series = {
        "certificates": (["term", "value"], _pair_lines(terms)),
        "lift_defects": (["index", "defect"], _pair_lines(positive)),
    }
    return verdict, report, series, f"cesaro={result.final_cesaro_error:.3g}"


def _run_density(scenario: dict, params: dict):
    horizon = _param(params, "horizon", _at_least(1), 10_000)
    profile = _param(params, "profile", dict, {"kind": "squares_indicator"})
    bound = _param(params, "bound", _FINITE, 1.0)
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
    series = {"cesaro": (["n", "mean"], _cesaro_lines(values[:horizon]))}
    return verdict, report, series, f"density={float(density_h):.3g}"


# The report fields of a product case that its CSV row repeats, in column order.
_CASE_COLUMNS = ("left", "right", "variant", "left_passed", "right_passed", "product_passed", "consistent")


def _run_product(scenario: dict, params: dict):
    cases = _param(params, "cases", _nonempty(dict), required=True)
    rows = []
    reports = []
    verdict = True
    for idx, case in enumerate(cases):
        try:
            variant = _param(case, "variant", ShadowingVariant, required=True).tag
            budget = VariantBudget(
                epsilon=_param(case, "epsilon", _POSITIVE, 0.5),
                delta=_param(case, "delta", _POSITIVE, 0.25),
                max_len=_param(case, "max_len", _at_least(2), 6),
                horizon=_param(case, "horizon", _at_least(1), 48),
                trials=_param(case, "trials", _at_least(1), 8),
                seed=_param(case, "seed", _INTEGER, 0),
            )
            delta_left = _param(case, "delta_left", _POSITIVE)
            delta_right = _param(case, "delta_right", _POSITIVE)
        except ConfigInvalidError as exc:
            raise ConfigInvalidError(f"parameters.cases[{idx}]: {exc}") from exc
        left, right = _family(case, "left"), _family(case, "right")
        record = product_equivalence_check(
            left, right, variant, budget, delta_left=delta_left, delta_right=delta_right
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
        witness = repr(record.witness) if record.witness is not None else ""
        rows.append([*map(reports[-1].get, _CASE_COLUMNS), witness])
    report = {"cases": reports, "all_consistent": verdict, "verdict": verdict}
    series = {"cases": ([*_CASE_COLUMNS, "witness"], csv_lines(rows))}
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
    name = _require(scenario, "name", str)
    # The name becomes a file name in the output directory, so it may not leave it.
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigInvalidError(f"name: must be a plain file name, got {name!r}")
    if not isinstance(scenario.get("expect_fail", False), bool):
        raise ConfigInvalidError(f"expect_fail: must be true or false, got {scenario['expect_fail']!r}")
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
    for label, (header, lines) in series.items():
        write_series(out_dir / f"{name}.{label}.csv", header, lines)
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
        expect_fail = scenario.get("expect_fail", False)
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
