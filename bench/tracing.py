"""Spans and exact counters around calls into each shadowlab layer.

Tracing lives entirely in the benchmark: ``instrument`` replaces names at
the sites where the library looks them up at call time (module globals,
class attributes, the ``VARIANT_CHECKERS`` table) with timing wrappers, and
``Patches.restore`` puts the originals back. Each span records its name,
start, end, parent span and job id; spans stay in memory until the run
ends. Per-step functions (``evaluate``, ``cell_pull``, ``distance``) are
not wrapped, because wrapper cost would swamp them; ``micro.py`` times them.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, info]
        self.stack = []
        self.counts = Counter()
        self.job = None

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans, self.stack, self.counts = [], [], Counter()

    def open(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, info])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, info=None, after=None):
        """A wrapper timing each call of fn as a span called name.

        ``info(args, kwargs)`` stores a value with the span (a step count, a
        family name); ``after(result, span)`` may amend it from the result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, info(args, kwargs) if info else None)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, tracer.spans[idx])
            return result

        return wrapper


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self.saved.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self.saved.append((owner, attr, owner.__dict__[attr], False))
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, is_dict in reversed(self.saved):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.saved.clear()


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def instrument(lib, tracer: Tracer) -> Patches:
    """Install the benchmark's wrappers on the freshly imported library."""
    cli, solver, limits = lib.cli, lib.solver, lib.limits
    averaging, density, products = lib.averaging, lib.density, lib.products
    families, pseudo_orbits = lib.families, lib.pseudo_orbits
    patches = Patches()
    wrap = tracer.wrap

    def family_and_steps(args, kwargs):
        return (_arg(args, kwargs, 0, "family").name, _arg(args, kwargs, 1, "po").horizon)

    def horizon_arg(index):
        return lambda args, kwargs: _arg(args, kwargs, index, "horizon")

    # pseudo_orbits. The benchmark's own product pullback jobs call
    # pseudo_orbits.perturb_orbit and solver.pullback_shadow; the library
    # calls the names it imported.
    for module in (cli, products, pseudo_orbits):
        patches.set(module, "perturb_orbit", wrap("pseudo_orbits.perturb_orbit", module.perturb_orbit, horizon_arg(2)))
    for module in (cli, products):
        patches.set(module, "inject_defects", wrap("pseudo_orbits.inject_defects", module.inject_defects))
    patches.set(cli, "displace_orbit", wrap("pseudo_orbits.displace_orbit", cli.displace_orbit))
    from_points = pseudo_orbits.PseudoOrbit.__dict__["from_points"].__func__
    patches.set(
        pseudo_orbits.PseudoOrbit,
        "from_points",
        classmethod(wrap("pseudo_orbits.from_points", from_points, lambda a, k: len(_arg(a, k, 2, "points")))),
    )

    # families
    patches.set(
        families.MapFamily,
        "compose",
        wrap("families.compose", families.MapFamily.__dict__["compose"], horizon_arg(2)),
    )
    for module in (families, products):
        patches.set(module, "product_family", wrap("families.product_family", module.product_family))

    # solver
    for module in (cli, limits, products, solver):
        patches.set(module, "pullback_shadow", wrap("solver.pullback_shadow", module.pullback_shadow, family_and_steps))
    patches.set(solver, "delta_budget", wrap("solver.delta_budget", solver.delta_budget))
    patches.set(cli, "periodic_shadow", wrap("solver.periodic_shadow", cli.periodic_shadow))

    # limits
    patches.set(cli, "limit_shadow_point", wrap("limits.limit_shadow_point", cli.limit_shadow_point))
    patches.set(products, "limit_shadow_point", wrap("limits.limit_shadow_point", products.limit_shadow_point))

    def splice_key(args, kwargs):
        return (id(_arg(args, kwargs, 1, "po")), _arg(args, kwargs, 2, "cut"))

    def splice_points(result, span):
        span[5] = (span[5], len(result.orbit.points))

    patches.set(limits, "splice", wrap("limits.splice", limits.splice, splice_key, splice_points))
    for oracle in (limits.TransportOracle, limits.ExhaustiveOracle, limits.PullbackOracle):
        patches.set(oracle, "shadow", wrap("limits.oracle_shadow", oracle.__dict__["shadow"]))
        patches.set(oracle, "modulus", wrap("limits.modulus", oracle.__dict__["modulus"]))

    # averaging and density
    patches.set(cli, "average_shadow_point", wrap("averaging.average_shadow_point", cli.average_shadow_point))
    patches.set(averaging, "visit_condition", wrap("averaging.visit_condition", averaging.visit_condition))
    patches.set(averaging, "block_decompose", wrap("averaging.block_decompose", averaging.block_decompose))
    patches.set(averaging, "lift_to_A", wrap("averaging.lift_to_A", averaging.lift_to_A, lambda a, k: len(_arg(a, k, 1, "po").points)))
    for module in (cli, averaging):
        patches.set(module, "cesaro_to_density_zero", wrap("density.cesaro_to_density_zero", module.cesaro_to_density_zero))
        patches.set(module, "density_zero_to_cesaro", wrap("density.density_zero_to_cesaro", module.density_zero_to_cesaro))
    patches.set(averaging, "patch_sets", wrap("density.patch_sets", averaging.patch_sets))
    feasible = density.first_density_feasible

    def counted_feasible(*args, **kwargs):
        tracer.counts["density.first_density_feasible"] += 1
        return feasible(*args, **kwargs)

    patches.set(density, "first_density_feasible", counted_feasible)

    # products: only the table entries, so nested checkers (s_limit runs
    # plain and limit) are timed inside their caller.
    def checked(result, span):
        span[5] = result.checked

    table = products.VARIANT_CHECKERS
    for variant, checker in list(table.items()):
        patches.set(table, variant, wrap(f"products.check.{variant}", checker, after=checked))
    patches.set(cli, "product_equivalence_check", wrap("products.product_equivalence_check", cli.product_equivalence_check))

    # reporting: report bodies are sized after the pass, from the payload,
    # because the envelope's timestamp and runtime vary in length.
    def series_info(args, kwargs):
        return (_arg(args, kwargs, 0, "path"), len(_arg(args, kwargs, 2, "rows")))

    def series_bytes(result, span):
        path, rows = span[5]
        span[5] = (path.stat().st_size, rows)

    patches.set(cli, "write_report", wrap("reporting.write_report", cli.write_report, lambda a, k: _arg(a, k, 1, "report")))
    patches.set(cli, "write_series", wrap("reporting.write_series", cli.write_series, series_info, series_bytes))
    return patches


# ---------------------------------------------------------------------------
# Per-pass layer metrics from spans and counts

VARIANTS = ("h", "s_limit", "plain", "limit", "average", "asymptotic_average", "periodic", "lipschitz")


def _self_times(spans) -> list:
    children = [0.0] * len(spans)
    for _name, start, end, parent, _job, _info in spans:
        if parent >= 0:
            children[parent] += end - start
    return [end - start - children[i] for i, (_n, start, end, _p, _j, _i) in enumerate(spans)]


def _under(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, counts: Counter, body_size) -> dict:
    """Per-layer times and exact work counts of one traced pass.

    Times are totals over the pass (``_s``, ``_ms``) or means per unit of
    work (``_us_per_step``, ``_us_per_point``, ``_us``); counts are exact.
    A layer the workload bypasses reads zero. ``body_size(report)`` gives
    the byte length of a report's deterministic body.
    """
    selfs = _self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        total[span[0]] += span[2] - span[1]
        self_total[span[0]] += selfs[i]
        by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def info_sum(name, pick=lambda info: info):
        return sum(pick(spans[i][5]) for i in by_name[name])

    m = {}
    # families
    m["families.compose_calls"] = len(by_name["families.compose"])
    m["families.compose_steps"] = info_sum("families.compose")
    m["families.compose_s"] = total["families.compose"]

    # pseudo_orbits
    m["pseudo_orbits.perturb_orbit_us_per_step"] = _per(
        total["pseudo_orbits.perturb_orbit"], info_sum("pseudo_orbits.perturb_orbit"), 1e6
    )
    m["pseudo_orbits.from_points_points"] = info_sum("pseudo_orbits.from_points")
    m["pseudo_orbits.from_points_us_per_point"] = _per(
        total["pseudo_orbits.from_points"], m["pseudo_orbits.from_points_points"], 1e6
    )
    m["pseudo_orbits.inject_defects_s"] = total["pseudo_orbits.inject_defects"]
    m["pseudo_orbits.displace_orbit_s"] = total["pseudo_orbits.displace_orbit"]

    # solver
    pullbacks = by_name["solver.pullback_shadow"]
    m["solver.pullback_calls"] = len(pullbacks)
    m["solver.pullback_steps"] = info_sum("solver.pullback_shadow", lambda info: info[1])
    groups = {"doubling": [0.0, 0], "product": [0.0, 0], "limit": [0.0, 0]}
    for i in pullbacks:
        family, steps = spans[i][5]
        if _under(spans, i, "limits.limit_shadow_point"):
            key = "limit"
        elif family == "doubling":
            key = "doubling"
        elif family == "doubling*doubling":
            key = "product"
        else:
            continue
        groups[key][0] += dur(i)
        groups[key][1] += steps
    for key, (seconds, steps) in groups.items():
        m[f"solver.pullback_us_per_step.{key}"] = _per(seconds, steps, 1e6)
    m["solver.delta_budget_us"] = _per(total["solver.delta_budget"], len(by_name["solver.delta_budget"]), 1e6)
    m["solver.periodic_shadow_ms"] = total["solver.periodic_shadow"] * 1e3
    m["solver.errors_raised"] = counts["solver.pullback_shadow.raised"] + counts["solver.periodic_shadow.raised"]

    # limits
    splices = by_name["limits.splice"]
    seen = set()
    redundant = 0
    for i in splices:
        key = (spans[i][4], spans[i][5][0])
        redundant += key in seen
        seen.add(key)
    m["limits.self_s"] = self_total["limits.limit_shadow_point"]
    m["limits.splice_calls"] = len(splices)
    m["limits.splice_points"] = sum(spans[i][5][1] for i in splices)
    m["limits.splice_s"] = total["limits.splice"]
    m["limits.splice_redundant_frac"] = _per(redundant, len(splices))
    m["limits.modulus_calls"] = len(by_name["limits.modulus"])
    m["limits.oracle_shadow_s"] = total["limits.oracle_shadow"]

    # density
    m["density.extract_s"] = total["density.cesaro_to_density_zero"]
    m["density.certify_s"] = total["density.density_zero_to_cesaro"]
    m["density.patch_s"] = total["density.patch_sets"]
    m["density.feasible_calls"] = counts["density.first_density_feasible"]

    # averaging
    m["averaging.self_s"] = self_total["averaging.average_shadow_point"]
    m["averaging.visit_s"] = total["averaging.visit_condition"]
    m["averaging.block_decompose_s"] = total["averaging.block_decompose"]
    m["averaging.lift_us_per_point"] = _per(
        total["averaging.lift_to_A"], info_sum("averaging.lift_to_A"), 1e6
    )

    # products
    check_seconds = 0.0
    for variant in VARIANTS:
        seconds = total[f"products.check.{variant}"]
        m[f"products.check_s.{variant}"] = seconds
        check_seconds += seconds
    m["products.checked"] = sum(info_sum(f"products.check.{v}") for v in VARIANTS)
    m["products.checked_per_s"] = _per(m["products.checked"], check_seconds)
    m["products.family_builds"] = len(by_name["families.product_family"])

    # reporting
    m["reporting.write_report_ms"] = total["reporting.write_report"] * 1e3
    m["reporting.write_series_ms"] = total["reporting.write_series"] * 1e3
    m["reporting.bytes_written"] = info_sum("reporting.write_report", body_size) + info_sum(
        "reporting.write_series", lambda info: info[0]
    )
    m["reporting.rows_written"] = info_sum("reporting.write_series", lambda info: info[1])

    # cli: run_scenario minus the library calls it makes
    m["cli.self_ms"] = self_total["cli.run_scenario"] * 1e3
    return m


# Metrics that count work exactly; they must repeat from pass to pass.
COUNT_METRICS = (
    "families.compose_calls",
    "families.compose_steps",
    "pseudo_orbits.from_points_points",
    "solver.pullback_calls",
    "solver.pullback_steps",
    "solver.errors_raised",
    "limits.splice_calls",
    "limits.splice_points",
    "limits.splice_redundant_frac",
    "limits.modulus_calls",
    "density.feasible_calls",
    "products.checked",
    "products.family_builds",
    "reporting.bytes_written",
    "reporting.rows_written",
)


def median_metrics(passes: list) -> dict:
    """Median of each metric over traced passes; counts are taken as they are."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    return out
