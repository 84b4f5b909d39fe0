"""Seeded job lists for the four benchmark workloads, and their correctness checks.

A job is one call a user makes: a generated scenario run through
``shadowlab.cli.run_scenario``, or, for product-family pullback (which the
CLI cannot express, because ``_run_shadow`` passes a float ``x0`` that the
product space rejects), one ``perturb_orbit`` + ``pullback_shadow`` call.

The seed draws every start point, noise level and noise seed. Job sizes
(horizons, seed counts, enumeration lengths) are fixed, so two seeds give
different inputs but the same amount of work; that is what lets runs with
different seeds be compared.

This module imports no shadowlab code: the runner re-imports the library on
every set-up and passes its modules in.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

EPSILON = 0.1
MARGIN = 0.98
SHADOW_FAMILIES = ("doubling", "tripling", "alternating", "slow_expanding")
# Horizon of the one long shadow job per family, per pass.
LONG_HORIZONS = {"doubling": 4096, "tripling": 2048, "alternating": 3072, "slow_expanding": 1024}
PRODUCT_PULLBACK_HORIZON = 1024
WARMUP_HORIZON = 256


@dataclass(frozen=True)
class Job:
    """One unit of user work with the outcome it must produce."""

    name: str
    label: str
    expect_exit: int = 0
    scenario: Optional[dict] = None
    pullback: Optional[dict] = None
    # Expected product_passed per case of a product scenario.
    expect_product: tuple = ()


def _shadow_noise(family: str, horizon: int, rng: random.Random) -> float:
    """A noise level strictly below the family's smallest per-step defect budget."""
    rate = {"doubling": 0.5, "tripling": 1.0 / 3.0, "alternating": 0.5}.get(family)
    # slow_expanding: the rate at step n is (n+1)/(n+2), tightest at the last step.
    floor = MARGIN * (1.0 - rate) * EPSILON if rate else MARGIN * EPSILON / (horizon + 1)
    return floor * rng.uniform(0.5, 0.99)


def _shadow(name, label, family, horizon, seeds, noise, rng, expect_exit=0, expect_fail=False):
    scenario = {
        "name": name,
        "experiment": "shadow",
        "family": {"kind": family},
        "parameters": {
            "epsilon": EPSILON,
            "noise": noise,
            "horizon": horizon,
            "seeds": seeds,
            "seed": rng.randrange(1 << 30),
            "x0": rng.random(),
            "margin": MARGIN,
        },
    }
    if expect_fail:
        scenario["expect_fail"] = True
    return Job(name=name, label=label, expect_exit=expect_exit, scenario=scenario)


def pullback_jobs(rng: random.Random) -> list:
    jobs = []
    for family in SHADOW_FAMILIES:
        for i in range(3):
            noise = _shadow_noise(family, 64, rng)
            jobs.append(_shadow(f"short-{family}-{i}", f"shadow.{family}.k64", family, 64, 12, noise, rng))
    # Shape of the bundled doubling-shadow scenario, at its edge-of-budget noise.
    jobs.append(_shadow("bundled-doubling-shadow", "shadow.doubling.k64x100", "doubling", 64, 100, 0.049, rng))
    for family, horizon in LONG_HORIZONS.items():
        noise = _shadow_noise(family, horizon, rng)
        jobs.append(_shadow(f"long-{family}", f"shadow.{family}.k{horizon}", family, horizon, 1, noise, rng))
    jobs.append(
        Job(
            name="bundled-doubling-periodic",
            label="periodic.doubling",
            scenario={
                "name": "bundled-doubling-periodic",
                "experiment": "periodic",
                "family": {"kind": "doubling"},
                "parameters": {
                    "epsilon": 0.05,
                    "delta": 0.01,
                    "base_points": [1.0 / 3.0, 2.0 / 3.0],
                    "horizon": 8,
                    "seed": rng.randrange(1 << 30),
                },
            },
        )
    )
    # Negative control: rates 1 - 2^-n, so the defect budget collapses; exit 1.
    jobs.append(
        _shadow(
            "barely-expanding-control", "shadow.barely_expanding.control", "barely_expanding",
            32, 1, 0.02, rng, expect_exit=1, expect_fail=True,
        )
    )
    for i in range(2):
        jobs.append(
            Job(
                name=f"product-pullback-{i}",
                label=f"api.pullback.doubling*doubling.k{PRODUCT_PULLBACK_HORIZON}",
                pullback={
                    "x0": (rng.random(), rng.random()),
                    "horizon": PRODUCT_PULLBACK_HORIZON,
                    "noise": MARGIN * 0.5 * EPSILON * rng.uniform(0.5, 0.99),
                    "seed": rng.randrange(1 << 30),
                    "epsilon": EPSILON,
                },
            )
        )
    return jobs


def limit_jobs(rng: random.Random) -> list:
    jobs = []
    for family, horizon in (("rotation", 10_000), ("doubling", 4000), ("alternating", 4000)):
        name = f"limit-{family}"
        jobs.append(
            Job(
                name=name,
                label=f"limit.{family}.h{horizon}",
                scenario={
                    "name": name,
                    "experiment": "limit",
                    "family": {"kind": family},
                    "parameters": {
                        "horizon": horizon,
                        "levels": 8,
                        "profile": {"kind": "harmonic", "scale": 1.0},
                        "x0": rng.random(),
                    },
                },
            )
        )
    return jobs


def average_jobs(rng: random.Random) -> list:
    jobs = []
    # Five jobs, so the median job is one job class (density at h=15000)
    # rather than the midpoint between two.
    for horizon in (10_000, 15_000, 20_000):
        if horizon != 15_000:
            name = f"average-h{horizon}"
            jobs.append(
                Job(
                    name=name,
                    label=f"average.eight_state.h{horizon}",
                    scenario={
                        "name": name,
                        "experiment": "average",
                        "family": {"kind": "eight_state"},
                        "parameters": {
                            "horizon": horizon,
                            "subset": [0, 1, 2],
                            # Any magnitude in this range snaps to the 1.01 parking distance.
                            "magnitude": rng.uniform(1.006, 1.014),
                            "tolerance": 0.05,
                            "x0": rng.randrange(3),
                        },
                    },
                )
            )
        name = f"density-h{horizon}"
        jobs.append(
            Job(
                name=name,
                label=f"density.squares.h{horizon}",
                scenario={
                    "name": name,
                    "experiment": "density",
                    "parameters": {
                        "horizon": horizon,
                        # Scales in (1/2, 1] exceed every extraction level alike.
                        "profile": {"kind": "squares_indicator", "scale": rng.uniform(0.6, 1.0)},
                        "bound": 1.0,
                    },
                },
            )
        )
    return jobs


_SWAP = {"kind": "two_bit_swap"}
_C3 = {"kind": "finite_cycle", "n": 3}
_C4 = {"kind": "finite_cycle", "n": 4}
_PAIR = {"kind": "identity_pair"}
_EIGHT = {"kind": "eight_state"}

# (name, left, right, variant, epsilon, delta, max_len, product passes).
# Passing cases enumerate every delta-pseudo-orbit up to max_len; failing
# ones stop at the first witness.
PRODUCT_CASES = (
    ("lipschitz-swap-c4", _SWAP, _C4, "lipschitz", 0.5, 0.6, 4, True),
    ("average-eight-swap", _EIGHT, _SWAP, "average", 0.5, 0.6, 4, True),
    ("lipschitz-c3-swap", _C3, _SWAP, "lipschitz", 0.5, 0.6, 5, True),
    ("lipschitz-c3-c4", _C3, _C4, "lipschitz", 0.5, 0.6, 5, True),
    ("lipschitz-pair-swap", _PAIR, _SWAP, "lipschitz", 0.5, 0.6, 5, True),
    ("asymptotic-average-c4-swap", _C4, _SWAP, "asymptotic_average", 0.5, 0.6, 4, True),
    ("average-c3-c4", _C3, _C4, "average", 0.5, 0.6, 4, True),
    ("periodic-swap-swap", _SWAP, _SWAP, "periodic", 0.9, 0.6, 4, True),
    ("limit-eight-swap", _EIGHT, _SWAP, "limit", 0.3, 0.2, 6, True),
    ("h-eight-swap", _EIGHT, _SWAP, "h", 0.3, 0.6, 4, False),
    ("s-limit-eight-swap", _EIGHT, _SWAP, "s_limit", 0.3, 0.6, 4, False),
    ("s-limit-eight-c3", _EIGHT, _C3, "s_limit", 0.5, 0.6, 4, False),
    ("plain-eight-c3", _EIGHT, _C3, "plain", 0.5, 0.6, 4, False),
    ("lipschitz-eight-c3", _EIGHT, _C3, "lipschitz", 0.3, 0.2, 6, False),
    ("lipschitz-swap-eight", _SWAP, _EIGHT, "lipschitz", 0.3, 0.2, 6, False),
    ("average-eight-swap-short", _EIGHT, _SWAP, "average", 0.3, 0.2, 6, False),
)

# The bundled finite-products scenario's cases, with their product verdicts.
BUNDLED_PRODUCT_CASES = (
    ({"left": _C3, "right": _SWAP, "variant": "h", "epsilon": 0.3, "delta": 0.2}, True),
    ({"left": _C3, "right": _PAIR, "variant": "h", "epsilon": 0.3, "delta_left": 0.2, "delta_right": 1.6, "delta": 0.2}, True),
    ({"left": _PAIR, "right": _SWAP, "variant": "s_limit", "epsilon": 0.3, "delta": 0.2}, True),
    ({"left": _SWAP, "right": _C3, "variant": "s_limit", "epsilon": 0.25, "delta": 1.6}, False),
)


def _product_job(name, cases, expect, rng):
    for case in cases:
        # Finite checkers ignore the budget seed; it is drawn so the inputs
        # still carry the workload seed.
        case["seed"] = rng.randrange(1 << 30)
    return Job(
        name=name,
        label=f"product.{name}",
        scenario={"name": name, "experiment": "product", "parameters": {"cases": cases}},
        expect_product=tuple(expect),
    )


def products_jobs(rng: random.Random) -> list:
    jobs = []
    for name, left, right, variant, eps, delta, max_len, passes in PRODUCT_CASES:
        case = {
            "left": left, "right": right, "variant": variant,
            "epsilon": eps, "delta": delta, "max_len": max_len,
        }
        jobs.append(_product_job(name, [case], [passes], rng))
    cases = [dict(case) for case, _ in BUNDLED_PRODUCT_CASES]
    jobs.append(_product_job("bundled-finite-products", cases, [p for _, p in BUNDLED_PRODUCT_CASES], rng))
    # Enumeration order of a finite checker depends only on the case, so the
    # seed decides the order of the jobs, not what each job does.
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {
    "pullback": pullback_jobs,
    "limit": limit_jobs,
    "average": average_jobs,
    "products": products_jobs,
}
WORKLOADS = tuple(JOB_LISTS)


def build_jobs(workload: str, seed: int) -> list:
    return JOB_LISTS[workload](random.Random(f"shadowlab-bench/{workload}/{seed}"))


def warmup_jobs(jobs: list) -> list:
    """One reduced copy of each job class: short horizons, short enumerations."""
    seen = {}
    for job in jobs:
        if job.label in seen:
            continue
        if job.pullback is not None:
            seen[job.label] = replace(job, name=f"warmup-{job.name}", pullback={**job.pullback, "horizon": 32})
            continue
        scenario = json.loads(json.dumps(job.scenario))
        scenario["name"] = f"warmup-{job.name}"
        params = scenario["parameters"]
        if "horizon" in params and scenario["experiment"] != "periodic":
            params["horizon"] = min(params["horizon"], WARMUP_HORIZON)
        if "seeds" in params:
            params["seeds"] = 1
        for case in params.get("cases", ()):
            case["max_len"] = min(case.get("max_len", 6), 3)
        seen[job.label] = replace(job, name=scenario["name"], scenario=scenario, expect_product=())
    return list(seen.values())


# ---------------------------------------------------------------------------
# Correctness checks on the written reports


def _check_shadow(report: dict, out_dir: Path, name: str) -> list:
    eps = report["epsilon"]
    problems = []
    if not report["verdict"]:
        problems.append("verdict false")
    for run in report["runs"]:
        if not run["verdict"] or not run["max_error"] < eps:
            problems.append(f"seed {run['seed']}: max_error {run['max_error']} >= {eps}")
    # Re-check every per-step error from the CSV series. measured_diameter is
    # not checked: it reads 0.0 from k~60 on, below float resolution.
    with (out_dir / f"{name}.errors.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    expected_rows = len(report["runs"]) * (report["horizon"] + 1)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} error rows, expected {expected_rows}")
    bad = [r for r in rows if not float(r[2]) < eps]
    if bad:
        problems.append(f"{len(bad)} per-step errors >= {eps}, first {bad[0]}")
    return problems


def _check_periodic(report: dict, out_dir: Path, name: str) -> list:
    problems = []
    if not report["verdict"]:
        problems.append("verdict false")
    if not report["residual"] < 1e-9:
        problems.append(f"residual {report['residual']}")
    if not all(e < report["epsilon"] for e in report["period_errors"]):
        problems.append("period error >= epsilon")
    return problems


def _check_limit(report: dict, out_dir: Path, name: str) -> list:
    problems = []
    table = report["table"]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(table, table[1:]))
    if not (report["table_nonincreasing"] and nonincreasing):
        problems.append("table not nonincreasing")
    if not report["final_window_error"] < report["final_target"]:
        problems.append(f"final window error {report['final_window_error']} >= target")
    if not report["verdict"]:
        problems.append("verdict false")
    return problems


def _check_average(report: dict, out_dir: Path, name: str) -> list:
    problems = []
    if not report["triangle_holds"]:
        problems.append("triangle_holds false")
    if not report["support_contained"]:
        problems.append("lift support escapes J' u B")
    if not report["final_cesaro_error"] < report["tolerance"]:
        problems.append(f"final Cesaro error {report['final_cesaro_error']} >= tolerance")
    if not report["verdict"]:
        problems.append("verdict false")
    return problems


def _check_density(report: dict, out_dir: Path, name: str) -> list:
    problems = []
    for flag in ("certificate_holds", "contract_holds", "fixed_set_halving", "verdict"):
        if not report[flag]:
            problems.append(f"{flag} false")
    if not report["actual_cesaro"] <= report["certificate"]:
        problems.append("actual Cesaro mean above its certificate")
    return problems


def _check_product(report: dict, out_dir: Path, name: str) -> list:
    problems = []
    for i, case in enumerate(report["cases"]):
        if not case["consistent"]:
            problems.append(f"case {i} ({case['variant']}) inconsistent")
    if not report["all_consistent"]:
        problems.append("all_consistent false")
    return problems


CHECKS = {
    "shadow": _check_shadow,
    "periodic": _check_periodic,
    "limit": _check_limit,
    "average": _check_average,
    "density": _check_density,
    "product": _check_product,
}


def check_report(job: Job, report: dict, out_dir: Path) -> list:
    """Problems found in a job's report body; empty when it is correct."""
    problems = CHECKS[job.scenario["experiment"]](report, out_dir, job.name)
    if job.expect_product:
        got = tuple(case["product_passed"] for case in report["cases"])
        if got != job.expect_product:
            problems.append(f"product verdicts {got}, expected {job.expect_product}")
    return problems


def check_pullback(job: Job, body: dict) -> list:
    eps = job.pullback["epsilon"]
    problems = []
    errors = body["per_step_errors"]
    if len(errors) != job.pullback["horizon"] + 1:
        problems.append(f"{len(errors)} per-step errors for horizon {job.pullback['horizon']}")
    if not all(e < eps for e in errors):
        problems.append(f"per-step error {max(errors)} >= {eps}")
    if not body["verdict"]:
        problems.append("verdict false")
    return problems
