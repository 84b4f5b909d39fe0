"""Product systems and variant-parameterized shadowing checkers.

Each shadowing variant binds to one decidable finite-horizon checker.
Expanding circle families route through the pullback solver and the splice
machinery. Finite families, products of two included, run on the library's
one finite-state table, `families.FiniteKernel`: states coded by their index
in ``space.points``, one distance matrix, step and orbit tables, and one
depth-first walk over the delta-pseudo-orbits that carries every orbit's
running sup error and the running max defect. The product equivalence
record runs one variant on both factors and on their product at the shared
modulus delta_0 = min(delta_F, delta_G) and reports whether the results
agree with the factorwise conjunction ("consistent").
The h and s-limit equivalences are provable from the max metric; the
remaining tags are checked empirically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .errors import BranchDomainViolatedError, ShadowlabError
from .families import FiniteKernel, MapFamily, product_family
from .limits import limit_shadow_point
from .pseudo_orbits import inject_defects, perturb_orbit
from .solver import pull_back_chain, pullback_plan, pullback_shadow

PROVEN_VARIANTS = ("h", "s_limit")
EMPIRICAL_VARIANTS = ("plain", "limit", "average", "asymptotic_average", "periodic", "lipschitz")
ALL_VARIANTS = PROVEN_VARIANTS + EMPIRICAL_VARIANTS
_LIMIT_LEVELS = 4  # accuracy levels of the continuous limit check


@dataclass(frozen=True)
class VariantBudget:
    """Resource knobs shared by every checker."""

    epsilon: float
    delta: float
    max_len: int = 6
    horizon: int = 64
    trials: int = 16
    seed: int = 0
    enumeration_limit: int = 2_000_000
    lipschitz_bound: float = 2.0


@dataclass(frozen=True)
class CheckResult:
    variant: str
    passed: bool
    checked: int
    witness: Optional[tuple] = None
    detail: str = ""


def _walk_check(variant: str, kernel: FiniteKernel, budget: VariantBudget, visit) -> CheckResult:
    checked, bad = kernel.walk(budget.delta, budget.max_len, budget.enumeration_limit, visit)
    witness = None if bad is None else kernel.witness(bad)
    return CheckResult(variant, bad is None, checked, witness=witness)


# ---------------------------------------------------------------------------
# Variant checkers


def h_shadow_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Every finite pseudo-orbit is eps-shadowed with an exact final landing."""
    if family.space.is_enumerable:
        kernel, eps = FiniteKernel(family, budget.max_len - 1), budget.epsilon

        def lands(path, errors, defect):
            ends, q = kernel.ends[len(path) - 1], path[-1]
            return any(e < eps for e, end in zip(errors, ends) if end == q)

        return _walk_check("h", kernel, budget, lands)
    # Sampled pseudo-orbits, exact landing via the backward branch chain.
    family.require_expanding()
    eps, delta = budget.epsilon, budget.delta
    checked = 0
    for t in range(budget.trials):
        x0 = family.space.random_point(random.Random(budget.seed + t))
        try:
            po = perturb_orbit(family, x0, budget.max_len - 1, delta, budget.seed + t)
        except ShadowlabError as exc:
            return CheckResult("h", False, checked, witness=(exc.code,))
        n, maps = po.horizon, family.window(po.horizon)
        checked += 1
        try:
            centres, _, _ = pull_back_chain(family, maps, po.points, po.points[n])
        except BranchDomainViolatedError:
            return CheckResult("h", False, checked, witness=po.points)
        orbit = family.compose(centres[0], n)
        landing = family.space.distance(orbit[n], po.points[n])
        if landing > 1e-10 or family.sup_distance(orbit, po.points, 0, n - 1) >= eps:
            return CheckResult("h", False, checked, witness=po.points)
    return CheckResult("h", True, checked)


def plain_shadow_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Every pseudo-orbit is eps-shadowed (no landing clause)."""
    eps, delta = budget.epsilon, budget.delta
    space = family.space
    if space.is_enumerable:
        kernel = FiniteKernel(family, budget.max_len - 1)
        return _walk_check("plain", kernel, budget, lambda path, errors, defect: min(errors) < eps)
    family.require_expanding()
    checked = 0
    for t in range(budget.trials):
        rng = random.Random(budget.seed + 1000 + t)
        x0 = space.random_point(rng)
        try:
            po = perturb_orbit(family, x0, budget.horizon, delta, budget.seed + t)
            if t == 0:  # every trial shares the family, eps and horizon
                plan = pullback_plan(family, eps, horizon=budget.horizon)
            report, _ = pullback_shadow(family, po, eps, plan=plan)
        except ShadowlabError as exc:
            return CheckResult("plain", False, checked, witness=(exc.code, exc.witness))
        checked += 1
        if not report.verdict:
            return CheckResult("plain", False, checked, witness=po.points[:8])
    return CheckResult("plain", True, checked)


def limit_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Limit pseudo-orbits are limit-shadowed (tail-exact on finite spaces).

    On a finite family the tail-exact clause asks for an orbit agreeing with
    the pseudo-orbit from some index k on; k = n is the weakest such clause
    and every other one implies it, so the check reduces to a landing check
    orbit[n] == po[n]. Finite maps are onto, hence so is F_n, and every
    pseudo-orbit passes: at a finite horizon this verdict cannot fail.
    """
    if family.space.is_enumerable:
        # Two-point heads at least, but never past max_len points.
        head_len = min(budget.max_len, max(2, budget.max_len // 2))
        kernel = FiniteKernel(family, budget.max_len - 1)

        def extend(path):
            return path + kernel.follow(len(path) - 1, path[-1], budget.max_len - 1)[1:]

        checked, bad = kernel.walk(
            budget.delta, head_len, budget.enumeration_limit,
            lambda path, errors, defect: extend(path)[-1] in kernel.ends[-1],
        )
        witness = None if bad is None else kernel.witness(extend(bad))
        return CheckResult("limit", bad is None, checked, witness=witness)
    # Continuous: synthetic harmonic defects scaled into the budget.
    defects = [budget.delta / (i + 1) for i in range(budget.horizon)]
    x0 = family.space.random_point(random.Random(budget.seed))
    po = inject_defects(family, x0, defects)
    try:
        result = limit_shadow_point(family, po, levels=_LIMIT_LEVELS)
    except ShadowlabError as exc:
        return CheckResult("limit", False, 1, witness=(exc.code,))
    last = result.levels[-1]
    passed = result.table_nonincreasing and last.sup_error_vs_spliced < last.target
    witness = None if passed else (last.level, last.sup_error_vs_spliced)
    detail = f"final window error {result.table[-1]:.3g}"
    return CheckResult("limit", passed, len(result.levels), witness, detail)


def s_limit_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Both s-limit clauses from one shared delta: plain + limit."""
    plain = plain_shadow_check(family, budget)
    if not plain.passed:
        return CheckResult("s_limit", False, plain.checked, plain.witness, "clause (i) fails")
    lim = limit_check(family, budget)
    detail = "" if lim.passed else "clause (ii) fails"
    return CheckResult("s_limit", lim.passed, plain.checked + lim.checked, lim.witness, detail)


def average_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Single-jump pseudo-orbits are shadowed in Cesaro mean below eps.

    Finite-horizon surrogate: a lone defective step in a window of max_len
    keeps the Cesaro defect below diam/max_len; some start point must then
    track the window with Cesaro error below eps.
    """
    if not family.space.is_enumerable:
        return CheckResult("average", False, 0, detail="finite-state families only")
    length = budget.max_len
    kernel = FiniteKernel(family, length)
    cols, n = kernel.cols, length + 1
    # tails[j][x]: codes of the pseudo-orbit after a jump to x at index j.
    tails = [[kernel.follow(j, x, length) for x in range(len(cols[0]))] for j in range(n)]
    checked = 0
    for base in kernel.orbits:
        # Running sums over the shared prefix base[:j], added left to right
        # from int 0 like sum(), so every mean is bit-identical to it.
        sums = [0] * len(kernel.orbits)
        for jump_at in range(1, n):
            sums = [a + d for a, d in zip(sums, cols[jump_at - 1][base[jump_at - 1]])]
            for tail in tails[jump_at]:
                totals = sums
                for i, x in enumerate(tail, jump_at):
                    totals = [a + d for a, d in zip(totals, cols[i][x])]
                checked += 1
                if min(totals) / n >= budget.epsilon:
                    po = base[:jump_at] + tail
                    return CheckResult("average", False, checked, witness=kernel.witness(po))
    return CheckResult("average", True, checked)


def asymptotic_average_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """At a finite horizon this coincides with the average surrogate."""
    result = average_check(family, budget)
    return replace(result, variant="asymptotic_average")


def periodic_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Closed pseudo-orbits are shadowed by points of the same period."""
    if not family.space.is_enumerable:
        return CheckResult("periodic", False, 0, detail="finite-state families only")
    kernel, eps = FiniteKernel(family, budget.max_len - 1), budget.epsilon

    def closed(path, errors, defect):
        if path[0] != path[-1]:
            return None
        ends = kernel.ends[len(path) - 1]
        return any(e < eps and end == y for y, (e, end) in enumerate(zip(errors, ends)))

    return _walk_check("periodic", kernel, budget, closed)


def lipschitz_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Best-shadow error stays within lipschitz_bound times the defect size."""
    if not family.space.is_enumerable:
        return CheckResult("lipschitz", False, 0, detail="finite-state families only")
    kernel, bound = FiniteKernel(family, budget.max_len - 1), budget.lipschitz_bound

    def bounded(path, errors, defect):
        if defect == 0.0:
            return None
        return not min(errors) > bound * defect

    return _walk_check("lipschitz", kernel, budget, bounded)


VARIANT_CHECKERS = {
    "h": h_shadow_check,
    "s_limit": s_limit_check,
    "plain": plain_shadow_check,
    "limit": limit_check,
    "average": average_check,
    "asymptotic_average": asymptotic_average_check,
    "periodic": periodic_check,
    "lipschitz": lipschitz_check,
}


@dataclass(frozen=True)
class ShadowingVariant:
    """A variant tag bound to its decidable finite-horizon checker."""

    tag: str

    def __post_init__(self):
        if self.tag not in VARIANT_CHECKERS:
            raise ValueError(f"unknown variant {self.tag!r}")

    @property
    def basis(self) -> str:
        return "proven" if self.tag in PROVEN_VARIANTS else "empirical"

    def run(self, family: MapFamily, budget: VariantBudget) -> CheckResult:
        return VARIANT_CHECKERS[self.tag](family, budget)


# ---------------------------------------------------------------------------
# Product equivalence


@dataclass(frozen=True)
class EquivalenceRecord:
    variant: str
    basis: str
    delta_shared: float
    factor_left: CheckResult
    factor_right: CheckResult
    product_result: CheckResult

    @property
    def consistent(self) -> bool:
        both = self.factor_left.passed and self.factor_right.passed
        return both == self.product_result.passed

    @property
    def witness(self) -> Optional[tuple]:
        for result in (self.product_result, self.factor_left, self.factor_right):
            if not result.passed and result.witness is not None:
                return result.witness
        return None


def product_equivalence_check(
    left: MapFamily,
    right: MapFamily,
    variant: str,
    budget: VariantBudget,
    delta_left: Optional[float] = None,
    delta_right: Optional[float] = None,
) -> EquivalenceRecord:
    """Run one variant on both factors and the product at the shared modulus.

    delta_0 = min of the factor moduli; an inconsistent record (factor
    conjunction disagreeing with the product verdict) signals an
    implementation bug and carries the offending witness.
    """
    tag = ShadowingVariant(variant)
    d0 = min(budget.delta if d is None else d for d in (delta_left, delta_right))
    shared = replace(budget, delta=d0)
    return EquivalenceRecord(
        variant=variant,
        basis=tag.basis,
        delta_shared=d0,
        factor_left=tag.run(left, shared),
        factor_right=tag.run(right, shared),
        product_result=tag.run(product_family(left, right), shared),
    )
