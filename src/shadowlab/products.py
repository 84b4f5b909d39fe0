"""Product systems and variant-parameterized shadowing checkers.

Each shadowing variant binds to one decidable finite-horizon checker.
Finite-state families are checked by exhaustive enumeration of pseudo-orbits
up to a length budget; expanding circle families route through the pullback
solver and the splice machinery. The product equivalence record runs one
variant on both factors and on their product at the shared modulus
delta_0 = min(delta_F, delta_G) and reports whether the results agree with
the factorwise conjunction ("consistent"). The h and s-limit equivalences
are provable from the max metric; the remaining tags are checked
empirically and labeled as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .errors import BranchDomainViolatedError, BudgetExceededError, ShadowlabError
from .families import (
    MapFamily,
    best_orbit,
    orbit_table,
    product_family,
    shadowing_orbit,
)
from .limits import limit_shadow_point
from .pseudo_orbits import inject_defects, perturb_orbit
from .solver import pull_back_chain, pullback_shadow

PROVEN_VARIANTS = ("h", "s_limit")
EMPIRICAL_VARIANTS = ("plain", "limit", "average", "asymptotic_average", "periodic", "lipschitz")
ALL_VARIANTS = PROVEN_VARIANTS + EMPIRICAL_VARIANTS


@dataclass(frozen=True)
class VariantBudget:
    """Resource knobs shared by every checker."""

    epsilon: float
    delta: float
    max_len: int = 6
    horizon: int = 64
    trials: int = 16
    seed: int = 0
    levels: int = 4
    enumeration_limit: int = 2_000_000
    lipschitz_bound: float = 2.0


@dataclass(frozen=True)
class CheckResult:
    variant: str
    passed: bool
    checked: int
    witness: Optional[tuple] = None
    detail: str = ""


# ---------------------------------------------------------------------------
# Finite-state enumeration


class _Counter:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int):
        self.count = 0
        self.limit = limit

    def tick(self, n: int = 1):
        self.count += n
        if self.count > self.limit:
            raise BudgetExceededError(f"enumeration exceeded {self.limit} nodes")


def _iter_finite_pseudo_orbits(
    family: MapFamily, delta: float, max_len: int, counter: _Counter
) -> Iterator[tuple]:
    """All delta-pseudo-orbits with 2..max_len points, depth first."""
    space = family.space_at(0)
    states = space.points

    def successors(i: int, x):
        fx = family.evaluate(i, x)
        return [q for q in states if space.distance(fx, q) < delta]

    def extend(prefix: tuple) -> Iterator[tuple]:
        counter.tick()
        if len(prefix) >= 2:
            yield prefix
        if len(prefix) >= max_len:
            return
        for q in successors(len(prefix) - 1, prefix[-1]):
            yield from extend(prefix + (q,))

    for s in states:
        yield from extend((s,))


# ---------------------------------------------------------------------------
# Variant checkers


def h_shadow_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Every finite pseudo-orbit is eps-shadowed with an exact final landing."""
    eps, delta = budget.epsilon, budget.delta
    if family.is_finite_state:
        space = family.space_at(0)
        orbits = orbit_table(family, budget.max_len - 1)
        counter = _Counter(budget.enumeration_limit)
        checked = 0
        for po in _iter_finite_pseudo_orbits(family, delta, budget.max_len, counter):
            checked += 1
            n = len(po) - 1
            landing = {y: orbit for y, orbit in orbits.items() if orbit[n] == po[n]}
            if shadowing_orbit(space, landing, po, eps) is None:
                return CheckResult("h", False, checked, witness=po)
        return CheckResult("h", True, checked)
    return _h_check_continuous(family, budget)


def _h_check_continuous(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Sampled pseudo-orbits, exact landing via the backward branch chain."""
    family.require_expanding()
    eps, delta = budget.epsilon, budget.delta
    checked = 0
    for t in range(budget.trials):
        x0 = family.space_at(0).random_point(random.Random(budget.seed + t))
        try:
            po = perturb_orbit(family, x0, budget.max_len - 1, delta, budget.seed + t)
        except ShadowlabError as exc:
            return CheckResult("h", False, checked, witness=(exc.code,))
        n = po.horizon
        images = [family.evaluate(j, po.points[j]) for j in range(n)]
        branches = [family.map_at(j).branch_of(po.points[j]) for j in range(n)]
        checked += 1
        try:
            z = pull_back_chain(family, images, branches, po.points[n])[0]
        except BranchDomainViolatedError:
            return CheckResult("h", False, checked, witness=po.points)
        orbit = family.compose(z, n).points
        landing = family.space_at(n).distance(orbit[n], po.points[n])
        if landing > 1e-10 or family.sup_distance(orbit, po.points, 0, n - 1) >= eps:
            return CheckResult("h", False, checked, witness=po.points)
    return CheckResult("h", True, checked)


def plain_shadow_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Every pseudo-orbit is eps-shadowed (no landing clause)."""
    eps, delta = budget.epsilon, budget.delta
    if family.is_finite_state:
        space = family.space_at(0)
        orbits = orbit_table(family, budget.max_len - 1)
        counter = _Counter(budget.enumeration_limit)
        checked = 0
        for po in _iter_finite_pseudo_orbits(family, delta, budget.max_len, counter):
            checked += 1
            if shadowing_orbit(space, orbits, po, eps) is None:
                return CheckResult("plain", False, checked, witness=po)
        return CheckResult("plain", True, checked)
    family.require_expanding()
    checked = 0
    for t in range(budget.trials):
        rng = random.Random(budget.seed + 1000 + t)
        x0 = family.space_at(0).random_point(rng)
        try:
            po = perturb_orbit(family, x0, budget.horizon, delta, budget.seed + t)
            report, _ = pullback_shadow(family, po, eps)
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
    if family.is_finite_state:
        head_len = max(2, budget.max_len // 2)
        counter = _Counter(budget.enumeration_limit)
        orbits = orbit_table(family, budget.max_len - 1)
        checked = 0
        for head in _iter_finite_pseudo_orbits(family, budget.delta, head_len, counter):
            po = list(head)
            while len(po) < budget.max_len:
                po.append(family.evaluate(len(po) - 1, po[-1]))
            checked += 1
            n = len(po) - 1
            if not any(orbit[n] == po[n] for orbit in orbits.values()):
                return CheckResult("limit", False, checked, witness=tuple(po))
        return CheckResult("limit", True, checked)
    # Continuous: synthetic harmonic defects scaled into the budget.
    defects = [budget.delta / (i + 1) for i in range(budget.horizon)]
    x0 = family.space_at(0).random_point(random.Random(budget.seed))
    po = inject_defects(family, x0, defects)
    try:
        result = limit_shadow_point(family, po, levels=budget.levels)
    except ShadowlabError as exc:
        return CheckResult("limit", False, 1, witness=(exc.code,))
    last = result.levels[-1]
    passed = result.table_nonincreasing and last.sup_error_vs_spliced < last.target
    return CheckResult(
        "limit",
        passed,
        len(result.levels),
        witness=None if passed else (last.level, last.sup_error_vs_spliced),
        detail=f"final window error {result.table[-1]:.3g}",
    )


def s_limit_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Both s-limit clauses from one shared delta: plain + limit."""
    plain = plain_shadow_check(family, budget)
    if not plain.passed:
        return CheckResult("s_limit", False, plain.checked, plain.witness, "clause (i) fails")
    lim = limit_check(family, budget)
    return CheckResult(
        "s_limit",
        lim.passed,
        plain.checked + lim.checked,
        lim.witness,
        "clause (ii) fails" if not lim.passed else "",
    )


def average_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Single-jump pseudo-orbits are shadowed in Cesaro mean below eps.

    Finite-horizon surrogate: a lone defective step in a window of max_len
    keeps the Cesaro defect below diam/max_len; some start point must then
    track the window with Cesaro error below eps.
    """
    if not family.is_finite_state:
        return CheckResult("average", False, 0, detail="finite-state families only")
    space = family.space_at(0)
    length = budget.max_len
    orbits = orbit_table(family, length)
    checked = 0
    for base in orbits.values():
        for jump_at in range(1, length + 1):
            for target in space.points:
                po = list(base[:jump_at]) + [target]
                for i in range(jump_at, length):
                    po.append(family.evaluate(i, po[-1]))
                checked += 1
                if best_orbit(space, orbits, po, mean=True)[1] >= budget.epsilon:
                    return CheckResult("average", False, checked, witness=tuple(po))
    return CheckResult("average", True, checked)


def asymptotic_average_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """At a finite horizon this coincides with the average surrogate."""
    result = average_check(family, budget)
    return replace(result, variant="asymptotic_average")


def periodic_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Closed pseudo-orbits are shadowed by points of the same period."""
    if not family.is_finite_state:
        return CheckResult("periodic", False, 0, detail="finite-state families only")
    space = family.space_at(0)
    orbits = orbit_table(family, budget.max_len - 1)
    counter = _Counter(budget.enumeration_limit)
    checked = 0
    for po in _iter_finite_pseudo_orbits(family, budget.delta, budget.max_len, counter):
        n = len(po) - 1
        if po[0] != po[n]:
            continue
        checked += 1
        closed = {y: orbit for y, orbit in orbits.items() if orbit[n] == y}
        if shadowing_orbit(space, closed, po, budget.epsilon) is None:
            return CheckResult("periodic", False, checked, witness=po)
    return CheckResult("periodic", True, checked)


def lipschitz_check(family: MapFamily, budget: VariantBudget) -> CheckResult:
    """Best-shadow error stays within lipschitz_bound times the defect size."""
    if not family.is_finite_state:
        return CheckResult("lipschitz", False, 0, detail="finite-state families only")
    space = family.space_at(0)
    orbits = orbit_table(family, budget.max_len - 1)
    counter = _Counter(budget.enumeration_limit)
    checked = 0
    for po in _iter_finite_pseudo_orbits(family, budget.delta, budget.max_len, counter):
        n = len(po) - 1
        defect = max(
            space.distance(family.evaluate(i, po[i]), po[i + 1]) for i in range(n)
        )
        if defect == 0.0:
            continue
        checked += 1
        if best_orbit(space, orbits, po)[1] > budget.lipschitz_bound * defect:
            return CheckResult("lipschitz", False, checked, witness=po)
    return CheckResult("lipschitz", True, checked)


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
    def checker(self):
        return VARIANT_CHECKERS[self.tag]

    @property
    def basis(self) -> str:
        return "proven" if self.tag in PROVEN_VARIANTS else "empirical"

    def run(self, family: MapFamily, budget: VariantBudget) -> CheckResult:
        return self.checker(family, budget)


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
    d0 = min(delta_left or budget.delta, delta_right or budget.delta)
    shared = replace(budget, delta=d0)
    res_left = tag.run(left, shared)
    res_right = tag.run(right, shared)
    res_prod = tag.run(product_family(left, right), shared)
    return EquivalenceRecord(
        variant=variant,
        basis=tag.basis,
        delta_shared=d0,
        factor_left=res_left,
        factor_right=res_right,
        product_result=res_prod,
    )
