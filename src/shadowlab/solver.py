"""Backward inverse-branch pullback: the core shadowing solver.

Given a budget-compliant pseudo-orbit of an expanding family, the solver
pulls the top cell, B(x_k, eps) & B(f(x_{k-1}), eps), backward through the
inverse branches selected along the pseudo-orbit. Branches are affine, so
one backward pass carries the centres z_j and a radius bound r_j scaled by
each branch's slope, rounded up and kept as (mantissa, exponent) so it never
underflows; the branch-domain and tube inclusions are checked with outward
rounding and no slack (Hammel, Yorke & Grebogi 1987; Coomes, Kocak & Palmer
1995). The shadow point is z_0. Its diameter certificate, 2 * epsilon *
prod(rates of the k inverted maps), is one round-to-nearest product kept as
(mantissa, exponent) so its log2 stays finite where the float underflows.

Pseudo-orbit points are canonical (validated where they entered), so each
solver resolves its maps once as a `MapFamily.window` and hands them with
the points to `pull_back_chain`, the one backward pass: its step j makes
three map calls, `apply`, `branch_of` and `pull` (the pulled-back centre and
its branch's slope), with no image or branch list and no re-validation, and
computes each level's float radius once. Callers that shadow many
pseudo-orbits of one shape share one `PullbackPlan` of the maps, budget and
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, inf, ldexp, nextafter
from typing import Optional, Sequence, Tuple

from .errors import (
    BranchDomainViolatedError,
    DeltaBudgetViolatedError,
    EmptyCellError,
    EpsilonTooLargeError,
    NonPeriodicInputError,
)
from .families import MapFamily
from .pseudo_orbits import PseudoOrbit
from .spaces import StateSpace

MARGIN = 0.98  # delta budgets sit at this fraction of the admissible interval
_FIXED_POINT_TOL = 1e-9
_MAX_ITERATIONS = 100_000
# Rounding allowance per backward step, in absolute terms. One inverse-branch
# evaluation on points of [0, 1), one distance and the sums of one check each
# miss their exact values by a few units of 2^-53; 2^-48 is 32 such units.
_ROUNDING = 2.0**-48
# The certificate's running product is rescaled only below this, far above
# the subnormal range, so each step rounds as the unscaled product would.
_RENORMALISE = 2.0**-511


def cell_pull(space: StateSpace, mapobj, branch, w, cell):
    """Image of a cell of `space` under the inverse branch of `mapobj` anchored at w."""
    return space.cell_pull(mapobj, branch, w, cell)


# ---------------------------------------------------------------------------
# Delta budgets


@dataclass(frozen=True)
class DeltaSchedule:
    """Admissible per-step defect bounds delta_n = margin * (1 - rate_n) * eps."""

    epsilon: float
    margin: float
    values: Tuple[float, ...]

    def check(self, defects: Sequence[float]) -> None:
        """The hypothesis gate: every defect strictly below its step's budget."""
        for n, defect in enumerate(defects):
            if defect >= self.values[n]:
                raise DeltaBudgetViolatedError(
                    f"defect {defect} at step {n} >= budget {self.values[n]}", witness=n
                )


def delta_budget(
    family: MapFamily, epsilon: float, margin: float = MARGIN, horizon: int = 64
) -> DeltaSchedule:
    """Per-step defect budget strictly inside the admissible interval.

    Requires eps < delta_0 / 2 so inverse branches cover the tube; the
    returned schedule also satisfies delta_n + rate_n * eps < eps, the
    inequality that keeps each pullback inside the next ball.
    """
    family.require_expanding()
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must be in (0,1)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if epsilon >= family.branch_radius / 2.0:
        raise EpsilonTooLargeError(
            f"epsilon {epsilon} >= delta_0/2 = {family.branch_radius / 2.0}"
        )
    values = []
    for n, lam in enumerate(family.rates(horizon)):
        delta = margin * (1.0 - lam) * epsilon
        if not delta + lam * epsilon < epsilon:
            raise EpsilonTooLargeError(
                f"budget inequality delta_n + rate_n*eps < eps fails at n={n}"
            )
        values.append(delta)
    return DeltaSchedule(epsilon=epsilon, margin=margin, values=tuple(values))


# ---------------------------------------------------------------------------
# Pullback solver


def _reach(distance: float, radius: float, steps: int) -> float:
    """Bound on a point's distance to the far side of a cell: the distance to its float centre,
    rounded up, plus the cell's radius and one allowance per rounded step behind that centre."""
    return nextafter(distance, inf) + radius + steps * _ROUNDING


@dataclass(frozen=True)
class PullbackChain:
    """Centres z_0..z_k of the pulled-back cells and (mantissa, exponent) bounds on their radii.

    The exact cell at level j lies within ldexp(*radii[j]) + (k - j + 1) * _ROUNDING
    of z_j: one allowance for the top cell and one per backward step.
    """

    centres: list
    radii: list

    def resolution_floor(self, space: StateSpace) -> Optional[int]:
        """The first level, counting down from the top, narrower than the float spacing at its centre."""
        for j in range(len(self.centres) - 1, -1, -1):
            if ldexp(self.radii[j][0], self.radii[j][1] + 1) < space.spacing(self.centres[j]):
                return j
        return None


@dataclass(frozen=True)
class ShadowReport:
    """Solver output: the shadow point with its certificates."""

    family_name: str
    shadow_point: object
    horizon: int
    epsilon: float
    per_step_errors: Tuple[float, ...]
    diameter_pair: Tuple[float, int]  # the certificate 2 eps * prod(rates), see certificate_pair
    measured_diameter: float
    resolution_floor_step: Optional[int]  # first level, from the top, narrower than a float step
    delta_schedule: Tuple[float, ...]
    max_defect: float
    verdict: bool

    @property
    def diameter_bound(self) -> float:
        """The certificate as a float: 0.0 once 2 eps * prod(rates) underflows."""
        return ldexp(*self.diameter_pair)


def certificate_pair(epsilon: float, maps: Sequence) -> Tuple[float, int]:
    """2 eps * prod(rates of `maps`) as (mantissa, exponent), the library's one product of rates.

    The rates are multiplied left to right and 2 eps applied last, as the
    float 2.0 * epsilon * math.prod(rates) would, with the running product
    rescaled by frexp whenever it falls below _RENORMALISE. Rescaling by a
    power of two is exact, so ldexp of the pair equals that float bit for
    bit wherever the float is normal, and its log2 stays finite beyond.
    """
    p, e = 1.0, 0
    for mapobj in maps:
        p *= mapobj.rate
        if p < _RENORMALISE:
            p, de = frexp(p)
            e += de
    m, de = frexp(2.0 * epsilon * p)
    return m, e + de


def pull_back_chain(
    family: MapFamily, maps: Sequence, points: Sequence, z, radius: float = 0.0,
    epsilon: Optional[float] = None,
) -> Tuple[list, list, list]:
    """(centres, radii, errors) of the backward branch chain from z_k = z with r_k = `radius`.

    Step j, for j < k = len(maps), computes w = f_j(x_j) and raises
    BranchDomainViolated unless the cell around z_{j+1} lies in the open
    branch domain B(w, delta_0); then one `pull` applies f_j's inverse branch
    through x_j, anchored at w, to z_{j+1} and gives that branch's slope s_j,
    and r_j = up(s_j * r_{j+1}). `points` may run past x_k. Given `epsilon`, each
    level j < k must lie in the closed ball B(x_j, epsilon), else EmptyCell,
    and errors[j] = d(z_j, x_j); without it, errors is empty.

    Branches are right inverses, so {z_j} is the exact orbit of z_0; the
    backward computation is contractive, hence float-stable, whereas naive
    forward iteration would amplify rounding by the full expansion factor.
    """
    k = len(maps)
    centres, radii = [None] * (k + 1), [None] * (k + 1)
    m, e = frexp(radius)
    centres[k], radii[k] = z, (m, e)
    r = ldexp(m, e)  # the float radius of the current level, for both of its checks
    distance, delta0 = family.space.distance, family.branch_radius
    errors = [] if epsilon is None else [distance(z, points[k])] * (k + 1)
    for j in range(k - 1, -1, -1):
        mapobj, x = maps[j], points[j]
        w = mapobj.apply(x)
        if _reach(distance(w, z), r, k - j) >= delta0:
            raise BranchDomainViolatedError(
                f"cell at step {j + 1} leaves the branch domain", witness=j + 1
            )
        z, slope = mapobj.pull(mapobj.branch_of(x), w, z)
        m, de = frexp(nextafter(slope * m, inf))
        e += de
        r = ldexp(m, e)
        centres[j], radii[j] = z, (m, e)
        if epsilon is not None:
            errors[j] = d = distance(z, x)
            if _reach(d, r, k - j + 1) > epsilon:
                raise EmptyCellError(f"cell at step {j} leaves the eps-tube", witness=j)
    return centres, radii, errors


@dataclass(frozen=True)
class PullbackPlan:
    """What every pullback on one (family, epsilon, margin, horizon) shares: the maps
    f_0 ... f_{horizon-1}, the delta budget and the diameter certificate."""

    family: MapFamily
    epsilon: float
    margin: float
    horizon: int
    maps: list
    budget: DeltaSchedule
    certificate: Tuple[float, int]


def pullback_plan(
    family: MapFamily, epsilon: float, margin: float = MARGIN, horizon: int = 64
) -> PullbackPlan:
    """The plan for pseudo-orbits of `horizon` steps; raises as `delta_budget` does."""
    budget = delta_budget(family, epsilon, margin=margin, horizon=max(horizon, 1))
    maps = family.window(horizon)
    return PullbackPlan(family, epsilon, margin, horizon, maps, budget, certificate_pair(epsilon, maps))


def pullback_shadow(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    margin: float = MARGIN,
    plan: Optional[PullbackPlan] = None,
) -> Tuple[ShadowReport, PullbackChain]:
    """Shadow a budget-compliant pseudo-orbit by backward pullback.

    Raises DeltaBudgetViolated when a defect exceeds its budget (the
    hypothesis gate), EmptyCell when the top cell is empty or a pulled-back
    cell leaves the eps-tube, and BranchDomainViolated when a cell escapes
    the branch domain; `plan` is built here when None, and one built for
    another family object, epsilon, margin or horizon raises ValueError.

    The verdict tests the top level alone. Every level j < k passed the tube
    check up(d_j) + r_j + allowance <= eps, a float sum of nonnegative terms
    that is at least up(d_j) > d_j, so d_j < eps already holds there; only
    the top centre, which may sit on the eps-sphere, can fail.
    """
    family.require_expanding()
    k = po.horizon
    plan = plan or pullback_plan(family, epsilon, margin, k)
    if plan.family is not family or (plan.epsilon, plan.margin, plan.horizon) != (epsilon, margin, k):
        raise ValueError("the plan was built for another family, epsilon, margin or horizon")
    plan.budget.check(po.defects)

    space, maps = family.space, plan.maps
    # The top cell B(x_k, eps) & B(f(x_{k-1}), eps) lies in the eps-ball at
    # level k by construction, touching its sphere whenever f(x_{k-1}) != x_k,
    # so only the levels below it are checked against the tube.
    top = space.make_ball(po.points[k], epsilon)
    if k:
        top = space.cell_intersect(top, space.make_ball(maps[k - 1].apply(po.points[k - 1]), epsilon))
        if top is None:
            raise EmptyCellError(f"pullback cell at step {k} is empty", witness=k)
    centre, radius = space.cell_center(top), space.cell_diameter(top) / 2.0
    centres, radii, errors = pull_back_chain(family, maps, po.points, centre, radius, epsilon)
    chain = PullbackChain(centres, radii)
    report = ShadowReport(
        family_name=family.name,
        shadow_point=centres[0],
        horizon=k,
        epsilon=epsilon,
        per_step_errors=tuple(errors),
        diameter_pair=plan.certificate,
        measured_diameter=ldexp(radii[0][0], radii[0][1] + 1),
        resolution_floor_step=chain.resolution_floor(space),
        delta_schedule=tuple(plan.budget.values[:k]),
        max_defect=po.max_defect,
        verdict=errors[k] < epsilon,
    )
    return report, chain


def periodic_shadow(family: MapFamily, po: PseudoOrbit, epsilon: float):
    """Shadow a periodic pseudo-orbit by a periodic point of the family.

    The period p is the least one of the points, and the map schedule must
    be a cycle whose length divides p, so F_p(x) = x is the right
    fixed-point equation. Iterates the period-long backward branch chain, a
    contraction with factor prod(rates over one period); the returned point
    x satisfies d(F_p(x), x) < 1e-9 (else NonPeriodicInput is raised) and
    eps-shadows over the stored horizon.
    """
    family.require_expanding()
    period = _detect_period(po)
    if period is None:
        raise NonPeriodicInputError("points have no period shorter than their count")
    map_period = family.maps.period
    if map_period is None or period % map_period != 0:
        raise NonPeriodicInputError(f"period {period} incompatible with map period {map_period}")

    budget = delta_budget(family, epsilon, horizon=max(po.horizon, period, 1))
    budget.check(po.defects)

    space = family.space
    maps = family.window(period)
    z = po.points[0]
    for _ in range(_MAX_ITERATIONS):
        centres = pull_back_chain(family, maps, po.points, z)[0]
        z_next = centres[0]
        if space.distance(z_next, z) < _FIXED_POINT_TOL / 2.0:
            z = z_next
            break
        z = z_next
    orbit = family.compose(z, period)
    residual = space.distance(orbit[period], z)
    if residual >= _FIXED_POINT_TOL:
        raise NonPeriodicInputError(
            f"fixed-point iteration stalled at residual {residual}"
        )
    # Errors over one period determine the whole horizon: the orbit of x is
    # p-periodic up to the fixed-point residual, and the pseudo-orbit repeats.
    errors = tuple(
        space.distance(orbit[i], po.points[i]) for i in range(period + 1)
    )
    return z, residual, errors


def _detect_period(po: PseudoOrbit) -> Optional[int]:
    n = len(po.points)
    for p in range(1, n):
        if all(po.points[i] == po.points[i % p] for i in range(n)):
            return p
    return None
