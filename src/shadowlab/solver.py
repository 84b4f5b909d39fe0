"""Backward inverse-branch pullback: the core shadowing solver.

Given a budget-compliant pseudo-orbit of an expanding family, the solver
pulls the closed epsilon-ball at the final point backward through the
inverse branches selected along the pseudo-orbit, intersecting with the
epsilon-ball around each image point on the way. Cells are circle arcs and
componentwise pairs of them on products, computed by the spaces' own cell
calculus in floats; inclusions and the branch-domain check allow a 1e-12
slack (rigorous outward rounding is still open).
The final cell's center is the returned shadow point; its certified diameter
bound is 2 * epsilon * prod(rates of the k inverted maps).

Pseudo-orbit points are canonical (validated where they entered), so each
solver resolves its maps once as a `MapFamily.window` and calls `apply`,
`branch_of`, `inverse_branch_point` and `rate` on it with no re-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

_SLACK = 1e-12
MARGIN = 0.98  # delta budgets sit at this fraction of the admissible interval
_FIXED_POINT_TOL = 1e-9
_MAX_ITERATIONS = 100_000


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
    for n, lam in enumerate(m.rate for m in family.window(0, horizon)):
        delta = margin * (1.0 - lam) * epsilon
        if not delta + lam * epsilon < epsilon:
            raise EpsilonTooLargeError(
                f"budget inequality delta_n + rate_n*eps < eps fails at n={n}"
            )
        values.append(delta)
    return DeltaSchedule(epsilon=epsilon, margin=margin, values=tuple(values))


# ---------------------------------------------------------------------------
# Pullback solver


@dataclass(frozen=True)
class PullbackCell:
    time_index: int
    center: object
    radius: float
    raw: object = None


class _LazyCells(Sequence):
    """PullbackCells over raw cells by time index, each built when read."""

    def __init__(self, space: StateSpace, raw: list):
        self.space, self.raw = space, raw

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index):
        j = range(len(self.raw))[index]
        if isinstance(j, range):
            return tuple(map(self.__getitem__, j))
        raw = self.raw[j]
        return PullbackCell(j, self.space.cell_center(raw), self.space.cell_diameter(raw) / 2.0, raw)


@dataclass(frozen=True)
class PullbackChain:
    """Cells by time index; `pullback_shadow` passes a view that builds them on read."""

    cells: Sequence[PullbackCell]

    def validate_tube(self, po: PseudoOrbit, epsilon: float) -> None:
        """Every cell sits inside the eps-tube around the pseudo-orbit.

        Uses the exact cell geometry: on products, center distance plus the
        max-radius summary would mix components and overstate the extent.
        """
        space = po.family.space
        for cell in self.cells:
            x = po.points[cell.time_index]
            extent = space.cell_max_distance(cell.raw, x)
            if extent > epsilon + _SLACK:
                raise ValueError(
                    f"cell at {cell.time_index} leaves the tube: {extent} > {epsilon}"
                )


@dataclass(frozen=True)
class ShadowReport:
    """Solver output: the shadow point with its certificates."""

    family_name: str
    shadow_point: object
    horizon: int
    epsilon: float
    per_step_errors: Tuple[float, ...]
    diameter_bound: float
    measured_diameter: float
    delta_schedule: Tuple[float, ...]
    max_defect: float
    verdict: bool


def diameter_certificate(family: MapFamily, epsilon: float, k: int) -> float:
    """2 eps * product of the k inverted maps' contraction rates."""
    return _diameter_bound(epsilon, family.window(0, k))


def _diameter_bound(epsilon: float, maps: Sequence) -> float:
    return 2.0 * epsilon * math.prod(m.rate for m in maps)


def pull_back_chain(family: MapFamily, maps: Sequence, images: Sequence, branches: Sequence, z) -> list:
    """[z_0, ..., z_k] with z_k = z and z_j the branch preimage of z_{j+1}.

    Step j applies the inverse branch `branches[j]` of `maps[j]` = f_j
    anchored at `images[j]`; it raises BranchDomainViolated when z_{j+1}
    lies outside that branch's domain B(images[j], delta_0).
    """
    k = len(images)
    chain = [None] * (k + 1)
    chain[k] = z
    distance, radius = family.space.distance, family.branch_radius
    for j in range(k - 1, -1, -1):
        if distance(images[j], z) >= radius:
            raise BranchDomainViolatedError(
                f"backward iterate leaves branch domain at step {j}", witness=j
            )
        z = maps[j].inverse_branch_point(branches[j], images[j], z)
        chain[j] = z
    return chain


def pullback_shadow(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    margin: float = MARGIN,
    check_budget: bool = True,
) -> Tuple[ShadowReport, PullbackChain]:
    """Shadow a budget-compliant pseudo-orbit by backward pullback.

    Raises DeltaBudgetViolated when a defect exceeds its budget (the
    hypothesis gate), EmptyCell when an intersection vanishes, and
    BranchDomainViolated when a cell escapes the branch domain.
    """
    family.require_expanding()
    k = po.horizon
    budget = delta_budget(family, epsilon, margin=margin, horizon=max(k, 1))
    if check_budget:
        budget.check(po.defects)

    space = family.space
    maps = family.window(0, k)
    images = [m.apply(x) for m, x in zip(maps, po.points)]
    branches = [m.branch_of(x) for m, x in zip(maps, po.points)]

    # Backward cell pass. chain[j] is the intersected cell at level j for
    # j >= 1 and the fully pulled-back cell at level 0; under the defect
    # budget the intersections below the top are no-ops, so the diameter
    # contracts by the branch rate at every pullback.
    chain = [None] * (k + 1)
    cell = space.make_ball(po.points[k], epsilon)
    if k == 0:
        chain[0] = cell
    for j in range(k - 1, -1, -1):
        inter = space.cell_intersect(cell, space.make_ball(images[j], epsilon))
        if inter is None:
            raise EmptyCellError(f"pullback cell at step {j + 1} is empty", witness=j + 1)
        if space.cell_max_distance(inter, images[j]) >= family.branch_radius + _SLACK:
            raise BranchDomainViolatedError(
                f"cell at step {j + 1} leaves the branch domain", witness=j + 1
            )
        chain[j + 1] = inter
        cell = space.cell_pull(maps[j], branches[j], images[j], inter)
        chain[j] = cell

    # Point pass: pull the top cell's center backward through the branches.
    # Branches are right inverses, so {z_j} is the exact orbit of z_0; the
    # backward computation is contractive, hence float-stable, whereas naive
    # forward iteration would amplify rounding by the full expansion factor.
    orbit_points = pull_back_chain(family, maps, images, branches, space.cell_center(chain[k]))
    errors = tuple(map(space.distance, orbit_points, po.points))
    report = ShadowReport(
        family_name=family.name,
        shadow_point=orbit_points[0],
        horizon=k,
        epsilon=epsilon,
        per_step_errors=errors,
        diameter_bound=_diameter_bound(epsilon, maps),
        measured_diameter=space.cell_diameter(chain[0]),
        delta_schedule=tuple(budget.values[:k]),
        max_defect=po.max_defect,
        verdict=all(e < epsilon for e in errors),
    )
    return report, PullbackChain(cells=_LazyCells(space, chain))


def uniqueness_certificate(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    k: int,
    margin: float = MARGIN,
) -> float:
    """Certified diameter of the horizon-k shadow cell.

    Any two eps-shadowing points of the same pseudo-orbit lie within this
    value of each other. The measured cell is checked against it.
    """
    if k > po.horizon:
        raise ValueError("k exceeds the pseudo-orbit horizon")
    truncated = PseudoOrbit(
        family=family,
        start_index=po.start_index,
        points=po.points[: k + 1],
        defects=po.defects[:k],
    )
    report, _ = pullback_shadow(family, truncated, epsilon, margin=margin)
    bound = report.diameter_bound
    if report.measured_diameter > bound + _SLACK:
        raise EmptyCellError(
            f"measured diameter {report.measured_diameter} exceeds certificate {bound}"
        )
    return bound


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
    maps = family.window(0, period)
    images = [m.apply(po.points[j]) for j, m in enumerate(maps)]
    branches = [m.branch_of(po.points[j]) for j, m in enumerate(maps)]

    z = po.points[0]
    for _ in range(_MAX_ITERATIONS):
        z_next = pull_back_chain(family, maps, images, branches, z)[0]
        if space.distance(z_next, z) < _FIXED_POINT_TOL / 2.0:
            z = z_next
            break
        z = z_next
    orbit = family.compose(z, period)
    residual = space.distance(orbit.points[period], z)
    if residual >= _FIXED_POINT_TOL:
        raise NonPeriodicInputError(
            f"fixed-point iteration stalled at residual {residual}"
        )
    # Errors over one period determine the whole horizon: the orbit of x is
    # p-periodic up to the fixed-point residual, and the pseudo-orbit repeats.
    errors = tuple(
        space.distance(orbit.points[i], po.points[i]) for i in range(period + 1)
    )
    return z, residual, errors


def _detect_period(po: PseudoOrbit) -> Optional[int]:
    n = len(po.points)
    for p in range(1, n):
        if all(po.points[i] == po.points[i % p] for i in range(n)):
            return p
    return None
