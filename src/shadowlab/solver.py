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
    SupRateNotBoundedError,
)
from .families import MapFamily
from .pseudo_orbits import PseudoOrbit, perturb_orbit
from .spaces import StateSpace

_SLACK = 1e-12


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

    def at(self, n: int) -> float:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    def check(self, defects: Sequence[float]) -> None:
        """The hypothesis gate: every defect strictly below its step's budget."""
        for n, defect in enumerate(defects):
            if defect >= self.values[n]:
                raise DeltaBudgetViolatedError(
                    f"defect {defect} at step {n} >= budget {self.values[n]}", witness=n
                )


def delta_budget(
    family: MapFamily, epsilon: float, margin: float = 0.98, horizon: int = 64
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
    for n in range(horizon):
        lam = family.rate_at(n)
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


@dataclass(frozen=True)
class PullbackChain:
    cells: Tuple[PullbackCell, ...]

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
    return 2.0 * epsilon * math.prod(family.rate_at(j) for j in range(k))


def pull_back_chain(family: MapFamily, images: Sequence, branches: Sequence, z) -> list:
    """[z_0, ..., z_k] with z_k = z and z_j the branch preimage of z_{j+1}.

    Step j applies the inverse branch `branches[j]` of f_j anchored at
    `images[j]`; it raises BranchDomainViolated when z_{j+1} lies outside
    that branch's domain B(images[j], delta_0).
    """
    k = len(images)
    chain = [None] * (k + 1)
    chain[k] = z
    space = family.space
    for j in range(k - 1, -1, -1):
        if space.distance(images[j], z) >= family.branch_radius:
            raise BranchDomainViolatedError(
                f"backward iterate leaves branch domain at step {j}", witness=j
            )
        z = space.reduce(family.map_at(j).inverse_branch_point(branches[j], images[j], z))
        chain[j] = z
    return chain


def pullback_shadow(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    margin: float = 0.98,
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
    images = [family.evaluate(j, po.points[j]) for j in range(k)]
    branches = [family.map_at(j).branch_of(po.points[j]) for j in range(k)]

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
            raise EmptyCellError(
                f"pullback cell at step {j + 1} is empty", witness=j + 1
            )
        if space.cell_max_distance(inter, images[j]) >= family.branch_radius + _SLACK:
            raise BranchDomainViolatedError(
                f"cell at step {j + 1} leaves the branch domain", witness=j + 1
            )
        chain[j + 1] = inter
        cell = space.cell_pull(family.map_at(j), branches[j], images[j], inter)
        chain[j] = cell

    # Point pass: pull the top cell's center backward through the branches.
    # Branches are right inverses, so {z_j} is the exact orbit of z_0; the
    # backward computation is contractive, hence float-stable, whereas naive
    # forward iteration would amplify rounding by the full expansion factor.
    orbit_points = pull_back_chain(family, images, branches, space.cell_center(chain[k]))
    shadow = orbit_points[0]
    errors = tuple(
        space.distance(orbit_points[j], po.points[j]) for j in range(k + 1)
    )
    bound = diameter_certificate(family, epsilon, k)
    measured = space.cell_diameter(chain[0])
    report = ShadowReport(
        family_name=family.name,
        shadow_point=shadow,
        horizon=k,
        epsilon=epsilon,
        per_step_errors=errors,
        diameter_bound=bound,
        measured_diameter=measured,
        delta_schedule=tuple(budget.values[:k]),
        max_defect=po.max_defect,
        verdict=all(e < epsilon for e in errors),
    )
    cells = tuple(
        PullbackCell(
            time_index=j,
            center=space.cell_center(chain[j]),
            radius=space.cell_diameter(chain[j]) / 2.0,
            raw=chain[j],
        )
        for j in range(k + 1)
    )
    return report, PullbackChain(cells=cells)


def uniqueness_certificate(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    k: int,
    margin: float = 0.98,
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
    bound = diameter_certificate(family, epsilon, k)
    if report.measured_diameter > bound + _SLACK:
        raise EmptyCellError(
            f"measured diameter {report.measured_diameter} exceeds certificate {bound}"
        )
    return bound


def periodic_shadow(
    family: MapFamily,
    po: PseudoOrbit,
    epsilon: float,
    margin: float = 0.98,
    period: Optional[int] = None,
    fixed_point_tol: float = 1e-9,
    max_iterations: int = 100_000,
):
    """Shadow a periodic pseudo-orbit by a periodic point of the family.

    Iterates the period-long backward branch chain, a contraction with
    factor prod(rates over one period); the returned point x satisfies
    d(F_p(x), x) < fixed_point_tol and eps-shadows over the stored horizon.
    The map schedule itself must be p-periodic for F_p(x) = x to be the
    right fixed-point equation.
    """
    family.require_expanding()
    if period is None:
        period = _detect_period(po)
    if period is None or any(
        po.points[i] != po.points[i % period] for i in range(len(po.points))
    ):
        raise NonPeriodicInputError(f"points are not {period}-periodic", witness=period)
    map_period = family.maps.period
    if map_period is None or period % map_period != 0:
        raise NonPeriodicInputError(f"period {period} incompatible with map period {map_period}")

    budget = delta_budget(family, epsilon, margin=margin, horizon=max(po.horizon, period, 1))
    budget.check(po.defects)

    space = family.space
    images = [family.evaluate(j, po.points[j]) for j in range(period)]
    branches = [family.map_at(j).branch_of(po.points[j]) for j in range(period)]

    z = po.points[0]
    for _ in range(max_iterations):
        z_next = pull_back_chain(family, images, branches, z)[0]
        if space.distance(z_next, z) < fixed_point_tol / 2.0:
            z = z_next
            break
        z = z_next
    orbit = family.compose(z, period)
    residual = space.distance(orbit.points[period], z)
    if residual >= fixed_point_tol:
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


# ---------------------------------------------------------------------------
# Lipschitz shadowing report


@dataclass(frozen=True)
class LipschitzReport:
    """Observed error/defect ratios against the geometric-series certificate."""

    certificate: float
    sup_rate: float
    deltas: Tuple[float, ...]
    ratios: Tuple[float, ...]

    @property
    def holds(self) -> bool:
        return all(r <= self.certificate for r in self.ratios)


def lipschitz_report(
    family: MapFamily,
    deltas: Sequence[float],
    horizon: int = 64,
    seed: int = 0,
    margin: float = 0.98,
) -> LipschitzReport:
    """Run shadowing trials and report max error / delta per trial.

    Only meaningful when sup of the rates is certified below 1; the
    certificate is L = 1/(1 - sup rate).
    """
    if family.sup_rate is None or not family.sup_rate < 1.0:
        raise SupRateNotBoundedError(
            f"family {family.name!r} has no certified sup rate below 1"
        )
    certificate = 1.0 / (1.0 - family.sup_rate)
    ratios = []
    for t, delta in enumerate(deltas):
        epsilon = delta / ((1.0 - family.sup_rate) * margin)
        x0 = 0.1 + 0.7 * ((seed + t) % 7) / 7.0
        po = perturb_orbit(family, x0, horizon, delta, seed + t)
        report, _ = pullback_shadow(family, po, epsilon, margin=margin)
        ratios.append(max(report.per_step_errors) / delta)
    result = LipschitzReport(
        certificate=certificate,
        sup_rate=family.sup_rate,
        deltas=tuple(float(d) for d in deltas),
        ratios=tuple(ratios),
    )
    if not result.holds:
        raise SupRateNotBoundedError(
            f"observed ratio {max(ratios)} exceeds certificate {certificate}"
        )
    return result
