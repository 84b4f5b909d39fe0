"""Limit shadowing via preimage splicing.

Given a limit pseudo-orbit (defects tending to zero), each accuracy level
picks a cut past which the tail defects fit the family's shadowing modulus,
splices an exact preimage chain onto the tail, and shadows the spliced
orbit. The per-level shadow points y_n and their tail windows form the
convergence table; the limit point is accepted through a Cauchy criterion
on consecutive y_n. Cuts never decrease with the level, so levels that
share a cut are adjacent; they share one splice, and one shadow when the
oracle's effective accuracy is also the same. Only the previous level's
splice and shadow are kept alive. A splice computes head defects only for
an oracle that reads them (the pullback solver checks its defect budget).
Tail sups never rise and moduli never fall as the cut grows, so each level
bisects for its cut; the splice's tail is the data, so one distance pass
gives a level's sup and window errors; the last orbit serves the table.

Shadowing itself enters as a per-family oracle: exact transport for
isometry families, exhaustive search for finite-state families, and the
pullback solver for expanding families. The strong-equicontinuity modulus
of the paper's third result is exact, read from the same two flags that
pick the first two oracles: the least positive distance on a finite space,
epsilon on an isometry family; no other family has one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional, Sequence, Tuple

from .errors import (
    HypothesisFailedError,
    NoConvergenceError,
    NotEquicontinuousAtHorizonError,
    OracleUnavailableError,
    PreimageSearchFailedError,
)
from .families import FiniteKernel, MapFamily
from .pseudo_orbits import PseudoOrbit
from .solver import pullback_plan, pullback_shadow

CAUCHY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Strong equicontinuity (an exact modulus, read from the family)


def equicontinuity_modulus(family: MapFamily, epsilon: float) -> float:
    """A delta such that d(x, y) < delta keeps d(F(x), F(y)) < epsilon for every
    composition F = f_{m+n-1} o ... o f_m.

    On a finite space it is the least positive distance, below which points
    coincide; on an isometry family it is epsilon. A product is finite, or an
    isometry, exactly when both factors are. Any other family raises
    NotEquicontinuousAtHorizon with its name as witness.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if family.space.is_enumerable:
        return family.space.min_positive_distance()
    if family.is_isometry:
        return epsilon
    raise NotEquicontinuousAtHorizonError(
        f"family {family.name!r} is neither finite nor an isometry family", witness=family.name
    )


# ---------------------------------------------------------------------------
# Preimage splicing


@dataclass(frozen=True)
class SplicedOrbit:
    """Exact head landing on the original tail at the cut index."""

    cut_index: int
    head: tuple
    orbit: PseudoOrbit


def splice(family: MapFamily, po: PseudoOrbit, cut: int, *, reads_defects: bool = True) -> SplicedOrbit:
    """Replace the first `cut` points by an exact backward orbit of x_cut.

    Preimages are chosen closest to the original points (ties break toward
    the lower branch id), so the head stays near the data; any admissible
    selection satisfies the construction; a lone preimage is taken unscored.
    Step i inverts f_i. The cost is O(cut): the tail and its defects are
    reused. With reads_defects=False the head defects are skipped and the
    spliced orbit's defects are None.
    """
    if not 0 <= cut <= po.horizon:
        raise ValueError("cut must be within the horizon")
    if cut == 0:
        return SplicedOrbit(cut_index=0, head=(), orbit=po)
    z = po.points[cut]
    head = [None] * cut
    space = family.space
    maps = family.window(cut)
    for i in range(cut - 1, -1, -1):
        candidates = maps[i].preimages(z)
        if not candidates:
            raise PreimageSearchFailedError(f"no preimage of {z!r} under f_{i}", witness=i)
        best = 0 if len(candidates) == 1 else min(
            range(len(candidates)),
            key=lambda b: (space.distance(candidates[b], po.points[i]), b),
        )
        z = candidates[best]
        head[i] = z
    return SplicedOrbit(cut_index=cut, head=tuple(head), orbit=po.with_head(head, defects=reads_defects))


# ---------------------------------------------------------------------------
# Per-family shadowing oracles: modulus(target, cut, horizon) bounds the
# defects admissible on the tail steps [cut, horizon) of a splice at `cut`,
# and never falls as `cut` grows. shadow(po, target, lo, hi) returns y, its
# sup errors against po overall and on [lo, hi], and its orbit (or None).


class TransportOracle:
    """Isometry families: the spliced head start shadows by direct transport."""

    reads_defects = False  # whether shadow() reads the orbit's defects

    def __init__(self, family: MapFamily):
        if not family.is_isometry:
            raise OracleUnavailableError("transport oracle needs an isometry family")
        self.family = family

    def modulus(self, target: float, cut: int, horizon: int) -> float:
        # Drift accumulates at most one defect per remaining step.
        return target / max(horizon - cut, 1)

    def accuracy(self, target: float) -> None:
        # The transported orbit does not depend on the target.
        return None

    def shadow(self, po: PseudoOrbit, target: float, lo: int, hi: int):
        y = po.points[0]
        orbit = self.family.compose(y, po.horizon)
        # One pass over the distances, read in three stretches: before, on and after [lo, hi].
        errors = map(self.family.space.distance, orbit, po.points)
        head = max(islice(errors, lo), default=0.0)
        window = max(islice(errors, hi - lo + 1), default=0.0)
        return y, max(head, window, max(errors, default=0.0)), window, orbit


class ExhaustiveOracle:
    """Finite-state families: scan every start point for the best sup error."""

    reads_defects = False

    def __init__(self, family: MapFamily):
        if not family.space.is_enumerable:
            raise OracleUnavailableError("exhaustive oracle needs a finite state family")
        self.family = family
        self.kernels = {}  # horizon -> FiniteKernel, shared by every level
        self.min_distance = family.space.min_positive_distance()

    def modulus(self, target: float, cut: int, horizon: int) -> float:
        return self.min_distance

    def accuracy(self, target: float) -> None:
        # The best orbit does not depend on the target.
        return None

    def shadow(self, po: PseudoOrbit, target: float, lo: int, hi: int):
        kernel = self.kernels.get(po.horizon)
        if kernel is None:
            kernel = self.kernels[po.horizon] = FiniteKernel(self.family, po.horizon)
        target = list(map(kernel.code.__getitem__, po.points))
        y, err, orbit = kernel.best(target, range(len(kernel.points)), False)
        orbit = kernel.witness(orbit)
        return kernel.points[y], err, self.family.sup_distance(orbit, po.points, lo, hi), orbit


class PullbackOracle:
    """Expanding families: shadow through the inverse-branch solver."""

    reads_defects = True  # pullback_shadow checks the defect budget

    def __init__(self, family: MapFamily):
        family.require_expanding()
        self.family = family
        self.plan = self.minima = None  # the latest plan; minima[n] = min of its budgets from n on

    def accuracy(self, target: float) -> float:
        """The solver's epsilon at this target; equal epsilons shadow alike."""
        return min(target, 0.99 * self.family.branch_radius / 2.0)

    def _plan(self, eps: float, horizon: int):
        """The pullback plan for (eps, horizon), shared by the modulus and the shadows."""
        plan = self.plan
        if plan is None or (plan.epsilon, plan.horizon) != (eps, horizon):
            plan = self.plan = pullback_plan(self.family, eps, horizon=horizon)
            values = plan.budget.values
            minima = self.minima = list(accumulate(reversed(values), min))[::-1]
            minima.append(minima[-1])
        return plan

    def modulus(self, target: float, cut: int, horizon: int) -> float:
        """The least `delta_budget` value over the tail steps [cut, horizon), the budgets
        pullback_shadow checks the tail's defects against; an empty tail reads the last step's."""
        self._plan(self.accuracy(target), horizon)
        return self.minima[cut]

    def shadow(self, po: PseudoOrbit, target: float, lo: int, hi: int):
        eps = self.accuracy(target)
        report, _ = pullback_shadow(self.family, po, eps, plan=self._plan(eps, po.horizon))
        # The certified sup error bounds the window's errors too.
        err = max(report.per_step_errors)
        return report.shadow_point, err, err, None


def shadowing_oracle(family: MapFamily):
    if family.space.is_enumerable:
        return ExhaustiveOracle(family)
    if family.is_isometry:
        return TransportOracle(family)
    if family.expanding:
        return PullbackOracle(family)
    raise OracleUnavailableError(
        f"no shadowing oracle for family {family.name!r}"
    )


# ---------------------------------------------------------------------------
# The limit-shadowing construction


@dataclass(frozen=True)
class LevelRecord:
    level: int
    target: float
    cut: int
    delta: float
    point: object
    sup_error_vs_spliced: float
    window_error: float


@dataclass(frozen=True)
class LimitShadowResult:
    point: object
    converged: bool
    cauchy_gaps: Tuple[float, ...]
    levels: Tuple[LevelRecord, ...]
    table: Tuple[float, ...]

    @property
    def table_nonincreasing(self) -> bool:
        return all(b <= a + 1e-15 for a, b in zip(self.table, self.table[1:]))


def _tail_sups(values: Sequence[float]) -> tuple:
    """tails[n] = sup of values[i] over i >= n, with tails[len(values)] = 0.0."""
    return tuple(accumulate(map(float, reversed(values)), max, initial=0.0))[::-1]


def _find_cut(
    defect_tails: Sequence[float], horizon: int, oracle, target: float, start: int = 0
) -> Optional[int]:
    """The first k >= start whose tail sup lies strictly below the modulus, or None; the test
    passes on a suffix of the cuts (tails never rise, moduli never fall), so bisection finds it."""
    cuts = range(start, horizon + 1)
    i = bisect_left(cuts, True, key=lambda k: defect_tails[k] < oracle.modulus(target, k, horizon))
    return cuts[i] if i < len(cuts) else None


def _window_hi(cut: int, horizon: int) -> int:
    return min(max(2 * cut, cut + 1), horizon)


def limit_shadow_point(family: MapFamily, po: PseudoOrbit, levels: int) -> LimitShadowResult:
    """Per-level splice-and-shadow with a Cauchy acceptance on the y_n.

    The convergence table holds, per level n, the worst distance between the
    returned point's orbit and the pseudo-orbit over the window
    [k_n, min(2 k_n, horizon)] (the tail scope the construction controls;
    ahead of the cut the spliced head replaces the data). When no two
    consecutive y_n fall within 1e-9 the result reports converged=False and
    carries the final level's point; NoConvergence is raised only when no
    level admits a cut at all.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    oracle = shadowing_oracle(family)
    horizon = po.horizon
    # Limit pseudo-orbit gate: the final-quarter tail must already sit below
    # the deepest level's target, else the per-level claims are vacuous
    # (a full-horizon splice "shadows" anything).
    tail_sups = _tail_sups(po.defects)
    final_quarter = tail_sups[int(0.75 * horizon)]
    if final_quarter >= 1.0 / levels:
        raise HypothesisFailedError(
            f"tail defects {final_quarter} do not fall "
            f"below the deepest target {1.0 / levels}; not a limit pseudo-orbit "
            "at this horizon"
        )
    records = []
    # Only the previous level's splice and shadow are kept: a smaller target
    # never admits an earlier cut, so levels sharing a cut are adjacent.
    spliced = shadowed = None
    for n in range(1, levels + 1):
        target = 1.0 / n
        cut = _find_cut(
            tail_sups, horizon, oracle, target, spliced.cut_index if spliced else 0
        )
        if cut is None:
            break  # no deeper level admits a cut either
        accuracy = oracle.accuracy(target)
        if spliced is None or spliced.cut_index != cut:
            spliced = shadowed = None  # release the previous level first
            spliced = splice(family, po, cut, reads_defects=oracle.reads_defects)
        if shadowed is None or shadowed[0] != accuracy:
            # The splice's tail is the data: its window [cut, hi] measures the data.
            shadowed = (accuracy, *oracle.shadow(spliced.orbit, target, cut, _window_hi(cut, horizon)))
        y, sup_err, window_err = shadowed[1:4]  # the orbit stays in `shadowed` alone
        records.append(
            LevelRecord(
                level=n,
                target=target,
                cut=cut,
                delta=oracle.modulus(target, cut, horizon),
                point=y,
                sup_error_vs_spliced=sup_err,
                window_error=window_err,
            )
        )
    if not records:
        raise NoConvergenceError("no level admits a cut within the horizon")

    points = [rec.point for rec in records]
    gaps = tuple(
        family.space.distance(a, b) for a, b in zip(points, points[1:])
    )
    converged = any(g < CAUCHY_TOL for g in gaps)
    y_final = points[-1]

    # Final table: the returned point measured on every level's window.
    windows = [_window_hi(rec.cut, horizon) for rec in records]
    if isinstance(oracle, PullbackOracle):
        # Forward float iteration is unstable for expanding families;
        # bound via the last level's certified errors plus the head gap,
        # measured on the last level's splice.
        last = records[-1]
        table = [
            last.sup_error_vs_spliced
            + family.sup_distance(spliced.orbit.points, po.points, rec.cut, min(hi, last.cut - 1))
            for rec, hi in zip(records, windows)
        ]
    else:
        # The last level's orbit is y_final's, out to the horizon.
        orbit = shadowed[-1]
        table = [
            family.sup_distance(orbit, po.points, rec.cut, hi)
            for rec, hi in zip(records, windows)
        ]
    return LimitShadowResult(
        point=y_final,
        converged=converged,
        cauchy_gaps=gaps,
        levels=tuple(records),
        table=tuple(table),
    )
