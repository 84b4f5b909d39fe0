"""Limit shadowing via preimage splicing.

Given a limit pseudo-orbit (defects tending to zero), each accuracy level
picks a cut past which the tail defects fit the family's shadowing modulus,
splices an exact preimage chain onto the tail, and shadows the spliced
orbit. The per-level shadow points y_n and their tail windows form the
convergence table; the limit point is accepted through a Cauchy criterion
on consecutive y_n.

Shadowing itself enters as a per-family oracle: exact transport for
isometry families, exhaustive search for finite-state families, and the
pullback solver for expanding families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    HypothesisFailedError,
    NoConvergenceError,
    NotEquicontinuousAtHorizonError,
    OracleUnavailableError,
    PreimageSearchFailedError,
)
from .families import MapFamily, best_orbit, orbit_table
from .pseudo_orbits import DefectProfile, PseudoOrbit
from .solver import pullback_shadow

CAUCHY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Strong equicontinuity (empirical modulus, never a certificate)


@dataclass(frozen=True)
class EquicontinuityEstimate:
    epsilon: float
    horizon: int
    modulus: float
    ladder: Tuple[Tuple[float, bool], ...]
    note: str = "empirical estimate from sampled pairs; not a certificate"


def equicontinuity_modulus(
    family: MapFamily,
    epsilon: float,
    samples: int = 64,
    horizon: int = 32,
    ladder_depth: int = 10,
    seed: int = 0,
) -> EquicontinuityEstimate:
    """Largest dyadic rung delta with all sampled delta-close pairs staying
    epsilon-close under every composition window within the horizon.

    Expanding families fail every rung (pairs separate geometrically), which
    is the expected outcome, reported as NotEquicontinuousAtHorizon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = random.Random(seed)
    ladder = [epsilon * 0.5**k for k in range(ladder_depth)]
    results = []
    passing = None
    starts = list(range(0, min(horizon, 8)))
    space = family.space
    for rung in ladder:
        ok = True
        for m in starts:
            pairs = []
            for _ in range(max(4, samples // max(1, len(starts)))):
                x = space.random_point(rng)
                pairs.append((x, space.displace(x, rng.random() * rung, 1)))
            # Adversarial pair right at the rung boundary.
            x = space.random_point(rng)
            pairs.append((x, space.displace(x, rung * 0.999, 1)))
            for x, y in pairs:
                a, b = x, y
                for n in range(m, horizon):
                    if space.distance(a, b) >= epsilon:
                        ok = False
                        break
                    a = family.evaluate(n, a)
                    b = family.evaluate(n, b)
                if ok and space.distance(a, b) >= epsilon:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        results.append((rung, ok))
        if ok:
            passing = rung
            break
    if passing is None:
        raise NotEquicontinuousAtHorizonError(
            f"no rung of the dyadic ladder down to {ladder[-1]} passes at horizon {horizon}",
            witness=tuple(results),
        )
    return EquicontinuityEstimate(
        epsilon=epsilon,
        horizon=horizon,
        modulus=passing,
        ladder=tuple(results),
    )


# ---------------------------------------------------------------------------
# Preimage splicing


@dataclass(frozen=True)
class SplicedOrbit:
    """Exact head landing on the original tail at the cut index."""

    cut_index: int
    head: tuple
    orbit: PseudoOrbit

    def head_is_exact(self, tol: float = 1e-10) -> bool:
        fam = self.orbit.family
        for i in range(self.cut_index):
            nxt = self.orbit.points[i + 1]
            if fam.space.distance(fam.evaluate(i, self.orbit.points[i]), nxt) > tol:
                return False
        return True


def splice(family: MapFamily, po: PseudoOrbit, cut: int) -> SplicedOrbit:
    """Replace the first `cut` points by an exact backward orbit of x_cut.

    Preimages are chosen closest to the original points (ties break toward
    the lower branch id), so the head stays near the data; any admissible
    selection satisfies the construction.
    """
    if not 0 <= cut <= po.horizon:
        raise ValueError("cut must be within the horizon")
    if cut == 0:
        return SplicedOrbit(cut_index=0, head=(), orbit=po)
    z = po.points[cut]
    head = [None] * cut
    space = family.space
    for i in range(cut - 1, -1, -1):
        candidates = family.map_at(i).preimages(z)
        if not candidates:
            raise PreimageSearchFailedError(
                f"no preimage of {z!r} under f_{i}", witness=i
            )
        best = min(
            range(len(candidates)),
            key=lambda b: (space.distance(candidates[b], po.points[i]), b),
        )
        z = space.reduce(candidates[best])
        head[i] = z
    points = tuple(head) + po.points[cut:]
    return SplicedOrbit(
        cut_index=cut,
        head=tuple(head),
        orbit=PseudoOrbit.from_points(family, points, start_index=po.start_index),
    )


# ---------------------------------------------------------------------------
# Per-family shadowing oracles


class TransportOracle:
    """Isometry families: the spliced head start shadows by direct transport."""

    def __init__(self, family: MapFamily):
        if not family.is_isometry:
            raise OracleUnavailableError("transport oracle needs an isometry family")
        self.family = family

    def modulus(self, target: float, tail_length: int) -> float:
        # Drift accumulates at most one defect per remaining step.
        return target / max(tail_length, 1)

    def shadow(self, po: PseudoOrbit, target: float):
        y = po.points[0]
        orbit = self.family.compose(y, po.horizon).points
        return y, self.family.sup_distance(orbit, po.points, 0, po.horizon), orbit


class ExhaustiveOracle:
    """Finite-state families: scan every start point for the best sup error."""

    def __init__(self, family: MapFamily):
        if not family.space.is_enumerable:
            raise OracleUnavailableError("exhaustive oracle needs a finite state family")
        self.family = family
        self.tables = {}  # horizon -> orbit table, shared by every level

    def modulus(self, target: float, tail_length: int) -> float:
        return self.family.space.min_positive_distance()

    def shadow(self, po: PseudoOrbit, target: float):
        orbits = self.tables.get(po.horizon)
        if orbits is None:
            orbits = self.tables[po.horizon] = orbit_table(self.family, po.horizon)
        return best_orbit(self.family.space, orbits, po.points)


class PullbackOracle:
    """Expanding families: shadow through the inverse-branch solver."""

    def __init__(self, family: MapFamily, margin: float = 0.98):
        family.require_expanding()
        self.family = family
        self.margin = margin

    def epsilon_for(self, target: float) -> float:
        return min(target, 0.99 * self.family.branch_radius / 2.0)

    def modulus(self, target: float, tail_length: int) -> float:
        eps = self.epsilon_for(target)
        rates = [self.family.rate_at(n) for n in range(max(tail_length, 1))]
        return self.margin * (1.0 - max(rates)) * eps

    def shadow(self, po: PseudoOrbit, target: float):
        eps = self.epsilon_for(target)
        report, _ = pullback_shadow(self.family, po, eps, margin=self.margin)
        return report.shadow_point, max(report.per_step_errors), None


def shadowing_oracle(family: MapFamily, margin: float = 0.98):
    if family.space.is_enumerable:
        return ExhaustiveOracle(family)
    if family.is_isometry:
        return TransportOracle(family)
    if family.expanding:
        return PullbackOracle(family, margin=margin)
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


def _find_cut(defect_tails: Sequence[float], horizon: int, oracle, target: float) -> Optional[int]:
    for k in range(horizon + 1):
        if defect_tails[k] < oracle.modulus(target, horizon - k):
            return k
    return None


def limit_shadow_point(
    family: MapFamily,
    po: PseudoOrbit,
    levels: int,
    margin: float = 0.98,
) -> LimitShadowResult:
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
    oracle = shadowing_oracle(family, margin=margin)
    horizon = po.horizon
    # Limit pseudo-orbit gate: the final-quarter tail must already sit below
    # the deepest level's target, else the per-level claims are vacuous
    # (a full-horizon splice "shadows" anything).
    profile = DefectProfile.from_sequence(po.defects)
    if profile.tail_sup_at(int(0.75 * horizon)) >= 1.0 / levels:
        raise HypothesisFailedError(
            f"tail defects {profile.tail_sup_at(int(0.75 * horizon))} do not fall "
            f"below the deepest target {1.0 / levels}; not a limit pseudo-orbit "
            "at this horizon"
        )
    records = []
    points = []
    for n in range(1, levels + 1):
        target = 1.0 / n
        cut = _find_cut(profile.tail_sups, horizon, oracle, target)
        if cut is None:
            continue
        spliced = splice(family, po, cut)
        y, sup_err, orbit_pts = oracle.shadow(spliced.orbit, target)
        window_hi = min(max(2 * cut, cut + 1), horizon)
        if orbit_pts is not None:
            window_err = family.sup_distance(orbit_pts, po.points, cut, window_hi)
        else:
            window_err = sup_err
        records.append(
            LevelRecord(
                level=n,
                target=target,
                cut=cut,
                delta=oracle.modulus(target, horizon - cut),
                point=y,
                sup_error_vs_spliced=sup_err,
                window_error=window_err,
            )
        )
        points.append(y)
    if not records:
        raise NoConvergenceError("no level admits a cut within the horizon")

    gaps = tuple(
        family.space.distance(a, b) for a, b in zip(points, points[1:])
    )
    converged = any(g < CAUCHY_TOL for g in gaps)
    y_final = points[-1]

    # Final table: the returned point measured on every level's window.
    table = []
    for rec in records:
        window_hi = min(max(2 * rec.cut, rec.cut + 1), horizon)
        if isinstance(oracle, PullbackOracle):
            # Forward float iteration is unstable for expanding families;
            # bound via the last level's certified errors plus the head gap.
            last = records[-1]
            spliced_last = splice(family, po, last.cut)
            head_gap = family.sup_distance(
                spliced_last.orbit.points, po.points, rec.cut, min(window_hi, last.cut - 1)
            )
            table.append(last.sup_error_vs_spliced + head_gap)
        else:
            orbit = family.compose(y_final, window_hi)
            table.append(family.sup_distance(orbit.points, po.points, rec.cut, window_hi))
    return LimitShadowResult(
        point=y_final,
        converged=converged,
        cauchy_gaps=gaps,
        levels=tuple(records),
        table=tuple(table),
    )
