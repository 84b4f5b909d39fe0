"""Average shadowing through an invariant subsystem.

The construction lifts an asymptotic-average pseudo-orbit into an invariant
set A: density-zero surgery (exceptional sets from the distance-to-A and
defect sequences, dyadic block covers, boundary patching) yields a block
decomposition; inside blocks the lift follows exact restricted orbits from
the nearest point of A, off blocks it parks at a fill point. The restricted
system's averaged-shadowing oracle (exhaustive for finite A) then produces
the shadowing point, certified by an exact triangle decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .density import (
    BlockDecomposition,
    CesaroCertificate,
    IndexSet,
    cesaro_to_density_zero,
    complement_blocks,
    density_zero_to_cesaro,
    exact_mean,
    patch_sets,
    upper_density,
)
from .errors import (
    EmptyAError,
    HypothesisFailedError,
    OracleUnavailableError,
)
from .families import MapFamily, best_orbit, orbit_table
from .pseudo_orbits import PseudoOrbit


@dataclass(frozen=True)
class InvariantSubsystem:
    """A finite invariant closed subset of a family's state space."""

    ambient: MapFamily
    points: tuple

    @classmethod
    def finite(cls, family: MapFamily, points: Sequence) -> "InvariantSubsystem":
        pts = tuple(family.space.require(p) for p in points)
        if not pts:
            raise EmptyAError("A must be nonempty")
        sub = cls(ambient=family, points=pts)
        sub.verify_invariance()
        return sub

    @property
    def diameter(self) -> float:
        space = self.ambient.space
        return max(
            (space.distance(a, b) for a in self.points for b in self.points),
            default=0.0,
        )

    def verify_invariance(self, sample_indices: Optional[Sequence[int]] = None) -> None:
        """f_n(A) inside A, exhaustively over one map-schedule period."""
        if sample_indices is None:
            period = self.ambient.maps.period
            sample_indices = range(period) if period else range(16)
        members = set(self.points)
        for n in sample_indices:
            for a in self.points:
                if self.ambient.evaluate(n, a) not in members:
                    raise HypothesisFailedError(
                        f"f_{n}({a!r}) leaves A", witness=(n, a)
                    )

    def distance_to(self, x) -> float:
        space = self.ambient.space
        return min(space.distance(x, a) for a in self.points)

    def nearest(self, x):
        space = self.ambient.space
        return min(self.points, key=lambda a: (space.distance(x, a), self.points.index(a)))


@dataclass(frozen=True)
class VisitStatistics:
    epsilon: float
    window: int
    fraction: float


@dataclass(frozen=True)
class VisitReport:
    epsilon: float
    window: int
    verdict: bool
    worst_fraction: float
    per_point: Tuple[VisitStatistics, ...]


def visit_condition(
    sub: InvariantSubsystem, epsilon: float, window: int, sample_points: Sequence
) -> VisitReport:
    """Fraction of the first `window` orbit steps epsilon-close to A, per point."""
    if window < 1:
        raise ValueError("window must be >= 1")
    stats = []
    worst = 1.0
    for x in sample_points:
        p = sub.ambient.space.require(x)
        hits = 0
        for i in range(window):
            if sub.distance_to(p) < epsilon:
                hits += 1
            p = sub.ambient.evaluate(i, p)
        frac = hits / window
        worst = min(worst, frac)
        stats.append(VisitStatistics(epsilon=epsilon, window=window, fraction=frac))
    return VisitReport(
        epsilon=epsilon,
        window=window,
        verdict=worst > 1.0 - epsilon,
        worst_fraction=worst,
        per_point=tuple(stats),
    )


# ---------------------------------------------------------------------------
# Block decomposition (dyadic covers + boundary patching)


def dyadic_cover(index_set: IndexSet, scale: int, horizon: int) -> IndexSet:
    """Union of the aligned `scale`-blocks meeting the set."""
    blocks = sorted(set(n // scale for n in index_set.members))
    members = []
    for l in blocks:
        members.extend(range(l * scale, min((l + 1) * scale, horizon)))
    return IndexSet.from_iterable(members, horizon)


def block_decompose(
    j_union: IndexSet,
    horizon: int,
    ladder_cuts: Sequence[int] = (),
) -> BlockDecomposition:
    """Cover J by dyadic blocks at doubling scales and patch the boundaries.

    Window i's boundary is drawn from the menu {l * 2^(i+1) - 1 : block l at
    scale 2^(i+1) meets J}, at or past the ladder cut K_i when one is given.
    The complement of the patched set J' decomposes into maximal runs
    [a_i, b_i]; their iterate ends form the marker set B.
    """
    ratio_gate = Fraction(9, 10)
    if len(j_union) > 0 and horizon >= 2:
        d_full = upper_density(j_union, horizon)
        d_half = upper_density(j_union, horizon // 2)
        if d_half > 0 and Fraction(d_full) > ratio_gate * d_half:
            raise HypothesisFailedError(
                f"density {d_full} at {horizon} does not vanish against {d_half} at {horizon // 2}"
            )
    if len(j_union) == 0:
        prime = IndexSet.from_iterable([], horizon)
        blocks = ((0, horizon - 1),)
        return BlockDecomposition(
            horizon=horizon,
            prime_set=prime,
            boundaries=(0,),
            selectors=(),
            blocks=blocks,
            fill_markers=(horizon - 1,),
        )

    covers = []
    menus = []
    scale = 2
    window = 1
    while scale * 2 <= horizon:
        covers.append(dyadic_cover(j_union, scale, horizon))
        menu_scale = scale * 2
        cut = ladder_cuts[window - 1] if window - 1 < len(ladder_cuts) else 0
        covered_blocks = sorted(set(n // menu_scale for n in j_union.members))
        menu = [
            l * menu_scale - 1
            for l in covered_blocks
            if l >= 1 and l * menu_scale - 1 >= cut
        ]
        menus.append(menu)
        scale *= 2
        window += 1
    if not covers:
        covers = [dyadic_cover(j_union, 2, horizon)]
        menus = [[]]

    patch = patch_sets(covers, menus[: max(0, len(covers) - 1)], horizon)
    prime = patch.index_set
    blocks = complement_blocks(prime, horizon)
    decomposition = BlockDecomposition(
        horizon=horizon,
        prime_set=prime,
        boundaries=patch.boundaries,
        selectors=patch.selectors,
        blocks=blocks,
        fill_markers=tuple(b for _, b in blocks),
    )
    decomposition.validate()
    return decomposition


# ---------------------------------------------------------------------------
# Lifting into A


@dataclass(frozen=True)
class LiftResult:
    """The lifted sequence with its defect bookkeeping.

    ``support`` is the exact set of indices with a nonzero lifted defect; the
    construction guarantees it sits inside J' union B. ``block_deviations``
    records, per block, the worst distance between the data and the lifted
    exact orbit (the quantity the dyadic ladder controls).
    """

    points: tuple
    defects: tuple
    support: IndexSet
    allowed: IndexSet
    support_contained: bool
    cesaro_certificate: CesaroCertificate
    block_deviations: Tuple[Tuple[int, int, float], ...]


def lift_to_A(
    sub: InvariantSubsystem,
    po: PseudoOrbit,
    blocks: BlockDecomposition,
    fill_point=None,
) -> LiftResult:
    """Fill J' with a fixed point of A, follow exact restricted orbits on blocks.

    Block starts snap to the nearest point of A; within a block the lift is
    the exact ambient orbit of that point (A is invariant, so it stays in A).
    """
    if not sub.points:
        raise EmptyAError("A must be nonempty")
    fill = sub.points[0] if fill_point is None else sub.ambient.space.require(fill_point)
    if fill not in set(sub.points):
        raise EmptyAError(f"fill point {fill!r} is not in A")
    n_points = blocks.horizon
    if n_points != len(po.points):
        raise ValueError("block decomposition horizon must equal the point count")
    prime = set(blocks.prime_set.members)
    members_a = set(sub.points)
    space = sub.ambient.space

    lifted = [None] * n_points
    deviations = []
    for a, b in blocks.blocks:
        y = sub.nearest(po.points[a])
        worst = space.distance(y, po.points[a])
        lifted[a] = y
        for i in range(a, b):
            y = sub.ambient.evaluate(i, y)
            if y not in members_a:
                raise HypothesisFailedError(
                    f"restricted orbit leaves A at index {i + 1}", witness=(a, i + 1)
                )
            lifted[i + 1] = y
            worst = max(worst, space.distance(y, po.points[i + 1]))
        deviations.append((a, b, worst))
    for i in range(n_points):
        if lifted[i] is None:
            if i not in prime:
                raise ValueError(f"index {i} neither in J' nor covered by a block")
            lifted[i] = fill

    defects = tuple(
        space.distance(sub.ambient.evaluate(i, lifted[i]), lifted[i + 1])
        for i in range(n_points - 1)
    )
    support = IndexSet.from_iterable(
        [i for i, d in enumerate(defects) if d > 0.0], n_points - 1
    )
    allowed_members = [m for m in blocks.prime_set.members if m < n_points - 1] + [
        m for m in blocks.fill_markers if m < n_points - 1
    ]
    allowed = IndexSet.from_iterable(allowed_members, n_points - 1)
    contained = set(support.members) <= set(allowed.members)
    certificate = density_zero_to_cesaro(defects, allowed, bound=max(sub.diameter, 1e-30))
    return LiftResult(
        points=tuple(lifted),
        defects=defects,
        support=support,
        allowed=allowed,
        support_contained=contained,
        cesaro_certificate=certificate,
        block_deviations=tuple(deviations),
    )


# ---------------------------------------------------------------------------
# The full averaged-shadowing composition


@dataclass(frozen=True)
class AverageShadowResult:
    point: object
    lift: LiftResult
    blocks: BlockDecomposition
    exceptional_distance: IndexSet
    exceptional_defect: IndexSet
    oracle_exceptional: IndexSet
    final_cesaro_error: float
    final_cesaro_exact: Fraction
    term_shadow_vs_lift: Fraction
    term_lift_vs_data: Fraction
    triangle_slack_density: Fraction
    visit_reports: Tuple[VisitReport, ...]

    @property
    def triangle_holds(self) -> bool:
        return self.final_cesaro_exact <= self.term_shadow_vs_lift + self.term_lift_vs_data


def average_shadow_point(
    sub: InvariantSubsystem,
    po: PseudoOrbit,
    ladder_depth: int = 6,
    visit_windows: Optional[Sequence[int]] = None,
) -> AverageShadowResult:
    """Lift, shadow inside A, and certify average shadowing for the ambient.

    Preconditions checked: the visit condition on the dyadic epsilon ladder
    (some window puts every state's orbit (1-eps)-often eps-close to A) and
    Cesaro-nullity of both the defect and distance-to-A sequences.
    """
    family = sub.ambient
    if not family.space.is_enumerable:
        raise OracleUnavailableError(
            "the averaged-shadowing oracle needs a finite state space"
        )
    n_points = len(po.points)
    horizon = po.horizon
    if visit_windows is None:
        visit_windows = [2**j for j in range(2, 11) if 2**j <= max(horizon, 4)]
    sample_points = family.space.points

    reports = []
    for k in range(1, ladder_depth + 1):
        eps = 0.5**k
        passing = None
        for window in visit_windows:
            rep = visit_condition(sub, eps, window, sample_points)
            if rep.verdict:
                passing = rep
                break
        if passing is None:
            raise HypothesisFailedError(
                f"visit condition fails at epsilon {eps}", witness=eps
            )
        reports.append(passing)

    distances = [sub.distance_to(x) for x in po.points]
    q1 = cesaro_to_density_zero(distances, n_points)
    q2 = cesaro_to_density_zero(list(po.defects) + [0.0], n_points)
    j_union = q1.index_set.union(q2.index_set)

    off_j = j_union.off_mask()
    ladder_cuts = []
    for i in range(1, ladder_depth + 1):
        level = 0.5**i
        cut = 0
        for k in range(n_points - 1, -1, -1):
            if not off_j[k]:
                continue
            defect = po.defects[k] if k < horizon else 0.0
            if defect >= level or distances[k] >= level:
                cut = k + 1
                break
        ladder_cuts.append(cut)

    blocks = block_decompose(j_union, n_points, ladder_cuts=ladder_cuts)
    lift = lift_to_A(sub, po, blocks)

    space = family.space
    orbits = orbit_table(family, horizon, starts=sub.points)
    y, _, orbit = best_orbit(space, orbits, lift.points, mean=True)

    shadow_vs_lift = [
        space.distance(orbit[i], lift.points[i]) for i in range(n_points)
    ]
    oracle_exc = cesaro_to_density_zero(shadow_vs_lift, n_points)

    lift_vs_data = [
        space.distance(lift.points[i], po.points[i]) for i in range(n_points)
    ]
    total = [space.distance(orbit[i], po.points[i]) for i in range(n_points)]

    final_exact = exact_mean(total)
    term1 = exact_mean(shadow_vs_lift)
    term2 = exact_mean(lift_vs_data)
    slack_set = blocks.prime_set.union(oracle_exc.index_set)
    slack = Fraction(sub.diameter) * upper_density(
        IndexSet.from_iterable(slack_set.members, n_points), n_points
    )
    result = AverageShadowResult(
        point=y,
        lift=lift,
        blocks=blocks,
        exceptional_distance=q1.index_set,
        exceptional_defect=q2.index_set,
        oracle_exceptional=oracle_exc.index_set,
        final_cesaro_error=float(final_exact),
        final_cesaro_exact=final_exact,
        term_shadow_vs_lift=term1,
        term_lift_vs_data=term2,
        triangle_slack_density=slack,
        visit_reports=tuple(reports),
    )
    if not result.triangle_holds:
        raise HypothesisFailedError("triangle decomposition violated (exact arithmetic)")
    return result
