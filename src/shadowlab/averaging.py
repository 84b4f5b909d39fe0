"""Average shadowing through an invariant subsystem.

The construction lifts an asymptotic-average pseudo-orbit into an invariant
set A: density-zero surgery (exceptional sets from the distance-to-A and
defect sequences, dyadic block covers, boundary patching) yields a block
decomposition; inside blocks the lift follows exact restricted orbits from
the nearest point of A, off blocks it parks at a fill point. The restricted
system's averaged-shadowing oracle (exhaustive for finite A) then produces
the shadowing point, certified by an exact triangle decomposition.

The oracle needs a finite state space, so the composition works on the
library's one finite-state table, ``families.FiniteKernel``: coded states,
their rows of distances, step tables, each state's distance to A and its
nearest point of A. Every horizon-long column, the oracle's scan over the
|A| candidate orbits included, is read from those tables, and the dyadic
epsilon ladder is one backward pass; no step calls the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

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
from .families import FiniteKernel, MapFamily
from .pseudo_orbits import PseudoOrbit

_LADDER_DEPTH = 6  # dyadic epsilon levels 1/2, ..., 1/64


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

    def verify_invariance(self) -> None:
        """f_n(A) inside A, exhaustively over one map-schedule period (16 steps of a rule)."""
        members = set(self.points)
        for n in range(self.ambient.maps.period or 16):
            for a in self.points:
                if self.ambient.evaluate(n, a) not in members:
                    raise HypothesisFailedError(
                        f"f_{n}({a!r}) leaves A", witness=(n, a)
                    )


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
    kernel = FiniteKernel(sub.ambient, window - 1)
    to_a, _ = kernel.nearest(sub.points)
    for x in sample_points:
        orbit = kernel.follow(0, kernel.code[sub.ambient.space.require(x)], window - 1)
        frac = sum(to_a[c] < epsilon for c in orbit) / window
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
    """Union of the aligned `scale`-blocks meeting the set.

    The members are sorted, so the blocks come in increasing order, each
    once: the union is built already sorted and duplicate-free.
    """
    members = []
    last = -1
    for n in index_set.members:
        l = n // scale
        if l != last:
            members.extend(range(l * scale, min((l + 1) * scale, horizon)))
            last = l
    return IndexSet(horizon=horizon, members=tuple(members))


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


def lift_to_A(sub: InvariantSubsystem, po: PseudoOrbit, blocks: BlockDecomposition) -> LiftResult:
    """Fill J' with the first point of A, follow exact restricted orbits on blocks.

    Block starts snap to the nearest point of A; within a block the lift is
    the exact ambient orbit of that point (A is invariant, so it stays in A).
    One pass follows the step tables on state codes; deviations and defects
    are then read from the distance rows.
    """
    if not sub.points:
        raise EmptyAError("A must be nonempty")
    n_points = blocks.horizon
    if n_points != len(po.points):
        raise ValueError("block decomposition horizon must equal the point count")
    kernel = FiniteKernel(sub.ambient, n_points - 1)
    rows, step = kernel.dist, kernel.step
    _, nearest = kernel.nearest(sub.points)
    fill = kernel.code[sub.points[0]]
    members_a = set(map(kernel.code.__getitem__, sub.points))
    data = list(map(kernel.code.__getitem__, po.points))

    lifted = [None] * n_points
    for a, b in blocks.blocks:
        y = nearest[data[a]]
        lifted[a] = y
        for i in range(a, b):
            y = step[i][y]
            if y not in members_a:
                raise HypothesisFailedError(
                    f"restricted orbit leaves A at index {i + 1}", witness=(a, i + 1)
                )
            lifted[i + 1] = y
    for m in blocks.prime_set.members:
        if m < n_points and lifted[m] is None:
            lifted[m] = fill
    if None in lifted:
        raise ValueError(f"index {lifted.index(None)} neither in J' nor covered by a block")

    gaps = [rows[y][x] for y, x in zip(lifted, data)]
    deviations = tuple((a, b, max(gaps[a : b + 1])) for a, b in blocks.blocks)
    images = map(list.__getitem__, step, lifted)  # f_i(lifted[i]), coded
    defects = tuple([rows[f][z] for f, z in zip(images, lifted[1:])])
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
        points=kernel.witness(lifted),
        defects=defects,
        support=support,
        allowed=allowed,
        support_contained=contained,
        cesaro_certificate=certificate,
        block_deviations=deviations,
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


def _ladder_cuts(off_j: bytearray, defects: Sequence[float], distances: Sequence[float]) -> list:
    """Per level 2^-i (i = 1 .. depth): one past the last index off J whose
    defect or distance to A reaches the level, else 0.

    The levels decrease, so each cut is at or past the cut of the level above:
    one backward pass settles the lowest open level first and stops once the
    highest is settled. An index that reaches the lowest open level may
    settle several; both sequences are finite here (the extractions reject
    NaN), so their max() reaches a level exactly when one of them does.
    """
    levels = [0.5**i for i in range(1, _LADDER_DEPTH + 1)]
    cuts = [0] * len(levels)
    unsettled = len(levels)
    for k in range(len(off_j) - 1, -1, -1):
        if not unsettled:
            break
        low = levels[unsettled - 1]
        if off_j[k] and (defects[k] >= low or distances[k] >= low):
            reach = max(defects[k], distances[k])
            while unsettled and reach >= levels[unsettled - 1]:
                unsettled -= 1
                cuts[unsettled] = k + 1
    return cuts


def average_shadow_point(sub: InvariantSubsystem, po: PseudoOrbit) -> AverageShadowResult:
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
    visit_windows = [2**j for j in range(2, 11) if 2**j <= max(horizon, 4)]
    sample_points = family.space.points

    reports = []
    for k in range(1, _LADDER_DEPTH + 1):
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

    kernel = FiniteKernel(family, horizon)
    rows, code = kernel.dist, kernel.code.__getitem__
    to_a, _ = kernel.nearest(sub.points)
    data = list(map(code, po.points))
    distances = [to_a[x] for x in data]
    defects = list(po.defects) + [0.0]
    q1 = cesaro_to_density_zero(distances, n_points)
    q2 = cesaro_to_density_zero(defects, n_points)
    j_union = q1.index_set.union(q2.index_set)
    ladder_cuts = _ladder_cuts(j_union.off_mask(), defects, distances)

    blocks = block_decompose(j_union, n_points, ladder_cuts=ladder_cuts)
    lift = lift_to_A(sub, po, blocks)

    lifted = list(map(code, lift.points))
    y, _, orbit = kernel.best(lifted, map(code, sub.points), True)

    shadow_vs_lift = [rows[z][w] for z, w in zip(orbit, lifted)]
    oracle_exc = cesaro_to_density_zero(shadow_vs_lift, n_points)
    lift_vs_data = [rows[w][x] for w, x in zip(lifted, data)]
    total = [rows[z][x] for z, x in zip(orbit, data)]

    final_exact = exact_mean(total)
    term1 = exact_mean(shadow_vs_lift)
    term2 = exact_mean(lift_vs_data)
    slack_set = blocks.prime_set.union(oracle_exc.index_set)
    slack = Fraction(sub.diameter) * upper_density(
        IndexSet.from_iterable(slack_set.members, n_points), n_points
    )
    result = AverageShadowResult(
        point=kernel.points[y],
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
