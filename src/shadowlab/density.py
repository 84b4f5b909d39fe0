"""Finite-horizon machinery for density-zero subsets of the naturals.

"Density zero" is not decidable at a finite horizon; the testable surrogate
used throughout is an exact rational upper density at the horizon together
with its behaviour under horizon growth. Counting is integer-exact
(fractions.Fraction), never floating point.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    BoundViolatedError,
    MenuExhaustedError,
    NotCesaroNullError,
    ZeroHorizonError,
)


@dataclass(frozen=True)
class IndexSet:
    """A sorted duplicate-free subset of [0, horizon)."""

    horizon: int
    members: Tuple[int, ...]

    @classmethod
    def from_iterable(cls, members: Iterable[int], horizon: int) -> "IndexSet":
        uniq = sorted(set(int(m) for m in members))
        if uniq and (uniq[0] < 0 or uniq[-1] >= horizon):
            raise ValueError("members must lie in [0, horizon)")
        return cls(horizon=horizon, members=tuple(uniq))

    def count_below(self, at: int) -> int:
        return bisect.bisect_left(self.members, at)

    def __contains__(self, n: int) -> bool:
        i = bisect.bisect_left(self.members, n)
        return i < len(self.members) and self.members[i] == n

    def __len__(self) -> int:
        return len(self.members)

    def extended(self, horizon: int) -> "IndexSet":
        """Same members viewed inside a larger horizon."""
        if horizon < self.horizon:
            raise ValueError("extended horizon must not shrink")
        return IndexSet(horizon=horizon, members=self.members)

    def union(self, other: "IndexSet") -> "IndexSet":
        horizon = max(self.horizon, other.horizon)
        return IndexSet.from_iterable(self.members + other.members, horizon)


def upper_density(index_set: IndexSet, at: int) -> Fraction:
    """#(J intersect [0, at)) / at, exact."""
    if at < 1:
        raise ZeroHorizonError("density needs at >= 1")
    if at > index_set.horizon:
        raise ValueError("at exceeds the index set horizon")
    return Fraction(index_set.count_below(at), at)


def exact_mean(values: Sequence[float]) -> Fraction:
    """The mean of floats as an exact rational."""
    acc = Fraction(0)
    for v in values:
        acc += Fraction(v)
    return acc / len(values)


def first_density_feasible(
    members: Sequence[int], horizon: int, budget: Fraction
) -> Optional[int]:
    """Smallest N >= 1 with count(members < k)/k <= budget for all k in [N, horizon].

    None when even N = horizon fails.
    """
    worst = 0
    idx = len(members) - 1
    for k in range(horizon, 0, -1):
        while idx >= 0 and members[idx] >= k:
            idx -= 1
        if Fraction(idx + 1, k) > budget:
            worst = k
            break
    return worst + 1 if worst + 1 <= horizon else None


# ---------------------------------------------------------------------------
# Cesaro-null  <->  null off a density-zero set


@dataclass(frozen=True)
class ExtractionReport:
    """Output of the Cesaro-null -> exceptional-set direction.

    ``cuts[k]`` is the index from which level k+1 is enforced: off-J values
    from cuts[k] on stay <= levels[k]. Levels the horizon cannot support
    stay inactive.
    """

    index_set: IndexSet
    levels: Tuple[float, ...]
    cuts: Tuple[int, ...]
    active_levels: int
    density_at_horizon: Fraction
    complement_sups: Tuple[float, ...]


def cesaro_to_density_zero(
    values: Sequence[float],
    horizon: int,
    levels: Optional[Sequence[float]] = None,
) -> ExtractionReport:
    """Extract an exceptional index set off which the sequence decays.

    Window construction: level k is enforced from the greedily minimal cut
    N_k past which the level-k exceedance set keeps upper density <= 2^-k.
    Inside the window [N_k, N_{k+1}) every index exceeding level k joins J,
    so the complement satisfies sup_{n not in J, n >= N_k} a_n <= level_k
    for each active level.
    """
    if horizon < 1 or len(values) < horizon:
        raise ValueError("need at least `horizon` values")
    vals = [float(v) for v in values[:horizon]]
    if levels is None:
        levels = tuple(0.5**k for k in range(1, 15))
    levels = tuple(float(x) for x in levels)
    if any(lv <= 0 for lv in levels) or any(
        b >= a for a, b in zip(levels, levels[1:])
    ):
        raise ValueError("levels must be positive and strictly decreasing")
    final_mean = sum(vals) / horizon
    if final_mean >= levels[0]:
        raise NotCesaroNullError(
            f"final Cesaro mean {final_mean} is not below the first level {levels[0]}"
        )

    exceed = [[n for n in range(horizon) if vals[n] > lv] for lv in levels]
    cuts = [0]
    active = 1
    for k in range(1, len(levels)):
        budget = Fraction(1, 2 ** (k + 1))
        feasible_from = first_density_feasible(exceed[k], horizon, budget)
        if feasible_from is None or feasible_from >= horizon:
            break
        cuts.append(max(cuts[-1], feasible_from))
        active = k + 1

    members: set = set()
    bounds = cuts + [horizon]
    for k in range(active):
        lo, hi = bounds[k], bounds[k + 1]
        members.update(n for n in exceed[k] if lo <= n < hi)
    index_set = IndexSet.from_iterable(members, horizon)

    comp_sups = []
    for k in range(active):
        tail = [vals[n] for n in range(cuts[k], horizon) if n not in index_set]
        comp_sups.append(max(tail) if tail else 0.0)
    return ExtractionReport(
        index_set=index_set,
        levels=levels[:active],
        cuts=tuple(cuts[:active]),
        active_levels=active,
        density_at_horizon=upper_density(index_set, horizon),
        complement_sups=tuple(comp_sups),
    )


@dataclass(frozen=True)
class CesaroCertificate:
    """Exact decomposition bound on Cesaro means from a density-zero support.

    certificate = M * density(J, horizon) + s(N) + M * N / horizon, where
    s(N) is the measured off-J supremum beyond the chosen cut N. The actual
    mean never exceeds the certificate; both sides are exact rationals.
    """

    bound: float
    cut: int
    tail_sup: float
    density_term: Fraction
    actual_mean: Fraction
    certificate: Fraction

    @property
    def holds(self) -> bool:
        return self.actual_mean <= self.certificate


def density_zero_to_cesaro(
    values: Sequence[float], index_set: IndexSet, bound: float
) -> CesaroCertificate:
    """Certify Cesaro smallness of a sequence supported (mostly) on J."""
    horizon = index_set.horizon
    if len(values) < horizon:
        raise ValueError("need at least `horizon` values")
    vals = [float(v) for v in values[:horizon]]
    for n, v in enumerate(vals):
        if v > bound:
            raise BoundViolatedError(f"a_{n} = {v} exceeds bound {bound}", witness=n)
        if v < 0:
            raise BoundViolatedError(f"a_{n} = {v} is negative", witness=n)

    actual = exact_mean(vals)

    density_term = Fraction(bound) * upper_density(index_set, horizon)
    best = None
    cut = 0
    while cut <= horizon:
        off = [vals[n] for n in range(cut, horizon) if n not in index_set]
        tail = max(off) if off else 0.0
        cert = density_term + Fraction(tail) + Fraction(bound) * Fraction(cut, horizon)
        if best is None or cert < best[2]:
            best = (cut, tail, cert)
        cut = 1 if cut == 0 else cut * 2
    cut, tail, cert = best
    result = CesaroCertificate(
        bound=bound,
        cut=cut,
        tail_sup=tail,
        density_term=density_term,
        actual_mean=actual,
        certificate=cert,
    )
    if not result.holds:
        raise BoundViolatedError(
            f"decomposition certificate {cert} below actual mean {actual}"
        )
    return result


# ---------------------------------------------------------------------------
# Patching a density-zero set from a vanishing-density sequence of sets


@dataclass(frozen=True)
class PatchResult:
    """The patched set J with its window boundaries and selectors.

    Window i (1-based) is [boundaries[i-1], boundaries[i]); on it J agrees
    exactly with the selected input set J_{selectors[i-1]} (selectors are
    1-based into the input list and equal i when every input has density
    zero). The final window extends to the horizon.
    """

    index_set: IndexSet
    boundaries: Tuple[int, ...]
    selectors: Tuple[int, ...]
    density_at_horizon: Fraction


def patch_sets(
    j_sets: Sequence[IndexSet],
    menus: Sequence[Iterable[int]],
    horizon: int,
) -> PatchResult:
    """Glue windows of the J_i into one set whose density stays controlled.

    The boundary m_i ending window i is the smallest admissible element of
    menus[i-1]: admissible means the next selected set meets its dyadic
    density budget 2^-l everywhere past m_i. Sets that can never meet their
    budget within the horizon are skipped (the diagonal condition); when no
    later set is feasible the construction truncates at the horizon. A menu
    with no usable element below the horizon raises MenuExhausted.
    """
    if horizon < 1:
        raise ZeroHorizonError("patching needs horizon >= 1")
    if not j_sets:
        return PatchResult(
            index_set=IndexSet.from_iterable([], horizon),
            boundaries=(0,),
            selectors=(),
            density_at_horizon=Fraction(0),
        )
    boundaries = [0]
    selectors = []
    members: set = set()
    sel = 0
    window = 1
    while True:
        current = j_sets[sel]
        lo = boundaries[-1]
        next_sel = sel + 1
        takeover = None
        while next_sel < len(j_sets):
            budget = Fraction(1, 2 ** (next_sel + 1))
            first_ok = first_density_feasible(j_sets[next_sel].members, horizon, budget)
            if first_ok is not None and first_ok < horizon:
                takeover = max(first_ok, lo + 1)
                break
            next_sel += 1
        if takeover is None or window > len(menus):
            members.update(n for n in current.members if lo <= n < horizon)
            selectors.append(sel + 1)
            break
        candidates = [r for r in menus[window - 1] if takeover <= r < horizon]
        if not candidates:
            raise MenuExhaustedError(
                f"menu {window} has no admissible boundary in [{takeover}, {horizon})"
            )
        m_i = min(candidates)
        members.update(n for n in current.members if lo <= n < m_i)
        boundaries.append(m_i)
        selectors.append(sel + 1)
        sel = next_sel
        window += 1
    index_set = IndexSet.from_iterable(members, horizon)
    return PatchResult(
        index_set=index_set,
        boundaries=tuple(boundaries),
        selectors=tuple(selectors),
        density_at_horizon=upper_density(index_set, horizon),
    )


# ---------------------------------------------------------------------------
# Block decomposition of the complement (consumed by the averaging module)


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal runs of the complement of J', with window bookkeeping.

    blocks are inclusive runs [a_i, b_i]; fill_markers is the set B of run
    ends. Runs are strictly ordered (b_i < a_{i+1}); a run of length one has
    a_i = b_i, which the desk-scale construction permits at window seams.
    """

    horizon: int
    prime_set: IndexSet
    boundaries: Tuple[int, ...]
    selectors: Tuple[int, ...]
    blocks: Tuple[Tuple[int, int], ...]
    fill_markers: Tuple[int, ...]

    @property
    def marker_set(self) -> IndexSet:
        return IndexSet.from_iterable(self.fill_markers, self.horizon)

    def validate(self) -> None:
        prev_end = -1
        for a, b in self.blocks:
            if not (prev_end < a <= b):
                raise ValueError(f"blocks out of order at [{a}, {b}]")
            prev_end = b
        covered = set()
        for a, b in self.blocks:
            covered.update(range(a, b + 1))
        complement = set(range(self.horizon)) - set(self.prime_set.members)
        if covered != complement:
            raise ValueError("blocks do not exhaust the complement of J'")


def complement_blocks(index_set: IndexSet, horizon: int) -> Tuple[Tuple[int, int], ...]:
    """Maximal runs of consecutive integers in [0, horizon) \\ members."""
    blocks = []
    run_start = None
    members = set(index_set.members)
    for n in range(horizon):
        if n in members:
            if run_start is not None:
                blocks.append((run_start, n - 1))
                run_start = None
        else:
            if run_start is None:
                run_start = n
    if run_start is not None:
        blocks.append((run_start, horizon - 1))
    return tuple(blocks)
