"""Finite-horizon machinery for density-zero subsets of the naturals.

"Density zero" is not decidable at a finite horizon; the testable surrogate
used throughout is an exact rational upper density at the horizon together
with its behaviour under horizon growth. Counting and means are exact and
never rounded: inside, the kernels work in integers (a budget p/q is met by
cross-multiplying, a float m/2^e joins a mean as an integer numerator over
a power-of-two denominator); at the API every rational is a
fractions.Fraction.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, List, Optional, Sequence, Tuple

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

    def __len__(self) -> int:
        return len(self.members)

    def off_mask(self) -> bytearray:
        """off[n] is 1 exactly when n in [0, horizon) is not a member."""
        off = bytearray(b"\x01") * self.horizon
        for m in self.members:
            off[m] = 0
        return off

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


def _finite_floats(values: Sequence[float], horizon: int) -> List[float]:
    """The first `horizon` values as floats; a NaN or infinity raises at its index."""
    vals = list(map(float, values[:horizon]))
    if not all(map(math.isfinite, vals)):
        n = next(i for i, v in enumerate(vals) if not math.isfinite(v))
        raise BoundViolatedError(f"a_{n} = {vals[n]} is not finite", witness=n)
    return vals


def exact_mean(values: Sequence[float]) -> Fraction:
    """The mean of floats as an exact rational.

    Every finite float is m / 2^e, so the sum is one integer numerator over
    the largest denominator: the result is sum(map(Fraction, values)) / len.
    The values are counted first and each distinct float joins once, times
    its count; a finite metric has at most |X|^2 distances, so the integer
    work no longer grows with the length. 0.0 and -0.0 count as one value,
    which is harmless: both have numerator 0.
    """
    if len(values) == 0:
        raise ZeroHorizonError("the mean of no values is undefined")
    vals = _finite_floats(values, len(values))
    ratios = [(v.as_integer_ratio(), c) for v, c in Counter(vals).items()]
    den = max(d for (_, d), _ in ratios)
    total = sum(n * (den // d) * c for (n, d), c in ratios)
    return Fraction(total, den * len(vals))


def first_density_feasible(
    members: Sequence[int], horizon: int, budget: Fraction
) -> Optional[int]:
    """Smallest N >= 1 with count(members < k)/k <= budget for all k in [N, horizon].

    None when even N = horizon fails. The count is a constant c on each
    stretch k in (members[c-1], members[c]], where count/k is largest at the
    stretch's first k; so the scan takes one integer test per member, from
    the top, and stops at the first stretch that breaks the budget p/q.
    """
    p, q = budget.as_integer_ratio()
    hi = horizon
    for c in range(len(members), -1, -1):
        lo = members[c - 1] + 1 if c else 1
        if lo <= hi and c * q > p * lo:  # c/lo > p/q, with lo, q > 0
            # the largest failing k: the last one with p*k < c*q
            worst = min(hi, (c * q - 1) // p) if p > 0 else hi
            return worst + 1 if worst < horizon else None
        hi = min(hi, lo - 1)
    return 1 if horizon >= 1 else None


def off_set_sups(
    values: Sequence[float], index_set: IndexSet, cuts: Sequence[int]
) -> Tuple[float, ...]:
    """Per cut c, max(values[n] for n in [c, horizon) off the set), else 0.0.

    One right-to-left pass: max() reduces each stretch between two cuts,
    and stretches combine with >=, so equal values resolve to the leftmost
    as a single max() over the tail does (0.0 against -0.0 gives the same
    float).
    """
    off = index_set.off_mask()
    sups = {}
    best = None
    hi = index_set.horizon
    for cut in sorted(set(cuts), reverse=True):
        if cut < hi:
            stretch = max(compress(values[cut:hi], off[cut:hi]), default=None)
            if stretch is not None and (best is None or stretch >= best):
                best = stretch
            hi = cut
        sups[cut] = 0.0 if best is None else best
    return tuple(sups[cut] for cut in cuts)


def exceedances(values: Sequence[float], levels: Sequence[float]) -> List[List[int]]:
    """exceed[k] = [n : values[n] > levels[k]] for strictly decreasing levels.

    A value above level k is above every later level, so each index joins a
    suffix of the lists and exceed[k] is inside exceed[k + 1]. One scan picks
    the indices above the lowest level; only those are bisected.
    """
    ascending = sorted(levels)
    count = len(levels)
    low = ascending[0]
    exceed: List[List[int]] = [[] for _ in levels]
    for n in [n for n, v in enumerate(values) if v > low]:
        for k in range(count - bisect.bisect_left(ascending, values[n]), count):
            exceed[k].append(n)
    return exceed


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


_EXTRACTION_LEVELS = tuple(0.5**k for k in range(1, 15))  # strictly decreasing, all positive


def cesaro_to_density_zero(values: Sequence[float], horizon: int) -> ExtractionReport:
    """Extract an exceptional index set off which the sequence decays.

    Window construction: level k is enforced from the greedily minimal cut
    N_k past which the level-k exceedance set keeps upper density <= 2^-k.
    Inside the window [N_k, N_{k+1}) every index exceeding level k joins J,
    so the complement satisfies sup_{n not in J, n >= N_k} a_n <= level_k
    for each active level.
    """
    if horizon < 1:
        raise ZeroHorizonError("extraction needs horizon >= 1")
    if len(values) < horizon:
        raise ValueError("need at least `horizon` values")
    vals = _finite_floats(values, horizon)
    if min(vals) < 0:
        n = next(i for i, v in enumerate(vals) if v < 0)
        raise BoundViolatedError(f"a_{n} = {vals[n]} is negative", witness=n)
    levels = _EXTRACTION_LEVELS
    final_mean = sum(vals) / horizon
    if final_mean >= levels[0]:
        raise NotCesaroNullError(
            f"final Cesaro mean {final_mean} is not below the first level {levels[0]}"
        )

    exceed = exceedances(vals, levels)
    cuts = [0]
    active = 1
    for k in range(1, len(levels)):
        budget = Fraction(1, 2 ** (k + 1))
        feasible_from = first_density_feasible(exceed[k], horizon, budget)
        if feasible_from is None or feasible_from >= horizon:
            break
        cuts.append(max(cuts[-1], feasible_from))
        active = k + 1

    members: List[int] = []
    bounds = cuts + [horizon]
    for k in range(active):
        window = exceed[k]
        lo = bisect.bisect_left(window, bounds[k])
        members.extend(window[lo : bisect.bisect_left(window, bounds[k + 1])])
    index_set = IndexSet.from_iterable(members, horizon)
    return ExtractionReport(
        index_set=index_set,
        levels=levels[:active],
        cuts=tuple(cuts[:active]),
        active_levels=active,
        density_at_horizon=upper_density(index_set, horizon),
        complement_sups=off_set_sups(vals, index_set, cuts),
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
    if horizon < 1:
        raise ZeroHorizonError("a certificate needs horizon >= 1")
    if len(values) < horizon:
        raise ValueError("need at least `horizon` values")
    if not math.isfinite(bound):
        raise BoundViolatedError(f"bound {bound} is not finite", witness=bound)
    vals = _finite_floats(values, horizon)
    if max(vals) > bound or min(vals) < 0.0:
        # the first index out of [0, bound], with its reason
        n, v = next((n, v) for n, v in enumerate(vals) if v > bound or v < 0)
        if v > bound:
            raise BoundViolatedError(f"a_{n} = {v} exceeds bound {bound}", witness=n)
        raise BoundViolatedError(f"a_{n} = {v} is negative", witness=n)

    actual = exact_mean(vals)

    density_term = Fraction(bound) * upper_density(index_set, horizon)
    dyadic_cuts = [0] + [2**j for j in range(horizon.bit_length())]
    best = None
    for cut, tail in zip(dyadic_cuts, off_set_sups(vals, index_set, dyadic_cuts)):
        cert = density_term + Fraction(tail) + Fraction(bound) * Fraction(cut, horizon)
        if best is None or cert < best[2]:
            best = (cut, tail, cert)
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

    def validate(self) -> None:
        """Raise ValueError unless the blocks are ordered runs that exactly
        tile [0, horizon) minus J'.

        One walk: ordered runs are disjoint, so they tile the complement
        exactly when each ends below the horizon, none holds a member of J',
        and their lengths add up to horizon - #(J' below horizon).
        """
        prev_end = -1
        for a, b in self.blocks:
            if not (prev_end < a <= b):
                raise ValueError(f"blocks out of order at [{a}, {b}]")
            prev_end = b
        members = self.prime_set.members
        covered = 0
        for a, b in self.blocks:
            if b >= self.horizon or bisect.bisect_right(members, b) > bisect.bisect_left(members, a):
                raise ValueError("blocks do not exhaust the complement of J'")
            covered += b - a + 1
        if covered != self.horizon - bisect.bisect_left(members, self.horizon):
            raise ValueError("blocks do not exhaust the complement of J'")


def complement_blocks(index_set: IndexSet, horizon: int) -> Tuple[Tuple[int, int], ...]:
    """Maximal runs of consecutive integers in [0, horizon) \\ members.

    One walk over the sorted members: the gap before each member is a run.
    """
    blocks = []
    start = 0
    for m in index_set.members:
        if m >= horizon:
            break
        if m > start:
            blocks.append((start, m - 1))
        start = m + 1
    if start < horizon:
        blocks.append((start, horizon - 1))
    return tuple(blocks)
