"""Time-varying map families: schedules, concrete maps, and built-in systems.

A family is a sequence of onto maps f_n: X -> X on one state space X (the
paper's X_n = X case) with the composition F_n = f_{n-1} o ... o f_0 and
F_0 = identity. Expanding families additionally expose inverse branches:
local right inverses defined on balls of radius `branch_radius` whose
Lipschitz constants are the per-step contraction rates.

Built-ins bracket the hypothesis boundary of the pullback shadowing
guarantee: constant doubling (rate 1/2), alternating doubling/tripling, a
slowly expanding family whose rates n/(n+1) have infinite product zero but
supremum one, and a control family with rates 1-2^-n whose infinite product
stays positive. Rate indexing is one-based to match the telescoping
products 2e * prod_{i=1..k} rate_i: the map applied at time j carries
rate_{j+1}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    IndexOutOfScheduleError,
    InvalidBranchIdError,
    NotExpandingError,
    PointOutsideBranchDomainError,
    ScheduleMismatchError,
)
from .spaces import (
    StateSpace,
    circle_reduce,
    circle_signed_gap,
    circle_space,
    finite_space,
    product_space,
    space_from_descriptor,
)


@dataclass(frozen=True)
class Schedule:
    """Eventually periodic (head + cycle) or rule-backed infinite sequence."""

    head: tuple = ()
    cycle: tuple = ()
    rule: Optional[Callable[[int], object]] = None

    def at(self, n: int):
        if n < 0:
            raise IndexOutOfScheduleError(f"negative time index {n}")
        if n < len(self.head):
            return self.head[n]
        if self.cycle:
            return self.cycle[(n - len(self.head)) % len(self.cycle)]
        if self.rule is not None:
            return self.rule(n)
        raise IndexOutOfScheduleError(
            f"index {n} beyond finite schedule of length {len(self.head)}"
        )

    @property
    def finite_length(self) -> Optional[int]:
        if not self.cycle and self.rule is None:
            return len(self.head)
        return None

    @property
    def period(self) -> Optional[int]:
        """The cycle length when the schedule is periodic from index 0, else None."""
        return len(self.cycle) if self.cycle and not self.head else None

    @property
    def values(self) -> Optional[tuple]:
        """Every value the schedule takes, or None when a rule supplies them."""
        return self.head + self.cycle if self.cycle or self.rule is None else None

    def combine(self, other: "Schedule", fn: Callable) -> "Schedule":
        """The schedule n -> fn(self.at(n), other.at(n)), with stored values combined once.

        Finite lengths must agree, and a finite schedule truncates an infinite
        one. Head+cycle inputs give head max(h1, h2) and period lcm(p1, p2).
        """
        a, b = self.finite_length, other.finite_length
        if a is not None and b is not None and a != b:
            raise ScheduleMismatchError(f"finite schedules of lengths {a} and {b}")
        if a is not None or b is not None:
            h, p = (b if a is None else a), 0
        elif self.cycle and other.cycle:
            h = max(len(self.head), len(other.head))
            p = math.lcm(len(self.cycle), len(other.cycle))
        else:
            return Schedule(rule=lambda n: fn(self.at(n), other.at(n)))
        values = tuple(fn(self.at(n), other.at(n)) for n in range(h + p))
        return Schedule(head=values[:h], cycle=values[h:])


def constant_schedule(value) -> Schedule:
    return Schedule(cycle=(value,))


# ---------------------------------------------------------------------------
# Concrete maps


class CircleLinearMap:
    """f(x) = degree * x mod 1 on the circle; inverse branches contract by 1/degree."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.rate = 1.0 / degree

    def apply(self, x: float) -> float:
        return circle_reduce(self.degree * circle_reduce(x))

    def preimages(self, w: float) -> list:
        w = circle_reduce(w)
        return [circle_reduce((w + j) / self.degree) for j in range(self.degree)]

    def branch_of(self, x: float) -> int:
        return min(int(circle_reduce(x) * self.degree), self.degree - 1)

    def inverse_branch_point(self, branch: int, w: float, y: float) -> float:
        if not 0 <= branch < self.degree:
            raise InvalidBranchIdError(f"branch {branch} not in 0..{self.degree - 1}")
        z = self.preimages(w)[branch]
        return circle_reduce(z + circle_signed_gap(w, y) / self.degree)

    @property
    def num_branches(self) -> int:
        return self.degree


class TwoSlopeCircleMap:
    """Degree-2 piecewise-linear circle covering with one slow branch.

    Branch 0 maps [0, lam) onto the circle with slope 1/lam; branch 1 maps
    [lam, 1) with slope 1/(1-lam). Inverse branches are affine with
    contractions lam and 1-lam, so the advertised rate is max(lam, 1-lam).
    At lam = 1/2 this is exactly the doubling map.
    """

    def __init__(self, lam: float):
        if not 0.0 < lam < 1.0:
            raise ValueError("lam must be in (0,1)")
        self.lam = lam
        self.rate = max(lam, 1.0 - lam)

    def apply(self, x: float) -> float:
        x = circle_reduce(x)
        if x < self.lam:
            return circle_reduce(x / self.lam)
        return circle_reduce((x - self.lam) / (1.0 - self.lam))

    def preimages(self, w: float) -> list:
        w = circle_reduce(w)
        return [self.lam * w, self.lam + (1.0 - self.lam) * w]

    def branch_of(self, x: float) -> int:
        return 0 if circle_reduce(x) < self.lam else 1

    def _lift_inverse(self, t: float) -> float:
        # Inverse of the lifted covering; G(t + 2) = G(t) + 1.
        base = math.floor(t / 2.0)
        r = t - 2.0 * base
        if r < 1.0:
            val = self.lam * r
        else:
            val = self.lam + (1.0 - self.lam) * (r - 1.0)
        return val + base

    def inverse_branch_point(self, branch: int, w: float, y: float) -> float:
        if branch not in (0, 1):
            raise InvalidBranchIdError(f"branch {branch} not in (0, 1)")
        w = circle_reduce(w)
        return circle_reduce(self._lift_inverse(w + branch + circle_signed_gap(w, y)))

    @property
    def num_branches(self) -> int:
        return 2


class CircleRotation:
    """Isometry x -> x + alpha mod 1. Single inverse branch, contraction 1."""

    def __init__(self, alpha: float):
        self.alpha = circle_reduce(alpha)

    def apply(self, x: float) -> float:
        return circle_reduce(circle_reduce(x) + self.alpha)

    def preimages(self, w: float) -> list:
        return [circle_reduce(w - self.alpha)]

    def branch_of(self, x: float) -> int:
        return 0

    def inverse_branch_point(self, branch: int, w: float, y: float) -> float:
        if branch != 0:
            raise InvalidBranchIdError("rotation has a single branch")
        return circle_reduce(self.preimages(w)[0] + circle_signed_gap(w, y))

    @property
    def num_branches(self) -> int:
        return 1


class IdentityMap:
    """Identity on any space."""

    def __init__(self, space: StateSpace):
        self.space = space

    def apply(self, x):
        return self.space.reduce(x)

    def preimages(self, w) -> list:
        return [self.space.reduce(w)]

    def branch_of(self, x) -> int:
        return 0

    def inverse_branch_point(self, branch: int, w, y):
        if branch != 0:
            raise InvalidBranchIdError("identity has a single branch")
        return self.space.reduce(y)

    @property
    def num_branches(self) -> int:
        return 1


class FiniteMap:
    """Table-driven map on a finite space; onto-ness checked at construction."""

    def __init__(self, space: StateSpace, table: Sequence[int]):
        self.space = space
        self.table = tuple(int(v) for v in table)
        n = len(space.distances)
        if len(self.table) != n:
            raise ValueError("table length must equal space size")
        if set(self.table) != set(range(n)):
            raise ValueError("map is not onto its codomain")

    def apply(self, x: int) -> int:
        return self.table[x]

    def preimages(self, w: int) -> list:
        return [i for i, v in enumerate(self.table) if v == w]

    def branch_of(self, x: int) -> int:
        return self.preimages(self.table[x]).index(x)

    def inverse_branch_point(self, branch: int, w: int, y: int) -> int:
        pre = self.preimages(w)
        if not 0 <= branch < len(pre):
            raise InvalidBranchIdError(f"branch {branch} not in 0..{len(pre) - 1}")
        if y != w:
            pre_y = self.preimages(y)
            if len(pre_y) <= branch:
                raise InvalidBranchIdError(f"branch {branch} undefined over {y}")
            return pre_y[branch]
        return pre[branch]

    @property
    def num_branches(self) -> int:
        return max(len(self.preimages(w)) for w in range(len(self.table)))


class ProductMap:
    """Componentwise pair map; branch ids are (left, right) pairs, the rate the larger one."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def rate(self) -> float:
        return max(self.left.rate, self.right.rate)

    def apply(self, x):
        return (self.left.apply(x[0]), self.right.apply(x[1]))

    def preimages(self, w) -> list:
        return [
            (a, b)
            for a in self.left.preimages(w[0])
            for b in self.right.preimages(w[1])
        ]

    def branch_of(self, x):
        return (self.left.branch_of(x[0]), self.right.branch_of(x[1]))

    def inverse_branch_point(self, branch, w, y):
        return (
            self.left.inverse_branch_point(branch[0], w[0], y[0]),
            self.right.inverse_branch_point(branch[1], w[1], y[1]),
        )

    @property
    def num_branches(self) -> int:
        return self.left.num_branches * self.right.num_branches


# ---------------------------------------------------------------------------
# Orbit segments and families


@dataclass(frozen=True)
class OrbitSegment:
    """A finite run of an exact orbit; points[i] is the point at time start_index+i."""

    start_index: int
    points: tuple

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MapFamily:
    """A time-varying family on one state space, with optional expanding structure.

    Every map f_n goes from ``space`` to itself: the paper's X_n = X case,
    which covers every built-in family and product. Varying spaces
    f_n: X_n -> X_{n+1} wait for a family that needs them.

    A family is expanding when it has a ``branch_radius``, the shared
    branch-domain radius delta_0. Each map of an expanding family carries
    its own ``rate``, the Lipschitz constant of its inverse branches, so
    ``rate_at`` and ``sup_rate`` read the maps and cannot disagree with them.
    """

    name: str
    space: StateSpace
    maps: Schedule
    branch_radius: Optional[float] = None
    is_isometry: bool = False

    def space_at(self, n: int) -> StateSpace:
        """X_n, which is ``space`` at every n."""
        return self.space

    def map_at(self, n: int):
        return self.maps.at(n)

    def rate_at(self, n: int) -> float:
        mapobj = self.maps.at(n)
        try:
            return mapobj.rate
        except AttributeError:
            raise NotExpandingError(f"family {self.name!r} has no contraction rates") from None

    @property
    def expanding(self) -> bool:
        return self.branch_radius is not None

    @property
    def sup_rate(self) -> Optional[float]:
        """The largest rate of an expanding head+cycle family; None otherwise."""
        maps = self.maps.values
        if not self.expanding or maps is None:
            return None
        return max((m.rate for m in maps), default=None)

    def evaluate(self, n: int, x):
        """f_n(x), with domain/codomain membership enforced."""
        space = self.space
        return space.require(self.map_at(n).apply(space.require(x)))

    def compose(self, x, horizon: int) -> OrbitSegment:
        """The orbit segment [x, F_1(x), ..., F_horizon(x)]."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        points = [self.space.require(x)]
        for n in range(horizon):
            points.append(self.evaluate(n, points[-1]))
        return OrbitSegment(start_index=0, points=tuple(points))

    def sup_distance(self, xs: Sequence, ys: Sequence, lo: int, hi: int) -> float:
        """max of d(xs[i], ys[i]) over lo <= i <= hi; 0.0 on an empty window."""
        errors = (self.space.distance(xs[i], ys[i]) for i in range(lo, hi + 1))
        return max(errors, default=0.0)

    def require_expanding(self):
        if not self.expanding:
            raise NotExpandingError(f"family {self.name!r} is not expanding")

    def inverse_branch(self, n: int, w, branch, y):
        """Apply the branch of f_n^{-1} selected at preimage `branch`, at y.

        The branch is defined on the ball B(w, delta_0); the returned point is
        the unique preimage of y in that branch's neighborhood.
        """
        self.require_expanding()
        space = self.space
        w = space.require(w)
        y = space.require(y)
        if space.distance(w, y) >= self.branch_radius:
            raise PointOutsideBranchDomainError(
                f"d(w, y) = {space.distance(w, y)} >= delta_0 = {self.branch_radius}",
                witness=(w, y),
            )
        return space.reduce(self.map_at(n).inverse_branch_point(branch, w, y))


@dataclass(frozen=True)
class ExpansivenessReport:
    """Outcome of a finite-horizon expansiveness search. Falsifier only."""

    epsilon0: float
    horizon: int
    pairs_checked: int
    counterexample: Optional[tuple]

    @property
    def falsified(self) -> bool:
        return self.counterexample is not None


def expansiveness_falsifier(
    family: MapFamily,
    epsilon0: float,
    horizon: int,
    samples: int,
    seed: int = 0,
) -> ExpansivenessReport:
    """Search for x != y whose orbits stay epsilon0-close through the horizon.

    A surviving pair is evidence against expansiveness at this horizon; the
    absence of one certifies nothing ("not falsified at this horizon").
    """
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    space = family.space
    rng = random.Random(seed)
    pairs = []
    if space.is_enumerable:
        pts = space.points
        pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]][:samples]
    else:
        # Near-diagonal pairs separate last; seed the search with them.
        grid = max(2, int(math.isqrt(samples)))
        for i in range(grid):
            x = space.grid_point(i / grid)
            pairs.append((x, space.translate(x, epsilon0 / 2)))
        while len(pairs) < samples:
            x = space.random_point(rng)
            pairs.append((x, space.displace(x, rng.random() * epsilon0, 1)))
    checked = 0
    for x, y in pairs:
        if x == y:
            continue
        checked += 1
        a, b = x, y
        close = True
        for n in range(horizon + 1):
            if space.distance(a, b) > epsilon0:
                close = False
                break
            if n < horizon:
                a = family.evaluate(n, a)
                b = family.evaluate(n, b)
        if close:
            return ExpansivenessReport(epsilon0, horizon, checked, (x, y))
    return ExpansivenessReport(epsilon0, horizon, checked, None)


# ---------------------------------------------------------------------------
# Exhaustive orbit searches (finite-state families)


def orbit_table(family: MapFamily, length: int, starts: Optional[Sequence] = None) -> dict:
    """Orbits out to `length` steps, keyed by start point (default: all of X)."""
    if starts is None:
        starts = family.space.points
    return {y: family.compose(y, length).points for y in starts}


def best_orbit(space: StateSpace, orbits: dict, target: Sequence, mean: bool = False):
    """(start, error, orbit) of the first orbit closest to `target`.

    The error is the sup distance over the target's indices, or the mean
    distance when `mean` is set; a later orbit replaces the best one only
    when strictly closer.
    """
    n = len(target)
    best = None
    for y, orbit in orbits.items():
        if mean:
            err = sum(space.distance(orbit[i], target[i]) for i in range(n)) / n
        else:
            err = max(space.distance(orbit[i], target[i]) for i in range(n))
        if best is None or err < best[1]:
            best = (y, err, orbit)
    return best


def shadowing_orbit(space: StateSpace, orbits: dict, target: Sequence, epsilon: float):
    """The first orbit staying within `epsilon` of `target` at every index, else None."""
    n = len(target)
    for orbit in orbits.values():
        if all(space.distance(orbit[i], target[i]) < epsilon for i in range(n)):
            return orbit
    return None


# ---------------------------------------------------------------------------
# Built-in families

DELTA0_CIRCLE = 0.25


def doubling_family() -> MapFamily:
    return MapFamily(
        name="doubling",
        space=circle_space(),
        maps=constant_schedule(CircleLinearMap(2)),
        branch_radius=DELTA0_CIRCLE,
    )


def tripling_family() -> MapFamily:
    return MapFamily(
        name="tripling",
        space=circle_space(),
        maps=constant_schedule(CircleLinearMap(3)),
        branch_radius=DELTA0_CIRCLE,
    )


def alternating_family() -> MapFamily:
    """f_n doubles at even n, triples at odd n; rates alternate 1/2, 1/3."""
    return MapFamily(
        name="alternating",
        space=circle_space(),
        maps=Schedule(cycle=(CircleLinearMap(2), CircleLinearMap(3))),
        branch_radius=DELTA0_CIRCLE,
    )


def slow_expanding_family() -> MapFamily:
    """Rates climb to 1 but their infinite product still vanishes.

    The map at time j is the two-slope covering with rate (j+1)/(j+2), i.e.
    the one-based rate sequence n/(n+1); partial products telescope to
    1/(k+1). sup rate = 1 is not attained, separating the product-zero
    hypothesis from the bounded-sup one.
    """
    return MapFamily(
        name="slow_expanding",
        space=circle_space(),
        maps=Schedule(rule=lambda j: TwoSlopeCircleMap((j + 1) / (j + 2))),
        branch_radius=DELTA0_CIRCLE,
    )


def barely_expanding_family() -> MapFamily:
    """Negative control: rates 1 - 2^-n whose infinite product stays positive."""
    return MapFamily(
        name="barely_expanding",
        space=circle_space(),
        maps=Schedule(rule=lambda j: TwoSlopeCircleMap(1.0 - 0.5 ** (j + 1))),
        branch_radius=DELTA0_CIRCLE,
    )


def identity_family(space: Optional[StateSpace] = None) -> MapFamily:
    space = space or circle_space()
    return MapFamily(
        name="identity",
        space=space,
        maps=constant_schedule(IdentityMap(space)),
        is_isometry=True,
    )


GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


def rotation_family(alpha: float = GOLDEN_ALPHA) -> MapFamily:
    return MapFamily(
        name="rotation",
        space=circle_space(),
        maps=constant_schedule(CircleRotation(alpha)),
        is_isometry=True,
    )


def _cycle_metric(n: int) -> list:
    half = n // 2
    return [
        [min(abs(i - j), n - abs(i - j)) / half for j in range(n)] for i in range(n)
    ]


def finite_cycle_family(n: int = 3) -> MapFamily:
    """Cyclic permutation i -> i+1 mod n with the normalized cycle metric."""
    space = finite_space(_cycle_metric(n), description=f"{n}-cycle")
    table = [(i + 1) % n for i in range(n)]
    return MapFamily(
        name=f"finite_cycle_{n}",
        space=space,
        maps=constant_schedule(FiniteMap(space, table)),
        is_isometry=True,
    )


def identity_pair_family() -> MapFamily:
    """Two points at distance 1 with the identity map."""
    space = finite_space([[0.0, 1.0], [1.0, 0.0]], description="two points")
    return MapFamily(
        name="identity_pair",
        space=space,
        maps=constant_schedule(IdentityMap(space)),
        is_isometry=True,
    )


def two_bit_swap_family() -> MapFamily:
    """Coordinate swap on 2-bit words with the (halved) Hamming metric."""
    dist = [[bin(i ^ j).count("1") / 2.0 for j in range(4)] for i in range(4)]
    space = finite_space(dist, description="2-bit words")
    table = [((s & 1) << 1) | (s >> 1) for s in range(4)]
    return MapFamily(
        name="two_bit_swap",
        space=space,
        maps=constant_schedule(FiniteMap(space, table)),
        is_isometry=True,
    )


EIGHT_STATE_CYCLE = (0, 1, 2)
EIGHT_STATE_PARK = 0.01


def eight_state_family() -> MapFamily:
    """Eight states: an invariant 3-cycle plus a 5-cycle parked nearby.

    States 0,1,2 form the invariant cycle A (mutual distance 1); states 3..7
    cycle among themselves, each parked 0.01 from an anchor cycle state so
    that every orbit stays uniformly close to A. The map is a permutation
    (onto), so the complement of A is invariant too; closeness to A, not
    absorption, is what the averaged-shadowing scenarios rely on.
    """
    eta = EIGHT_STATE_PARK
    anchors = {3: 0, 4: 1, 5: 2, 6: 0, 7: 1}
    n = 8
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ai = anchors.get(i) if i >= 3 else i
            aj = anchors.get(j) if j >= 3 else j
            base = 0.0 if ai == aj else 1.0
            pad = (eta if i >= 3 else 0.0) + (eta if j >= 3 else 0.0)
            dist[i][j] = base + pad
    space = finite_space(dist, description="8 states around a 3-cycle")
    table = [1, 2, 0, 4, 5, 6, 7, 3]
    return MapFamily(
        name="eight_state",
        space=space,
        maps=constant_schedule(FiniteMap(space, table)),
    )


def product_family(left: MapFamily, right: MapFamily) -> MapFamily:
    """The product system on X x Y with the max metric.

    The space is the product of the factor spaces; the maps are the factor
    schedules combined step by step (see Schedule.combine). Expanding
    structure survives when both factors carry it: a ProductMap's rate is
    the max of the factor rates, and the branch radius is the min of the
    factor radii.
    """
    expanding = left.expanding and right.expanding
    return MapFamily(
        name=f"{left.name}*{right.name}",
        space=product_space(left.space, right.space),
        maps=left.maps.combine(right.maps, ProductMap),
        branch_radius=min(left.branch_radius, right.branch_radius) if expanding else None,
        is_isometry=left.is_isometry and right.is_isometry,
    )


BUILTIN_FAMILIES = {
    "doubling": doubling_family,
    "tripling": tripling_family,
    "alternating": alternating_family,
    "slow_expanding": slow_expanding_family,
    "barely_expanding": barely_expanding_family,
    "identity": identity_family,
    "rotation": rotation_family,
    "finite_cycle": finite_cycle_family,
    "identity_pair": identity_pair_family,
    "two_bit_swap": two_bit_swap_family,
    "eight_state": eight_state_family,
}


def family_from_descriptor(desc: dict) -> MapFamily:
    """Build a family from the declarative JSON descriptor used by the CLI."""
    kind = desc.get("kind")
    if kind == "product":
        left, right = desc["factors"]
        return product_family(family_from_descriptor(left), family_from_descriptor(right))
    if kind not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    params = {k: v for k, v in desc.items() if k not in ("kind",)}
    if kind == "identity" and "space" in params:
        params["space"] = space_from_descriptor(params["space"])
    return BUILTIN_FAMILIES[kind](**params)
