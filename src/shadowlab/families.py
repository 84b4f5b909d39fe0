"""Time-varying map families: schedules, concrete maps, and built-in systems.

A family is a sequence of onto maps f_n: X -> X on one state space X (the
paper's X_n = X case) with the composition F_n = f_{n-1} o ... o f_0 and
F_0 = identity. Expanding families additionally expose inverse branches:
local right inverses on balls of radius `branch_radius` whose Lipschitz
constants are the per-step rates. Each branch is affine there; a map's
`pull(branch, w, y)` gives y's image under it and its own slope, rounded up.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BudgetExceededError,
    IndexOutOfScheduleError,
    InvalidBranchIdError,
    NotExpandingError,
)
from .spaces import (
    StateSpace,
    circle_reduce,
    circle_signed_gap,
    circle_space,
    finite_space,
    product_space,
)


@dataclass(frozen=True)
class Schedule:
    """An infinite sequence: a nonempty repeating ``cycle``, or a ``rule`` n -> value."""

    cycle: tuple = ()
    rule: Optional[Callable[[int], object]] = None

    def at(self, n: int):
        if n < 0:
            raise IndexOutOfScheduleError(f"negative time index {n}")
        if self.cycle:
            return self.cycle[n % len(self.cycle)]
        return self.rule(n)

    @property
    def period(self) -> Optional[int]:
        """The cycle length, or None for a rule."""
        return len(self.cycle) or None

    def combine(self, other: "Schedule", fn: Callable) -> "Schedule":
        """The schedule n -> fn(self.at(n), other.at(n)), with stored values combined once.

        Two cycles give one cycle of the lcm length; a rule on either side gives a rule.
        """
        if self.cycle and other.cycle:
            p = math.lcm(len(self.cycle), len(other.cycle))
            return Schedule(cycle=tuple(fn(self.at(n), other.at(n)) for n in range(p)))
        return Schedule(rule=lambda n: fn(self.at(n), other.at(n)))


def constant_schedule(value) -> Schedule:
    return Schedule(cycle=(value,))


# ---------------------------------------------------------------------------
# Concrete maps


class CircleLinearMap:
    """f(x) = degree * x mod 1 on circle points in [0, 1); inverse branches contract by 1/degree."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.rate = 1.0 / degree
        num, den = self.rate.as_integer_ratio()
        # Every branch has slope exactly 1/degree; the float above it when 1.0/degree rounds down.
        self.slope = self.rate if num * degree >= den else math.nextafter(self.rate, math.inf)

    def apply(self, x: float) -> float:
        return circle_reduce(self.degree * x)

    def preimages(self, w: float) -> list:
        return [circle_reduce((w + j) / self.degree) for j in range(self.degree)]

    def branch_of(self, x: float) -> int:
        return min(int(x * self.degree), self.degree - 1)

    def pull(self, branch: int, w: float, y: float) -> tuple:
        if not 0 <= branch < self.degree:
            raise InvalidBranchIdError(f"branch {branch} not in 0..{self.degree - 1}")
        z = circle_reduce((w + branch) / self.degree)  # preimages(w)[branch]
        return circle_reduce(z + circle_signed_gap(w, y) / self.degree), self.slope


class TwoSlopeCircleMap:
    """Degree-2 piecewise-linear circle covering with one slow branch.

    Branch 0 maps [0, lam) onto the circle with slope 1/lam; branch 1 maps
    [lam, 1) with slope 1/(1-lam). Inverse branches are affine with
    contractions lam and 1-lam, so the advertised rate is max(lam, 1-lam).
    At lam = 1/2 this is exactly the doubling map. Methods take circle points.
    """

    def __init__(self, lam: float):
        if not 0.0 < lam < 1.0:
            raise ValueError("lam must be in (0,1)")
        self.lam = lam
        self.rate = max(lam, 1.0 - lam)
        # 1.0 - upper is exact for upper in [1/2, 1], so it shows when 1.0 - lam rounded down.
        upper = 1.0 - lam
        self.slopes = (lam, upper if 1.0 - upper <= lam else math.nextafter(upper, math.inf))

    def apply(self, x: float) -> float:
        if x < self.lam:
            return circle_reduce(x / self.lam)
        return circle_reduce((x - self.lam) / (1.0 - self.lam))

    def preimages(self, w: float) -> list:
        return [self.lam * w, circle_reduce(self.lam + (1.0 - self.lam) * w)]

    def branch_of(self, x: float) -> int:
        return 0 if x < self.lam else 1

    def pull(self, branch: int, w: float, y: float) -> tuple:
        if branch not in (0, 1):
            raise InvalidBranchIdError(f"branch {branch} not in (0, 1)")
        # Invert the lifted covering, G(t + 2) = G(t) + 1, at the lift t of y.
        t = w + branch + circle_signed_gap(w, y)
        base = math.floor(t / 2.0)
        r = t - 2.0 * base
        if r < 1.0:
            val = self.lam * r
        else:
            val = self.lam + (1.0 - self.lam) * (r - 1.0)
        return circle_reduce(val + base), self.slopes[branch]


class CircleRotation:
    """Isometry x -> x + alpha mod 1; every method takes points of the circle."""

    def __init__(self, alpha: float):
        if isinstance(alpha, bool) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite number, got {alpha!r}")
        self.alpha = circle_reduce(alpha)

    def apply(self, x: float) -> float:
        return circle_reduce(x + self.alpha)

    def preimages(self, w: float) -> list:
        return [circle_reduce(w - self.alpha)]


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


class ProductMap:
    """Componentwise pair map; branch ids are (left, right) pairs, the rate and each slope the larger one."""

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

    def pull(self, branch, w, y) -> tuple:
        a, s = self.left.pull(branch[0], w[0], y[0])
        b, t = self.right.pull(branch[1], w[1], y[1])
        return (a, b), max(s, t)


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class MapFamily:
    """A time-varying family on one state space, with optional expanding structure.

    Every map f_n goes from ``space`` to itself: the paper's X_n = X case,
    which covers every built-in family and product. Varying spaces
    f_n: X_n -> X_{n+1} wait for a family that needs them.

    A family is expanding when it has a ``branch_radius``, the shared
    branch-domain radius delta_0. Each map of an expanding family carries
    its own ``rate``, the Lipschitz constant of its inverse branches, so
    ``rate_at`` reads the maps and cannot disagree with them.

    Maps take and return canonical points of ``space`` (circle floats in
    [0, 1), on which ``require`` is the identity). Only boundaries validate:
    ``evaluate`` both ends, ``compose`` its start; a map method reduces the
    point it makes last, and library loops reduce nothing on the way.
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

    def window(self, k: int) -> list:
        """[f_0, ..., f_{k-1}], each looked up (or built by a rule) once."""
        maps = self.maps
        if maps.period == 1:
            return [maps.cycle[0]] * k
        return [maps.at(n) for n in range(k)]

    def rate_at(self, n: int) -> float:
        """The rate of f_n; a map without one raises NotExpanding with n as witness."""
        mapobj = self.maps.at(n)
        try:
            return mapobj.rate
        except AttributeError:
            raise NotExpandingError(
                f"family {self.name!r} has no contraction rate at step {n}", witness=n
            ) from None

    def rates(self, k: int) -> list:
        """The rates of f_0 ... f_{k-1}, each as `rate_at` reads it."""
        maps = self.window(k)
        try:
            return [mapobj.rate for mapobj in maps]
        except AttributeError:
            for n in range(k):
                self.rate_at(n)  # raises at the first map without a rate
            raise

    @property
    def expanding(self) -> bool:
        return self.branch_radius is not None

    def evaluate(self, n: int, x):
        """f_n(x), with domain/codomain membership enforced."""
        space = self.space
        return space.require(self.map_at(n).apply(space.require(x)))

    def compose(self, x, horizon: int) -> tuple:
        """The orbit (x, F_1(x), ..., F_horizon(x)); item i is the point at time i."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        points = [self.space.require(x)]
        for mapobj in self.window(horizon):
            points.append(mapobj.apply(points[-1]))
        return tuple(points)

    def sup_distance(self, xs: Sequence, ys: Sequence, lo: int, hi: int) -> float:
        """max of d(xs[i], ys[i]) over 0 <= lo <= i <= hi; 0.0 on an empty window."""
        if lo <= hi and hi >= min(len(xs), len(ys)):
            raise IndexError(f"window [{lo}, {hi}] runs past the end of a sequence")
        return max(map(self.space.distance, xs[lo : hi + 1], ys[lo : hi + 1]), default=0.0)

    def require_expanding(self):
        if not self.expanding:
            raise NotExpandingError(f"family {self.name!r} is not expanding")


# ---------------------------------------------------------------------------
# Exhaustive orbit searches (finite-state families)


class FiniteKernel:
    """Integer tables of a finite family over its first `steps` maps.

    States are coded by their index in ``space.points`` (``code[p]``):
    ``dist`` holds the same floats as ``space.distance`` and ``step[i][a]``
    codes f_i(a), one table per distinct map object. ``orbits[y]`` (the
    orbit of y), ``ends[i][y] = orbits[y][i]`` and ``cols[i][b][y] =
    dist[orbits[y][i]][b]`` are built on first use.
    """

    def __init__(self, family: MapFamily, steps: int):
        if steps < 0:
            raise ValueError("horizon must be >= 0")
        space = family.space
        self.points = points = space.points
        self.code = code = {p: k for k, p in enumerate(points)}
        self.dist = space.distance_table()
        maps = family.window(steps)
        tables = {m: [code[m.apply(p)] for p in points] for m in dict.fromkeys(maps)}
        self.step = list(map(tables.__getitem__, maps))

    @cached_property
    def orbits(self) -> list:
        return [self.follow(0, y, len(self.step)) for y in range(len(self.points))]

    @cached_property
    def ends(self) -> list:
        # Lists: freed tuples of these sizes linger in CPython's free lists.
        return [list(at) for at in zip(*self.orbits)]

    @cached_property
    def cols(self) -> list:
        columns = [list(col) for col in zip(*self.dist)]
        return [[list(map(col.__getitem__, at)) for col in columns] for at in self.ends]

    def witness(self, codes) -> tuple:
        return tuple(self.points[c] for c in codes)

    def follow(self, time: int, x: int, stop: int) -> list:
        """Codes of the orbit of x from `time` to `stop`."""
        codes = [x]
        for table in self.step[time:stop]:
            x = table[x]
            codes.append(x)
        return codes

    def nearest(self, subset: Sequence) -> tuple:
        """(gap, near) by state code: the distance to the points of `subset`
        and the code of the first of them at that distance."""
        members = [self.code[p] for p in subset]
        near = [min(members, key=row.__getitem__) for row in self.dist]
        return [row[m] for row, m in zip(self.dist, near)], near

    def best(self, target: Sequence[int], starts: Iterable[int], mean: bool):
        """(start, error, orbit) in codes: the first start closest to `target`.

        The error is the sup of the distances over the target's indices or,
        with `mean`, their sum in index order over n; a later start replaces
        the best one only when strictly closer. Only the starts' orbits are
        followed.
        """
        n, rows = len(target), self.dist.__getitem__
        best = None
        for y in starts:
            orbit = self.follow(0, y, n - 1)
            gaps = map(list.__getitem__, map(rows, orbit), target)
            err = sum(gaps) / n if mean else max(gaps)
            if best is None or err < best[1]:
                best = (y, err, orbit)
        return best

    def walk(self, delta: float, max_len: int, limit: int, visit):
        """Depth-first over the delta-pseudo-orbits of 1..max_len points.

        Nodes come in point order, prefixes first, and each one counts against
        `limit`. A node of 2+ points calls visit(path, errors, defect) with its
        codes, every orbit's running sup error and the running max defect; it
        returns None (not checked), True or False. Returns (checked, the first
        failing path or None).
        """
        near = [[(q, d) for q, d in enumerate(row) if d < delta] for row in self.dist]
        successors = [[near[fa] for fa in table] for table in self.step[: max_len - 1]]
        cols, n = self.cols, len(self.points)
        # A frame per node with unvisited children, under a virtual root at 0.
        frames = [(iter([(s, 0.0) for s in range(n)]), [0.0] * n, 0.0)]
        path, count, checked = [], 0, 0
        while frames:
            children, errors, defect = frames[-1]
            for q, d in children:
                count += 1
                if count > limit:
                    raise BudgetExceededError(f"enumeration exceeded {limit} nodes")
                path.append(q)
                t = len(path) - 1
                grown = [e if e > c else c for e, c in zip(errors, cols[t][q])]
                worst = d if d > defect else defect
                verdict = visit(path, grown, worst) if t else None
                if verdict is not None:
                    checked += 1
                    if not verdict:
                        return checked, path
                if t + 1 < max_len:
                    frames.append((iter(successors[t][q]), grown, worst))
                    break
                path.pop()
            else:
                frames.pop()
                del path[-1:]  # empty once the virtual root is done
        return checked, None


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


def _barely_expanding_map(j: int) -> TwoSlopeCircleMap:
    lam = 1.0 - 0.5 ** (j + 1)
    if lam == 1.0:
        raise NotExpandingError(f"rate 1 - 2^-{j + 1} rounds to 1.0 at step {j}", witness=j)
    return TwoSlopeCircleMap(lam)


def barely_expanding_family() -> MapFamily:
    """Negative control: rates 1 - 2^-(n+1) whose infinite product stays positive.
    From n = 53 the rate rounds to 1.0, and f_n raises NotExpanding with n as witness."""
    return MapFamily(
        name="barely_expanding",
        space=circle_space(),
        maps=Schedule(rule=_barely_expanding_map),
        branch_radius=DELTA0_CIRCLE,
    )


def identity_family() -> MapFamily:
    """The identity on the circle, as the rotation by 0."""
    return MapFamily(
        name="identity",
        space=circle_space(),
        maps=constant_schedule(CircleRotation(0.0)),
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
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
        maps=constant_schedule(FiniteMap(space, (0, 1))),
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
    schedules combined step by step: two cycles give one cycle of the lcm
    length, a rule on either side a rule (see Schedule.combine). Expanding
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
        if desc.keys() - {"kind", "factors"}:
            raise ValueError(f"a product takes only kind and factors, got {sorted(desc)}")
        left, right = desc["factors"]
        return product_family(family_from_descriptor(left), family_from_descriptor(right))
    if kind not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    return BUILTIN_FAMILIES[kind](**{k: v for k, v in desc.items() if k != "kind"})
