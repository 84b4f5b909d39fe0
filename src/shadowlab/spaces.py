"""State spaces: the circle, finite metric spaces, and binary products.

Points are plain Python values: a float in [0, 1) for the circle, an integer
index for finite spaces, a 2-tuple of factor points for products, never a bool.
A circle point is reduced to [0, 1) once: by ``require`` where it enters, or by
the last step of the function that makes it (map methods, ``displace``, the
cell calculus). Metrics and maps take points of the space and reduce nothing.

Each kind is one class that owns its geometry: metric, membership, canonical
representatives, displacement, random draws and, on circles and products, the
pullback solver's cell calculus (arcs, and componentwise pairs of cells).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite, ulp
from typing import Sequence, Tuple

from .errors import BranchDomainViolatedError, PointOutsideSpaceError


def circle_reduce(x: float) -> float:
    """Canonical representative of x in [0, 1)."""
    r = x % 1.0
    return 0.0 if r == 1.0 else r


def circle_distance(a: float, b: float) -> float:
    """Arc distance between two points of the circle (floats in [0, 1))."""
    gap = abs(a - b)
    return gap if gap <= 0.5 else 1.0 - gap


def circle_signed_gap(base: float, other: float) -> float:
    """Signed displacement in [-1/2, 1/2) taking the circle point `base` to `other`."""
    gap = (other - base) % 1.0
    return gap - 1.0 if gap >= 0.5 else gap


class StateSpace:
    """A metric space of one kind; the subclasses below are the three kinds.

    Defaults serve the continuous kind, the circle.
    """

    is_enumerable = False

    def require(self, p):
        if not self.contains(p):
            raise PointOutsideSpaceError(f"point {p!r} outside {self.kind} space", witness=p)
        return self.reduce(p)

    def reduce(self, p):
        """Canonical representative (mod-1 reduction on circle factors)."""
        return p

    def displace(self, p, amount: float, sign: int):
        """A point at metric distance ~`amount` from p, biased toward `sign`.

        On the circle the realized distance is exactly min(amount, 1-amount)
        for amount <= 1; on finite spaces the point with distance closest to
        `amount` wins (ties -> lowest index). Products displace both components.
        """
        if amount == 0.0:
            return p
        if not isfinite(amount):  # would leave every space; callers trust the result
            raise PointOutsideSpaceError(f"displacement {amount} is not finite", witness=p)
        return self._displace(p, amount, sign)

    def perturb(self, p, noise: float, rng: random.Random):
        """A random point at distance < noise from p; zero noise draws nothing."""
        if noise == 0.0:
            return p
        return self._perturb(p, noise, rng)

    def _perturb(self, p, noise: float, rng: random.Random):
        r = rng.random() * noise
        sign = 1 if rng.random() < 0.5 else -1
        return self.displace(p, r, sign)

    def random_point(self, rng: random.Random):
        return rng.random()

    @property
    def points(self) -> list:
        """All points of a finite (or finite-product) space."""
        raise PointOutsideSpaceError(f"{self.kind} space is not enumerable")

    def distance_table(self) -> list:
        """Rows of d(a, b) over ``points``, in point order."""
        return [[self.distance(a, b) for b in self.points] for a in self.points]

    def min_positive_distance(self) -> float:
        table = self.distance_table()
        return min(d for i, row in enumerate(table) for d in row[i + 1 :])

    def make_ball(self, center, radius: float):
        raise BranchDomainViolatedError(f"no cell calculus for {self.kind} spaces")


@dataclass(frozen=True)
class CircleSpace(StateSpace):
    """R/Z with the arc metric; cells are arcs (center, radius)."""

    description = "circle R/Z with arc metric"
    kind = "circle"
    diameter = 0.5
    distance = staticmethod(circle_distance)
    reduce = staticmethod(circle_reduce)

    def contains(self, p) -> bool:
        return isinstance(p, (float, int)) and not isinstance(p, bool) and isfinite(p)

    def _displace(self, p, amount: float, sign: int):
        return circle_reduce(p + sign * amount)

    def make_ball(self, center, radius: float):
        return (center, radius)

    def cell_intersect(self, c1, c2):
        """Exact intersection; None when empty."""
        (a, ra), (b, rb) = c1, c2
        gap = circle_signed_gap(a, b)
        lo = max(-ra, gap - rb)
        hi = min(ra, gap + rb)
        if lo > hi:
            return None
        return (circle_reduce(a + (lo + hi) / 2.0), (hi - lo) / 2.0)

    def cell_pull(self, mapobj, branch, w, cell):
        """Image of an arc under the inverse branch anchored at w.

        Built-in branches are continuous and monotone on the branch domain, so
        the image of an arc is spanned exactly by the images of its endpoints.
        """
        lo = mapobj.pull(branch, w, circle_reduce(cell[0] - cell[1]))[0]
        hi = mapobj.pull(branch, w, circle_reduce(cell[0] + cell[1]))[0]
        gap = circle_signed_gap(lo, hi)
        return (circle_reduce(lo + gap / 2.0), abs(gap) / 2.0)

    def cell_diameter(self, cell) -> float:
        return 2.0 * cell[1]

    def cell_center(self, cell):
        return cell[0]

    def spacing(self, p) -> float:
        """Gap from p to the next float: the narrowest arc a centre at p resolves."""
        return ulp(p)


@dataclass(frozen=True)
class FiniteSpace(StateSpace):
    """Points 0..n-1 with the explicit symmetric matrix `distances`."""

    distances: Tuple[Tuple[float, ...], ...]
    description: str = ""
    kind = "finite"
    is_enumerable = True

    def distance(self, a, b) -> float:
        return self.distances[a][b]

    @property
    def diameter(self) -> float:
        return max(max(row) for row in self.distances)

    def contains(self, p) -> bool:
        return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < len(self.distances)

    def _displace(self, p, amount: float, sign: int):
        best = p
        best_err = abs(0.0 - amount)
        for q in range(len(self.distances)):
            err = abs(self.distances[p][q] - amount)
            if err < best_err:
                best, best_err = q, err
        return best

    def _perturb(self, p, noise: float, rng: random.Random):
        candidates = [q for q in self.points if self.distance(p, q) < noise]
        return candidates[rng.randrange(len(candidates))]

    def random_point(self, rng: random.Random):
        return rng.randrange(len(self.distances))

    @property
    def points(self) -> list:
        return list(range(len(self.distances)))


@dataclass(frozen=True)
class ProductSpace(StateSpace):
    """The max-metric product of two `factors`; cells are componentwise pairs."""

    factors: Tuple[StateSpace, StateSpace]
    description: str = ""
    kind = "product"

    def distance(self, a, b) -> float:
        left, right = self.factors
        return max(left.distance(a[0], b[0]), right.distance(a[1], b[1]))

    @property
    def diameter(self) -> float:
        return max(f.diameter for f in self.factors)

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and self.factors[0].contains(p[0])
            and self.factors[1].contains(p[1])
        )

    def reduce(self, p):
        return (self.factors[0].reduce(p[0]), self.factors[1].reduce(p[1]))

    def _displace(self, p, amount: float, sign: int):
        left, right = self.factors
        return (left.displace(p[0], amount, sign), right.displace(p[1], amount, sign))

    def _perturb(self, p, noise: float, rng: random.Random):
        left, right = self.factors
        return (left._perturb(p[0], noise, rng), right._perturb(p[1], noise, rng))

    def random_point(self, rng: random.Random):
        return (self.factors[0].random_point(rng), self.factors[1].random_point(rng))

    @property
    def points(self) -> list:
        return [(a, b) for a in self.factors[0].points for b in self.factors[1].points]

    def distance_table(self) -> list:
        # The max metric, read from the factor tables instead of per pair.
        left, right = (f.distance_table() for f in self.factors)
        return [[y if y > x else x for x in lrow for y in rrow] for lrow in left for rrow in right]

    @property
    def is_enumerable(self) -> bool:
        return all(f.is_enumerable for f in self.factors)

    def make_ball(self, center, radius: float):
        left, right = self.factors
        return (left.make_ball(center[0], radius), right.make_ball(center[1], radius))

    def cell_intersect(self, c1, c2):
        left = self.factors[0].cell_intersect(c1[0], c2[0])
        right = self.factors[1].cell_intersect(c1[1], c2[1])
        if left is None or right is None:
            return None
        return (left, right)

    def cell_pull(self, mapobj, branch, w, cell):
        left, right = self.factors
        return (
            left.cell_pull(mapobj.left, branch[0], w[0], cell[0]),
            right.cell_pull(mapobj.right, branch[1], w[1], cell[1]),
        )

    def cell_diameter(self, cell) -> float:
        return max(self.factors[0].cell_diameter(cell[0]), self.factors[1].cell_diameter(cell[1]))

    def cell_center(self, cell):
        return (self.factors[0].cell_center(cell[0]), self.factors[1].cell_center(cell[1]))

    def spacing(self, p) -> float:
        return max(self.factors[0].spacing(p[0]), self.factors[1].spacing(p[1]))


circle_space = CircleSpace


def finite_space(distances: Sequence[Sequence[float]], description: str = "") -> StateSpace:
    matrix = tuple(tuple(float(v) for v in row) for row in distances)
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 0.0:
            raise ValueError(f"nonzero diagonal at {i}")
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"asymmetric entry ({i},{j})")
            if i != j and matrix[i][j] <= 0.0:
                raise ValueError(f"nonpositive off-diagonal ({i},{j})")
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j] + 1e-12:
                    raise ValueError(f"triangle inequality fails at ({i},{j},{k})")
    return FiniteSpace(matrix, description or f"{n}-point space")


def product_space(left: StateSpace, right: StateSpace) -> StateSpace:
    return ProductSpace((left, right), f"({left.description}) x ({right.description})")
