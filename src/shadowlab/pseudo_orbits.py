"""Pseudo-orbits: random perturbation and synthetic defect injection.

A pseudo-orbit is a point sequence whose per-step defects d(f_i(x_i), x_{i+1})
are small in one of three senses: uniformly (delta-pseudo-orbit), eventually
(limit pseudo-orbit), or in Cesaro mean (asymptotic-average pseudo-orbit).

Time starts at 0: points[i] is the point at time i, and the defect at step i
is measured through f_i, the map every solver reads at that step.
`PseudoOrbit.from_points` validates every point; the generators validate
their start point only, run the map window on the canonical points that
follow, and take each defect from the image they already computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import NoiseExceedsSpaceError
from .families import MapFamily

@dataclass(frozen=True)
class PseudoOrbit:
    """A finite point sequence from time 0 with its cached defect sequence.

    `defects` is None only on a points-only splice, so no reader sees stale values.
    """

    family: MapFamily
    points: tuple
    defects: Optional[tuple]

    @classmethod
    def from_points(cls, family: MapFamily, points: Sequence) -> "PseudoOrbit":
        pts = tuple(family.space.require(p) for p in points)
        return cls(family=family, points=pts, defects=_defects(family, pts))

    @property
    def horizon(self) -> int:
        return len(self.points) - 1

    @property
    def max_defect(self) -> float:
        return max(self.defects, default=0.0)

    def with_head(self, head: Sequence, *, defects: bool = True) -> "PseudoOrbit":
        """The same pseudo-orbit with its first len(head) canonical points replaced.

        Only the head's defects are computed; the tail points and their
        defects are reused, so the cost is O(len(head)). With defects=False
        none are computed and the result's defects are None.
        """
        cut = len(head)
        pts = tuple(head) + self.points[cut:]
        new = _defects(self.family, pts[: cut + 1]) + self.defects[cut:] if defects else None
        return PseudoOrbit(family=self.family, points=pts, defects=new)


def _defects(family: MapFamily, points: Sequence) -> tuple:
    """d(f_i(x_i), x_{i+1}) for each step i of canonical points."""
    maps = family.window(len(points) - 1)
    return tuple(map(family.space.distance, (m.apply(x) for m, x in zip(maps, points)), points[1:]))


def perturb_orbit(
    family: MapFamily, x0, horizon: int, noise: float, seed: int
) -> PseudoOrbit:
    """True orbit displaced by uniform random offsets of magnitude < noise.

    Deterministic given the seed; the resulting max defect is strictly below
    `noise` (zero noise reproduces the exact orbit).
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = random.Random(seed)
    space = family.space
    x = space.require(x0)
    if horizon > 0 and not noise <= space.diameter:
        raise NoiseExceedsSpaceError(f"noise {noise} exceeds space diameter {space.diameter}")
    points, defects = [x], []
    for mapobj in family.window(horizon):
        true_next = mapobj.apply(x)
        x = space.perturb(true_next, noise, rng)
        points.append(x)
        defects.append(space.distance(true_next, x))
    return PseudoOrbit(family, tuple(points), tuple(defects))


def inject_defects(
    family: MapFamily,
    x0,
    defects: Sequence[float],
    signs: Optional[Callable[[int], int]] = None,
) -> PseudoOrbit:
    """Displace the true orbit by a prescribed amount at each step.

    x_{i+1} is f_i(x_i) displaced by defects[i]; on the circle the realized
    defect equals the prescription (up to circle wrap for amounts >= 1/2),
    on finite spaces the nearest realizable distance wins. Signs alternate
    by default, which keeps the cumulative drift of isometry families
    bounded by the last defect.
    """
    sign_at = signs or (lambda i: 1 if i % 2 == 0 else -1)
    space = family.space
    x = space.require(x0)
    points, realized = [x], []
    for i, (mapobj, e) in enumerate(zip(family.window(len(defects)), defects)):
        true_next = mapobj.apply(x)
        x = space.displace(true_next, float(e), sign_at(i))
        points.append(x)
        realized.append(space.distance(true_next, x))
    return PseudoOrbit(family, tuple(points), tuple(realized))


def displace_orbit(family: MapFamily, x0, displacements: Sequence[float]) -> PseudoOrbit:
    """Displace individual points of the true orbit (tube-style injection).

    displacements[i] moves the point x_{i+1}; untouched points stay on the
    exact orbit, so each nonzero displacement contributes defects at the two
    adjacent steps. Signs alternate as in inject_defects, which displaces
    steps cumulatively and realizes the prescribed per-step defect exactly.
    """
    points = list(family.compose(x0, len(displacements)))
    space = family.space
    for i, t in enumerate(displacements):
        if t:
            points[i + 1] = space.displace(points[i + 1], float(t), 1 if i % 2 == 0 else -1)
    return PseudoOrbit(family, tuple(points), _defects(family, points))


def pseudo_orbit_rows(po: PseudoOrbit) -> list:
    """CSV rows (index, point..., defect); product points are flattened."""

    def flat(p):
        if isinstance(p, tuple):
            out = []
            for q in p:
                out.extend(flat(q))
            return out
        return [p]

    rows = []
    for i, p in enumerate(po.points):
        defect = po.defects[i] if i < len(po.defects) else ""
        rows.append([i, *flat(p), defect])
    return rows
