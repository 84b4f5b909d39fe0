"""Pseudo-orbits: random perturbation, synthetic defect injection, classification.

A pseudo-orbit is a point sequence whose per-step defects d(f_i(x_i), x_{i+1})
are small in one of three senses: uniformly (delta-pseudo-orbit), eventually
(limit pseudo-orbit), or in Cesaro mean (asymptotic-average pseudo-orbit).
Finite-horizon classification is necessarily an approximation of the limit
statements; every verdict record says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import NoiseExceedsSpaceError
from .families import MapFamily

FINITE_HORIZON_NOTE = (
    "finite-horizon verdict: approximates a limit statement using the stored horizon"
)


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite indexed point sequence with its cached defect sequence."""

    family: MapFamily
    start_index: int
    points: tuple
    defects: tuple

    @classmethod
    def from_points(cls, family: MapFamily, points: Sequence, start_index: int = 0) -> "PseudoOrbit":
        pts = tuple(family.space.require(p) for p in points)
        defects = _defects(family, pts, start_index)
        return cls(family=family, start_index=start_index, points=pts, defects=defects)

    @property
    def horizon(self) -> int:
        return len(self.points) - 1

    @property
    def max_defect(self) -> float:
        return max(self.defects) if self.defects else 0.0

    def recomputed_defects(self) -> tuple:
        return _defects(self.family, self.points, self.start_index)


def _defects(family: MapFamily, points: Sequence, start_index: int) -> tuple:
    """d(f_i(x_i), x_{i+1}) for each step, with times offset by start_index."""
    distance = family.space.distance
    return tuple(
        distance(family.evaluate(start_index + i, points[i]), points[i + 1])
        for i in range(len(points) - 1)
    )


@dataclass(frozen=True)
class DefectProfile:
    """Summary statistics of a nonnegative defect sequence.

    cesaro_means[n-1] = (1/n) sum_{i<n} e_i, tail_sups[n] = sup_{i>=n} e_i.
    """

    values: tuple
    cesaro_means: tuple
    tail_sups: tuple

    @classmethod
    def from_sequence(cls, values: Sequence[float]) -> "DefectProfile":
        vals = tuple(float(v) for v in values)
        means = []
        acc = 0.0
        for n, v in enumerate(vals, start=1):
            acc += v
            means.append(acc / n)
        tails = [0.0] * (len(vals) + 1)
        for i in range(len(vals) - 1, -1, -1):
            tails[i] = max(vals[i], tails[i + 1])
        return cls(values=vals, cesaro_means=tuple(means), tail_sups=tuple(tails))

    @property
    def max_defect(self) -> float:
        return max(self.values) if self.values else 0.0

    def cesaro_at(self, n: int) -> float:
        if n <= 0:
            return 0.0
        return self.cesaro_means[min(n, len(self.cesaro_means)) - 1]

    def tail_sup_at(self, n: int) -> float:
        return self.tail_sups[min(n, len(self.tail_sups) - 1)]


@dataclass(frozen=True)
class Classification:
    """Three-way pseudo-orbit verdict at a fixed horizon."""

    delta: float
    profile: DefectProfile
    note: str = FINITE_HORIZON_NOTE

    @property
    def is_delta_pseudo(self) -> bool:
        return self.profile.max_defect < self.delta

    def is_limit_pseudo_at(self, horizon: int, tol: float) -> bool:
        """Tail sup over the final quarter of the horizon below tol."""
        cut = int(0.75 * horizon)
        return self.profile.tail_sup_at(cut) < tol

    def is_asymptotic_average_at(self, horizon: int, tol: float) -> bool:
        return self.profile.cesaro_at(horizon) < tol


def classify(po: PseudoOrbit, delta: float) -> Classification:
    return Classification(delta=delta, profile=DefectProfile.from_sequence(po.defects))


def classify_defects(defects: Sequence[float], delta: float) -> Classification:
    """Classification of a raw synthetic defect sequence (no orbit needed)."""
    return Classification(delta=delta, profile=DefectProfile.from_sequence(defects))


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
    points = [space.require(x0)]
    if horizon > 0 and noise > space.diameter:
        raise NoiseExceedsSpaceError(f"noise {noise} exceeds space diameter {space.diameter}")
    for i in range(horizon):
        true_next = family.evaluate(i, points[-1])
        points.append(space.reduce(space.perturb(true_next, noise, rng)))
    return PseudoOrbit.from_points(family, points)


def inject_defects(
    family: MapFamily,
    x0,
    defects: Sequence[float],
    signs: Optional[Callable[[int], int]] = None,
) -> PseudoOrbit:
    """Displace the true orbit by a prescribed amount at each step.

    x_{i+1} is f_i(x_i) displaced by defects[i]; on circle and interval the
    realized defect equals the prescription (up to circle wrap for amounts
    >= 1/2 and interval clamping), on finite spaces the nearest realizable
    distance wins. Signs alternate by default, which keeps the cumulative
    drift of isometry families bounded by the last defect.
    """
    sign_at = signs or (lambda i: 1 if i % 2 == 0 else -1)
    space = family.space
    points = [space.require(x0)]
    for i, e in enumerate(defects):
        true_next = family.evaluate(i, points[-1])
        points.append(space.reduce(space.displace(true_next, float(e), sign_at(i))))
    return PseudoOrbit.from_points(family, points)


def displace_orbit(
    family: MapFamily,
    x0,
    displacements: Sequence[float],
    signs: Optional[Callable[[int], int]] = None,
) -> PseudoOrbit:
    """Displace individual points of the true orbit (tube-style injection).

    displacements[i] moves the point x_{i+1}; untouched points stay on the
    exact orbit, so each nonzero displacement contributes defects at the two
    adjacent steps. Complements inject_defects, which displaces steps
    cumulatively and realizes the prescribed per-step defect exactly.
    """
    sign_at = signs or (lambda i: 1 if i % 2 == 0 else -1)
    orbit = family.compose(x0, len(displacements))
    points = list(orbit.points)
    space = family.space
    for i, t in enumerate(displacements):
        if t:
            points[i + 1] = space.reduce(space.displace(points[i + 1], float(t), sign_at(i)))
    return PseudoOrbit.from_points(family, points)


def periodicize(po: PseudoOrbit, period: int) -> PseudoOrbit:
    """Repeat the first `period` points out to the original horizon."""
    if not 1 <= period <= len(po.points):
        raise ValueError("period must be in 1..len(points)")
    points = tuple(po.points[i % period] for i in range(len(po.points)))
    return PseudoOrbit.from_points(po.family, points, start_index=po.start_index)


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
        rows.append([po.start_index + i, *flat(p), defect])
    return rows
