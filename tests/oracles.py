"""Independent brute-force oracles used to cross-check library results.

Nothing here may call into the solver or checker code paths it verifies:
the grid minimizer hard-codes the doubling map, the h-shadowing oracle
re-enumerates pseudo-orbits with its own breadth-first machinery, and the
two-pass pullback keeps the solver's previous algorithm, built from the maps
and the spaces' arc calculus, which the solver now uses for its top cell only.
``pull_back_chain_reference`` keeps the backward chain as it ran on image
and branch lists built in two passes before it; both pull back through
``inverse_branch_point_reference`` and ``branch_slope_reference``, the two
map methods that ``pull`` replaced. ``ungated_plan`` lifts the budget gate
so that tests reach the solver's own raises.
The series writer keeps csv.writer, whose bytes the runners' own CSV lines
must reproduce. ``orbit_table`` and ``best_orbit`` keep the per-index
best-orbit search (orbits by ``compose``, errors by ``space.distance``) that
``FiniteKernel.best`` replaced. ``find_cut_reference`` keeps the limit
route's linear cut scan, each tail sup recomputed from the defects, that
bisection replaced. The certificate checks at the end hold
the solver's own output to bounds computed apart from it: the float rate
product it replaced, the eps-tube with the rounding allowance, and a
rounded-up product of the rates.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from math import frexp, inf, ldexp, nextafter

import numpy as np


def circle_dist_array(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def doubling_grid_minimizer(po_points, resolution=1e-6):
    """Grid point minimizing the sup per-step error against the pseudo-orbit.

    The doubling map is re-implemented directly on the grid array; only the
    pseudo-orbit points come from outside.
    """
    xs = np.arange(0.0, 1.0, resolution)
    orbit = xs.copy()
    worst = np.zeros_like(xs)
    for n, target in enumerate(po_points):
        np.maximum(worst, circle_dist_array(orbit, float(target)), out=worst)
        if n < len(po_points) - 1:
            orbit = (orbit * 2.0) % 1.0
    i = int(np.argmin(worst))
    return float(xs[i]), float(worst[i])


def alternating_grid_minimizer(po_points, resolution=1e-6):
    """Grid minimizer for the alternating double/triple circle family."""
    xs = np.arange(0.0, 1.0, resolution)
    orbit = xs.copy()
    worst = np.zeros_like(xs)
    for n, target in enumerate(po_points):
        np.maximum(worst, circle_dist_array(orbit, float(target)), out=worst)
        if n < len(po_points) - 1:
            factor = 2.0 if n % 2 == 0 else 3.0
            orbit = (orbit * factor) % 1.0
    i = int(np.argmin(worst))
    return float(xs[i]), float(worst[i])


def brute_force_h_shadowing(states, step, dist, epsilon, delta, max_points):
    """Does every delta-pseudo-orbit admit an eps-shadow with exact landing?

    `step(i, x)` is the time-indexed map, `dist` the metric. Breadth-first
    over orbit prefixes; returns (verdict, witness or None).
    """
    orbits = {}
    for y in states:
        pts = [y]
        for i in range(max_points - 1):
            pts.append(step(i, pts[-1]))
        orbits[y] = pts

    frontier = [(s,) for s in states]
    while frontier:
        next_frontier = []
        for po in frontier:
            n = len(po) - 1
            if n >= 1:
                shadowed = False
                for y, orbit in orbits.items():
                    if dist(y, po[0]) >= epsilon:
                        continue
                    if orbit[n] != po[n]:
                        continue
                    if all(dist(orbit[i], po[i]) < epsilon for i in range(1, n)):
                        shadowed = True
                        break
                if not shadowed:
                    return False, po
            if len(po) < max_points:
                fx = step(len(po) - 1, po[-1])
                for q in states:
                    if dist(fx, q) < delta:
                        next_frontier.append(po + (q,))
        frontier = next_frontier
    return True, None


def exhaustive_average_minimizer(states, step, dist, po_points):
    """Best Cesaro tracking error over all start states, by direct search."""
    best = None
    length = len(po_points)
    for y in states:
        p = y
        total = 0.0
        for i in range(length):
            total += dist(p, po_points[i])
            if i < length - 1:
                p = step(i, p)
        mean = total / length
        if best is None or mean < best[1]:
            best = (y, mean)
    return best


def _orbit(step, y, length):
    pts = [y]
    for i in range(length - 1):
        pts.append(step(i, pts[-1]))
    return pts


def _pseudo_orbits(states, step, dist, delta, max_points):
    """Every delta-pseudo-orbit of 2..max_points points, depth first.

    Enumerates every point sequence of those lengths and sorts them by state
    index, which puts each prefix before its extensions.
    """
    index_seqs = []
    for length in range(2, max_points + 1):
        index_seqs.extend(itertools.product(range(len(states)), repeat=length))
    for seq in sorted(index_seqs):
        po = tuple(states[i] for i in seq)
        if all(dist(step(i, po[i]), po[i + 1]) < delta for i in range(len(po) - 1)):
            yield po


def brute_force_periodic_shadowing(states, step, dist, epsilon, delta, max_points):
    """Is every closed delta-pseudo-orbit eps-shadowed by a periodic orbit?

    Keeps the closed delta-pseudo-orbits of 2..max_points points, depth
    first. Returns (verdict, closed ones checked, witness).
    """
    checked = 0
    for po in _pseudo_orbits(states, step, dist, delta, max_points):
        n = len(po) - 1
        if po[0] != po[n]:
            continue
        checked += 1
        shadowed = False
        for y in states:
            orbit = _orbit(step, y, n + 1)
            if orbit[n] == y and all(dist(orbit[i], po[i]) < epsilon for i in range(n + 1)):
                shadowed = True
                break
        if not shadowed:
            return False, checked, po
    return True, checked, None


def brute_force_plain_shadowing(states, step, dist, epsilon, delta, max_points):
    """Is every delta-pseudo-orbit of 2..max_points points eps-shadowed?

    Returns (verdict, pseudo-orbits checked, witness).
    """
    checked = 0
    for po in _pseudo_orbits(states, step, dist, delta, max_points):
        checked += 1
        if not any(all(dist(o, p) < epsilon for o, p in zip(_orbit(step, y, len(po)), po)) for y in states):
            return False, checked, po
    return True, checked, None


def brute_force_lipschitz_shadowing(states, step, dist, bound, delta, max_points):
    """Is the best sup error of every defective delta-pseudo-orbit at most bound * defect?

    Pseudo-orbits with zero defect are skipped. Returns (verdict,
    pseudo-orbits checked, witness).
    """
    checked = 0
    for po in _pseudo_orbits(states, step, dist, delta, max_points):
        defect = max(dist(step(i, po[i]), po[i + 1]) for i in range(len(po) - 1))
        if defect == 0.0:
            continue
        checked += 1
        best = min(
            max(dist(o, p) for o, p in zip(_orbit(step, y, len(po)), po)) for y in states
        )
        if best > bound * defect:
            return False, checked, po
    return True, checked, None


def brute_force_average_shadowing(states, step, dist, epsilon, length):
    """Is every single-jump pseudo-orbit Cesaro-shadowed below eps?

    The pseudo-orbit follows the orbit of s, jumps to `target` at index
    jump_at and follows the map from there, over length + 1 points.
    Returns (verdict, pseudo-orbits checked, witness).
    """
    checked = 0
    for s in states:
        base = _orbit(step, s, length + 1)
        for jump_at in range(1, length + 1):
            for target in states:
                po = base[:jump_at] + [target]
                for i in range(jump_at, length):
                    po.append(step(i, po[-1]))
                checked += 1
                _, mean = exhaustive_average_minimizer(states, step, dist, po)
                if mean >= epsilon:
                    return False, checked, tuple(po)
    return True, checked, None


def density_feasible_reference(members, horizon, budget):
    """Smallest N >= 1 with #(members < k) / k <= budget for every k in [N, horizon].

    Scans k from the horizon down, one Fraction per k; None when N = horizon
    already fails.
    """
    for k in range(horizon, 0, -1):
        if Fraction(sum(1 for m in members if m < k), k) > budget:
            return k + 1 if k < horizon else None
    return 1 if horizon >= 1 else None


def exact_mean_reference(values):
    return sum(map(Fraction, values)) / len(values)


def off_set_sups_reference(values, members, cuts):
    """Per cut, the plain max() of the values at or past it outside members, else 0.0."""
    outside = set(range(len(values))) - set(members)
    sups = []
    for cut in cuts:
        tail = [values[n] for n in range(cut, len(values)) if n in outside]
        sups.append(max(tail) if tail else 0.0)
    return tuple(sups)


def head_is_exact(spliced, tol=1e-10):
    """True when every step of a splice's head is exact up to `tol`.

    Each step i is re-evaluated through the validated ``MapFamily.evaluate`` of f_i.
    """
    po = spliced.orbit
    fam = po.family
    return not any(
        fam.space.distance(fam.evaluate(i, po.points[i]), po.points[i + 1]) > tol
        for i in range(spliced.cut_index)
    )


def find_cut_reference(defects, horizon, oracle, target, start=0):
    """The first cut k >= start whose tail sup, max(defects[k:]), lies strictly below
    the oracle's modulus: the linear scan that bisection replaced, one probe per cut."""
    for k in range(start, horizon + 1):
        if max(defects[k:], default=0.0) < oracle.modulus(target, k, horizon):
            return k
    return None


def inverse_branch_point_reference(mapobj, branch, w, y):
    """y under inverse branch `branch` of `mapobj`, anchored at w, as the maps'
    `inverse_branch_point` computed it before `pull` returned it with the slope.

    Products pair their factors' points; a branch id outside the map raises
    InvalidBranchIdError.
    """
    from shadowlab.errors import InvalidBranchIdError
    from shadowlab.families import CircleLinearMap, ProductMap
    from shadowlab.spaces import circle_reduce, circle_signed_gap

    if isinstance(mapobj, ProductMap):
        return (
            inverse_branch_point_reference(mapobj.left, branch[0], w[0], y[0]),
            inverse_branch_point_reference(mapobj.right, branch[1], w[1], y[1]),
        )
    if isinstance(mapobj, CircleLinearMap):
        if not 0 <= branch < mapobj.degree:
            raise InvalidBranchIdError(f"branch {branch} not in 0..{mapobj.degree - 1}")
        z = circle_reduce((w + branch) / mapobj.degree)
        return circle_reduce(z + circle_signed_gap(w, y) / mapobj.degree)
    if branch not in (0, 1):
        raise InvalidBranchIdError(f"branch {branch} not in (0, 1)")
    # The two-slope map's lifted covering G(t + 2) = G(t) + 1, inverted at t.
    t = w + branch + circle_signed_gap(w, y)
    base = math.floor(t / 2.0)
    r = t - 2.0 * base
    if r < 1.0:
        val = mapobj.lam * r
    else:
        val = mapobj.lam + (1.0 - mapobj.lam) * (r - 1.0)
    return circle_reduce(val + base)


def branch_slope_reference(mapobj, branch):
    """The slope of inverse branch `branch`, rounded up, as the maps' `branch_slope` gave it:
    1/degree, lam or 1 - lam, or the float above where that rounds down; on a product the
    larger of the factors' slopes."""
    from shadowlab.families import CircleLinearMap, ProductMap

    if isinstance(mapobj, ProductMap):
        return max(branch_slope_reference(mapobj.left, branch[0]), branch_slope_reference(mapobj.right, branch[1]))
    if isinstance(mapobj, CircleLinearMap):
        rate = 1.0 / mapobj.degree
        num, den = rate.as_integer_ratio()
        return rate if num * mapobj.degree >= den else nextafter(rate, inf)
    lam = mapobj.lam
    if branch == 0:
        return lam
    upper = 1.0 - lam
    return upper if 1.0 - upper <= lam else nextafter(upper, inf)


def _cell_max_distance(space, cell, point):
    """Largest distance from `point` to an arc, or to a pair of arcs on a product."""
    if space.kind == "product":
        return max(_cell_max_distance(f, c, p) for f, c, p in zip(space.factors, cell, point))
    return space.distance(cell[0], point) + cell[1]


def two_pass_pullback(family, po, epsilon, slack=1e-12):
    """The solver as it was before its one-pass rewrite, without the budget gate.

    A float cell pass pulls the eps-ball at the last point back through the
    branches, intersecting with the eps-ball around each image and checking
    the branch domain within `slack`; a point pass then pulls the top cell's
    centre back. Returns (shadow_point, per_step_errors, verdict,
    diameter_bound, measured_diameter), and raises EmptyCellError and
    BranchDomainViolatedError where that solver did.
    """
    from shadowlab.errors import BranchDomainViolatedError, EmptyCellError

    space, k, radius = family.space, po.horizon, family.branch_radius
    maps = family.window(k)
    images = [m.apply(x) for m, x in zip(maps, po.points)]
    branches = [m.branch_of(x) for m, x in zip(maps, po.points)]
    cell = space.make_ball(po.points[k], epsilon)
    top = bottom = cell
    for j in range(k - 1, -1, -1):
        inter = space.cell_intersect(cell, space.make_ball(images[j], epsilon))
        if inter is None:
            raise EmptyCellError(f"pullback cell at step {j + 1} is empty")
        if _cell_max_distance(space, inter, images[j]) >= radius + slack:
            raise BranchDomainViolatedError(f"cell at step {j + 1} leaves the branch domain")
        if j == k - 1:
            top = inter
        cell = bottom = space.cell_pull(maps[j], branches[j], images[j], inter)
    z = space.cell_center(top)
    points = [None] * (k + 1)
    points[k] = z
    for j in range(k - 1, -1, -1):
        if space.distance(images[j], z) >= radius:
            raise BranchDomainViolatedError(f"backward iterate leaves branch domain at step {j}")
        z = points[j] = inverse_branch_point_reference(maps[j], branches[j], images[j], z)
    errors = tuple(map(space.distance, points, po.points))
    bound = diameter_bound_reference(epsilon, (m.rate for m in maps))
    return points[0], errors, all(e < epsilon for e in errors), bound, space.cell_diameter(bottom)


def ungated_plan(family, epsilon, horizon):
    """A pullback plan whose budget admits every defect, so that a test reaches the
    solver's EmptyCell and BranchDomainViolated raises past the hypothesis gate."""
    from dataclasses import replace

    from shadowlab.solver import DeltaSchedule, pullback_plan

    plan = pullback_plan(family, epsilon, horizon=horizon)
    return replace(plan, budget=DeltaSchedule(epsilon, plan.margin, (inf,) * horizon))


def _reach_reference(distance, radius, steps):
    """The solver's reach bound, with its rounding allowance of 2^-48 per step written out."""
    return nextafter(distance, inf) + ldexp(*radius) + steps * 2.0**-48


def pull_back_chain_reference(family, maps, points, z, radius=0.0, epsilon=None):
    """The backward branch chain as it was before it read the pseudo-orbit itself.

    Two passes first list the images f_j(x_j) and the branches of x_j for
    j < k = len(maps); the chain then reads them by index. Given `epsilon`,
    the tube is checked and the errors kept, as the solver does. Returns
    (centres, radii, errors) and raises where that chain did.
    """
    from shadowlab.errors import BranchDomainViolatedError, EmptyCellError

    images = [m.apply(x) for m, x in zip(maps, points)]
    branches = [m.branch_of(x) for m, x in zip(maps, points)]
    k = len(images)
    centres, radii = [None] * (k + 1), [None] * (k + 1)
    m, e = frexp(radius)
    centres[k], radii[k] = z, (m, e)
    distance, delta0 = family.space.distance, family.branch_radius
    errors = [] if epsilon is None else [distance(z, points[k])] * (k + 1)
    for j in range(k - 1, -1, -1):
        if _reach_reference(distance(images[j], z), radii[j + 1], k - j) >= delta0:
            raise BranchDomainViolatedError(
                f"cell at step {j + 1} leaves the branch domain", witness=j + 1
            )
        mapobj, branch = maps[j], branches[j]
        z = inverse_branch_point_reference(mapobj, branch, images[j], z)
        m, de = frexp(nextafter(branch_slope_reference(mapobj, branch) * m, inf))
        e += de
        centres[j], radii[j] = z, (m, e)
        if epsilon is not None:
            errors[j] = d = distance(z, points[j])
            if _reach_reference(d, radii[j], k - j + 1) > epsilon:
                raise EmptyCellError(f"cell at step {j} leaves the eps-tube", witness=j)
    return centres, radii, errors


# ---------------------------------------------------------------------------
# Average shadowing as it was before it ran on per-state tables: one metric
# call per index, six backward ladder scans, set-based block checks. The
# density kernels it calls (extraction, patching, certificates) have property
# tests of their own; its means use exact_mean_reference.


def dyadic_cover_reference(index_set, scale, horizon):
    from shadowlab.density import IndexSet

    members = []
    for l in sorted(set(n // scale for n in index_set.members)):
        members.extend(range(l * scale, min((l + 1) * scale, horizon)))
    return IndexSet.from_iterable(members, horizon)


def complement_blocks_reference(members, horizon):
    """Maximal runs of [0, horizon) outside `members`, one membership test per index."""
    blocks, run_start, member_set = [], None, set(members)
    for n in range(horizon):
        if n in member_set:
            if run_start is not None:
                blocks.append((run_start, n - 1))
                run_start = None
        elif run_start is None:
            run_start = n
    if run_start is not None:
        blocks.append((run_start, horizon - 1))
    return tuple(blocks)


def validate_reference(decomposition):
    """BlockDecomposition.validate on Python sets over range(horizon)."""
    prev_end = -1
    for a, b in decomposition.blocks:
        if not (prev_end < a <= b):
            raise ValueError(f"blocks out of order at [{a}, {b}]")
        prev_end = b
    covered = set()
    for a, b in decomposition.blocks:
        covered.update(range(a, b + 1))
    if covered != set(range(decomposition.horizon)) - set(decomposition.prime_set.members):
        raise ValueError("blocks do not exhaust the complement of J'")


def ladder_cuts_reference(off_j, defects, distances, depth=6):
    """Per level 2^-i, one backward scan for the last off-J index reaching it."""
    cuts = []
    for i in range(1, depth + 1):
        level = 0.5**i
        cut = 0
        for k in range(len(off_j) - 1, -1, -1):
            if off_j[k] and (defects[k] >= level or distances[k] >= level):
                cut = k + 1
                break
        cuts.append(cut)
    return cuts


def orbit_table(family, length, starts=None):
    """Orbits out to `length` steps, keyed by start point (default: all of X)."""
    if starts is None:
        starts = family.space.points
    return {y: family.compose(y, length) for y in starts}


def best_orbit(space, orbits, target, mean=False):
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


def distance_to_reference(sub, x):
    space = sub.ambient.space
    return min(space.distance(x, a) for a in sub.points)


def nearest_reference(sub, x):
    """The first point of A at the least distance from x."""
    space = sub.ambient.space
    return min(sub.points, key=lambda a: (space.distance(x, a), sub.points.index(a)))


def lift_to_A_reference(sub, po, blocks):
    from shadowlab.averaging import LiftResult
    from shadowlab.density import IndexSet, density_zero_to_cesaro
    from shadowlab.errors import HypothesisFailedError

    fill = sub.points[0]
    n_points = blocks.horizon
    prime = set(blocks.prime_set.members)
    members_a = set(sub.points)
    space = sub.ambient.space
    maps = sub.ambient.window(n_points - 1)
    lifted = [None] * n_points
    deviations = []
    for a, b in blocks.blocks:
        y = nearest_reference(sub, po.points[a])
        worst = space.distance(y, po.points[a])
        lifted[a] = y
        for i in range(a, b):
            y = maps[i].apply(y)
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
    defects = tuple(map(space.distance, (m.apply(y) for m, y in zip(maps, lifted)), lifted[1:]))
    support = IndexSet.from_iterable([i for i, d in enumerate(defects) if d > 0.0], n_points - 1)
    allowed = IndexSet.from_iterable(
        [m for m in blocks.prime_set.members if m < n_points - 1]
        + [m for m in blocks.fill_markers if m < n_points - 1],
        n_points - 1,
    )
    return LiftResult(
        points=tuple(lifted),
        defects=defects,
        support=support,
        allowed=allowed,
        support_contained=set(support.members) <= set(allowed.members),
        cesaro_certificate=density_zero_to_cesaro(defects, allowed, bound=max(sub.diameter, 1e-30)),
        block_deviations=tuple(deviations),
    )


def average_shadow_point_reference(sub, po):
    from shadowlab.averaging import AverageShadowResult, block_decompose, visit_condition
    from shadowlab.density import IndexSet, cesaro_to_density_zero, upper_density
    from shadowlab.errors import HypothesisFailedError

    family, space = sub.ambient, sub.ambient.space
    n_points, horizon = len(po.points), po.horizon
    visit_windows = [2**j for j in range(2, 11) if 2**j <= max(horizon, 4)]
    reports = []
    for k in range(1, 7):
        eps = 0.5**k
        passing = next(
            (rep for rep in (visit_condition(sub, eps, w, space.points) for w in visit_windows) if rep.verdict),
            None,
        )
        if passing is None:
            raise HypothesisFailedError(f"visit condition fails at epsilon {eps}", witness=eps)
        reports.append(passing)
    distances = [distance_to_reference(sub, x) for x in po.points]
    defects = list(po.defects) + [0.0]
    q1 = cesaro_to_density_zero(distances, n_points)
    q2 = cesaro_to_density_zero(defects, n_points)
    j_union = q1.index_set.union(q2.index_set)
    ladder_cuts = ladder_cuts_reference(j_union.off_mask(), defects, distances)
    blocks = block_decompose(j_union, n_points, ladder_cuts=ladder_cuts)
    lift = lift_to_A_reference(sub, po, blocks)
    y, _, orbit = best_orbit(space, orbit_table(family, horizon, starts=sub.points), lift.points, mean=True)
    shadow_vs_lift = [space.distance(orbit[i], lift.points[i]) for i in range(n_points)]
    oracle_exc = cesaro_to_density_zero(shadow_vs_lift, n_points)
    lift_vs_data = [space.distance(lift.points[i], po.points[i]) for i in range(n_points)]
    total = [space.distance(orbit[i], po.points[i]) for i in range(n_points)]
    final_exact = exact_mean_reference(total)
    slack_set = blocks.prime_set.union(oracle_exc.index_set)
    result = AverageShadowResult(
        point=y,
        lift=lift,
        blocks=blocks,
        exceptional_distance=q1.index_set,
        exceptional_defect=q2.index_set,
        oracle_exceptional=oracle_exc.index_set,
        final_cesaro_error=float(final_exact),
        final_cesaro_exact=final_exact,
        term_shadow_vs_lift=exact_mean_reference(shadow_vs_lift),
        term_lift_vs_data=exact_mean_reference(lift_vs_data),
        triangle_slack_density=Fraction(sub.diameter)
        * upper_density(IndexSet.from_iterable(slack_set.members, n_points), n_points),
        visit_reports=tuple(reports),
    )
    if not result.triangle_holds:
        raise HypothesisFailedError("triangle decomposition violated (exact arithmetic)")
    return result


def write_series_reference(path, header, rows):
    """The CSV series writer from before the runners formatted their own lines:
    csv.writer, one writerow per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Diameter certificates and the eps-tube, kept beside the solver's one
# exponent-form product of rates.


def diameter_bound_reference(epsilon, rates):
    """The float certificate the solver computed before its exponent form: 0.0 once it underflows."""
    return 2.0 * epsilon * math.prod(rates)


def validate_tube(chain, po, epsilon):
    """Every level below the top of a PullbackChain lies inside the closed eps-ball around its point."""
    from shadowlab.solver import _reach

    k = len(chain.centres) - 1
    distance = po.family.space.distance
    for j in range(k):
        extent = _reach(distance(chain.centres[j], po.points[j]), ldexp(*chain.radii[j]), k - j + 1)
        if extent > epsilon:
            raise ValueError(f"cell at {j} leaves the tube: {extent} > {epsilon}")


def _rounded_product(scale, factors):
    """scale * prod(factors) as (mantissa, exponent), each product rounded up."""
    m, e = frexp(scale)
    for factor in factors:
        m, de = frexp(nextafter(factor * m, inf))
        e += de
    return m, e


def uniqueness_certificate(family, po, epsilon, k):
    """Certified diameter of the horizon-k shadow cell.

    Any two eps-shadowing points of the same pseudo-orbit lie within this
    value of each other. The pulled-back radius bound is checked against it
    in exponent form, so a claimed rate below a branch's slope raises
    EmptyCell even where both products underflow as floats.
    """
    from shadowlab.errors import EmptyCellError
    from shadowlab.pseudo_orbits import PseudoOrbit
    from shadowlab.solver import pullback_shadow

    if k > po.horizon:
        raise ValueError("k exceeds the pseudo-orbit horizon")
    truncated = PseudoOrbit(
        family=family,
        points=po.points[: k + 1],
        defects=po.defects[:k],
    )
    report, chain = pullback_shadow(family, truncated, epsilon)
    # prod(s_j) * r_k against eps * prod(rate_j), both in exponent form and
    # rounded up alike, so neither underflows. A float rate stands for the
    # contraction it rounds, which may lie one float above it.
    m, e = chain.radii[0]
    bound_m, bound_e = _rounded_product(
        epsilon, (nextafter(rate, inf) for rate in family.rates(k))
    )
    if ldexp(m, e - bound_e) > bound_m:
        raise EmptyCellError(f"radius 2^{math.log2(m) + e:.1f} exceeds 2^{math.log2(bound_m) + bound_e:.1f}")
    return report.diameter_bound
