import hashlib
import math

import pytest

from oracles import head_is_exact
from shadowlab import limits, pseudo_orbits, solver
from shadowlab.errors import (
    HypothesisFailedError,
    NotEquicontinuousAtHorizonError,
    OracleUnavailableError,
)
from shadowlab.families import (
    FiniteKernel,
    MapFamily,
    alternating_family,
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    identity_family,
    rotation_family,
    slow_expanding_family,
)
from shadowlab.limits import (
    ExhaustiveOracle,
    LimitShadowResult,
    PullbackOracle,
    SplicedOrbit,
    TransportOracle,
    equicontinuity_modulus,
    limit_shadow_point,
    shadowing_oracle,
    splice,
)
from shadowlab.pseudo_orbits import PseudoOrbit, inject_defects, perturb_orbit
from shadowlab.solver import delta_budget


def harmonic_rotation_orbit(horizon=10_000):
    fam = rotation_family()
    return fam, inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(horizon)])


# ---------------------------------------------------------------------------
# equicontinuity


def test_identity_modulus_is_epsilon():
    est = equicontinuity_modulus(identity_family(), 0.1)
    assert est.modulus == 0.1
    assert "estimate" in est.note


def test_rotation_modulus_is_epsilon():
    est = equicontinuity_modulus(rotation_family(), 0.1)
    assert est.modulus == 0.1


def test_doubling_fails_every_rung():
    with pytest.raises(NotEquicontinuousAtHorizonError):
        equicontinuity_modulus(doubling_family(), 0.1, horizon=20)


def test_product_of_isometries_keeps_full_modulus():
    from shadowlab.families import product_family

    prod = product_family(rotation_family(), rotation_family(0.25))
    est = equicontinuity_modulus(prod, 0.1)
    assert est.modulus == 0.1


# ---------------------------------------------------------------------------
# splice


def test_splice_cut_zero_is_identity():
    fam, po = harmonic_rotation_orbit(100)
    spliced = splice(fam, po, 0)
    assert spliced.orbit.points == po.points
    assert spliced.head == ()


def test_splice_finite_permutation_exact_backward():
    fam = finite_cycle_family(5)
    po = inject_defects(fam, 0, [0.0, 1.0, 0.0, 1.0] + [0.0] * 10)
    spliced = splice(fam, po, 6)
    assert head_is_exact(spliced)
    # Permutations invert exactly: the head is the exact backward orbit.
    z = po.points[6]
    for i in range(5, -1, -1):
        z = fam.map_at(i).preimages(z)[0]
    assert spliced.orbit.points[0] == z


def test_splice_defect_profile_zero_then_original():
    fam, po = harmonic_rotation_orbit(500)
    spliced = splice(fam, po, 120)
    assert all(d <= 1e-10 for d in spliced.orbit.defects[:119])
    assert spliced.orbit.defects[120:] == po.defects[120:]
    # Seam lands exactly on the original tail point.
    assert spliced.orbit.points[120] == po.points[120]
    assert spliced.orbit.defects[119] <= 1e-10


def test_splice_head_stays_near_data():
    fam, po = harmonic_rotation_orbit(300)
    spliced = splice(fam, po, 50)
    space = fam.space_at(0)
    gaps = [
        space.distance(spliced.orbit.points[i], po.points[i]) for i in range(50)
    ]
    # Closest-lift rule: single-branch rotations transport the cut point back,
    # so head-to-data gaps stay bounded by the accumulated defect tail.
    assert max(gaps) <= sum(po.defects[:50]) + 1e-12


@pytest.mark.parametrize("data,expected", [(0.7, 0.75), (0.5, 0.25), (0.0, 0.25)])
def test_splice_scores_both_doubling_preimages(data, expected):
    # Doubling's preimages of 0.5 are 0.25 (branch 0) and 0.75 (branch 1).
    # Data at 0.7 is closer to branch 1; data at 0.5 or 0.0 lies exactly
    # 1/4 from both, a tie that goes to branch 0.
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [data, 0.5])
    assert fam.map_at(0).preimages(0.5) == [0.25, 0.75]
    assert splice(fam, po, 1).head == (expected,)


def test_points_only_splice_has_no_defects_to_read():
    fam, po = harmonic_rotation_orbit(200)
    full = splice(fam, po, 50)
    bare = splice(fam, po, 50, reads_defects=False)
    assert bare.head == full.head
    assert bare.orbit.points == full.orbit.points
    assert bare.orbit.defects is None
    with pytest.raises(TypeError):
        bare.orbit.max_defect
    with pytest.raises(TypeError):
        bare.orbit.defects[0]


def test_head_is_exact_rejects_a_head_of_the_wrong_maps():
    fam = alternating_family()
    # An exact orbit of f_1, f_2, ... read from time 0: doubling and tripling
    # swap places, so the head is not an orbit of f_0, f_1, ...
    points = [0.3]
    for n in range(1, 13):
        points.append(fam.evaluate(n, points[-1]))
    po = PseudoOrbit.from_points(fam, points)
    assert not head_is_exact(SplicedOrbit(cut_index=6, head=tuple(points[:6]), orbit=po))


def _splice_cases():
    rot, rot_po = harmonic_rotation_orbit(40)
    dbl = doubling_family()
    dbl_po = inject_defects(dbl, 0.2, [0.01 / (i + 1) for i in range(30)])
    eight = eight_state_family()
    eight_po = perturb_orbit(eight, 3, 20, 0.015, seed=4)
    alt = alternating_family()
    alt_po = PseudoOrbit.from_points(alt, alt.compose(0.3, 24))
    return [(rot, rot_po), (dbl, dbl_po), (eight, eight_po), (alt, alt_po)]


@pytest.mark.parametrize("case", range(4))
def test_splice_orbit_equals_from_points_of_its_points(case):
    fam, po = _splice_cases()[case]
    for cut in (0, 1, po.horizon // 2, po.horizon):
        spliced = splice(fam, po, cut)
        fresh = PseudoOrbit.from_points(fam, spliced.orbit.points)
        assert spliced.orbit.points == fresh.points
        assert spliced.orbit.defects == fresh.defects
        assert head_is_exact(spliced)


# ---------------------------------------------------------------------------
# moduli and cuts


def test_pullback_modulus_is_the_brute_force_tail_minimum_of_the_budget():
    fam = slow_expanding_family()
    oracle = PullbackOracle(fam)
    eps = oracle.accuracy(0.125)

    def brute(cut, horizon):
        values = delta_budget(fam, eps, horizon=max(horizon, 1)).values
        return min(values[cut:horizon], default=values[-1])

    for cut, horizon in ((0, 50), (7, 50), (49, 50), (50, 50), (0, 1), (1, 1), (0, 0), (3, 9), (0, 50)):
        assert oracle.modulus(0.125, cut, horizon) == brute(cut, horizon)


def test_pullback_modulus_of_an_empty_tail_is_the_last_steps_budget():
    fam = slow_expanding_family()
    oracle = PullbackOracle(fam)
    eps = oracle.accuracy(0.5)
    values = delta_budget(fam, eps, horizon=40).values
    assert oracle.modulus(0.5, 40, 40) == values[39] == oracle.modulus(0.5, 39, 40)
    assert oracle.modulus(0.5, 0, 0) == delta_budget(fam, eps, horizon=1).values[0]


def test_cut_needs_a_tail_strictly_below_the_modulus():
    fam = finite_cycle_family(4)
    po = inject_defects(fam, 0, [0.5, 0.5, 0.0, 0.0])
    oracle = ExhaustiveOracle(fam)
    # The tail sups at k = 0, 1 equal the modulus exactly: not admissible.
    assert oracle.modulus(1.0, 0, 4) == 0.5
    assert po.defects == (0.5, 0.5, 0.0, 0.0)
    (record,) = limit_shadow_point(fam, po, levels=1).levels
    assert record.cut == 2


# ---------------------------------------------------------------------------
# limit_shadow_point


def test_true_orbit_gives_start_point_and_zero_table():
    fam = rotation_family()
    po = perturb_orbit(fam, 0.3, 1000, 0.0, seed=0)
    result = limit_shadow_point(fam, po, levels=3)
    assert result.point == 0.3
    assert all(t == 0.0 for t in result.table)
    assert result.converged


def test_rotation_harmonic_acceptance_profile():
    fam, po = harmonic_rotation_orbit(10_000)
    result = limit_shadow_point(fam, po, levels=8)
    assert len(result.levels) == 8
    # Each level shadows its spliced orbit within the 1/n target.
    for rec in result.levels:
        assert rec.sup_error_vs_spliced < rec.target
    # Convergence table nonincreasing, final window below the last target.
    assert result.table_nonincreasing
    assert result.table[-1] < 1.0 / 8.0
    # Harmonic drift keeps consecutive y_n ~1e-4 apart: reported, not hidden.
    assert not result.converged
    assert all(g < 1e-3 for g in result.cauchy_gaps)


def test_rotation_triangle_step_at_final_level():
    fam, po = harmonic_rotation_orbit(10_000)
    result = limit_shadow_point(fam, po, levels=8)
    space = fam.space_at(0)
    final = result.levels[-1]
    y, y_n = result.point, final.point
    # Isometry: d(F_i(y), F_i(y_n)) == d(y, y_n) for all i.
    gap = space.distance(y, y_n)
    target = final.target
    assert gap < target / 2.0
    window_hi = min(2 * final.cut, po.horizon)
    orbit_y = fam.compose(y, window_hi)
    orbit_n = fam.compose(y_n, window_hi)
    for i in range(final.cut, window_hi + 1):
        lhs = space.distance(orbit_y[i], po.points[i])
        a = space.distance(orbit_y[i], orbit_n[i])
        b = space.distance(orbit_n[i], po.points[i])
        assert lhs <= a + b + 1e-12
        assert a < target / 2.0
        assert b < target


def test_finite_family_eventually_zero_defects_exact():
    fam = finite_cycle_family(4)
    po = inject_defects(fam, 0, [1.0 if i in (2, 5) else 0.0 for i in range(60)])
    result = limit_shadow_point(fam, po, levels=4)
    assert result.converged
    assert all(t == 0.0 for t in result.table)
    # The point's orbit matches the data exactly past the last defect.
    orbit = fam.compose(result.point, po.horizon)
    assert orbit[10:] == po.points[10:]


def test_doubling_family_through_solver_oracle():
    fam = doubling_family()
    po = inject_defects(fam, 0.3, [0.02 / (i + 1) for i in range(400)])
    result = limit_shadow_point(fam, po, levels=8)
    assert result.table_nonincreasing
    for rec in result.levels:
        assert rec.sup_error_vs_spliced < rec.target
    assert result.converged


def test_slow_expanding_cuts_fit_the_budgets_of_the_steps_they_guard():
    # slow_expanding's rates rise with n, so its latest steps have the least
    # budget. A modulus read from the first steps of the tail let a defect of
    # 0.0028 at step 358 through against that step's budget of 0.00034.
    fam = slow_expanding_family()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(400)])
    result = limit_shadow_point(fam, po, levels=8)
    assert len(result.levels) == 8
    assert result.table_nonincreasing
    assert result.table[-1] < 1.0 / 8


def counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_levels_sharing_a_cut_share_one_splice_and_one_pullback(monkeypatch):
    fam = doubling_family()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(100)])
    pullbacks = counting(monkeypatch, limits, "pullback_shadow")
    splices = counting(monkeypatch, limits, "splice")
    result = limit_shadow_point(fam, po, levels=8)
    assert len({rec.cut for rec in result.levels}) == 1
    assert len(result.levels) == 8
    assert len(pullbacks) == 1
    assert len(splices) == 1


def test_rotation_composes_once_per_level(monkeypatch):
    # The final table reads the last level's orbit, which is y_final's.
    fam, po = harmonic_rotation_orbit(2000)
    calls = counting(monkeypatch, MapFamily, "compose")
    result = limit_shadow_point(fam, po, levels=8)
    assert len({rec.cut for rec in result.levels}) == len(result.levels)
    assert len(calls) == len(result.levels)


@pytest.mark.parametrize(
    "make,x0,horizon",
    [(rotation_family, 0.2, 2000), (eight_state_family, 0, 600), (doubling_family, 0.2, 400), (slow_expanding_family, 0.2, 400)],
    ids=["transport", "exhaustive", "pullback", "pullback-rising-rates"],
)
def test_each_level_bisects_for_its_cut(monkeypatch, make, x0, horizon):
    fam = make()
    if fam.space.kind == "finite":
        defects = [1.0 if i in (2, 5, 150) else 0.0 for i in range(horizon)]
    else:
        defects = [1.0 / (i + 1) for i in range(horizon)]
    po = inject_defects(fam, x0, defects)
    probes = [counting(monkeypatch, oracle, "modulus") for oracle in (TransportOracle, ExhaustiveOracle, PullbackOracle)]
    result = limit_shadow_point(fam, po, levels=8)
    assert any(rec.cut > 0 for rec in result.levels)
    # At most ceil(log2(h + 2)) probes per bisection, and one for the record's delta.
    assert 0 < sum(map(len, probes)) <= 8 * (math.ceil(math.log2(horizon + 2)) + 2)


def test_each_level_measures_its_window_from_its_cut(monkeypatch):
    # The splice's tail is the data, so the window [cut, min(2 cut, h)] of
    # the shadow's orbit against the splice is its error against the data.
    fam, po = harmonic_rotation_orbit(2000)
    shadows = counting(monkeypatch, TransportOracle, "shadow")
    result = limit_shadow_point(fam, po, levels=8)
    windows = [(rec.cut, min(max(2 * rec.cut, rec.cut + 1), po.horizon)) for rec in result.levels]
    assert [args[3:] for args in shadows] == windows
    for rec, (lo, hi) in zip(result.levels, windows):
        assert rec.window_error == fam.sup_distance(fam.compose(rec.point, hi), po.points, lo, hi)


def test_pullback_route_builds_one_budget_per_accuracy(monkeypatch):
    # The modulus and every shadow at one accuracy share one plan, so each
    # accuracy reads the family's rates once: delta_budget is their one reader.
    fam = alternating_family()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(1000)])
    budgets = counting(monkeypatch, solver, "delta_budget")
    reads = counting(monkeypatch, MapFamily, "rates")
    # Targets from 1/9 down fall below the accuracy cap 0.99 * delta_0 / 2 = 0.12375.
    result = limit_shadow_point(fam, po, levels=12)
    oracle = PullbackOracle(fam)
    accuracies = {oracle.accuracy(rec.target) for rec in result.levels}
    assert len(accuracies) > 1
    assert sorted(args[1] for args in budgets) == sorted(accuracies)
    assert len(reads) == len(accuracies)


def test_non_limit_pseudo_orbit_rejected():
    fam = rotation_family()
    po = inject_defects(fam, 0.1, [0.3] * 400)
    with pytest.raises(HypothesisFailedError):
        limit_shadow_point(fam, po, levels=4)


def test_oracle_selection():
    assert shadowing_oracle(finite_cycle_family(3)).__class__.__name__ == "ExhaustiveOracle"
    assert shadowing_oracle(rotation_family()).__class__.__name__ == "TransportOracle"
    assert shadowing_oracle(doubling_family()).__class__.__name__ == "PullbackOracle"
    from dataclasses import replace

    odd = replace(rotation_family(), is_isometry=False)
    with pytest.raises(OracleUnavailableError):
        shadowing_oracle(odd)


# ---------------------------------------------------------------------------
# exhaustive oracle: the first start point with the least sup error


def first_sup_minimiser(family, points):
    space = family.space_at(0)
    best = None
    for y in space.points:
        orbit = family.compose(y, len(points) - 1)
        err = max(space.distance(a, b) for a, b in zip(orbit, points))
        if best is None or err < best[1]:
            best = (y, err, orbit)
    return best


@pytest.mark.parametrize(
    "make,points,expected",
    [
        # Every start point misses by 1: the first one wins the tie.
        (lambda: finite_cycle_family(3), (0, 2), (0, 1.0, (0, 1))),
        # States 1 and 4 both miss by the parking distance; 1 comes first.
        (eight_state_family, (4, 2), (1, 0.01, (1, 2))),
    ],
)
def test_exhaustive_oracle_breaks_ties_toward_first_start(make, points, expected):
    fam = make()
    po = PseudoOrbit.from_points(fam, points)
    assert whole_window_shadow(ExhaustiveOracle(fam), po) == expected
    assert first_sup_minimiser(fam, points) == expected


def whole_window_shadow(oracle, po):
    """(y, sup error, orbit) of a shadow whose window is the whole horizon."""
    y, err, window_err, orbit = oracle.shadow(po, 0.5, 0, po.horizon)
    assert window_err == err
    return y, err, orbit


@pytest.mark.parametrize("noise", [0.015, 1.015])
@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_oracle_returns_first_sup_minimiser(seed, noise):
    fam = eight_state_family()
    po = perturb_orbit(fam, seed % 8, 9, noise, seed)
    assert whole_window_shadow(ExhaustiveOracle(fam), po) == first_sup_minimiser(fam, po.points)


@pytest.mark.parametrize("make", [rotation_family, eight_state_family], ids=["transport", "exhaustive"])
@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 4), (3, 6), (5, 9), (9, 9)])
def test_oracle_window_error_is_the_sup_over_the_window(make, lo, hi):
    fam = make()
    po = perturb_orbit(fam, 0.3 if fam.space.kind == "circle" else 1, 9, 0.05, 7)
    oracle = shadowing_oracle(fam)
    y, err, window_err, orbit = oracle.shadow(po, 0.5, lo, hi)
    errors = [fam.space.distance(a, b) for a, b in zip(orbit, po.points)]
    assert orbit == fam.compose(y, po.horizon)
    assert err == max(errors)
    assert window_err == max(errors[lo : hi + 1])


def test_exhaustive_oracle_builds_one_kernel_per_horizon(monkeypatch):
    fam = eight_state_family()
    built, composed = [], []
    compose = MapFamily.compose

    class CountedKernel(FiniteKernel):
        def __init__(self, family, steps):
            built.append(steps)
            super().__init__(family, steps)

    def counted(self, x, length):
        composed.append(length)
        return compose(self, x, length)

    monkeypatch.setattr(limits, "FiniteKernel", CountedKernel)
    monkeypatch.setattr(MapFamily, "compose", counted)
    oracle = ExhaustiveOracle(fam)
    for seed in range(6):
        oracle.shadow(perturb_orbit(fam, seed % 8, 200, 0.015, seed), 0.5, 0, 200)
    assert built == [200]
    oracle.shadow(perturb_orbit(fam, 0, 50, 0.015, 0), 0.5, 0, 50)
    assert built == [200, 50]
    assert composed == []  # the kernel follows step tables, not compose
    # Six levels at h=200 share one cut and one kernel; the final table
    # reads the kernel's witness orbit and composes nothing.
    built.clear()
    po = inject_defects(fam, 0, [1.0 if i in (2, 5) else 0.0 for i in range(200)])
    result = limit_shadow_point(fam, po, levels=6)
    assert len(result.levels) == 6
    assert built == [200]
    assert composed == []


def test_exhaustive_oracle_measures_the_minimum_distance_once(monkeypatch):
    fam = eight_state_family()
    space_type = type(fam.space)
    measure = space_type.min_positive_distance
    calls, probes = [], []

    def counted(self):
        calls.append(self)
        return measure(self)

    modulus = ExhaustiveOracle.modulus

    def probed(self, target, cut, horizon):
        probes.append(cut)
        return modulus(self, target, cut, horizon)

    monkeypatch.setattr(space_type, "min_positive_distance", counted)
    monkeypatch.setattr(ExhaustiveOracle, "modulus", probed)
    po = inject_defects(fam, 0, [1.0 if i in (2, 5) else 0.0 for i in range(200)])
    limit_shadow_point(fam, po, levels=6)
    assert len(probes) > 1
    assert len(calls) == 1


def test_table_that_rises_by_a_millionth_is_not_nonincreasing():
    def result(table):
        return LimitShadowResult(point=0.0, converged=True, cauchy_gaps=(), levels=(), table=table)

    assert result((0.5, 0.5, 0.25)).table_nonincreasing
    assert not result((0.5, 0.5 + 1e-6, 0.25)).table_nonincreasing


# ---------------------------------------------------------------------------
# head defects are computed only for the oracle that reads them


def _finite_limit_orbit():
    fam = finite_cycle_family(4)
    return fam, inject_defects(fam, 0, [1.0 if i in (2, 5) else 0.0 for i in range(60)])


def _doubling_limit_orbit():
    fam = doubling_family()
    return fam, inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(400)])


@pytest.mark.parametrize(
    "make,reads",
    [(lambda: harmonic_rotation_orbit(2000), False), (_finite_limit_orbit, False), (_doubling_limit_orbit, True)],
    ids=["rotation", "finite", "doubling"],
)
def test_head_defects_only_for_the_pullback_oracle(monkeypatch, make, reads):
    fam, po = make()
    calls = counting(monkeypatch, pseudo_orbits, "_defects")
    result = limit_shadow_point(fam, po, levels=8)
    assert any(rec.cut > 0 for rec in result.levels)
    assert shadowing_oracle(fam).reads_defects == reads
    assert (len(calls) >= 1) == reads


# ---------------------------------------------------------------------------
# pinned outputs: sha256 of repr(limit_shadow_point(...)) on the benchmark's
# shapes (harmonic defects from x0 = 0.2, 8 levels), which covers every
# LevelRecord, the table and the point


LIMIT_REPR_SHA256 = {
    "rotation": "b1bca6d1ba839bb9c0c5b7f3d8d0eedeee75453747d2f6b2baf040f5590c675a",
    "doubling": "bd18c5b1b346a408db15927182b43eaf261b7fe5073ac200e5adac3c3733c505",
    "alternating": "4ab7f191c311cd77b2d56fcff6fb6e3c359a5d19a87ccdf85f8e1ee296983348",
}


@pytest.mark.parametrize(
    "make,horizon",
    [(rotation_family, 10_000), (doubling_family, 4000), (alternating_family, 4000)],
    ids=["rotation", "doubling", "alternating"],
)
def test_limit_shadow_point_repr_is_pinned(make, horizon):
    fam = make()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(horizon)])
    result = limit_shadow_point(fam, po, levels=8)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == LIMIT_REPR_SHA256[fam.name]
