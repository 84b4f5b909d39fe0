import pytest

from shadowlab.errors import (
    HypothesisFailedError,
    NotEquicontinuousAtHorizonError,
    OracleUnavailableError,
)
from shadowlab.families import (
    MapFamily,
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    identity_family,
    rotation_family,
)
from shadowlab.limits import (
    ExhaustiveOracle,
    LimitShadowResult,
    equicontinuity_modulus,
    limit_shadow_point,
    shadowing_oracle,
    splice,
)
from shadowlab.pseudo_orbits import PseudoOrbit, inject_defects, perturb_orbit


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
    assert spliced.head_is_exact()
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
        lhs = space.distance(orbit_y.points[i], po.points[i])
        a = space.distance(orbit_y.points[i], orbit_n.points[i])
        b = space.distance(orbit_n.points[i], po.points[i])
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
    assert orbit.points[10:] == po.points[10:]


def test_doubling_family_through_solver_oracle():
    fam = doubling_family()
    po = inject_defects(fam, 0.3, [0.02 / (i + 1) for i in range(400)])
    result = limit_shadow_point(fam, po, levels=8)
    assert result.table_nonincreasing
    for rec in result.levels:
        assert rec.sup_error_vs_spliced < rec.target
    assert result.converged


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
        orbit = family.compose(y, len(points) - 1).points
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
    assert ExhaustiveOracle(fam).shadow(po, 0.5) == expected
    assert first_sup_minimiser(fam, points) == expected


@pytest.mark.parametrize("noise", [0.015, 1.015])
@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_oracle_returns_first_sup_minimiser(seed, noise):
    fam = eight_state_family()
    po = perturb_orbit(fam, seed % 8, 9, noise, seed)
    assert ExhaustiveOracle(fam).shadow(po, 0.5) == first_sup_minimiser(fam, po.points)


def test_exhaustive_oracle_builds_one_orbit_table_per_horizon(monkeypatch):
    fam = eight_state_family()
    calls = []
    compose = MapFamily.compose

    def counted(self, x, length):
        calls.append(length)
        return compose(self, x, length)

    monkeypatch.setattr(MapFamily, "compose", counted)
    oracle = ExhaustiveOracle(fam)
    for seed in range(6):
        oracle.shadow(perturb_orbit(fam, seed % 8, 200, 0.015, seed), 0.5)
    assert calls == [200] * 8
    oracle.shadow(perturb_orbit(fam, 0, 50, 0.015, 0), 0.5)
    assert calls == [200] * 8 + [50] * 8
    # Six levels at h=200: one table of 8 orbits plus one compose per
    # level for the final table, where every level used to rebuild the table.
    calls.clear()
    po = inject_defects(fam, 0, [1.0 if i in (2, 5) else 0.0 for i in range(200)])
    result = limit_shadow_point(fam, po, levels=6)
    assert len(calls) == 8 + len(result.levels)


def test_table_that_rises_by_a_millionth_is_not_nonincreasing():
    def result(table):
        return LimitShadowResult(point=0.0, converged=True, cauchy_gaps=(), levels=(), table=table)

    assert result((0.5, 0.5, 0.25)).table_nonincreasing
    assert not result((0.5, 0.5 + 1e-6, 0.25)).table_nonincreasing
