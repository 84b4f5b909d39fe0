import hashlib
import math
import random

import pytest

from oracles import doubling_grid_minimizer, ungated_plan, uniqueness_certificate, validate_tube
from shadowlab.errors import (
    BranchDomainViolatedError,
    DeltaBudgetViolatedError,
    EmptyCellError,
    EpsilonTooLargeError,
    NonPeriodicInputError,
    NotExpandingError,
)
from shadowlab import families
from shadowlab.families import (
    CircleLinearMap,
    CircleRotation,
    MapFamily,
    Schedule,
    alternating_family,
    barely_expanding_family,
    constant_schedule,
    doubling_family,
    identity_family,
    product_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.pseudo_orbits import PseudoOrbit, inject_defects, perturb_orbit
from shadowlab.solver import (
    MARGIN,
    DeltaSchedule,
    PullbackChain,
    delta_budget,
    periodic_shadow,
    pullback_plan,
    pullback_shadow,
)
from shadowlab.spaces import circle_distance


def scheduled_noise_orbit(family, x0, horizon, epsilon, seed, fraction=0.9):
    """Pseudo-orbit whose defects stay inside the per-step budget."""
    budget = delta_budget(family, epsilon, horizon=horizon)
    rng = random.Random(seed)
    defects = [rng.random() * budget.values[j] * fraction for j in range(horizon)]
    return inject_defects(family, x0, defects, signs=lambda i: 1 if rng.random() < 0.5 else -1)


# ---------------------------------------------------------------------------
# delta_budget


def test_budget_doubling_value():
    sched = delta_budget(doubling_family(), 0.1, margin=0.98, horizon=4)
    assert sched.values[0] == pytest.approx(0.049, abs=1e-15)
    assert all(v == sched.values[0] for v in sched.values)


def test_budget_stays_inside_admissible_interval():
    fam = doubling_family()
    sched = delta_budget(fam, 0.1, margin=0.98, horizon=8)
    for n in range(8):
        lam = fam.rate_at(n)
        assert 0.0 < sched.values[n] < (1.0 - lam) * 0.1
        assert sched.values[n] + lam * 0.1 < 0.1


def test_budget_shrinks_for_slow_family():
    sched = delta_budget(slow_expanding_family(), 0.1, margin=0.5, horizon=10)
    # One-based rates n/(n+1): the map at time j carries rate (j+1)/(j+2),
    # so the budget at time j is 0.05 / (j+2).
    for j in range(10):
        assert sched.values[j] == pytest.approx(0.05 / (j + 2), abs=1e-15)


def test_budget_limit_as_rate_vanishes():
    from dataclasses import replace

    from shadowlab.families import CircleLinearMap

    fam = replace(doubling_family(), maps=constant_schedule(CircleLinearMap(10**9)))
    sched = delta_budget(fam, 0.1, margin=0.5, horizon=3)
    assert sched.values[0] == pytest.approx(0.05, rel=1e-6)


def test_budget_epsilon_gate():
    with pytest.raises(EpsilonTooLargeError):
        delta_budget(doubling_family(), 0.125, horizon=4)
    with pytest.raises(EpsilonTooLargeError):
        delta_budget(doubling_family(), 0.2, horizon=4)


# ---------------------------------------------------------------------------
# pullback_shadow


def test_true_orbit_shadowed_by_itself():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.37, 24, 0.0, seed=0)
    report, _ = pullback_shadow(fam, po, 0.1)
    assert report.shadow_point == 0.37
    assert max(report.per_step_errors) == 0.0
    assert report.verdict


def test_doubling_seeded_run_matches_spec_scenario():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.123, 64, 0.049, seed=7)
    report, chain = pullback_shadow(fam, po, 0.1)
    assert report.verdict
    assert max(report.per_step_errors) < 0.1
    validate_tube(chain, po, 0.1)


def test_diameter_bound_value_at_horizon_20():
    fam = doubling_family()
    report, _ = pullback_shadow(fam, perturb_orbit(fam, 0.3, 20, 0.0, seed=0), 0.1)
    assert report.diameter_bound == pytest.approx(1.9073486328125e-07, abs=0.0)


def test_reported_errors_match_forward_iteration_at_short_horizon():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.4, 16, 0.049, seed=3)
    report, _ = pullback_shadow(fam, po, 0.1)
    orbit = fam.compose(report.shadow_point, 16)
    forward = [
        fam.space_at(i).distance(orbit[i], po.points[i]) for i in range(17)
    ]
    for a, b in zip(forward, report.per_step_errors):
        assert a == pytest.approx(b, abs=1e-10)


def test_budget_violation_raises_with_witness():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.2, 16, 0.06, seed=1)
    assert po.max_defect > 0.049
    with pytest.raises(DeltaBudgetViolatedError) as info:
        pullback_shadow(fam, po, 0.1)
    assert isinstance(info.value.witness, int)


def test_empty_cell_with_budget_check_disabled():
    fam = doubling_family()
    points = list(fam.compose(0.1, 6))
    points[3] = fam.space_at(3).reduce(points[3] + 0.4)  # jump beyond 2 eps
    po = PseudoOrbit.from_points(fam, points)
    with pytest.raises(EmptyCellError):
        pullback_shadow(fam, po, 0.1, plan=ungated_plan(fam, 0.1, po.horizon))


def test_verdict_rejects_an_error_equal_to_epsilon():
    # The defect 2 eps leaves a one-point top cell exactly eps from the last
    # point, so the last per-step error equals eps and a strict verdict fails.
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.1875, 0.25])
    report, _ = pullback_shadow(fam, po, 0.0625, plan=ungated_plan(fam, 0.0625, po.horizon))
    assert report.per_step_errors == (0.03125, 0.0625)
    assert report.verdict is False


def test_top_cell_touching_the_eps_sphere_passes():
    # The same orbit: a one-point top cell exactly eps from the last point.
    # The top level lies in its ball by construction and is not checked
    # numerically; up(eps) plus the rounding allowance would exceed eps.
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.1875, 0.25])
    _, chain = pullback_shadow(fam, po, 0.0625, plan=ungated_plan(fam, 0.0625, po.horizon))
    assert chain.centres[1] == 0.3125 and math.ldexp(*chain.radii[1]) == 0.0
    validate_tube(chain, po, 0.0625)


def test_a_level_below_the_top_at_exactly_epsilon_fails_the_tube():
    # Top cell {0.3125}; z_1 = 0.15625 sits eps/2 from x_1, and f(x_0) is 2 eps
    # from z_1, so z_0 = 0.078125 is exactly eps = 1/16 from x_0. Every value
    # is dyadic, so the distance is exact and only the rounding allowance
    # pushes the level past eps.
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.140625, 0.1875, 0.25])
    with pytest.raises(EmptyCellError) as caught:
        pullback_shadow(fam, po, 0.0625, plan=ungated_plan(fam, 0.0625, po.horizon))
    assert caught.value.witness == 0
    chain = PullbackChain([0.078125, 0.15625, 0.3125], [(0.0, 0), (0.0, 0), (0.0, 0)])
    with pytest.raises(ValueError):
        validate_tube(chain, po, 0.0625)


def test_branch_domain_check_counts_the_cell_radius():
    # x_2 = f(x_1), so the top cell is B(0.75, eps) and z_1 = x_1 = 0.375 with
    # r_1 = eps/2 = 0.03125. f(x_0) = 0.59375 is 0.21875 from z_1, and
    # 0.21875 + 0.03125 = delta_0 = 0.25 exactly: the cell touches the edge
    # of the branch domain, which is open.
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.296875, 0.375, 0.75])
    assert fam.space.distance(fam.map_at(0).apply(0.296875), 0.375) + 0.03125 == fam.branch_radius
    with pytest.raises(BranchDomainViolatedError) as caught:
        pullback_shadow(fam, po, 0.0625, plan=ungated_plan(fam, 0.0625, po.horizon))
    assert caught.value.witness == 1


def test_monotone_nesting_of_final_cells():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.61, 21, 0.049, seed=11)
    previous = None
    for k in range(1, 22):
        trunc = PseudoOrbit(fam, po.points[: k + 1], po.defects[:k])
        _, chain = pullback_shadow(fam, trunc, 0.1)
        cell = (chain.centres[0], math.ldexp(*chain.radii[0]))
        if previous is not None:
            assert circle_distance(previous[0], cell[0]) + cell[1] <= previous[1] + 1e-12
        previous = cell


def test_measured_diameter_within_certificate_at_every_horizon():
    fam = alternating_family()
    po = perturb_orbit(fam, 0.3, 30, 0.03, seed=4)
    for k in (1, 5, 10, 20, 30):
        trunc = PseudoOrbit(fam, po.points[: k + 1], po.defects[:k])
        report, _ = pullback_shadow(fam, trunc, 0.1)
        assert report.measured_diameter <= report.diameter_bound + 1e-15


@pytest.mark.parametrize(
    "make", [doubling_family, alternating_family, slow_expanding_family], ids=lambda f: f.__name__
)
def test_verdict_true_across_seeds_and_horizons(make):
    fam = make()
    for horizon in (32, 256):
        for seed in range(20):
            po = scheduled_noise_orbit(fam, (0.05 + 0.045 * seed) % 1.0, horizon, 0.1, seed)
            report, chain = pullback_shadow(fam, po, 0.1)
            assert report.verdict, (fam.name, horizon, seed)
            validate_tube(chain, po, 0.1)


def test_product_family_pullback():
    fam = product_family(doubling_family(), tripling_family())
    po = perturb_orbit(fam, (0.2, 0.7), 40, 0.04, seed=5)
    report, chain = pullback_shadow(fam, po, 0.09)
    assert report.verdict
    validate_tube(chain, po, 0.09)


def test_product_cells_are_pairs_of_circle_cells():
    fam = product_family(doubling_family(), doubling_family())
    space, mapobj = fam.space_at(0), fam.map_at(0)
    circle = space.factors[0]
    rng = random.Random(21)
    for _ in range(200):
        p = space.random_point(rng)
        q = space.displace(p, rng.random() * 0.15, 1)
        ball = space.make_ball(p, 0.1)
        assert ball == (circle.make_ball(p[0], 0.1), circle.make_ball(p[1], 0.1))
        other = space.make_ball(q, 0.05)
        pair = tuple(circle.cell_intersect(a, b) for a, b in zip(ball, other))
        assert space.cell_intersect(ball, other) == pair
        assert space.cell_center(ball) == (circle.cell_center(ball[0]), circle.cell_center(ball[1]))
        assert space.cell_diameter(other) == max(circle.cell_diameter(c) for c in other)
        assert space.spacing(p) == max(circle.spacing(x) for x in p)
        w, branch = mapobj.apply(p), mapobj.branch_of(p)
        image = space.make_ball(w, 0.05)
        assert space.cell_pull(mapobj, branch, w, image) == (
            circle.cell_pull(mapobj.left, branch[0], w[0], image[0]),
            circle.cell_pull(mapobj.right, branch[1], w[1], image[1]),
        )
    # One empty factor empties the product cell.
    ball = space.make_ball((0.2, 0.7), 0.1)
    far_right = space.make_ball((0.25, 0.2), 0.05)
    assert circle.cell_intersect(ball[0], far_right[0]) is not None
    assert circle.cell_intersect(ball[1], far_right[1]) is None
    assert space.cell_intersect(ball, far_right) is None


def test_non_expanding_family_stops_before_any_cell():
    fam = identity_family()
    po = PseudoOrbit.from_points(fam, [0.2, 0.2, 0.2])
    with pytest.raises(NotExpandingError):
        pullback_shadow(fam, po, 0.1)


def test_a_rateless_map_in_an_expanding_family_raises_at_its_step():
    # A branch radius marks the family expanding, but f_1 is a rotation,
    # which has no contraction rate: every reader of the rates names step 1.
    fam = MapFamily(
        name="doubling-rotation",
        space=doubling_family().space,
        maps=Schedule(cycle=(CircleLinearMap(2), CircleRotation(0.25))),
        branch_radius=0.25,
    )
    assert fam.rate_at(0) == 0.5
    po = PseudoOrbit.from_points(fam, [0.1, 0.2, 0.45])
    readers = [
        lambda: fam.rate_at(1),
        lambda: delta_budget(fam, 0.1, horizon=4),
        lambda: pullback_shadow(fam, po, 0.1),
    ]
    for read in readers:
        with pytest.raises(NotExpandingError) as caught:
            read()
        assert caught.value.witness == 1


# ---------------------------------------------------------------------------
# uniqueness certificates


def test_uniqueness_constant_rate_exact():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 30, 0.0, seed=0)
    for k in range(1, 31):
        assert uniqueness_certificate(fam, po, 0.1, k) == 2 * 0.1 * 2.0**-k


def test_uniqueness_telescoping_slow_family():
    fam = slow_expanding_family()
    po = perturb_orbit(fam, 0.3, 100, 0.0, seed=0)
    cert = uniqueness_certificate(fam, po, 0.1, 100)
    assert abs(cert - 2 * 0.1 / 101) < 1e-12


def test_uniqueness_negative_control_stays_positive():
    fam = barely_expanding_family()
    po = perturb_orbit(fam, 0.3, 40, 0.0, seed=0)
    for k in (1, 10, 40):
        cert = uniqueness_certificate(fam, po, 0.1, k)
        floor = 0.2 * 2 * 0.1 * math.prod(1 - 2.0**-n for n in range(1, k + 1))
        assert cert > floor


def test_two_shadow_points_within_certificate():
    # Points returned at horizons k and k+8 both shadow the first k steps;
    # the uniqueness certificate bounds their separation.
    fam = doubling_family()
    po = perturb_orbit(fam, 0.52, 24, 0.049, seed=8)
    k = 16
    trunc = PseudoOrbit(fam, po.points[: k + 1], po.defects[:k])
    rep_a, _ = pullback_shadow(fam, trunc, 0.1)
    rep_b, _ = pullback_shadow(fam, po, 0.1)
    cert = uniqueness_certificate(fam, po, 0.1, k)
    assert circle_distance(rep_a.shadow_point, rep_b.shadow_point) <= cert


def test_solver_agrees_with_grid_oracle():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.11, 16, 0.049, seed=100)
    report, _ = pullback_shadow(fam, po, 0.1)
    cert = report.diameter_bound
    grid_point, grid_sup = doubling_grid_minimizer(po.points, 1e-6)
    assert circle_distance(report.shadow_point, grid_point) <= cert
    assert max(report.per_step_errors) <= grid_sup + 2e-6


def test_solver_agrees_with_grid_oracle_alternating():
    from oracles import alternating_grid_minimizer

    fam = alternating_family()
    po = scheduled_noise_orbit(fam, 0.27, 12, 0.1, seed=21)
    report, _ = pullback_shadow(fam, po, 0.1)
    cert = report.diameter_bound
    grid_point, _ = alternating_grid_minimizer(po.points, 1e-6)
    assert circle_distance(report.shadow_point, grid_point) <= cert + 1e-6


# ---------------------------------------------------------------------------
# periodic shadowing


def test_periodic_fixed_point_of_constant_orbit():
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.0] * 7)
    x, residual, errors = periodic_shadow(fam, po, 0.05)
    assert x == 0.0
    assert residual == 0.0
    assert max(errors) == 0.0


def test_periodic_near_one_third_cycle():
    fam = doubling_family()
    cycle = [1.0 / 3.0 + 0.004, 2.0 / 3.0 + 0.006]
    po = PseudoOrbit.from_points(fam, [cycle[i % 2] for i in range(9)])
    assert po.max_defect < 0.01
    x, residual, errors = periodic_shadow(fam, po, 0.05)
    assert residual < 1e-9
    assert circle_distance(x, 1.0 / 3.0) < 0.05
    assert max(errors) < 0.05


def test_periodic_agrees_with_pullback_for_full_period():
    fam = doubling_family()
    cycle = [1.0 / 3.0 + 0.002, 2.0 / 3.0 + 0.003]
    po = PseudoOrbit.from_points(fam, [cycle[i % 2] for i in range(13)])
    x, _, _ = periodic_shadow(fam, po, 0.05)
    report, _ = pullback_shadow(fam, po, 0.05)
    cert = report.diameter_bound
    assert circle_distance(x, report.shadow_point) <= max(cert, 1e-9)


def test_periodic_rejects_nonperiodic_points():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 6, 0.01, seed=2)
    with pytest.raises(NonPeriodicInputError):
        periodic_shadow(fam, po, 0.05)


def test_periodic_rejects_rule_backed_schedule():
    fam = slow_expanding_family()
    po = PseudoOrbit.from_points(fam, [0.3, 0.3, 0.3])
    with pytest.raises(NonPeriodicInputError):
        periodic_shadow(fam, po, 0.05)


def test_periodicized_noise_is_shadowable():
    fam = doubling_family()
    base = perturb_orbit(fam, 1.0 / 3.0, 8, 0.004, seed=6)
    # The first two points repeated out to the horizon.
    po = PseudoOrbit.from_points(fam, [base.points[i % 2] for i in range(len(base.points))])
    assert po.max_defect < 0.02
    x, residual, errors = periodic_shadow(fam, po, 0.06)
    assert residual < 1e-9
    assert max(errors) < 0.06


# ---------------------------------------------------------------------------
# Lipschitz shadowing


def pullback_error_ratios(fam, deltas, horizon, seed, rate, margin=0.98):
    """max error / delta of pullback_shadow per delta, at eps = delta / ((1 - rate) margin).

    The start points and seeds are the ones the deleted Lipschitz report used.
    """
    ratios = []
    for t, delta in enumerate(deltas):
        po = perturb_orbit(fam, 0.1 + 0.7 * ((seed + t) % 7) / 7.0, horizon, delta, seed + t)
        report, _ = pullback_shadow(fam, po, delta / ((1.0 - rate) * margin), margin=margin)
        ratios.append(max(report.per_step_errors) / delta)
    return ratios


def test_lipschitz_certificate_doubling():
    # L = 1 / (1 - sup rate) bounds every error/delta ratio.
    fam = doubling_family()
    rate = max(fam.rate_at(n) for n in range(48))
    certificate = 1.0 / (1.0 - rate)
    assert certificate == pytest.approx(2.0)
    ratios = pullback_error_ratios(fam, [0.01, 0.005, 0.002], horizon=48, seed=1, rate=rate)
    assert all(r <= certificate for r in ratios)


def test_lipschitz_errors_scale_linearly():
    # With every rate at most 1/2, pullback errors stay within
    # delta / (1 - 1/2) = 2 delta while delta spans two decades.
    ratios = pullback_error_ratios(
        doubling_family(), [0.02, 0.002, 0.0002], horizon=32, seed=3, rate=0.5
    )
    assert max(ratios) <= 2.0
    assert max(ratios) / min(ratios) < 10.0


def test_periodic_shadow_accepts_products_of_periodic_families():
    fam = product_family(doubling_family(), doubling_family())
    cycle = [(1.0 / 3.0 + 0.004, 0.003), (2.0 / 3.0 + 0.006, 0.002)]
    po = PseudoOrbit.from_points(fam, [cycle[i % 2] for i in range(9)])
    x, residual, errors = periodic_shadow(fam, po, 0.05)
    assert residual < 1e-9
    assert fam.space_at(0).distance(x, (1.0 / 3.0, 0.0)) < 0.05
    assert max(errors) < 0.05


def test_delta_schedule_rejects_a_defect_equal_to_its_budget():
    budget = DeltaSchedule(epsilon=0.1, margin=0.98, values=(0.01, 0.02, 0.03))
    budget.check([0.0, 0.02 - 1e-12, 0.0])
    with pytest.raises(DeltaBudgetViolatedError) as caught:
        budget.check([0.0, 0.02, 0.0])
    assert caught.value.witness == 1


def test_validate_tube_rejects_a_cell_half_again_outside_the_tube():
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.1, 0.2])
    # Level 0 at the centre 0.1 with radius 0.05 is inside; the top level is not checked.
    validate_tube(PullbackChain([0.1, 0.2], [math.frexp(0.05), math.frexp(0.1)]), po, 0.1)
    # Extent 0.05 + 0.1 = 1.5 eps: far past any rounding allowance.
    with pytest.raises(ValueError):
        validate_tube(PullbackChain([0.15, 0.2], [math.frexp(0.1), math.frexp(0.1)]), po, 0.1)


def test_delta_budget_rejects_equality_in_the_budget_inequality():
    # At this margin delta + rate*eps rounds to exactly eps on doubling.
    margin = math.nextafter(1.0, 0.0)
    assert margin * 0.5 * 0.1 + 0.5 * 0.1 == 0.1
    with pytest.raises(EpsilonTooLargeError):
        delta_budget(doubling_family(), 0.1, margin=margin)
    delta_budget(doubling_family(), 0.1, margin=math.nextafter(margin, 0.0))


def test_uniqueness_certificate_rejects_an_understated_rate():
    # A doubling map that claims rate 0.4: the measured cell (2 eps * 0.5)
    # is 1.25 times the certified bound (2 eps * 0.4). At k = 2000 both
    # products underflow to 0.0 as plain floats; the exponent form still
    # tells them apart.
    liar = CircleLinearMap(2)
    liar.rate = 0.4
    fam = MapFamily("liar", doubling_family().space, constant_schedule(liar), branch_radius=0.25)
    assert 0.1 * 0.5**2000 == 0.1 * 0.4**2000 == 0.0
    for k in (1, 2000):
        po = perturb_orbit(fam, 0.3, k, 0.0, 0)
        with pytest.raises(EmptyCellError):
            uniqueness_certificate(fam, po, 0.1, k)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr((shadow_point, per_step_errors, diameter_bound,
# measured_diameter, delta_schedule, verdict)): floats the bundled report
# hashes do not reach (long horizons, products, rule-backed rates).
PULLBACK_SHA256 = {
    "doubling*doubling": "e5fafc9c373a5bdb00337ff3d89fc1d9395fa1d27b7688f52df446169bb52b1a",
    "slow_expanding": "e08490ccf4ee1892d152793d6a6596980675fd97b777bfdb0da205dbdabdd1d4",
    "alternating": "8fe36bb81339818acccb5bbff3c593047eff7a9465d78dc838a2d9e2adfa2ad3",
}


def test_long_pullback_reports_are_pinned():
    pair = product_family(doubling_family(), doubling_family())
    cases = {
        "doubling*doubling": (pair, (0.3, 0.7), 1024, 0.04, 11),
        # slow_expanding's tightest budget is 0.98 * 0.1 / 1025, at the last step.
        "slow_expanding": (slow_expanding_family(), 0.2, 1024, 0.9 * 0.98 * 0.1 / 1025, 12),
        "alternating": (alternating_family(), 0.45, 3072, 0.04, 13),
    }
    for name, (fam, x0, k, noise, seed) in cases.items():
        report, _ = pullback_shadow(fam, perturb_orbit(fam, x0, k, noise, seed), 0.1)
        assert report.verdict, name
        key = (
            report.shadow_point,
            report.per_step_errors,
            report.diameter_bound,
            report.measured_diameter,
            report.delta_schedule,
            report.verdict,
        )
        assert _sha256(key) == PULLBACK_SHA256[name], name


def test_chain_cells_are_pinned():
    pair = product_family(doubling_family(), doubling_family())
    expected = {
        pair: "7c325a52482c1cf8ddce361bf6ad0f2f094df2312f470781d43ee7d1cf6e2c26",
        doubling_family(): "cbc53f1e9b9c27ab031c145311712120102f62e775b7357d9b8f32990eb91695",
    }
    for fam, digest in expected.items():
        po = perturb_orbit(fam, (0.3, 0.7) if fam is pair else 0.3, 8, 0.04, 5)
        _, chain = pullback_shadow(fam, po, 0.1)
        assert len(chain.centres) == len(chain.radii) == 9
        cells = list(zip(range(9), chain.centres, chain.radii))
        assert _sha256(cells) == digest, fam.name
        validate_tube(chain, po, 0.1)


def test_rule_backed_maps_are_built_once_per_window(monkeypatch):
    built = []

    class Counted(families.TwoSlopeCircleMap):
        def __init__(self, lam):
            built.append(lam)
            super().__init__(lam)

    monkeypatch.setattr(families, "TwoSlopeCircleMap", Counted)
    fam = slow_expanding_family()
    po = perturb_orbit(fam, 0.2, 64, 0.98 * 0.1 / 66, 3)
    assert len(built) <= 64
    built.clear()
    report, _ = pullback_shadow(fam, po, 0.1)
    assert report.verdict
    assert len(built) <= 128


# ---------------------------------------------------------------------------
# pullback plans: one per (family, epsilon, margin, horizon)


def test_a_plan_shadows_as_the_call_that_builds_its_own():
    pair = product_family(doubling_family(), doubling_family())
    for fam, x0 in ((doubling_family(), 0.3), (slow_expanding_family(), 0.2), (pair, (0.3, 0.7))):
        plan = pullback_plan(fam, 0.1, 0.9, horizon=48)
        for seed in range(3):
            po = perturb_orbit(fam, x0, 48, 0.001, seed)
            assert pullback_shadow(fam, po, 0.1, 0.9, plan=plan) == pullback_shadow(fam, po, 0.1, 0.9)


def test_a_plan_for_another_shape_raises():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 16, 0.01, 1)
    others = [
        pullback_plan(doubling_family(), 0.1, horizon=16),  # an equal family, but another object
        pullback_plan(alternating_family(), 0.1, horizon=16),
        pullback_plan(fam, 0.05, horizon=16),
        pullback_plan(fam, 0.1, 0.5, horizon=16),
        pullback_plan(fam, 0.1, horizon=15),
    ]
    for plan in others:
        with pytest.raises(ValueError, match="plan"):
            pullback_shadow(fam, po, 0.1, plan=plan)
    report, _ = pullback_shadow(fam, po, 0.1, MARGIN, plan=pullback_plan(fam, 0.1, horizon=16))
    assert report.verdict

