import math
import random

import pytest

from oracles import doubling_grid_minimizer
from shadowlab.errors import (
    DeltaBudgetViolatedError,
    EmptyCellError,
    EpsilonTooLargeError,
    NonPeriodicInputError,
    NotExpandingError,
    SupRateNotBoundedError,
)
from shadowlab.families import (
    alternating_family,
    barely_expanding_family,
    constant_schedule,
    doubling_family,
    identity_family,
    product_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.pseudo_orbits import PseudoOrbit, inject_defects, periodicize, perturb_orbit
from shadowlab.solver import (
    DeltaSchedule,
    PullbackCell,
    PullbackChain,
    delta_budget,
    diameter_certificate,
    lipschitz_report,
    periodic_shadow,
    pullback_shadow,
    uniqueness_certificate,
)
from shadowlab.spaces import circle_distance, interval_space


def scheduled_noise_orbit(family, x0, horizon, epsilon, seed, fraction=0.9):
    """Pseudo-orbit whose defects stay inside the per-step budget."""
    budget = delta_budget(family, epsilon, horizon=horizon)
    rng = random.Random(seed)
    defects = [rng.random() * budget.at(j) * fraction for j in range(horizon)]
    return inject_defects(family, x0, defects, signs=lambda i: 1 if rng.random() < 0.5 else -1)


# ---------------------------------------------------------------------------
# delta_budget


def test_budget_doubling_value():
    sched = delta_budget(doubling_family(), 0.1, margin=0.98, horizon=4)
    assert sched.at(0) == pytest.approx(0.049, abs=1e-15)
    assert all(v == sched.at(0) for v in sched.values)


def test_budget_stays_inside_admissible_interval():
    fam = doubling_family()
    sched = delta_budget(fam, 0.1, margin=0.98, horizon=8)
    for n in range(8):
        lam = fam.rate_at(n)
        assert 0.0 < sched.at(n) < (1.0 - lam) * 0.1
        assert sched.at(n) + lam * 0.1 < 0.1


def test_budget_shrinks_for_slow_family():
    sched = delta_budget(slow_expanding_family(), 0.1, margin=0.5, horizon=10)
    # One-based rates n/(n+1): the map at time j carries rate (j+1)/(j+2),
    # so the budget at time j is 0.05 / (j+2).
    for j in range(10):
        assert sched.at(j) == pytest.approx(0.05 / (j + 2), abs=1e-15)


def test_budget_limit_as_rate_vanishes():
    from dataclasses import replace

    from shadowlab.families import CircleLinearMap

    fam = replace(doubling_family(), maps=constant_schedule(CircleLinearMap(10**9)))
    sched = delta_budget(fam, 0.1, margin=0.5, horizon=3)
    assert sched.at(0) == pytest.approx(0.05, rel=1e-6)


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
    chain.validate_tube(po, 0.1)


def test_diameter_bound_value_at_horizon_20():
    assert diameter_certificate(doubling_family(), 0.1, 20) == pytest.approx(
        1.9073486328125e-07, abs=0.0
    )


def test_reported_errors_match_forward_iteration_at_short_horizon():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.4, 16, 0.049, seed=3)
    report, _ = pullback_shadow(fam, po, 0.1)
    orbit = fam.compose(report.shadow_point, 16)
    forward = [
        fam.space_at(i).distance(orbit.points[i], po.points[i]) for i in range(17)
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
    points = list(fam.compose(0.1, 6).points)
    points[3] = fam.space_at(3).reduce(points[3] + 0.4)  # jump beyond 2 eps
    po = PseudoOrbit.from_points(fam, points)
    with pytest.raises(EmptyCellError):
        pullback_shadow(fam, po, 0.1, check_budget=False)


def test_monotone_nesting_of_final_cells():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.61, 21, 0.049, seed=11)
    space = fam.space_at(0)
    previous = None
    for k in range(1, 22):
        trunc = PseudoOrbit(fam, 0, po.points[: k + 1], po.defects[:k])
        _, chain = pullback_shadow(fam, trunc, 0.1)
        cell = (chain.cells[0].center, chain.cells[0].radius)
        if previous is not None:
            assert space.cell_contains(previous, cell, 1e-12)
        previous = cell


def test_measured_diameter_within_certificate_at_every_horizon():
    fam = alternating_family()
    po = perturb_orbit(fam, 0.3, 30, 0.03, seed=4)
    for k in (1, 5, 10, 20, 30):
        trunc = PseudoOrbit(fam, 0, po.points[: k + 1], po.defects[:k])
        report, _ = pullback_shadow(fam, trunc, 0.1)
        assert report.measured_diameter <= diameter_certificate(fam, 0.1, k) + 1e-15


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
            chain.validate_tube(po, 0.1)


def test_product_family_pullback():
    fam = product_family(doubling_family(), tripling_family())
    po = perturb_orbit(fam, (0.2, 0.7), 40, 0.04, seed=5)
    report, chain = pullback_shadow(fam, po, 0.09)
    assert report.verdict
    chain.validate_tube(po, 0.09)


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
        assert space.cell_max_distance(other, p) == max(
            circle.cell_max_distance(c, x) for c, x in zip(other, p)
        )
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


def test_interval_family_stops_before_any_cell():
    fam = identity_family(interval_space())
    po = PseudoOrbit.from_points(fam, [0.2, 0.2, 0.2])
    with pytest.raises(NotExpandingError):
        pullback_shadow(fam, po, 0.1)


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
    trunc = PseudoOrbit(fam, 0, po.points[: k + 1], po.defects[:k])
    rep_a, _ = pullback_shadow(fam, trunc, 0.1)
    rep_b, _ = pullback_shadow(fam, po, 0.1)
    cert = uniqueness_certificate(fam, po, 0.1, k)
    assert circle_distance(rep_a.shadow_point, rep_b.shadow_point) <= cert


def test_solver_agrees_with_grid_oracle():
    fam = doubling_family()
    cert = diameter_certificate(fam, 0.1, 16)
    po = perturb_orbit(fam, 0.11, 16, 0.049, seed=100)
    report, _ = pullback_shadow(fam, po, 0.1)
    grid_point, grid_sup = doubling_grid_minimizer(po.points, 1e-6)
    assert circle_distance(report.shadow_point, grid_point) <= cert
    assert max(report.per_step_errors) <= grid_sup + 2e-6


def test_solver_agrees_with_grid_oracle_alternating():
    from oracles import alternating_grid_minimizer

    fam = alternating_family()
    po = scheduled_noise_orbit(fam, 0.27, 12, 0.1, seed=21)
    report, _ = pullback_shadow(fam, po, 0.1)
    cert = diameter_certificate(fam, 0.1, 12)
    grid_point, _ = alternating_grid_minimizer(po.points, 1e-6)
    assert circle_distance(report.shadow_point, grid_point) <= cert + 1e-6


# ---------------------------------------------------------------------------
# periodic shadowing


def test_periodic_fixed_point_of_constant_orbit():
    fam = doubling_family()
    po = PseudoOrbit.from_points(fam, [0.0] * 7)
    x, residual, errors = periodic_shadow(fam, po, 0.05, period=1)
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
    cert = diameter_certificate(fam, 0.05, po.horizon)
    assert circle_distance(x, report.shadow_point) <= max(cert, 1e-9)


def test_periodic_rejects_nonperiodic_points():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 6, 0.01, seed=2)
    with pytest.raises(NonPeriodicInputError):
        periodic_shadow(fam, po, 0.05, period=2)


def test_periodic_rejects_rule_backed_schedule():
    fam = slow_expanding_family()
    po = PseudoOrbit.from_points(fam, [0.3, 0.3, 0.3])
    with pytest.raises(NonPeriodicInputError):
        periodic_shadow(fam, po, 0.05, period=1)


def test_periodicized_noise_is_shadowable():
    fam = doubling_family()
    base = perturb_orbit(fam, 1.0 / 3.0, 8, 0.004, seed=6)
    po = periodicize(base, 2)
    if po.max_defect < 0.02:
        x, residual, errors = periodic_shadow(fam, po, 0.06)
        assert residual < 1e-9
        assert max(errors) < 0.06


# ---------------------------------------------------------------------------
# Lipschitz reporting


def test_lipschitz_certificate_doubling():
    report = lipschitz_report(doubling_family(), [0.01, 0.005, 0.002], horizon=48, seed=1)
    assert report.certificate == pytest.approx(2.0)
    assert report.holds
    assert all(r <= 2.0 for r in report.ratios)


def test_lipschitz_errors_scale_linearly():
    fam = doubling_family()
    deltas = [0.02, 0.002, 0.0002]
    report = lipschitz_report(fam, deltas, horizon=32, seed=3)
    # Error/delta ratios stay bounded while the deltas span two decades.
    assert max(report.ratios) <= report.certificate
    assert max(report.ratios) / min(report.ratios) < 10.0


def test_lipschitz_gate_for_unbounded_sup_rate():
    with pytest.raises(SupRateNotBoundedError):
        lipschitz_report(slow_expanding_family(), [0.01], horizon=16)


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
    inside = PullbackCell(time_index=1, center=0.2, radius=0.1, raw=(0.2, 0.1))
    PullbackChain(cells=(inside,)).validate_tube(po, 0.1)
    # Extent 0.05 + 0.1 = 1.5 eps: far past any rounding slack.
    outside = PullbackCell(time_index=0, center=0.15, radius=0.1, raw=(0.15, 0.1))
    with pytest.raises(ValueError):
        PullbackChain(cells=(inside, outside)).validate_tube(po, 0.1)
