import random

import pytest

from shadowlab.errors import (
    IndexOutOfScheduleError,
    InvalidBranchIdError,
    NotExpandingError,
    PointOutsideBranchDomainError,
    ScheduleMismatchError,
)
from shadowlab.families import (
    BUILTIN_FAMILIES,
    Schedule,
    alternating_family,
    barely_expanding_family,
    doubling_family,
    eight_state_family,
    expansiveness_falsifier,
    family_from_descriptor,
    finite_cycle_family,
    identity_family,
    identity_pair_family,
    orbit_table,
    product_family,
    rotation_family,
    shadowing_orbit,
    slow_expanding_family,
    tripling_family,
    two_bit_swap_family,
)
from shadowlab.spaces import circle_space


def test_evaluate_doubling():
    fam = doubling_family()
    assert fam.evaluate(0, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert fam.evaluate(0, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_finite_permutation():
    fam = finite_cycle_family(3)
    assert fam.evaluate(0, 0) == 1
    assert fam.evaluate(5, 2) == 0


def test_compose_empty_and_doubling():
    fam = doubling_family()
    seg = fam.compose(0.42, 0)
    assert seg.points == (0.42,)
    seg = fam.compose(0.1, 3)
    assert seg.points == pytest.approx((0.1, 0.2, 0.4, 0.8), abs=1e-15)


def test_compose_alternating():
    fam = alternating_family()
    seg = fam.compose(0.1, 2)
    assert seg.points == pytest.approx((0.1, 0.2, 0.6), abs=1e-15)


def test_compose_agrees_with_continuation_exactly():
    fam = alternating_family()
    full = fam.compose(0.137, 25)
    head = fam.compose(0.137, 10)
    assert full.points[:11] == head.points
    tail = head.points[-1]
    for n in range(10, 25):
        tail = fam.evaluate(n, tail)
    assert tail == full.points[25]


def test_inverse_branch_examples():
    fam = doubling_family()
    assert fam.inverse_branch(0, 0.5, 0, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert fam.inverse_branch(0, 0.5, 0, 0.52) == pytest.approx(0.26, abs=1e-15)
    tri = tripling_family()
    assert tri.inverse_branch(0, 0.3, 1, 0.33) == pytest.approx(0.11 + 1.0 / 3.0, abs=1e-12)


def test_inverse_branch_errors():
    with pytest.raises(NotExpandingError):
        identity_family().inverse_branch(0, 0.5, 0, 0.5)
    fam = doubling_family()
    with pytest.raises(PointOutsideBranchDomainError):
        fam.inverse_branch(0, 0.5, 0, 0.8)  # d(w, y) = 0.3 >= delta_0
    with pytest.raises(InvalidBranchIdError):
        fam.inverse_branch(0, 0.5, 5, 0.51)


EXPANDING = [doubling_family, alternating_family, slow_expanding_family, barely_expanding_family]


@pytest.mark.parametrize("make", EXPANDING, ids=lambda f: f.__name__)
def test_inverse_branch_lipschitz_sampled(make):
    fam = make()
    rng = random.Random(99)
    space = fam.space_at(0)
    for _ in range(10_000):
        n = rng.randrange(8)
        rate = fam.rate_at(n)
        w = space.random_point(rng)
        y = space.displace(w, rng.random() * fam.branch_radius, 1)
        z = space.displace(w, rng.random() * fam.branch_radius, -1)
        mapobj = fam.map_at(n)
        for branch in range(mapobj.num_branches):
            gy = fam.inverse_branch(n, w, branch, y)
            gz = fam.inverse_branch(n, w, branch, z)
            assert space.distance(gy, gz) <= rate * space.distance(y, z) + 1e-12


@pytest.mark.parametrize("make", EXPANDING, ids=lambda f: f.__name__)
def test_inverse_branch_round_trip(make):
    fam = make()
    rng = random.Random(5)
    space = fam.space_at(0)
    for _ in range(2000):
        n = rng.randrange(6)
        w = space.random_point(rng)
        y = space.displace(w, rng.random() * fam.branch_radius * 0.99, 1)
        mapobj = fam.map_at(n)
        for branch in range(mapobj.num_branches):
            z = fam.inverse_branch(n, w, branch, y)
            assert fam.space_at(n + 1).distance(fam.evaluate(n, z), y) < 1e-10


def test_branch_at_preimage_recovers_point():
    # branch_of(x) selects the branch through x itself.
    for make in EXPANDING:
        fam = make()
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randrange(6)
            x = fam.space_at(n).random_point(rng)
            w = fam.evaluate(n, x)
            branch = fam.map_at(n).branch_of(x)
            assert fam.space_at(n).distance(fam.inverse_branch(n, w, branch, w), x) < 1e-10


def test_finite_maps_are_onto_exhaustively():
    for make in (finite_cycle_family, two_bit_swap_family, eight_state_family, identity_pair_family):
        fam = make()
        space = fam.space_at(0)
        image = {fam.evaluate(0, x) for x in space.points}
        assert image == set(space.points)


def test_two_slope_map_surjective_by_preimage():
    fam = slow_expanding_family()
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(5)
        y = rng.random()
        for z in fam.map_at(n).preimages(y):
            assert fam.space_at(n + 1).distance(fam.evaluate(n, z), y) < 1e-12


def test_preimages_sorted_by_representative():
    fam = doubling_family()
    pre = fam.map_at(0).preimages(0.5)
    assert pre == sorted(pre)
    tri = tripling_family()
    assert tri.map_at(0).preimages(0.3) == sorted(tri.map_at(0).preimages(0.3))


def test_schedule_out_of_range():
    fam = doubling_family()
    finite = Schedule(head=(fam.map_at(0),))
    with pytest.raises(IndexOutOfScheduleError):
        finite.at(1)
    assert finite.at(0) is fam.map_at(0)


def test_evaluate_beyond_finite_schedule():
    from dataclasses import replace

    fam = doubling_family()
    truncated = replace(fam, maps=Schedule(head=(fam.map_at(0), fam.map_at(0))))
    assert truncated.evaluate(1, 0.3) == pytest.approx(0.6)
    with pytest.raises(IndexOutOfScheduleError):
        truncated.evaluate(2, 0.3)
    with pytest.raises(IndexOutOfScheduleError):
        truncated.compose(0.3, 5)


def test_rate_index_convention():
    # One-based rate formulas: the map applied at time j carries rate (j+1)/(j+2).
    slow = slow_expanding_family()
    assert slow.rate_at(0) == 0.5
    assert slow.rate_at(9) == pytest.approx(10.0 / 11.0)
    bare = barely_expanding_family()
    assert bare.rate_at(0) == 0.5
    assert bare.rate_at(4) == 1.0 - 2.0**-5


def test_falsifier_identity_finds_counterexample():
    report = expansiveness_falsifier(identity_family(), 0.1, horizon=10, samples=50)
    assert report.falsified
    x, y = report.counterexample
    assert circle_space().distance(x, y) <= 0.1


def test_falsifier_doubling_not_falsified():
    report = expansiveness_falsifier(doubling_family(), 0.1, horizon=20, samples=1000, seed=4)
    assert not report.falsified
    assert report.pairs_checked > 900


def test_falsifier_continuous_products():
    doubling2 = product_family(doubling_family(), doubling_family())
    report = expansiveness_falsifier(doubling2, 0.1, horizon=20, samples=16)
    assert not report.falsified
    assert report.pairs_checked == 16
    rotation2 = product_family(rotation_family(), rotation_family())
    report = expansiveness_falsifier(rotation2, 0.1, horizon=20, samples=16)
    assert report.falsified
    x, y = report.counterexample
    assert rotation2.space_at(0).distance(x, y) == pytest.approx(0.05)


def test_sup_distance_windows():
    fam = product_family(doubling_family(), eight_state_family())
    xs = fam.compose((0.1, 3), 4).points
    ys = [(x + 0.01 * i, s) for i, (x, s) in enumerate(xs)]
    assert fam.sup_distance(xs, ys, 0, 4) == pytest.approx(0.04)
    assert fam.sup_distance(xs, ys, 1, 2) == pytest.approx(0.02)
    assert fam.sup_distance(xs, ys, 3, 2) == 0.0


def test_falsifier_finite_vacuous():
    fam = finite_cycle_family(3)
    eps0 = 0.5 * fam.space_at(0).min_positive_distance()
    report = expansiveness_falsifier(fam, eps0, horizon=5, samples=10)
    assert not report.falsified


def test_product_family_structure():
    prod = product_family(doubling_family(), tripling_family())
    assert prod.expanding
    assert prod.rate_at(0) == 0.5
    assert prod.branch_radius == 0.25
    assert prod.sup_rate == 0.5
    x = (0.2, 0.7)
    assert prod.evaluate(0, x) == pytest.approx((0.4, 0.1), abs=1e-12)


def test_product_schedule_mismatch():
    fam = doubling_family()
    short = Schedule(head=(fam.map_at(0),))
    longer = Schedule(head=(fam.map_at(0), fam.map_at(0)))
    left = doubling_family()
    from dataclasses import replace

    la = replace(left, maps=short)
    lb = replace(left, maps=longer)
    with pytest.raises(ScheduleMismatchError):
        product_family(la, lb)


def test_family_descriptors_build_all_builtins():
    for kind in BUILTIN_FAMILIES:
        fam = family_from_descriptor({"kind": kind})
        assert fam.name.startswith(kind.split("_")[0]) or fam.name
    prod = family_from_descriptor(
        {"kind": "product", "factors": [{"kind": "doubling"}, {"kind": "rotation"}]}
    )
    assert prod.name == "doubling*rotation"
    with pytest.raises(ValueError):
        family_from_descriptor({"kind": "nope"})


def test_rotation_preserves_distance():
    fam = rotation_family()
    rng = random.Random(2)
    space = fam.space_at(0)
    for _ in range(1000):
        a, b = rng.random(), rng.random()
        assert space.distance(fam.evaluate(3, a), fam.evaluate(3, b)) == pytest.approx(
            space.distance(a, b), abs=1e-15
        )


def test_families_are_immutable():
    fam = doubling_family()
    with pytest.raises(Exception):
        fam.name = "other"


# ---------------------------------------------------------------------------
# Schedule composition and per-map rates


def test_schedule_period():
    assert Schedule(cycle=(1, 2, 3)).period == 3
    assert Schedule(head=(0,), cycle=(1,)).period is None
    assert Schedule(head=(0, 1)).period is None
    assert Schedule(rule=lambda n: n).period is None


def test_combine_head_cycle_takes_lcm_period():
    left = Schedule(cycle=(0, 1))
    right = Schedule(head=(10,), cycle=(20, 30, 40))
    combined = left.combine(right, lambda a, b: (a, b))
    assert combined.rule is None
    assert len(combined.head) == 1
    assert len(combined.cycle) == 6
    for n in range(40):
        assert combined.at(n) == (left.at(n), right.at(n))


def test_combine_finite_schedules():
    short = Schedule(head=(1, 2))
    assert short.combine(Schedule(head=(3, 4)), lambda a, b: a + b) == Schedule(head=(4, 6))
    with pytest.raises(ScheduleMismatchError):
        short.combine(Schedule(head=(3,)), lambda a, b: a + b)
    truncated = Schedule(cycle=(10, 20, 30)).combine(short, lambda a, b: a + b)
    assert truncated == Schedule(head=(11, 22))
    with pytest.raises(IndexOutOfScheduleError):
        truncated.at(2)


def test_combine_with_rule_stays_a_rule():
    combined = Schedule(cycle=(1, 2)).combine(Schedule(rule=lambda n: 100 * n), lambda a, b: a + b)
    assert combined.rule is not None
    assert combined.period is None
    assert [combined.at(n) for n in range(4)] == [1, 102, 201, 302]


def test_product_maps_are_built_once_per_period():
    left, right = doubling_family(), alternating_family()
    prod = product_family(left, right)
    assert prod.maps.rule is None
    assert prod.maps.period == 2
    assert prod.space.factors == (left.space, right.space)
    assert all(prod.space_at(n) is prod.space for n in range(5))
    for n in range(5):
        assert prod.map_at(n) is prod.map_at(n + 2)
    assert [prod.rate_at(n) for n in range(4)] == [0.5, 0.5, 0.5, 0.5]


def test_sup_rate_comes_from_the_maps():
    expected = {
        "doubling": 0.5,
        "tripling": 1.0 / 3.0,
        "alternating": 0.5,
        "slow_expanding": None,
        "barely_expanding": None,
    }
    for kind, build in BUILTIN_FAMILIES.items():
        assert build().sup_rate == expected.get(kind), kind
    assert product_family(doubling_family(), tripling_family()).sup_rate == 0.5
    assert product_family(tripling_family(), tripling_family()).sup_rate == 1.0 / 3.0


def test_rates_need_expanding_maps():
    for fam in (rotation_family(), product_family(doubling_family(), rotation_family())):
        assert not fam.expanding
        with pytest.raises(NotExpandingError):
            fam.rate_at(0)


def test_shadowing_orbit_rejects_an_orbit_exactly_epsilon_away():
    # Two points at distance 1: the orbit of 0 is exactly eps = 1 away from
    # the target at index 1 only, and the orbit of 1 is 1 away at 0 and 2.
    fam = identity_pair_family()
    space, orbits = fam.space_at(0), orbit_table(fam, 2)
    assert shadowing_orbit(space, orbits, (0, 1, 0), 1.0) is None
    assert shadowing_orbit(space, orbits, (0, 1, 0), 1.0 + 1e-9) == (0, 0, 0)
