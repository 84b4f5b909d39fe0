import math
import random
from fractions import Fraction

import pytest

from shadowlab.errors import IndexOutOfScheduleError, InvalidBranchIdError, NotExpandingError
from shadowlab.families import (
    BUILTIN_FAMILIES,
    CircleLinearMap,
    Schedule,
    TwoSlopeCircleMap,
    alternating_family,
    barely_expanding_family,
    doubling_family,
    eight_state_family,
    family_from_descriptor,
    finite_cycle_family,
    identity_family,
    identity_pair_family,
    product_family,
    rotation_family,
    slow_expanding_family,
    tripling_family,
    two_bit_swap_family,
)


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
    assert seg == (0.42,)
    seg = fam.compose(0.1, 3)
    assert seg == pytest.approx((0.1, 0.2, 0.4, 0.8), abs=1e-15)


def test_compose_alternating():
    fam = alternating_family()
    seg = fam.compose(0.1, 2)
    assert seg == pytest.approx((0.1, 0.2, 0.6), abs=1e-15)


def test_compose_agrees_with_continuation_exactly():
    fam = alternating_family()
    full = fam.compose(0.137, 25)
    head = fam.compose(0.137, 10)
    assert full[:11] == head
    tail = head[-1]
    for n in range(10, 25):
        tail = fam.evaluate(n, tail)
    assert tail == full[25]


def test_inverse_branch_examples():
    double = doubling_family().map_at(0)
    assert double.pull(0, 0.5, 0.5) == (pytest.approx(0.25, abs=1e-15), 0.5)
    assert double.pull(0, 0.5, 0.52) == (pytest.approx(0.26, abs=1e-15), 0.5)
    triple = tripling_family().map_at(0)
    assert triple.pull(1, 0.3, 0.33)[0] == pytest.approx(0.11 + 1.0 / 3.0, abs=1e-12)


def test_inverse_branch_errors():
    with pytest.raises(InvalidBranchIdError):
        doubling_family().map_at(0).pull(5, 0.5, 0.51)
    with pytest.raises(InvalidBranchIdError):
        slow_expanding_family().map_at(0).pull(2, 0.5, 0.51)


def test_branch_slopes_are_the_exact_slopes_rounded_up():
    # The slope is the exact one when it is a float, else the float just above it.
    for degree in range(1, 13):
        slope = CircleLinearMap(degree).pull(0, 0.0, 0.0)[1]
        assert Fraction(math.nextafter(slope, 0.0)) < Fraction(1, degree) <= Fraction(slope)
    for lam in (0.1, 0.3, 1 / 3, 0.5, 2 / 3, 0.9):
        mapobj = TwoSlopeCircleMap(lam)
        assert mapobj.pull(0, 0.0, 0.0)[1] == lam
        slope = mapobj.pull(1, 0.0, 0.0)[1]
        assert Fraction(math.nextafter(slope, 0.0)) < 1 - Fraction(lam) <= Fraction(slope)


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
        for branch in range(len(mapobj.preimages(w))):
            gy = mapobj.pull(branch, w, y)[0]
            gz = mapobj.pull(branch, w, z)[0]
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
        for branch in range(len(mapobj.preimages(w))):
            z = mapobj.pull(branch, w, y)[0]
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
            mapobj = fam.map_at(n)
            z = mapobj.pull(mapobj.branch_of(x), w, w)[0]
            assert fam.space_at(n).distance(z, x) < 1e-10


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
    with pytest.raises(IndexOutOfScheduleError):
        fam.maps.at(-1)
    with pytest.raises(IndexOutOfScheduleError):
        Schedule(rule=lambda n: n).at(-1)
    assert fam.maps.at(0) is fam.map_at(0)


def test_rate_index_convention():
    # One-based rate formulas: the map applied at time j carries rate (j+1)/(j+2).
    slow = slow_expanding_family()
    assert slow.rate_at(0) == 0.5
    assert slow.rate_at(9) == pytest.approx(10.0 / 11.0)
    bare = barely_expanding_family()
    assert bare.rate_at(0) == 0.5
    assert bare.rate_at(4) == 1.0 - 2.0**-5


def test_sup_distance_windows():
    fam = product_family(doubling_family(), eight_state_family())
    xs = fam.compose((0.1, 3), 4)
    ys = [(x + 0.01 * i, s) for i, (x, s) in enumerate(xs)]
    assert fam.sup_distance(xs, ys, 0, 4) == pytest.approx(0.04)
    assert fam.sup_distance(xs, ys, 1, 2) == pytest.approx(0.02)
    assert fam.sup_distance(xs, ys, 3, 2) == 0.0
    assert fam.sup_distance(xs, ys, 5, 4) == 0.0
    # A nonempty window past the end of either sequence raises.
    with pytest.raises(IndexError):
        fam.sup_distance(xs, ys, 0, 5)
    with pytest.raises(IndexError):
        fam.sup_distance(xs, ys[:3], 0, 3)
    with pytest.raises(IndexError):
        fam.sup_distance(xs[:3], ys, 2, 4)


def test_product_family_structure():
    prod = product_family(doubling_family(), tripling_family())
    assert prod.expanding
    assert prod.rate_at(0) == 0.5
    assert prod.branch_radius == 0.25
    x = (0.2, 0.7)
    assert prod.evaluate(0, x) == pytest.approx((0.4, 0.1), abs=1e-12)


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


def test_identity_families_fix_every_point():
    # identity is the rotation by 0 and identity_pair the table (0, 1).
    rng = random.Random(5)
    circle = [0.0, 0.5, math.nextafter(1.0, 0.0)] + [rng.random() for _ in range(1000)]
    for fam, points in ((identity_family(), circle), (identity_pair_family(), [0, 1])):
        for n, w in enumerate(points):
            mapobj = fam.map_at(n)
            assert fam.evaluate(n, w) == w
            assert mapobj.apply(w) == w
            assert mapobj.preimages(w) == [w]


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
    assert Schedule(cycle=(1,)).period == 1
    assert Schedule(rule=lambda n: n).period is None


def test_combine_head_cycle_takes_lcm_period():
    left = Schedule(cycle=(0, 1))
    right = Schedule(cycle=(20, 30, 40))
    combined = left.combine(right, lambda a, b: (a, b))
    assert combined.rule is None
    assert combined.period == 6
    for n in range(40):
        assert combined.at(n) == (left.at(n), right.at(n))


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


def test_rates_need_expanding_maps():
    for fam in (rotation_family(), product_family(doubling_family(), rotation_family())):
        assert not fam.expanding
        with pytest.raises(NotExpandingError):
            fam.rate_at(0)


@pytest.mark.parametrize("alpha", [True, False])
def test_rotation_rejects_a_boolean_alpha(alpha):
    # rotation_family(True) built the identity rotation (alpha reduced to 0.0).
    with pytest.raises(ValueError, match="alpha"):
        rotation_family(alpha)
    with pytest.raises(ValueError, match="alpha"):
        family_from_descriptor({"kind": "rotation", "alpha": alpha})

