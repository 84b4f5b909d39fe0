import random

import pytest

from shadowlab.errors import PointOutsideSpaceError
from shadowlab.families import eight_state_family
from shadowlab.spaces import (
    circle_reduce,
    circle_signed_gap,
    circle_space,
    finite_space,
    product_space,
)

TRIPLES = 10_000
TOL = 1e-12


def _spaces():
    finite = eight_state_family().space_at(0)
    return [
        circle_space(),
        finite,
        product_space(circle_space(), finite),
    ]


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_metric_axioms_random_triples(space):
    rng = random.Random(1234)
    for _ in range(TRIPLES):
        a, b, c = (space.random_point(rng) for _ in range(3))
        dab = space.distance(a, b)
        assert dab >= 0.0
        assert space.distance(a, a) == 0.0
        assert dab == space.distance(b, a)
        assert dab <= space.distance(a, c) + space.distance(c, b) + TOL


def test_finite_metric_axioms_exact():
    space = eight_state_family().space_at(0)
    pts = space.points
    for a in pts:
        for b in pts:
            assert space.distance(a, b) == space.distance(b, a)
            assert (space.distance(a, b) == 0.0) == (a == b)
            for c in pts:
                assert space.distance(a, b) <= space.distance(a, c) + space.distance(c, b)


def test_metric_ranges():
    rng = random.Random(7)
    circle = circle_space()
    for _ in range(2000):
        a, b = rng.random(), rng.random()
        assert 0.0 <= circle.distance(a, b) <= 0.5


def test_circle_reduction_and_signed_gap():
    assert circle_reduce(1.25) == 0.25
    assert circle_reduce(-0.25) == 0.75
    assert circle_reduce(3.0) == 0.0
    assert circle_signed_gap(0.9, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert circle_signed_gap(0.1, 0.9) == pytest.approx(-0.2, abs=1e-15)
    # The gap transports base to other exactly.
    for base, other in [(0.9, 0.1), (0.3, 0.7), (0.0, 0.5)]:
        assert circle_reduce(base + circle_signed_gap(base, other)) == pytest.approx(
            circle_reduce(other), abs=1e-15
        )


def test_displacement_realizes_metric_distance():
    circle = circle_space()
    assert circle.distance(0.3, circle.displace(0.3, 0.05, 1)) == pytest.approx(0.05, abs=1e-15)
    assert circle.distance(0.3, circle.displace(0.3, 0.05, -1)) == pytest.approx(0.05, abs=1e-15)
    finite = eight_state_family().space_at(0)
    # Nearest realizable distance to 1.01 from a cycle state is a far state.
    q = finite.displace(0, 1.01, 1)
    assert finite.distance(0, q) == 1.01


def test_product_max_metric():
    finite = eight_state_family().space_at(0)
    prod = product_space(circle_space(), finite)
    assert prod.distance((0.1, 0), (0.2, 3)) == max(0.1, finite.distance(0, 3))
    assert prod.diameter == max(0.5, finite.diameter)


def test_finite_space_validation():
    with pytest.raises(ValueError):
        finite_space([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        finite_space([[0.5, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        finite_space([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])  # triangle


def test_points_enumeration_and_membership():
    finite = eight_state_family().space_at(0)
    assert finite.points == list(range(8))
    assert finite.min_positive_distance() == 0.01
    with pytest.raises(PointOutsideSpaceError):
        finite.require(9)
    with pytest.raises(PointOutsideSpaceError):
        circle_space().points


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_points_are_outside_every_continuous_space(bad):
    finite = eight_state_family().space_at(0)
    for space in (circle_space(), product_space(circle_space(), finite)):
        point = (bad, 0) if space.kind == "product" else bad
        with pytest.raises(PointOutsideSpaceError):
            space.require(point)


@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_outside_every_space(flag):
    # bool is an int subclass: CircleSpace().require(True) returned 0.0, and
    # a finite space kept True as state 1.
    finite = eight_state_family().space_at(0)
    for space in (circle_space(), finite, product_space(circle_space(), finite)):
        point = (0.5, flag) if space.kind == "product" else flag
        assert not space.contains(point)
        with pytest.raises(PointOutsideSpaceError):
            space.require(point)

