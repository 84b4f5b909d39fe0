"""Property tests: the trusted per-step loops equal the validated ones.

A circle point is reduced to [0, 1) once, by one of two owners: ``require``
where it enters (start points, ``PseudoOrbit.from_points``, ``evaluate``),
or the last step of the function that makes it (a map's ``apply``,
``preimages`` and ``pull``, ``displace`` and the cell
calculus). Metrics and map methods then run on those points without
reducing them again. That is only sound because every maker returns a
canonical point of its space; these tests check it over every built-in
family and two products, with start points at 0.0, -0.0, 1 - 2^-53 and on
branch boundaries, and check that no library path feeds a metric or a map
anything else. Equality is by ``repr``, so 0.0 against -0.0 counts as a
difference.
"""

import itertools
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import branch_slope_reference, inverse_branch_point_reference  # noqa: E402
from shadowlab import families as families_module  # noqa: E402
from shadowlab import spaces  # noqa: E402
from shadowlab.cli import EXIT_FAIL, EXIT_OK, bundled_scenarios_dir, run_scenario, run_suite  # noqa: E402
from shadowlab.errors import (  # noqa: E402
    InvalidBranchIdError,
    NoiseExceedsSpaceError,
    PointOutsideSpaceError,
)
from shadowlab.families import (  # noqa: E402
    BUILTIN_FAMILIES,
    CircleLinearMap,
    CircleRotation,
    ProductMap,
    TwoSlopeCircleMap,
    doubling_family,
    product_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.pseudo_orbits import (  # noqa: E402
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
)
from shadowlab.solver import pullback_shadow  # noqa: E402
from shadowlab.spaces import CircleSpace, circle_distance, circle_reduce, circle_signed_gap  # noqa: E402

FAMILIES = {name: build() for name, build in BUILTIN_FAMILIES.items()}
FAMILIES["doubling*doubling"] = product_family(doubling_family(), doubling_family())
FAMILIES["slow_expanding*doubling"] = product_family(slow_expanding_family(), doubling_family())
FAMILIES["doubling*tripling"] = product_family(doubling_family(), tripling_family())
EXPANDING = sorted(name for name, fam in FAMILIES.items() if fam.expanding)
CIRCLE_FAMILIES = sorted(name for name, fam in FAMILIES.items() if not fam.space.is_enumerable)

# Branch boundaries of doubling, tripling, and the two-slope maps of
# slow_expanding (j+1)/(j+2) and barely_expanding 1 - 2^-(j+1), with the
# floats on either side of each.
_BOUNDARIES = [1 / 2, 1 / 3, 2 / 3, 3 / 4, 4 / 5, 7 / 8, 15 / 16]
CIRCLE_EDGES = [0.0, -0.0, 1.0 - 2.0**-53, 1.0, -1.0 + 2.0**-53] + [
    x for b in _BOUNDARIES for x in (b, math.nextafter(b, 0.0), math.nextafter(b, 1.0))
]
CIRCLE_POINTS = sorted({circle_reduce(x) for x in CIRCLE_EDGES})  # 1 - 2^-53 among them


def circle_points():
    """Points of the circle as the library holds them: floats in [0, 1)."""
    return st.one_of(st.sampled_from(CIRCLE_POINTS), st.floats(0.0, 1.0, exclude_max=True))


def raw_points(space):
    """Start points as a caller may pass them: circle floats need not be reduced."""
    if space.kind == "product":
        left, right = space.factors
        return st.tuples(raw_points(left), raw_points(right))
    if space.is_enumerable:
        return st.sampled_from(space.points)
    return st.one_of(st.sampled_from(CIRCLE_EDGES), st.floats(-3.0, 3.0))


def space_points(space):
    """Points of a circle or a product of circles, as maps and metrics take them."""
    if space.kind == "product":
        return st.tuples(*map(space_points, space.factors))
    return circle_points()


def edge_points(space) -> list:
    """Every point of a circle or a product of circles with coordinates in CIRCLE_POINTS."""
    if space.kind == "product":
        return list(itertools.product(*map(edge_points, space.factors)))
    return CIRCLE_POINTS


@st.composite
def family_and_point(draw, names=tuple(sorted(FAMILIES)), points=raw_points):
    name = draw(st.sampled_from(names))
    family = FAMILIES[name]
    return family, draw(points(family.space))


def same(a, b) -> bool:
    return repr(a) == repr(b)


@given(data=family_and_point(), n=st.integers(0, 40))
def test_apply_returns_canonical_points(data, n):
    family, raw = data
    space = family.space
    y = family.map_at(n).apply(space.require(raw))
    assert same(space.require(y), y)


def _preimages_are_canonical(family, w) -> None:
    space = family.space
    for mapobj in family.window(41):
        for z in mapobj.preimages(w):
            assert same(space.require(z), z), (mapobj, w, z)


@pytest.mark.parametrize("name", CIRCLE_FAMILIES)
def test_preimages_of_edge_points_are_canonical(name):
    # At lam = 3/4 (slow_expanding f_2, barely_expanding f_1) the upper
    # preimage of 1 - 2^-53 rounds to 1.0 unless preimages reduces it.
    family = FAMILIES[name]
    for w in edge_points(family.space):
        _preimages_are_canonical(family, w)


@given(data=family_and_point(tuple(CIRCLE_FAMILIES), points=space_points))
def test_preimages_return_canonical_points(data):
    _preimages_are_canonical(*data)


@given(data=family_and_point(), horizon=st.integers(0, 40))
def test_compose_equals_stepwise_evaluate(data, horizon):
    family, raw = data
    points = family.compose(raw, horizon)
    assert same(points[0], family.space.require(raw))
    for i in range(horizon):
        assert same(points[i + 1], family.evaluate(i, points[i]))


def _same_orbit(po: PseudoOrbit) -> None:
    validated = PseudoOrbit.from_points(po.family, po.points)
    assert same(po.points, validated.points)
    assert same(po.defects, validated.defects)


@given(
    data=family_and_point(),
    horizon=st.integers(0, 40),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_perturb_orbit_equals_from_points(data, horizon, share, seed):
    family, raw = data
    _same_orbit(perturb_orbit(family, raw, horizon, share * family.space.diameter, seed))


@given(data=family_and_point(), defects=st.lists(st.floats(0.0, 1.0), max_size=40))
def test_inject_defects_and_displace_orbit_equal_from_points(data, defects):
    family, raw = data
    _same_orbit(inject_defects(family, raw, defects))
    _same_orbit(displace_orbit(family, raw, defects))


@given(
    data=family_and_point(tuple(EXPANDING)),
    n=st.integers(0, 40),
    share=st.floats(0.0, 0.99),
    sign=st.sampled_from([1, -1]),
)
def test_inverse_branches_return_canonical_points(data, n, share, sign):
    family, raw = data
    space, mapobj = family.space, family.map_at(n)
    x = space.require(raw)
    w = mapobj.apply(x)
    y = space.reduce(space.displace(w, share * family.branch_radius, sign))
    z = mapobj.pull(mapobj.branch_of(x), w, y)[0]
    assert same(space.reduce(z), z)


@given(
    degree=st.integers(1, 5),
    branch=st.integers(0, 4),
    w=circle_points(),
    y=circle_points(),
)
def test_single_inverse_branch_equals_the_preimage_list(degree, branch, w, y):
    mapobj = CircleLinearMap(degree)
    if branch >= degree:
        with pytest.raises(InvalidBranchIdError):
            mapobj.pull(branch, w, y)
        return
    expected = circle_reduce(mapobj.preimages(w)[branch] + circle_signed_gap(w, y) / degree)
    assert same(mapobj.pull(branch, w, y)[0], expected)


def _branch_ids(mapobj):
    """A map's branch ids and one invalid id past each end, paired on a product."""
    if isinstance(mapobj, ProductMap):
        return st.tuples(_branch_ids(mapobj.left), _branch_ids(mapobj.right))
    return st.integers(-1, len(mapobj.preimages(0.0)))


def _pulled(pull) -> str:
    """repr of what `pull()` returns, or the raise of an invalid branch id."""
    try:
        return repr(pull())
    except InvalidBranchIdError:
        return "InvalidBranchId"


# barely_expanding has maps at steps below 53 only.
@given(data=st.data(), name=st.sampled_from(EXPANDING), n=st.integers(0, 52))
def test_pull_equals_the_inverse_branch_and_slope_references(data, name, n):
    family = FAMILIES[name]
    mapobj = family.map_at(n)
    w, y = data.draw(space_points(family.space)), data.draw(space_points(family.space))
    branch = data.draw(_branch_ids(mapobj))
    expected = _pulled(
        lambda: (inverse_branch_point_reference(mapobj, branch, w, y), branch_slope_reference(mapobj, branch))
    )
    assert _pulled(lambda: mapobj.pull(branch, w, y)) == expected


@given(gap=st.one_of(st.floats(0.0, 1.0), st.just(math.nan)), a=circle_points(), b=circle_points())
def test_circle_distance_equals_the_min_form(gap, a, b):
    # The metric tests gap <= 1/2 instead of taking min(gap, 1 - gap); the two
    # agree on every gap in [0, 1], NaN included.
    assert same(circle_distance(gap, 0.0), min(gap, 1.0 - gap))
    assert same(circle_distance(a, b), min(abs(a - b), 1.0 - abs(a - b)))


def test_window_resolves_each_map_once():
    alternating = FAMILIES["alternating"]
    window = alternating.window(5)
    assert window == [alternating.map_at(n) for n in range(5)]
    doubling = FAMILIES["doubling"]
    assert doubling.window(3) == [doubling.map_at(0)] * 3
    assert doubling.window(0) == []


@pytest.mark.parametrize("name", ["doubling", "eight_state", "doubling*doubling"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_displacements_are_rejected_where_they_enter(name, bad):
    # The generators do not re-validate the points they build, so an amount
    # that would put a non-point into the orbit must be refused up front.
    family = FAMILIES[name]
    x0 = {"doubling": 0.3, "eight_state": 0, "doubling*doubling": (0.3, 0.3)}[name]
    with pytest.raises(PointOutsideSpaceError):
        inject_defects(family, x0, [0.01, bad])
    with pytest.raises(PointOutsideSpaceError):
        displace_orbit(family, x0, [0.01, bad])
    with pytest.raises(NoiseExceedsSpaceError):
        perturb_orbit(family, x0, 3, math.nan, 0)


def _canonical_inputs(fn):
    """`fn`, asserting first that each float argument is a point of the circle."""

    def checked(*args):
        for x in args:
            if isinstance(x, float):
                assert same(circle_reduce(x), x), f"{fn.__qualname__} got {x!r}"
        return fn(*args)

    return checked


_CIRCLE_METHODS = {
    CircleLinearMap: ("apply", "preimages", "branch_of", "pull"),
    TwoSlopeCircleMap: ("apply", "preimages", "branch_of", "pull"),
    CircleRotation: ("apply", "preimages"),
}


def test_library_paths_feed_only_circle_points_to_metrics_and_maps(tmp_path, monkeypatch):
    # The circle helpers and maps do not reduce their inputs, so every float
    # that reaches them on a library path must already be canonical.
    monkeypatch.setattr(CircleSpace, "distance", staticmethod(_canonical_inputs(spaces.circle_distance)))
    gap = _canonical_inputs(circle_signed_gap)
    monkeypatch.setattr(spaces, "circle_signed_gap", gap)
    monkeypatch.setattr(families_module, "circle_signed_gap", gap)
    for cls, names in _CIRCLE_METHODS.items():
        for name in names:
            monkeypatch.setattr(cls, name, _canonical_inputs(getattr(cls, name)))
    with pytest.raises(AssertionError):
        CircleLinearMap(2).apply(1.25)  # the wrappers are in place

    assert run_suite(bundled_scenarios_dir(), tmp_path / "suite", quiet=True) == EXIT_OK
    limits = [
        {"name": f"limit-{kind}", "experiment": "limit", "family": {"kind": kind}, "parameters": {"horizon": 400}}
        for kind in ("slow_expanding", "alternating", "rotation", "eight_state")
    ]
    shadows = [
        {
            "name": f"shadow-{name}",
            "experiment": "shadow",
            "family": {"kind": name},
            "parameters": {"epsilon": 0.1, "noise": 0.001, "horizon": 32, "seeds": 2},
        }
        for name in EXPANDING
        if "*" not in name
    ]
    for scenario in limits + shadows:
        path = tmp_path / f"{scenario['name']}.json"
        path.write_text(json.dumps(scenario))
        negative_control = scenario["name"] == "shadow-barely_expanding"
        assert run_scenario(path, tmp_path / "out", quiet=True) == (EXIT_FAIL if negative_control else EXIT_OK)
    family = FAMILIES["doubling*doubling"]
    po = perturb_orbit(family, (0.3, 0.7), 64, 0.001, 0)
    assert pullback_shadow(family, po, 0.1)[0].verdict
