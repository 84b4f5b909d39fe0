"""Property tests: the one-pass solver against the two-pass solver it replaced.

``oracles.two_pass_pullback`` is the solver as it was before the rewrite: a
float cell pass under a 1e-12 slack, then a point pass from the top cell's
centre. On budget-compliant pseudo-orbits the one-pass solver must return
the same shadow point, per-step errors, verdict and diameter bound, bit for
bit (compared by ``repr``). Its radius bounds must never fall below the exact
rational recursion over the same branch slopes, also past the point where a
plain float radius would underflow. Its diameter certificate, kept in
exponent form, must equal the float product it replaced wherever that
product is normal, and keep a finite log2 beyond. The backward chain, which
reads the pseudo-orbit itself, must return what the chain on precomputed
image and branch lists returned, and raise where it raised.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    branch_slope_reference,
    diameter_bound_reference,
    pull_back_chain_reference,
    two_pass_pullback,
    ungated_plan,
)
from shadowlab.errors import EmptyCellError, ShadowlabError  # noqa: E402
from shadowlab.families import (  # noqa: E402
    alternating_family,
    barely_expanding_family,
    doubling_family,
    product_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.pseudo_orbits import inject_defects  # noqa: E402
from shadowlab.solver import (  # noqa: E402
    certificate_pair,
    delta_budget,
    pull_back_chain,
    pullback_shadow,
)

EPSILON = 0.1
FAMILIES = {
    fam.name: fam
    for fam in (
        doubling_family(),
        tripling_family(),
        alternating_family(),
        slow_expanding_family(),
        product_family(doubling_family(), tripling_family()),
        product_family(slow_expanding_family(), doubling_family()),
    )
}
# Branch boundaries of doubling, tripling and the first two-slope maps of
# slow_expanding, with the floats on either side of each.
_BOUNDARIES = [0.5, 1 / 3, 2 / 3, 3 / 4]
CIRCLE_STARTS = [0.0, 1.0 - 2.0**-53] + [
    x for b in _BOUNDARIES for x in (b, math.nextafter(b, 0.0), math.nextafter(b, 1.0))
]
# A defect just below its budget, so the budget inequality is nearly tight.
EDGE = 1.0 - 2.0**-40


def starts(fam):
    circle = st.one_of(st.sampled_from(CIRCLE_STARTS), st.floats(0.0, 1.0, exclude_max=True))
    return st.tuples(circle, circle) if fam.space.kind == "product" else circle


@st.composite
def pseudo_orbits(draw, fam, horizons):
    x0 = draw(starts(fam))
    k = draw(horizons)
    fraction = draw(st.one_of(st.sampled_from([0.0, EDGE]), st.floats(0.0, EDGE)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    budget = delta_budget(fam, EPSILON, horizon=max(k, 1)).values
    defects = [budget[j] * fraction * (1.0 if fraction == EDGE else rng.random()) for j in range(k)]
    return inject_defects(fam, x0, defects, signs=lambda i: rng.choice((1, -1)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=15)
@given(data=st.data())
def test_one_pass_solver_equals_the_two_pass_solver(name, data):
    fam = FAMILIES[name]
    po = data.draw(pseudo_orbits(fam, st.sampled_from([0, 1, 2, 3, 8, 64, 300, 1024, 3000])))
    # The budget gate is off, as the two-pass oracle has none: on slow_expanding
    # a defect asked for at budget * (1 - 2^-40) can land one float step above
    # a budget near 1e-4, and the gate has its own tests.
    report, _ = pullback_shadow(fam, po, EPSILON, plan=ungated_plan(fam, EPSILON, po.horizon))
    assert report.verdict
    try:
        old = two_pass_pullback(fam, po, EPSILON)[:4]
    except EmptyCellError:
        # The two-pass solver cut the cell at level j + 1 with the eps-ball
        # around f(x_j), which the cell leaves once delta_j + rate_{j+1} eps
        # reaches eps: the budget bounds delta_j by this step's rate, not the
        # next one's. A run of such cuts can empty the cell although every
        # level stays inside its own tube ball, which the verdict confirms.
        k = po.horizon
        rates = [m.rate for m in fam.window(k)]
        budget = delta_budget(fam, EPSILON, horizon=max(k, 1)).values
        assert any(budget[j] + rates[j + 1] * EPSILON >= EPSILON for j in range(k - 1))
        return
    new = (report.shadow_point, report.per_step_errors, report.verdict, report.diameter_bound)
    assert repr(new) == repr(old)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=5)
@given(data=st.data())
def test_radius_bounds_never_fall_below_the_exact_recursion(name, data):
    fam = FAMILIES[name]
    po = data.draw(pseudo_orbits(fam, st.sampled_from([0, 1, 2, 200, 1100])))
    _, chain = pullback_shadow(fam, po, EPSILON, plan=ungated_plan(fam, EPSILON, po.horizon))
    k = po.horizon
    maps = fam.window(k)
    exact = Fraction(math.ldexp(*chain.radii[k]))
    for j in range(k - 1, -1, -1):
        exact *= Fraction(branch_slope_reference(maps[j], maps[j].branch_of(po.points[j])))
        m, e = chain.radii[j]
        assert Fraction(m) * Fraction(2) ** e >= exact, j


CHAIN_FAMILIES = ("doubling", "tripling", "alternating", "slow_expanding", "doubling*tripling")


def _outcome(chain, *args, **kwargs):
    """repr of what a chain returns, or the class and witness of what it raises."""
    try:
        return repr(chain(*args, **kwargs))
    except ShadowlabError as exc:
        return type(exc).__name__, exc.witness


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("name", CHAIN_FAMILIES)
@settings(max_examples=25)
@given(data=st.data())
def test_pull_back_chain_equals_the_chain_on_image_and_branch_lists(name, with_epsilon, data):
    fam = FAMILIES[name]
    po = data.draw(pseudo_orbits(fam, st.sampled_from([0, 1, 2, 3, 8, 64, 300])))
    # Fewer maps than points is periodic_shadow's shape: one period of a longer orbit.
    k = data.draw(st.one_of(st.just(po.horizon), st.integers(0, po.horizon)))
    maps = fam.window(k)
    # Radii up to the branch radius reach both the tube and the branch-domain raises.
    radius = data.draw(st.one_of(st.just(0.0), st.floats(0.0, EPSILON), st.floats(0.0, 0.3)))
    kwargs = {"epsilon": EPSILON} if with_epsilon else {}
    args = (fam, maps, po.points, po.points[k], radius)
    assert _outcome(pull_back_chain, *args, **kwargs) == _outcome(pull_back_chain_reference, *args, **kwargs)


# Family and longest horizon: barely_expanding's rate 1 - 2^-(j+1) rounds to
# 1.0, which no map accepts, from j = 53 on.
CERTIFICATE_FAMILIES = {
    fam.name: (fam, horizon)
    for fam, horizon in (
        (doubling_family(), 5000),
        (tripling_family(), 5000),
        (alternating_family(), 5000),
        (slow_expanding_family(), 5000),
        (barely_expanding_family(), 53),
        (product_family(slow_expanding_family(), doubling_family()), 5000),
    )
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), epsilon=st.floats(2.0**-20, 0.12))
def test_certificate_pair_is_the_float_product_wherever_that_is_normal(name, data, epsilon):
    fam, horizon = CERTIFICATE_FAMILIES[name]
    edges = st.sampled_from([0, 1, min(1074, horizon), horizon])
    k = data.draw(st.one_of(edges, st.integers(0, min(1100, horizon)), st.integers(0, horizon)))
    maps = fam.window(k)
    rates = [m.rate for m in maps]
    m, e = certificate_pair(epsilon, maps)
    assert 0.5 <= m < 1.0
    reference = diameter_bound_reference(epsilon, rates)
    if reference >= sys.float_info.min:
        assert repr(math.ldexp(m, e)) == repr(reference)
    log2 = math.log2(m) + e
    assert math.isfinite(log2)
    assert log2 == pytest.approx(math.log2(2.0 * epsilon) + math.fsum(map(math.log2, rates)), abs=1e-6)


def test_certificate_pair_of_no_maps_is_two_epsilon():
    for epsilon in (0.1, 0.0625, 2.0**-30):
        assert certificate_pair(epsilon, []) == math.frexp(2.0 * epsilon)
        assert math.ldexp(*certificate_pair(epsilon, [])) == 2.0 * epsilon
