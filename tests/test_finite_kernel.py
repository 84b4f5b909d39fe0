"""Property tests: the finite-state kernel's scans against the per-index searches.

``FiniteKernel.best`` follows step tables on state codes and reads the
distance rows; ``oracles.best_orbit`` over ``oracles.orbit_table`` composes
every orbit and calls the metric at every index. Both must pick the same
start with the same error (compared by repr) and the same orbit, for sup
and mean errors, ties, starts in any order (A's order when averaging) and
finite x finite products. ``FiniteKernel.nearest`` is held to the first
nearest point of the subset in the same way.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import best_orbit, distance_to_reference, nearest_reference, orbit_table  # noqa: E402
from shadowlab.averaging import InvariantSubsystem  # noqa: E402
from shadowlab.families import (  # noqa: E402
    FiniteKernel,
    FiniteMap,
    MapFamily,
    Schedule,
    eight_state_family,
    finite_cycle_family,
    identity_pair_family,
    product_family,
    two_bit_swap_family,
)
from shadowlab.spaces import finite_space  # noqa: E402

BUILTINS = (
    lambda: finite_cycle_family(3),
    lambda: finite_cycle_family(4),
    identity_pair_family,
    two_bit_swap_family,
    eight_state_family,
)


@st.composite
def tied_families(draw):
    """A family of 1-3 cycled permutations on a space whose distances are 1/2
    or 1 (a metric for any choice), so candidate orbits often tie."""
    n = draw(st.integers(1, 5))
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.sampled_from([0.5, 1.0]))
    space = finite_space(dist)
    tables = [draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 3)))]
    maps = Schedule(cycle=tuple(FiniteMap(space, t) for t in tables))
    return MapFamily(name="tied", space=space, maps=maps)


def factors():
    return st.one_of(st.sampled_from(BUILTINS).map(lambda make: make()), tied_families())


@st.composite
def scans(draw):
    """(family, target, starts, mean): a target near an orbit, starts in any order."""
    if draw(st.booleans()):
        family = draw(factors())
    else:
        family = product_family(draw(factors()), draw(factors()))
    points = family.space.points
    n = draw(st.integers(1, 24))
    near = family.compose(draw(st.sampled_from(points)), n - 1)
    target = [draw(st.sampled_from(points)) if draw(st.booleans()) else p for p in near]
    order = draw(st.permutations(points))
    starts = order[: draw(st.integers(1, len(order)))]
    return family, target, starts, draw(st.booleans())


@settings(max_examples=150)
@given(case=scans())
def test_best_equals_the_per_index_search(case):
    family, target, starts, mean = case
    kernel = FiniteKernel(family, len(target) - 1)
    code = kernel.code.__getitem__
    y, err, orbit = kernel.best(list(map(code, target)), list(map(code, starts)), mean)
    ref_y, ref_err, ref_orbit = best_orbit(
        family.space, orbit_table(family, len(target) - 1, starts=starts), target, mean=mean
    )
    assert kernel.points[y] == ref_y
    assert repr(err) == repr(ref_err)
    assert kernel.witness(orbit) == ref_orbit


@settings(max_examples=60)
@given(case=scans())
def test_nearest_equals_the_per_point_search(case):
    family, _, subset, _ = case
    sub = InvariantSubsystem(ambient=family, points=tuple(subset))
    kernel = FiniteKernel(family, 0)
    gap, near = kernel.nearest(subset)
    for p in family.space.points:
        assert repr(gap[kernel.code[p]]) == repr(distance_to_reference(sub, p))
        assert kernel.points[near[kernel.code[p]]] == nearest_reference(sub, p)


@pytest.mark.parametrize("mean", [False, True])
def test_best_keeps_the_first_of_tied_starts_in_the_callers_order(mean):
    # Both fixed points of the pair miss (0, 1) by 1 at one index: a tie.
    kernel = FiniteKernel(identity_pair_family(), 1)
    for starts in ([0, 1], [1, 0]):
        y, err, orbit = kernel.best([0, 1], starts, mean)
        assert (y, err, orbit) == (starts[0], 0.5 if mean else 1.0, [y, y])


def test_kernel_builds_one_step_table_per_distinct_map():
    kernel = FiniteKernel(eight_state_family(), 20_000)
    assert len(kernel.step) == 20_000
    assert all(table is kernel.step[0] for table in kernel.step)
    # Orbit tables wait for a caller that reads them.
    assert not {"orbits", "ends", "cols"} & set(vars(kernel))
