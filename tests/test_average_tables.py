"""Property tests: average shadowing on per-state tables against the per-index reference.

``average_shadow_point`` and ``lift_to_A`` read distances from per-state
tables and settle the epsilon ladder in one backward pass; the references in
``oracles.py`` call the metric at every index and scan once per level. Both
must return equal results (compared by repr, so 0.0 against -0.0 counts), or
raise the same error with the same witness.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    average_shadow_point_reference,
    complement_blocks_reference,
    dyadic_cover_reference,
    ladder_cuts_reference,
    validate_reference,
)
from shadowlab.averaging import (  # noqa: E402
    InvariantSubsystem,
    _ladder_cuts,
    average_shadow_point,
    dyadic_cover,
)
from shadowlab.density import BlockDecomposition, IndexSet, complement_blocks  # noqa: E402
from shadowlab.errors import HypothesisFailedError, ShadowlabError  # noqa: E402
from shadowlab.families import (  # noqa: E402
    FiniteMap,
    MapFamily,
    Schedule,
    eight_state_family,
)
from shadowlab.pseudo_orbits import displace_orbit  # noqa: E402
from shadowlab.spaces import finite_space  # noqa: E402


def outcome(construction, sub, po):
    """The result's repr, or the error's type, message and witness."""
    try:
        return repr(construction(sub, po))
    except ShadowlabError as exc:
        return (type(exc).__name__, str(exc), exc.witness)


@st.composite
def parked_families(draw):
    """(family, A, leaks): a permutation family around A with parked states.

    A's states sit at mutual distances from a pool that holds the ladder
    level 1/2; every other state hangs off an anchor in A at a small pad, as
    in eight_state, so a distance to A or a defect can land on a level.
    Each map permutes A and its complement separately, unless `leaks`
    swaps one state of A with a parked one.
    """
    n_a = draw(st.integers(1, 4))
    n_park = draw(st.integers(0, 4))
    n = n_a + n_park
    base = [[0.0] * n_a for _ in range(n_a)]
    for i in range(n_a):
        for j in range(i + 1, n_a):
            base[i][j] = base[j][i] = draw(st.sampled_from([0.5, 0.625, 0.75, 1.0]))
    anchors = list(range(n_a)) + [draw(st.integers(0, n_a - 1)) for _ in range(n_park)]
    pads = [0.0] * n_a + [
        draw(st.one_of(st.floats(1e-4, 0.0155), st.sampled_from([0.5**7, 0.5**6, 0.03])))
        for _ in range(n_park)
    ]
    dist = [
        [0.0 if i == j else base[anchors[i]][anchors[j]] + pads[i] + pads[j] for j in range(n)]
        for i in range(n)
    ]
    space = finite_space(dist)
    leaks = n_park > 0 and draw(st.booleans())
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        inside = draw(st.permutations(range(n_a)))
        outside = draw(st.permutations(range(n_a, n)))
        table = list(inside) + list(outside)
        if leaks:
            a, p = draw(st.integers(0, n_a - 1)), draw(st.integers(n_a, n - 1))
            table[a], table[p] = table[p], table[a]
        tables.append(table)
    family = MapFamily(
        name="parked", space=space, maps=Schedule(cycle=tuple(FiniteMap(space, t) for t in tables))
    )
    return family, tuple(range(n_a)), leaks


@st.composite
def displacement_sets(draw, horizon):
    kind = draw(st.sampled_from(["squares", "powers", "random", "none"]))
    if kind == "squares":
        members = [k * k - 1 for k in range(1, math.isqrt(horizon) + 1)]
    elif kind == "powers":
        members = [2**k - 1 for k in range(horizon.bit_length()) if 2**k - 1 < horizon]
    elif kind == "random":
        members = sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=40)))
    else:
        members = []
    magnitude = draw(st.one_of(st.floats(0.0, 2.5), st.sampled_from([0.5, 1.0, 1.01, 0.5**6])))
    displacements = [0.0] * horizon
    for m in members:
        displacements[m] = magnitude
    return displacements


@st.composite
def average_cases(draw):
    if draw(st.booleans()):
        family, a_points, leaks = eight_state_family(), (0, 1, 2), False
    else:
        family, a_points, leaks = draw(parked_families())
    horizon = draw(st.integers(64, 4096))
    x0 = draw(st.sampled_from(family.space.points))
    po = displace_orbit(family, x0, draw(displacement_sets(horizon)))
    # A leaky A cannot pass InvariantSubsystem.finite; build it directly.
    sub = InvariantSubsystem(ambient=family, points=a_points) if leaks else InvariantSubsystem.finite(family, a_points)
    return sub, po


@settings(max_examples=40)
@given(case=average_cases())
def test_table_path_equals_the_per_index_reference(case):
    sub, po = case
    assert outcome(average_shadow_point, sub, po) == outcome(average_shadow_point_reference, sub, po)


def test_eight_state_squares_equal_the_reference_at_every_field():
    fam = eight_state_family()
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    displacements = [1.01 if math.isqrt(i + 1) ** 2 == i + 1 else 0.0 for i in range(4096)]
    po = displace_orbit(fam, 1, displacements)
    got, want = average_shadow_point(sub, po), average_shadow_point_reference(sub, po)
    assert got.point == want.point
    assert got.lift.points == want.lift.points
    assert repr(got.lift.defects) == repr(want.lift.defects)
    assert got.lift.block_deviations == want.lift.block_deviations
    assert got.blocks == want.blocks
    assert got.final_cesaro_exact == want.final_cesaro_exact
    assert got.term_shadow_vs_lift == want.term_shadow_vs_lift
    assert got.term_lift_vs_data == want.term_lift_vs_data
    assert repr(got) == repr(want)


def test_a_leaking_orbit_raises_the_reference_error_and_witness():
    # Three states: A = {0, 1}; state 2 is parked 0.01 from state 0. The map
    # swaps 1 and 2, so the restricted orbit of 1 leaves A.
    space = finite_space([[0.0, 1.0, 0.01], [1.0, 0.0, 1.01], [0.01, 1.01, 0.0]])
    family = MapFamily(name="leak", space=space, maps=Schedule(cycle=(FiniteMap(space, [0, 2, 1]),)))
    sub = InvariantSubsystem(ambient=family, points=(0, 1))
    with pytest.raises(HypothesisFailedError):
        InvariantSubsystem.finite(family, (0, 1))
    po = displace_orbit(family, 1, [0.0] * 256)
    with pytest.raises(HypothesisFailedError) as caught:
        average_shadow_point(sub, po)
    assert caught.value.witness is not None
    assert outcome(average_shadow_point, sub, po) == outcome(average_shadow_point_reference, sub, po)


# ---------------------------------------------------------------------------
# the pieces: ladder, dyadic covers, complement runs, validation

on_levels = st.sampled_from(
    [0.0, 0.01] + [0.5**i for i in range(1, 8)] + [math.nextafter(0.5**i, 0.0) for i in range(1, 7)]
)


@given(
    data=st.integers(1, 60).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(on_levels, min_size=n, max_size=n),
            st.lists(on_levels, min_size=n, max_size=n),
        )
    )
)
@example(data=([1] * 8, [0.0] * 8, [0.0] * 5 + [0.5**6, 0.0, 0.0]))
@example(data=([1] * 8, [0.0] * 7 + [0.5**6], [0.0] * 8))
@example(data=([1, 0, 1, 1], [0.5, 0.5, 0.5**3, 0.0], [0.0, 0.0, 0.0, 0.5**2]))
def test_one_pass_ladder_equals_one_scan_per_level(data):
    off, defects, distances = data
    off_j = bytearray(off)
    assert _ladder_cuts(off_j, defects, distances) == ladder_cuts_reference(off_j, defects, distances)


@given(
    members=st.sets(st.integers(0, 299), max_size=60),
    scale=st.integers(1, 70),
    horizon=st.integers(1, 320),
)
def test_dyadic_cover_is_the_sorted_union_of_its_blocks(members, scale, horizon):
    j = IndexSet.from_iterable(members, 300)
    cover = dyadic_cover(j, scale, horizon)
    assert cover == IndexSet.from_iterable(cover.members, horizon)
    assert cover == dyadic_cover_reference(j, scale, horizon)


@given(members=st.sets(st.integers(0, 79), max_size=40), horizon=st.integers(0, 90))
def test_complement_blocks_equal_a_scan_of_every_index(members, horizon):
    j = IndexSet.from_iterable(members, 80)
    assert complement_blocks(j, horizon) == complement_blocks_reference(members, horizon)


def _validation(decomposition, check):
    try:
        check(decomposition)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def decompositions(draw):
    """Near-valid decompositions: the true runs with one random edit, or none."""
    horizon = draw(st.integers(1, 40))
    members = sorted(draw(st.sets(st.integers(0, horizon + 3), max_size=horizon)))
    blocks = [list(b) for b in complement_blocks_reference(members, horizon)]
    edit = draw(st.sampled_from(["none", "split", "shift", "drop", "extend", "overlap", "flip"]))
    if blocks:
        i = draw(st.integers(0, len(blocks) - 1))
        a, b = blocks[i]
        if edit == "split" and a < b:
            cut = draw(st.integers(a, b - 1))
            blocks[i : i + 1] = [[a, cut], [cut + 1, b]]
        elif edit == "shift":
            blocks[i][draw(st.integers(0, 1))] += draw(st.sampled_from([-1, 1]))
        elif edit == "drop":
            del blocks[i]
        elif edit == "extend":
            blocks[-1][1] += draw(st.integers(1, 3))
        elif edit == "overlap" and i + 1 < len(blocks):
            blocks[i + 1][0] = b
        elif edit == "flip":
            blocks[i] = [b, a]
    blocks = tuple(tuple(b) for b in blocks)
    prime = IndexSet.from_iterable([m for m in members if m < horizon + 4], horizon + 4)
    return BlockDecomposition(
        horizon=horizon,
        prime_set=prime,
        boundaries=(0,),
        selectors=(1,),
        blocks=blocks,
        fill_markers=tuple(b for _, b in blocks),
    )


def _blocks(horizon, members, blocks):
    return BlockDecomposition(
        horizon=horizon,
        prime_set=IndexSet.from_iterable(members, horizon),
        boundaries=(0,),
        selectors=(1,),
        blocks=blocks,
        fill_markers=tuple(b for _, b in blocks),
    )


@given(decomposition=decompositions())
@example(decomposition=_blocks(4, [], ((0, 1), (2, 3))))  # adjacent runs tile too
@example(decomposition=_blocks(4, [], ((0, 2), (2, 3))))  # runs sharing an end
@example(decomposition=_blocks(4, [], ((0, 1), (3, 4))))  # a hole paid for past the horizon
@example(decomposition=_blocks(4, [1], ((0, 1), (3, 3))))  # a member of J' ends a run
@example(decomposition=_blocks(4, [2], ((0, 1),)))  # a run missing
def test_validate_rejects_what_the_set_check_rejects(decomposition):
    assert _validation(decomposition, BlockDecomposition.validate) == _validation(
        decomposition, validate_reference
    )
