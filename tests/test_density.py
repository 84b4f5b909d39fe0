import math
from fractions import Fraction

import pytest

from shadowlab.density import (
    BlockDecomposition,
    IndexSet,
    cesaro_to_density_zero,
    complement_blocks,
    density_zero_to_cesaro,
    exact_mean,
    patch_sets,
    upper_density,
)
from shadowlab.errors import (
    BoundViolatedError,
    MenuExhaustedError,
    NotCesaroNullError,
    ZeroHorizonError,
)


def squares_below(horizon):
    return [i * i for i in range(math.isqrt(horizon - 1) + 1) if i * i < horizon]


def test_upper_density_exact_rationals():
    evens = IndexSet.from_iterable(range(0, 1000, 2), 1000)
    assert upper_density(evens, 1000) == Fraction(1, 2)
    squares = IndexSet.from_iterable(squares_below(10_000), 10_000)
    assert upper_density(squares, 10_000) == Fraction(1, 100)
    empty = IndexSet.from_iterable([], 10)
    assert upper_density(empty, 10) == 0
    with pytest.raises(ZeroHorizonError):
        upper_density(empty, 0)


def test_index_set_invariants():
    s = IndexSet.from_iterable([5, 1, 3, 3], 10)
    assert s.members == (1, 3, 5)
    assert 3 in s.members and 2 not in s.members
    with pytest.raises(ValueError):
        IndexSet.from_iterable([10], 10)
    extended = s.extended(20)
    assert extended.members == s.members
    assert upper_density(extended, 20) == Fraction(3, 20)


def test_extraction_zero_sequence_gives_empty_set():
    report = cesaro_to_density_zero([0.0] * 100, 100)
    assert len(report.index_set) == 0


def test_extraction_squares_indicator():
    horizon = 10_000
    values = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(horizon)]
    report = cesaro_to_density_zero(values, horizon)
    # Exhaustive oracle: the exceptional set is exactly the squares.
    assert list(report.index_set.members) == squares_below(horizon)
    assert report.density_at_horizon == Fraction(1, 100)
    # Complement values are all zero, at every level.
    assert all(sup == 0.0 for sup in report.complement_sups)
    # Cut indices are reported nondecreasing from zero.
    assert report.cuts[0] == 0
    assert all(a <= b for a, b in zip(report.cuts, report.cuts[1:]))


def test_extraction_harmonic_needs_almost_nothing():
    horizon = 10_000
    values = [1.0 / (i + 1) for i in range(horizon)]
    report = cesaro_to_density_zero(values, horizon)
    # The sequence is already null: the empty set satisfies the contract,
    # and the construction keeps only the level-1 exceedance at index 0.
    assert set(report.index_set.members) <= {0, 1}
    for cut, level in zip(report.cuts, report.levels):
        tail = max(
            (values[n] for n in range(cut, horizon) if n not in report.index_set.members),
            default=0.0,
        )
        assert tail <= level
    # Oracle: the empty set also satisfies the decay contract.
    for k, level in enumerate(report.levels, start=1):
        n_k = 2**k
        assert max(values[n_k:]) <= level


def test_extraction_gate_on_non_null_sequence():
    values = [1.0 if i % 2 == 0 else 0.0 for i in range(1000)]
    with pytest.raises(NotCesaroNullError):
        cesaro_to_density_zero(values, 1000)


def test_reverse_zero_case():
    empty = IndexSet.from_iterable([], 50)
    cert = density_zero_to_cesaro([0.0] * 50, empty, 1.0)
    assert cert.actual_mean == 0
    assert cert.certificate == 0
    assert cert.holds


def test_reverse_squares_certificate_exact():
    horizon = 10_000
    values = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(horizon)]
    squares = IndexSet.from_iterable(squares_below(horizon), horizon)
    cert = density_zero_to_cesaro(values, squares, 1.0)
    assert cert.actual_mean == Fraction(1, 100)
    assert cert.holds
    # Round trip: certificate within 2x of the actual mean.
    assert cert.certificate <= 2 * cert.actual_mean


def test_reverse_certificate_round_trip_for_indicator_synthetics():
    horizon = 4096
    for members in (squares_below(horizon), list(range(0, horizon, 16))):
        values = [0.0] * horizon
        for m in members:
            values[m] = 1.0
        j = IndexSet.from_iterable(members, horizon)
        cert = density_zero_to_cesaro(values, j, 1.0)
        assert cert.holds
        assert cert.certificate <= 2 * cert.actual_mean


def test_reverse_evens_contrapositive_demo():
    horizon = 1000
    values = [1.0 if i % 2 == 0 else 0.0 for i in range(horizon)]
    evens = IndexSet.from_iterable(range(0, horizon, 2), horizon)
    cert = density_zero_to_cesaro(values, evens, 1.0)
    assert cert.actual_mean == Fraction(1, 2)
    assert Fraction(1, 2) <= cert.certificate <= Fraction(3, 5)


def test_reverse_bound_violation():
    j = IndexSet.from_iterable([0], 10)
    with pytest.raises(BoundViolatedError):
        density_zero_to_cesaro([2.0] + [0.0] * 9, j, 1.0)


def test_density_decay_law_for_squares():
    """Squares-density scaling: quadrupling the horizon halves the density.

    Doubling multiplies it by 1/sqrt(2); both re-extractions are pinned here
    so the scaling behaviour stays documented.
    """
    horizons = [10_000, 20_000, 40_000]
    densities = []
    for h in horizons:
        values = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(h)]
        report = cesaro_to_density_zero(values, h)
        densities.append(float(report.density_at_horizon))
    assert densities[0] == 0.01
    assert densities[1] == pytest.approx(densities[0] / math.sqrt(2), rel=0.02)
    assert densities[2] == pytest.approx(densities[0] / 2.0, rel=1e-12)
    # Fixed-set reading: a set extracted once halves its density at 2x horizon.
    values = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(10_000)]
    j = cesaro_to_density_zero(values, 10_000).index_set
    assert upper_density(j.extended(20_000), 20_000) == upper_density(j, 10_000) / 2


# ---------------------------------------------------------------------------
# Patching


def dyadic_family(horizon, count=12):
    """J_i = multiples of 2^(i+1), 1-based."""
    return [
        IndexSet.from_iterable(range(0, horizon, 2 ** (i + 1)), horizon)
        for i in range(1, count + 1)
    ]


def test_patch_all_empty():
    sets = [IndexSet.from_iterable([], 100) for _ in range(4)]
    menus = [range(1, 100) for _ in range(4)]
    result = patch_sets(sets, menus, 100)
    assert len(result.index_set) == 0


def test_patch_single_density_zero_set():
    j0 = IndexSet.from_iterable([3, 77, 500], 1000)
    result = patch_sets([j0], [], 1000)
    assert result.index_set.members == j0.members
    assert result.selectors == (1,)


def test_patch_dyadic_family_block_identity_exhaustive():
    horizon = 2**14
    sets = dyadic_family(horizon)
    menus = [range(1, horizon) for _ in range(len(sets) - 1)]
    result = patch_sets(sets, menus, horizon)
    assert float(result.density_at_horizon) < 0.01
    # Exhaustive block identity: J agrees with the selected set per window.
    bounds = list(result.boundaries) + [horizon]
    patched = set(result.index_set.members)
    for idx, sel in enumerate(result.selectors):
        lo, hi = bounds[idx], bounds[idx + 1]
        expected = {n for n in sets[sel - 1].members if lo <= n < hi}
        assert {n for n in patched if lo <= n < hi} == expected
    # Every boundary came from its menu.
    for idx, m in enumerate(result.boundaries[1:]):
        assert m in menus[idx]
    # Density-zero inputs take the diagonal selectors l_i = i.
    assert result.selectors == tuple(range(1, len(result.selectors) + 1))


def test_patch_with_coarse_menus():
    horizon = 2**14
    sets = dyadic_family(horizon, count=6)
    menus = [range(100, horizon, 100) for _ in range(5)]
    result = patch_sets(sets, menus, horizon)
    for m in result.boundaries[1:]:
        assert m % 100 == 0
    bounds = list(result.boundaries) + [horizon]
    for idx, sel in enumerate(result.selectors):
        lo, hi = bounds[idx], bounds[idx + 1]
        expected = {n for n in sets[sel - 1].members if lo <= n < hi}
        assert {n for n in result.index_set.members if lo <= n < hi} == expected


def test_patch_menu_exhausted():
    horizon = 2**10
    sets = dyadic_family(horizon, count=3)
    with pytest.raises(MenuExhaustedError):
        patch_sets(sets, [[], []], horizon)


def test_complement_blocks_and_validation():
    j = IndexSet.from_iterable([3, 4, 9], 12)
    blocks = complement_blocks(j, 12)
    assert blocks == ((0, 2), (5, 8), (10, 11))
    decomposition = BlockDecomposition(
        horizon=12,
        prime_set=j,
        boundaries=(0,),
        selectors=(1,),
        blocks=blocks,
        fill_markers=tuple(b for _, b in blocks),
    )
    decomposition.validate()
    broken = BlockDecomposition(
        horizon=12,
        prime_set=j,
        boundaries=(0,),
        selectors=(1,),
        blocks=((0, 2), (5, 8)),
        fill_markers=(2, 8),
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_exact_mean_is_the_rational_mean_of_the_floats():
    values = [0.1, 0.2, 0.7, 1e-300]
    assert exact_mean(values) == sum(Fraction(v) for v in values) / 4
    assert exact_mean(values) != Fraction(1, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extraction_rejects_a_non_finite_value_at_its_index(bad):
    values = [0.0] * 100
    values[10] = bad
    with pytest.raises(BoundViolatedError) as caught:
        cesaro_to_density_zero(values, 100)
    assert caught.value.witness == 10


def test_extraction_rejects_a_negative_value_at_its_index():
    # A negative sequence has a Cesaro mean below every level, yet it is
    # not Cesaro-null; its off-J sups of -1.0 would certify nothing.
    with pytest.raises(BoundViolatedError) as caught:
        cesaro_to_density_zero([-1.0] * 100, 100)
    assert caught.value.witness == 0
    values = [0.0] * 100
    values[37] = -1e-300
    with pytest.raises(BoundViolatedError) as caught:
        cesaro_to_density_zero(values, 100)
    assert caught.value.witness == 37


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certificate_rejects_a_non_finite_value_at_its_index(bad):
    values = [0.0] * 20
    values[7] = bad
    with pytest.raises(BoundViolatedError) as caught:
        density_zero_to_cesaro(values, IndexSet.from_iterable([7], 20), 1.0)
    assert caught.value.witness == 7


@pytest.mark.parametrize(
    "bad, witness, reason",
    [({5: -1e-300, 9: 2.0}, 5, "negative"), ({3: 1.5, 8: -1.0}, 3, "exceeds"), ({4: -0.5}, 4, "negative")],
)
def test_certificate_rejects_the_first_value_outside_zero_to_bound(bad, witness, reason):
    values = [0.0] * 20
    for n, v in bad.items():
        values[n] = v
    with pytest.raises(BoundViolatedError, match=reason) as caught:
        density_zero_to_cesaro(values, IndexSet.from_iterable([], 20), 1.0)
    assert caught.value.witness == witness


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_certificate_rejects_a_non_finite_bound(bound):
    with pytest.raises(BoundViolatedError):
        density_zero_to_cesaro([0.0] * 20, IndexSet.from_iterable([], 20), bound)


def test_empty_inputs_raise_zero_horizon():
    with pytest.raises(ZeroHorizonError):
        exact_mean([])
    with pytest.raises(ZeroHorizonError):
        cesaro_to_density_zero([], 0)
    with pytest.raises(ZeroHorizonError):
        density_zero_to_cesaro([], IndexSet.from_iterable([], 0), 1.0)


def test_exact_mean_rejects_a_non_finite_value_at_its_index():
    with pytest.raises(BoundViolatedError) as caught:
        exact_mean([0.5, 0.25, math.nan])
    assert caught.value.witness == 2
