import dataclasses
import math
from fractions import Fraction

import pytest

from oracles import exhaustive_average_minimizer
from shadowlab.averaging import (
    InvariantSubsystem,
    average_shadow_point,
    block_decompose,
    dyadic_cover,
    lift_to_A,
    visit_condition,
)
from shadowlab.density import IndexSet, upper_density
from shadowlab.errors import EmptyAError, HypothesisFailedError, OracleUnavailableError
from shadowlab.families import (
    FiniteKernel,
    doubling_family,
    eight_state_family,
    identity_pair_family,
)
from shadowlab.pseudo_orbits import displace_orbit, perturb_orbit


def squares_displaced_orbit(horizon=10_000, magnitude=1.01):
    fam = eight_state_family()
    displacements = [
        magnitude if math.isqrt(i + 1) ** 2 == i + 1 else 0.0 for i in range(horizon)
    ]
    return fam, displace_orbit(fam, 0, displacements)


# ---------------------------------------------------------------------------
# invariant subsystems and visit statistics


def test_invariant_subsystem_accepts_cycle():
    fam = eight_state_family()
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    assert sub.diameter == 1.0
    to_a, nearest = FiniteKernel(fam, 0).nearest(sub.points)
    assert nearest[3] == 0
    assert to_a[4] == pytest.approx(0.01)


def test_invariant_subsystem_rejects_leaky_subset():
    with pytest.raises(HypothesisFailedError):
        InvariantSubsystem.finite(eight_state_family(), [0, 3])
    with pytest.raises(EmptyAError):
        InvariantSubsystem.finite(eight_state_family(), [])


def test_visit_fraction_one_inside_A():
    sub = InvariantSubsystem.finite(eight_state_family(), [0, 1, 2])
    report = visit_condition(sub, 0.5, 10, [0, 1, 2])
    assert report.verdict
    assert report.worst_fraction == 1.0


def test_visit_parked_states_pass_the_ladder():
    sub = InvariantSubsystem.finite(eight_state_family(), [0, 1, 2])
    # Complement states sit 0.01 from A, below every ladder epsilon >= 2^-6.
    report = visit_condition(sub, 0.5**6, 16, list(range(8)))
    assert report.verdict
    assert report.worst_fraction == 1.0


def test_visit_negative_control_identity():
    sub = InvariantSubsystem.finite(identity_pair_family(), [0])
    report = visit_condition(sub, 0.5, 10, [1])
    assert not report.verdict
    assert report.worst_fraction == 0.0


def test_visit_at_exactly_epsilon_is_not_a_visit():
    sub = InvariantSubsystem.finite(identity_pair_family(), [0])
    epsilon = sub.ambient.space.distance(1, 0)
    report = visit_condition(sub, epsilon, 10, [1])
    assert report.worst_fraction == 0.0
    assert not report.verdict


def test_visit_funnel_fraction_bound():
    # Cyclic 3-state family, A = whole space: fraction 1 always; subsetting a
    # cyclic orbit is impossible, so use the eight-state complement cycle.
    fam = eight_state_family()
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    report = visit_condition(sub, 0.5, 10, [3])
    assert report.verdict  # parked within 0.01 < 0.5 at every step
    assert report.per_point[0].fraction == 1.0


# ---------------------------------------------------------------------------
# block decomposition


def test_block_decompose_empty_set():
    blocks = block_decompose(IndexSet.from_iterable([], 64), 64)
    assert blocks.blocks == ((0, 63),)
    assert blocks.fill_markers == (63,)
    assert len(blocks.prime_set) == 0


def test_block_decompose_squares_exhaustive():
    horizon = 2**14
    squares = IndexSet.from_iterable(
        [i * i for i in range(math.isqrt(horizon - 1) + 1) if i * i < horizon], horizon
    )
    blocks = block_decompose(squares, horizon)
    blocks.validate()
    # Window identity: inside window i the patched set equals the dyadic
    # cover at scale 2^i (selectors are diagonal for density-zero inputs).
    bounds = list(blocks.boundaries) + [horizon]
    prime = set(blocks.prime_set.members)
    for idx, sel in enumerate(blocks.selectors):
        scale = 2**sel
        cover = set(dyadic_cover(squares, scale, horizon).members)
        lo, hi = bounds[idx], bounds[idx + 1]
        assert {n for n in prime if lo <= n < hi} == {n for n in cover if lo <= n < hi}
    # Boundaries come from the paper-form menus: m_i = l * 2^(i+1) - 1 with
    # the scale-2^(i+1) block l meeting J.
    for idx, m in enumerate(blocks.boundaries[1:], start=1):
        scale = 2 ** (idx + 1)
        assert (m + 1) % scale == 0
        block_l = (m + 1) // scale
        assert any(block_l * scale <= s < (block_l + 1) * scale for s in squares.members)
    # Interleaving: runs strictly ordered, inclusive bounds.
    for (a1, b1), (a2, b2) in zip(blocks.blocks, blocks.blocks[1:]):
        assert a1 <= b1 < a2 <= b2
    # J covered by J': no square survives in any block.
    for a, b in blocks.blocks:
        assert not any(a <= s <= b for s in squares.members)
    # Marker set density reported small.
    markers = IndexSet.from_iterable(blocks.fill_markers, horizon)
    assert float(upper_density(markers, horizon)) < 0.02


def test_block_decompose_rejects_dense_set():
    evens = IndexSet.from_iterable(range(0, 1024, 2), 1024)
    with pytest.raises(HypothesisFailedError):
        block_decompose(evens, 1024)


# ---------------------------------------------------------------------------
# lifting


def test_lift_exact_orbit_inside_A_is_itself():
    fam = eight_state_family()
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    po = perturb_orbit(fam, 0, 200, 0.0, seed=0)
    blocks = block_decompose(IndexSet.from_iterable([], 201), 201)
    lift = lift_to_A(sub, po, blocks)
    assert lift.points == po.points
    assert len(lift.support) == 0
    assert lift.support_contained


def test_lift_supports_only_prime_and_markers():
    fam, po = squares_displaced_orbit(4096)
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    result = average_shadow_point(sub, po)
    assert result.lift.support_contained
    # Lift follows the data exactly inside blocks, except where a block start
    # sits on a displaced point and snaps to A at the parked distance.
    from shadowlab.families import EIGHT_STATE_PARK

    assert max(dev for _, _, dev in result.lift.block_deviations) <= EIGHT_STATE_PARK
    assert sum(1 for _, _, dev in result.lift.block_deviations if dev > 0.0) <= 1
    # Lifted defects certified Cesaro-small from their density-zero support.
    assert result.lift.cesaro_certificate.holds


# ---------------------------------------------------------------------------
# the full composition


def test_exact_orbit_average_shadowed_with_zero_error():
    fam = eight_state_family()
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    po = perturb_orbit(fam, 1, 2000, 0.0, seed=0)
    result = average_shadow_point(sub, po)
    assert result.point == 1
    assert result.final_cesaro_exact == 0


def test_eight_state_scenario_certificates():
    fam, po = squares_displaced_orbit(10_000)
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    result = average_shadow_point(sub, po)
    assert result.final_cesaro_error < 0.05
    assert result.triangle_holds
    # Exact arithmetic triangle: total <= term1 + term2 as Fractions.
    assert result.final_cesaro_exact <= result.term_shadow_vs_lift + result.term_lift_vs_data
    # Oracle cross-check: no start point does better than the returned one.
    space = fam.space_at(0)
    oracle_best, oracle_mean = exhaustive_average_minimizer(
        space.points,
        lambda i, x: fam.evaluate(i, x),
        space.distance,
        result.lift.points,
    )
    assert oracle_best == result.point
    shadow_vs_lift = float(result.term_shadow_vs_lift)
    assert shadow_vs_lift == pytest.approx(oracle_mean, abs=1e-12)


def test_triangle_that_misses_by_a_billionth_does_not_hold():
    fam, po = squares_displaced_orbit(2000)
    result = average_shadow_point(InvariantSubsystem.finite(fam, [0, 1, 2]), po)
    total = result.term_shadow_vs_lift + result.term_lift_vs_data
    assert total > 0
    assert dataclasses.replace(result, final_cesaro_exact=total).triangle_holds
    assert not dataclasses.replace(result, final_cesaro_exact=total + Fraction(1, 10**9)).triangle_holds


def test_visit_gate_failure_raises():
    fam = identity_pair_family()
    sub = InvariantSubsystem.finite(fam, [0])
    po = perturb_orbit(fam, 1, 64, 0.0, seed=0)
    with pytest.raises(HypothesisFailedError):
        average_shadow_point(sub, po)


def test_continuous_subsystem_oracle_unavailable():
    fam = doubling_family()
    sub = InvariantSubsystem.__new__(InvariantSubsystem)
    object.__setattr__(sub, "ambient", fam)
    object.__setattr__(sub, "points", (0.0,))
    po = perturb_orbit(fam, 0.0, 32, 0.0, seed=0)
    with pytest.raises(OracleUnavailableError):
        average_shadow_point(sub, po)


def test_density_of_support_halves_in_fixed_set_reading():
    fam, po = squares_displaced_orbit(8192)
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    result = average_shadow_point(sub, po)
    support = result.lift.allowed
    d1 = upper_density(support, support.horizon)
    d2 = upper_density(support.extended(2 * support.horizon), 2 * support.horizon)
    assert d2 == d1 / 2
