import math
import random

import pytest

from shadowlab.errors import NoiseExceedsSpaceError, PointOutsideSpaceError
from shadowlab.families import (
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    product_family,
    rotation_family,
)
from shadowlab.limits import _tail_sups
from shadowlab.pseudo_orbits import (
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
    pseudo_orbit_rows,
)


def test_zero_noise_gives_true_orbit():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.137, 20, 0.0, seed=3)
    assert po.max_defect == 0.0
    assert po.points == fam.compose(0.137, 20)


def test_perturb_orbit_golden_points():
    # Pins the RNG draw order: two random() calls per circle step, one
    # randrange per finite step, left factor before right on products.
    assert perturb_orbit(doubling_family(), 0.3, 6, 0.05, seed=17).points == (
        0.3,
        0.5739008045143753,
        0.19582634774494445,
        0.35334732359999127,
        0.739763800061174,
        0.48087443906187444,
        0.9990686379320681,
    )
    assert perturb_orbit(eight_state_family(), 3, 8, 0.5, seed=17).points == (
        3, 7, 3, 4, 5, 3, 1, 5, 0,
    )
    mixed = product_family(doubling_family(), eight_state_family())
    assert perturb_orbit(mixed, (0.3, 3), 6, 0.05, seed=17).points == (
        (0.3, 3),
        (0.5739008045143753, 4),
        (0.13332034014052735, 5),
        (0.2721487827269153, 3),
        (0.5850568698977245, 7),
        (0.12999504164648507, 6),
        (0.3072497790182146, 7),
    )


def test_perturbed_orbit_respects_noise_bound():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.1, 64, 0.04, seed=7)
    assert 0.0 < po.max_defect < 0.04
    assert po.defects == PseudoOrbit.from_points(fam, po.points).defects


def test_finite_space_small_noise_is_exact():
    fam = finite_cycle_family(3)
    noise = 0.5 * fam.space_at(0).min_positive_distance()
    po = perturb_orbit(fam, 0, 30, noise, seed=1)
    assert po.max_defect == 0.0
    assert po.points == fam.compose(0, 30)


def test_finite_space_large_noise_jumps_within_bound():
    fam = finite_cycle_family(4)
    noise = 0.6  # above the min positive distance 0.5, below the diameter 1
    po = perturb_orbit(fam, 0, 200, noise, seed=2)
    assert 0.0 < po.max_defect < noise


def test_perturbation_is_bit_reproducible():
    fam = doubling_family()
    a = perturb_orbit(fam, 0.25, 50, 0.03, seed=11)
    b = perturb_orbit(fam, 0.25, 50, 0.03, seed=11)
    c = perturb_orbit(fam, 0.25, 50, 0.03, seed=12)
    assert a.points == b.points
    assert a.points != c.points


def test_noise_exceeding_diameter_rejected():
    with pytest.raises(NoiseExceedsSpaceError):
        perturb_orbit(doubling_family(), 0.1, 5, 0.6, seed=0)


def test_classify_harmonic_profile():
    # The defect profile the limit gate reads: tails[n] = sup of e_i over i >= n.
    horizon = 10_000
    defects = [1.0 / (i + 1) for i in range(horizon)]
    tails = _tail_sups(defects)
    assert len(tails) == horizon + 1 and tails[horizon] == 0.0
    assert tails[0] == 1.0  # a 1.5- but not a 0.5-pseudo-orbit: e_0 = 1
    # Tail sup over the final quarter: sup_{i >= 7500} 1/(i+1) = 1/7501.
    assert tails[int(0.75 * horizon)] == 1.0 / 7501
    assert tails[int(0.75 * horizon)] < 1e-3  # a limit pseudo-orbit at this horizon
    rng = random.Random(2)
    values = [rng.random() for _ in range(200)]
    assert _tail_sups(values) == tuple(max(values[n:], default=0.0) for n in range(201))


def test_classify_squares_indicator_profile():
    horizon = 10_000
    defects = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(horizon)]
    assert sum(defects) / horizon == pytest.approx(0.01)  # average-null
    # Defect 1 at i = 99^2 = 9801: not a limit pseudo-orbit at this horizon.
    assert _tail_sups(defects)[int(0.75 * horizon)] == 1.0


def test_inject_defects_realizes_prescription_exactly():
    fam = rotation_family()
    prescribed = [0.01, 0.02, 0.0, 0.004]
    po = inject_defects(fam, 0.3, prescribed)
    assert po.defects == pytest.approx(tuple(prescribed), abs=1e-15)


def test_inject_harmonic_on_rotation_wraps_first_step():
    fam = rotation_family()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(100)])
    # Displacement 1 wraps to distance 0; afterwards the arc realizes e_i.
    assert po.defects[0] == 0.0
    assert po.defects[1] == pytest.approx(0.5)
    assert po.defects[10] == pytest.approx(1.0 / 11, abs=1e-15)


def test_displace_orbit_touches_adjacent_steps_only():
    fam = finite_cycle_family(4)
    displacements = [0.0] * 20
    displacements[9] = 1.0  # moves the point at index 10
    po = displace_orbit(fam, 0, displacements)
    nonzero = [i for i, d in enumerate(po.defects) if d > 0.0]
    assert nonzero == [9, 10]


def test_csv_rows_include_defects():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.2, 3, 0.01, seed=0)
    rows = pseudo_orbit_rows(po)
    assert len(rows) == 4
    assert rows[0][0] == 0
    assert rows[0][-1] == po.defects[0]
    assert rows[-1][-1] == ""


@pytest.mark.parametrize("make,start", [(eight_state_family, True), (doubling_family, False)])
def test_a_boolean_start_point_is_refused(make, start):
    # inject_defects(eight_state_family(), True, ...) kept True as state 1.
    with pytest.raises(PointOutsideSpaceError):
        inject_defects(make(), start, [0.0, 0.0])
    with pytest.raises(PointOutsideSpaceError):
        perturb_orbit(make(), start, 4, 0.0, seed=0)

