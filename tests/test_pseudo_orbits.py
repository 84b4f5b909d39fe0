import math

import pytest

from shadowlab.errors import NoiseExceedsSpaceError, NonConstantSpacesError
from shadowlab.families import (
    Schedule,
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    product_family,
    rotation_family,
)
from shadowlab.pseudo_orbits import (
    PseudoOrbit,
    classify,
    classify_defects,
    displace_orbit,
    inject_defects,
    periodicize,
    perturb_orbit,
    pseudo_orbit_rows,
)


def test_zero_noise_gives_true_orbit():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.137, 20, 0.0, seed=3)
    assert po.max_defect == 0.0
    assert po.points == fam.compose(0.137, 20).points


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
    assert po.defects == po.recomputed_defects()


def test_finite_space_small_noise_is_exact():
    fam = finite_cycle_family(3)
    noise = 0.5 * fam.space_at(0).min_positive_distance()
    po = perturb_orbit(fam, 0, 30, noise, seed=1)
    assert po.max_defect == 0.0
    assert po.points == fam.compose(0, 30).points


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


def test_classify_true_orbit_all_verdicts():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 100, 0.0, seed=0)
    verdicts = classify(po, 0.01)
    assert verdicts.is_delta_pseudo
    assert verdicts.is_limit_pseudo_at(100, 1e-9)
    assert verdicts.is_asymptotic_average_at(100, 1e-9)
    assert "finite-horizon" in verdicts.note


def test_classify_monotone_in_delta():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.7, 64, 0.02, seed=5)
    deltas = [0.005, 0.01, 0.02, 0.05]
    results = [classify(po, d).is_delta_pseudo for d in deltas]
    for earlier, later in zip(results, results[1:]):
        assert later or not earlier


def test_classify_harmonic_profile():
    horizon = 10_000
    defects = [1.0 / (i + 1) for i in range(horizon)]
    verdicts = classify_defects(defects, 1.5)
    assert verdicts.is_delta_pseudo
    assert not classify_defects(defects, 0.5).is_delta_pseudo  # e_0 = 1
    # Tail sup over the final quarter: sup_{i >= 7500} 1/(i+1) = 1/7501.
    assert verdicts.profile.tail_sup_at(7500) == 1.0 / 7501
    assert verdicts.is_limit_pseudo_at(horizon, 1e-3)
    cesaro = verdicts.profile.cesaro_at(horizon)
    assert cesaro == pytest.approx(sum(defects) / horizon)


def test_classify_squares_indicator_profile():
    horizon = 10_000
    defects = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(horizon)]
    verdicts = classify_defects(defects, 2.0)
    assert verdicts.profile.cesaro_at(horizon) == pytest.approx(0.01)
    assert verdicts.is_asymptotic_average_at(horizon, 0.02)
    assert not verdicts.is_limit_pseudo_at(horizon, 0.02)


def test_cesaro_bounded_by_defect_bound():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.4, 200, 0.03, seed=2)
    profile = classify(po, 0.03).profile
    bound = max(po.defects)
    assert all(c <= bound + 1e-15 for c in profile.cesaro_means)


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


def test_periodicize_identity_when_period_is_length():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 5, 0.02, seed=1)
    again = periodicize(po, len(po.points))
    assert again.points == po.points


def test_periodicize_abc_pattern():
    fam = rotation_family()
    po = PseudoOrbit.from_points(fam, [0.1, 0.4, 0.7, 0.9, 0.2, 0.5])
    out = periodicize(po, 2)
    assert out.points == (0.1, 0.4, 0.1, 0.4, 0.1, 0.4)


def test_periodicize_seam_defect_recomputed():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.0, 6, 0.01, seed=9)
    out = periodicize(po, 3)
    space = fam.space_at(0)
    seam = space.distance(fam.evaluate(2, out.points[2]), out.points[0])
    assert out.defects[2] == pytest.approx(seam, abs=1e-15)


def test_periodicize_needs_constant_spaces():
    fam = doubling_family()
    from dataclasses import replace

    weird = replace(fam, spaces=Schedule(head=(fam.space_at(0),), cycle=(fam.space_at(0),)))
    po = PseudoOrbit.from_points(weird, [0.1, 0.2, 0.4])
    with pytest.raises(NonConstantSpacesError):
        periodicize(po, 1)


def test_csv_rows_include_defects():
    fam = doubling_family()
    po = perturb_orbit(fam, 0.2, 3, 0.01, seed=0)
    rows = pseudo_orbit_rows(po)
    assert len(rows) == 4
    assert rows[0][0] == 0
    assert rows[0][-1] == po.defects[0]
    assert rows[-1][-1] == ""
