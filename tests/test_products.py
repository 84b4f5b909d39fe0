import random
from dataclasses import replace

import pytest

from oracles import (
    brute_force_average_shadowing,
    brute_force_h_shadowing,
    brute_force_lipschitz_shadowing,
    brute_force_periodic_shadowing,
    brute_force_plain_shadowing,
)
from shadowlab.errors import BudgetExceededError
from shadowlab.families import (
    alternating_family,
    barely_expanding_family,
    doubling_family,
    family_from_descriptor,
    finite_cycle_family,
    identity_family,
    identity_pair_family,
    product_family,
    tripling_family,
    two_bit_swap_family,
)
from shadowlab.products import (
    ALL_VARIANTS,
    VARIANT_CHECKERS,
    ShadowingVariant,
    VariantBudget,
    average_check,
    h_shadow_check,
    limit_check,
    lipschitz_check,
    periodic_check,
    plain_shadow_check,
    product_equivalence_check,
    s_limit_check,
)
from shadowlab.pseudo_orbits import PseudoOrbit, perturb_orbit


# ---------------------------------------------------------------------------
# product combinator


def test_identity_times_identity_is_identity():
    prod = product_family(identity_family(), identity_family())
    x = (0.3, 0.8)
    assert prod.evaluate(0, x) == x
    assert prod.is_isometry


def test_product_rates_and_branch_pairs():
    prod = product_family(doubling_family(), tripling_family())
    assert prod.rate_at(5) == 0.5
    # Branch-pair Lipschitz bound under the max metric.
    rng = random.Random(8)
    space = prod.space_at(0)
    for _ in range(500):
        w = space.random_point(rng)
        y = space.displace(w, rng.random() * 0.2, 1)
        z = space.displace(w, rng.random() * 0.2, -1)
        mapobj = prod.map_at(0)
        branch = mapobj.branch_of(space.random_point(rng))
        (gy, slope), (gz, _) = mapobj.pull(branch, w, y), mapobj.pull(branch, w, z)
        assert slope == 0.5  # the larger factor slope
        assert space.distance(gy, gz) <= 0.5 * space.distance(y, z) + 1e-12


def test_projection_consistency():
    left, right = doubling_family(), tripling_family()
    prod = product_family(left, right)
    rng = random.Random(4)
    for _ in range(200):
        x = (rng.random(), rng.random())
        for k in (1, 3, 7):
            full = prod.compose(x, k)[k]
            assert full[0] == left.compose(x[0], k)[k]
            assert full[1] == right.compose(x[1], k)[k]


def test_max_metric_identity_for_orbit_errors():
    left, right = doubling_family(), tripling_family()
    prod = product_family(left, right)
    rng = random.Random(12)
    po = perturb_orbit(prod, (0.2, 0.6), 12, 0.03, seed=3)
    y = (rng.random(), rng.random())
    orbit = prod.compose(y, 12)
    for i in range(13):
        d_prod = prod.space_at(i).distance(orbit[i], po.points[i])
        d_left = left.space_at(i).distance(orbit[i][0], po.points[i][0])
        d_right = right.space_at(i).distance(orbit[i][1], po.points[i][1])
        assert d_prod == max(d_left, d_right)


def test_projection_of_product_pseudo_orbit():
    left, right = finite_cycle_family(3), two_bit_swap_family()
    prod = product_family(left, right)
    po = perturb_orbit(prod, (0, 1), 40, 0.6, seed=9)
    left_po = PseudoOrbit.from_points(left, [p[0] for p in po.points])
    right_po = PseudoOrbit.from_points(right, [p[1] for p in po.points])
    for i in range(40):
        assert po.defects[i] == max(left_po.defects[i], right_po.defects[i])
        assert left_po.defects[i] <= po.defects[i]
        assert right_po.defects[i] <= po.defects[i]


# ---------------------------------------------------------------------------
# h-shadowing checker vs independent oracle


def test_h_check_trivial_below_min_distance():
    fam = finite_cycle_family(3)
    budget = VariantBudget(epsilon=0.6, delta=0.4, max_len=6)
    result = h_shadow_check(fam, budget)
    assert result.passed
    assert result.checked > 0


@pytest.mark.parametrize(
    "eps,delta",
    [(0.6, 0.4), (0.3, 0.6), (0.6, 0.6), (0.4, 1.1), (1.1, 0.6)],
)
def test_h_check_matches_brute_force_oracle(eps, delta):
    fam = two_bit_swap_family()
    space = fam.space_at(0)
    budget = VariantBudget(epsilon=eps, delta=delta, max_len=5)
    mine = h_shadow_check(fam, budget)
    oracle_verdict, oracle_witness = brute_force_h_shadowing(
        space.points,
        lambda i, x: fam.evaluate(i, x),
        space.distance,
        eps,
        delta,
        max_points=5,
    )
    assert mine.passed == oracle_verdict
    if not mine.passed:
        assert mine.witness is not None


def test_h_check_continuous_doubling():
    budget = VariantBudget(epsilon=0.1, delta=0.049, max_len=6, trials=8)
    assert h_shadow_check(doubling_family(), budget).passed


def test_h_check_continuous_product():
    prod = product_family(doubling_family(), tripling_family())
    budget = VariantBudget(epsilon=0.1, delta=0.049, max_len=5, trials=6)
    assert h_shadow_check(prod, budget).passed


# Long pseudo-orbits need the orbit read from the backward chain: iterating
# forward multiplies the start point's float error by the full expansion.
@pytest.mark.parametrize("max_len", [6, 30, 40, 60])
@pytest.mark.parametrize("make", [doubling_family, tripling_family, alternating_family])
def test_h_check_continuous_circle_families(make, max_len):
    budget = VariantBudget(epsilon=0.1, delta=0.049, max_len=max_len, trials=8)
    result = h_shadow_check(make(), budget)
    assert result.passed and result.checked == 8


@pytest.mark.parametrize("max_len", [6, 30, 40, 60])
@pytest.mark.parametrize("right", [tripling_family, doubling_family])
def test_h_check_continuous_product_long_orbits(right, max_len):
    prod = product_family(doubling_family(), right())
    budget = VariantBudget(epsilon=0.1, delta=0.049, max_len=max_len, trials=6)
    result = h_shadow_check(prod, budget)
    assert result.passed and result.checked == 6


def test_h_check_continuous_fails_outside_the_tube():
    # Trial 3's backward chain leaves the 0.05-tube at delta 0.08; without
    # the tube check its exact orbit would still land, and the check pass.
    budget = VariantBudget(epsilon=0.05, delta=0.08, max_len=10, trials=8)
    result = h_shadow_check(doubling_family(), budget)
    assert not result.passed and result.checked == 4
    assert len(result.witness) == 10


def test_product_of_passing_systems_passes_h():
    left, right = finite_cycle_family(3), two_bit_swap_family()
    budget = VariantBudget(epsilon=0.3, delta=0.2, max_len=5)
    assert h_shadow_check(left, budget).passed
    assert h_shadow_check(right, budget).passed
    assert h_shadow_check(product_family(left, right), budget).passed


# ---------------------------------------------------------------------------
# equivalence records


def test_equivalence_pass_pass():
    rec = product_equivalence_check(
        finite_cycle_family(3),
        two_bit_swap_family(),
        "h",
        VariantBudget(epsilon=0.3, delta=0.2, max_len=5),
    )
    assert rec.factor_left.passed and rec.factor_right.passed and rec.product_result.passed
    assert rec.consistent
    assert rec.basis == "proven"


def test_equivalence_pass_fail_identity_large_delta():
    rec = product_equivalence_check(
        finite_cycle_family(3),
        identity_pair_family(),
        "h",
        VariantBudget(epsilon=0.3, delta=1.6, max_len=4),
    )
    assert not rec.product_result.passed
    assert rec.consistent
    assert rec.witness is not None


def test_equivalence_uses_min_delta():
    rec = product_equivalence_check(
        finite_cycle_family(3),
        identity_pair_family(),
        "h",
        VariantBudget(epsilon=0.3, delta=0.2, max_len=4),
        delta_left=0.2,
        delta_right=1.6,
    )
    assert rec.delta_shared == 0.2
    assert rec.consistent


def test_s_limit_product_projection_recovery():
    # Limit-shadowing halves recovered from the product via projections:
    # the product's tail-exact shadow projects to tail-exact factor shadows.
    left, right = finite_cycle_family(3), two_bit_swap_family()
    prod = product_family(left, right)
    space = prod.space_at(0)
    po_pts = [(0, 0)]
    for i in range(5):
        po_pts.append(prod.evaluate(i, po_pts[-1]))
    po_pts[1] = (2, po_pts[1][1])  # one early jump, exact afterwards
    for i in range(1, 5):
        po_pts[i + 1] = prod.evaluate(i, po_pts[i])
    best = None
    for y in space.points:
        orbit = prod.compose(y, 5)
        for k in range(6):
            if orbit[k:] == tuple(po_pts[k:]):
                if best is None or k < best[1]:
                    best = (y, k)
                break
    assert best is not None
    y, k = best
    left_orbit = left.compose(y[0], 5)
    right_orbit = right.compose(y[1], 5)
    assert left_orbit[k:] == tuple(p[0] for p in po_pts[k:])
    assert right_orbit[k:] == tuple(p[1] for p in po_pts[k:])


def test_s_limit_doubling_passes():
    budget = VariantBudget(epsilon=0.1, delta=0.049, horizon=48, trials=4, max_len=6)
    result = s_limit_check(doubling_family(), budget)
    assert result.passed


def test_s_limit_negative_control_fails_clause_one():
    budget = VariantBudget(epsilon=0.1, delta=0.049, horizon=48, trials=4)
    result = s_limit_check(barely_expanding_family(), budget)
    assert not result.passed
    assert result.detail == "clause (i) fails"
    assert result.witness is not None and result.witness[0] == "DeltaBudgetViolated"


def test_all_variant_tags_bind_to_checkers():
    fam = finite_cycle_family(3)
    budget = VariantBudget(epsilon=0.6, delta=0.4, max_len=5)
    for tag in ALL_VARIANTS:
        variant = ShadowingVariant(tag)
        result = variant.run(fam, budget)
        assert result.variant == tag
        assert result.passed
    with pytest.raises(ValueError):
        ShadowingVariant("unknown")


def test_lipschitz_check_with_real_jumps():
    fam = finite_cycle_family(3)
    budget = VariantBudget(epsilon=0.6, delta=1.1, max_len=4, lipschitz_bound=2.0)
    result = lipschitz_check(fam, budget)
    assert result.checked > 0
    assert result.passed


def test_limit_check_finite_tail_exact():
    fam = two_bit_swap_family()
    budget = VariantBudget(epsilon=0.6, delta=0.6, max_len=6)
    assert limit_check(fam, budget).passed


def test_plain_check_fail_carries_witness():
    fam = identity_pair_family()
    budget = VariantBudget(epsilon=0.3, delta=1.6, max_len=4)
    result = plain_shadow_check(fam, budget)
    assert not result.passed
    assert result.witness is not None


# ---------------------------------------------------------------------------
# periodic and average checkers against direct brute force

SEARCH_FAMILIES = {
    "finite_cycle_3": lambda: finite_cycle_family(3),
    "two_bit_swap": two_bit_swap_family,
    "cycle_3*two_bit_swap": lambda: product_family(finite_cycle_family(3), two_bit_swap_family()),
}


@pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
@pytest.mark.parametrize("eps,delta", [(0.6, 0.4), (0.6, 0.6), (1.1, 0.6), (0.4, 1.1), (1.1, 1.1)])
def test_periodic_check_matches_brute_force(name, eps, delta):
    fam = SEARCH_FAMILIES[name]()
    space = fam.space_at(0)
    max_len = 4 if "*" in name else 5
    result = periodic_check(fam, VariantBudget(epsilon=eps, delta=delta, max_len=max_len))
    expected = brute_force_periodic_shadowing(
        space.points, fam.evaluate, space.distance, eps, delta, max_len
    )
    assert (result.passed, result.checked, result.witness) == expected


@pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
@pytest.mark.parametrize("eps", [0.2, 0.3, 0.45, 0.6])
def test_average_check_matches_brute_force(name, eps):
    fam = SEARCH_FAMILIES[name]()
    space = fam.space_at(0)
    result = average_check(fam, VariantBudget(epsilon=eps, delta=0.5, max_len=4))
    expected = brute_force_average_shadowing(
        space.points, fam.evaluate, space.distance, eps, length=4
    )
    assert (result.passed, result.checked, result.witness) == expected


@pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
@pytest.mark.parametrize("eps,delta", [(0.6, 0.4), (0.6, 0.6), (1.1, 0.6), (0.4, 1.1), (1.1, 1.1)])
def test_plain_check_matches_brute_force(name, eps, delta):
    fam = SEARCH_FAMILIES[name]()
    space = fam.space_at(0)
    max_len = 4 if "*" in name else 5
    result = plain_shadow_check(fam, VariantBudget(epsilon=eps, delta=delta, max_len=max_len))
    expected = brute_force_plain_shadowing(
        space.points, fam.evaluate, space.distance, eps, delta, max_len
    )
    assert (result.passed, result.checked, result.witness) == expected


@pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
@pytest.mark.parametrize("bound,delta", [(2.0, 0.4), (2.0, 0.6), (1.0, 0.6), (1.0, 1.1), (0.5, 0.6)])
def test_lipschitz_check_matches_brute_force(name, bound, delta):
    fam = SEARCH_FAMILIES[name]()
    space = fam.space_at(0)
    max_len = 4 if "*" in name else 5
    budget = VariantBudget(epsilon=0.5, delta=delta, max_len=max_len, lipschitz_bound=bound)
    result = lipschitz_check(fam, budget)
    expected = brute_force_lipschitz_shadowing(
        space.points, fam.evaluate, space.distance, bound, delta, max_len
    )
    assert (result.passed, result.checked, result.witness) == expected


# ---------------------------------------------------------------------------
# gates at their boundary


def test_plain_check_rejects_an_orbit_exactly_epsilon_away():
    # Two points at distance 1 under the identity: every orbit is constant,
    # so the best orbit for (0, 0, 1) is exactly 1 away, and none is further.
    fam = identity_pair_family()
    at = VariantBudget(epsilon=1.0, delta=1.1, max_len=3)
    failed = plain_shadow_check(fam, at)
    assert (failed.passed, failed.checked, failed.witness) == (False, 3, (0, 0, 1))
    assert plain_shadow_check(fam, replace(at, epsilon=1.0 + 1e-9)).passed


def test_lipschitz_check_accepts_an_error_exactly_at_the_bound():
    # (0, 1) and (1, 0) have defect 1 and best sup error 1 = bound * defect;
    # (0, 0) and (1, 1) have no defect and are not checked.
    fam = identity_pair_family()
    budget = VariantBudget(epsilon=0.5, delta=1.1, max_len=2, lipschitz_bound=1.0)
    result = lipschitz_check(fam, budget)
    assert (result.passed, result.checked, result.witness) == (True, 2, None)
    assert not lipschitz_check(fam, replace(budget, lipschitz_bound=1.0 - 1e-9)).passed


@pytest.mark.parametrize(
    "check,make,budget,nodes",
    [
        # Every point sequence is a 1.1-pseudo-orbit: 3 + 9 + 27 + 81 nodes.
        (lipschitz_check, lambda: finite_cycle_family(3), VariantBudget(0.6, 1.1, max_len=4), 120),
        # Roots count too: (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0) pass and
        # (0, 0, 0, 1), the fifth node, fails.
        (plain_shadow_check, identity_pair_family, VariantBudget(0.3, 1.6, max_len=4), 5),
    ],
)
def test_enumeration_limit_is_the_node_count(check, make, budget, nodes):
    fam = make()
    unlimited = check(fam, budget)
    assert check(fam, replace(budget, enumeration_limit=nodes)) == unlimited
    with pytest.raises(BudgetExceededError):
        check(fam, replace(budget, enumeration_limit=nodes - 1))


# ---------------------------------------------------------------------------
# every product workload case, pinned: (passed, checked, witness) of the
# left factor, the right factor and the product

SWAP = {"kind": "two_bit_swap"}
C3 = {"kind": "finite_cycle", "n": 3}
C4 = {"kind": "finite_cycle", "n": 4}
PAIR = {"kind": "identity_pair"}
EIGHT = {"kind": "eight_state"}

# (name, left, right, variant, epsilon, delta, max_len, factor moduli, results)
PINNED_CASES = [
    ("lipschitz-swap-c4", SWAP, C4, "lipschitz", 0.5, 0.6, 4, {},
     ((True, 144, None), (True, 144, None), (True, 13056, None))),
    ("average-eight-swap", EIGHT, SWAP, "average", 0.5, 0.6, 4, {},
     ((True, 256, None), (True, 64, None), (True, 4096, None))),
    ("lipschitz-c3-swap", C3, SWAP, "lipschitz", 0.5, 0.6, 5, {},
     ((True, 0, None), (True, 464, None), (True, 1392, None))),
    ("lipschitz-c3-c4", C3, C4, "lipschitz", 0.5, 0.6, 5, {},
     ((True, 0, None), (True, 464, None), (True, 1392, None))),
    ("lipschitz-pair-swap", PAIR, SWAP, "lipschitz", 0.5, 0.6, 5, {},
     ((True, 0, None), (True, 464, None), (True, 928, None))),
    ("asymptotic-average-c4-swap", C4, SWAP, "asymptotic_average", 0.5, 0.6, 4, {},
     ((True, 64, None), (True, 64, None), (True, 1024, None))),
    ("average-c3-c4", C3, C4, "average", 0.5, 0.6, 4, {},
     ((True, 36, None), (True, 64, None), (True, 576, None))),
    ("periodic-swap-swap", SWAP, SWAP, "periodic", 0.9, 0.6, 4, {},
     ((True, 40, None), (True, 40, None), (True, 824, None))),
    ("limit-eight-swap", EIGHT, SWAP, "limit", 0.3, 0.2, 6, {},
     ((True, 82, None), (True, 8, None), (True, 328, None))),
    ("h-eight-swap", EIGHT, SWAP, "h", 0.3, 0.6, 4, {},
     ((False, 4, (0, 1, 2, 3)), (False, 4, (0, 0, 0, 1)), (False, 4, ((0, 0), (1, 0), (2, 0), (0, 1))))),
    ("s-limit-eight-swap", EIGHT, SWAP, "s_limit", 0.3, 0.6, 4, {},
     ((False, 220, (7, 0, 7, 0)), (False, 4, (0, 0, 0, 1)), (False, 4, ((0, 0), (1, 0), (2, 0), (0, 1))))),
    ("s-limit-eight-c3", EIGHT, C3, "s_limit", 0.5, 0.6, 4, {},
     ((False, 220, (7, 0, 7, 0)), (True, 12, None), (False, 642, ((7, 0), (0, 1), (7, 2), (0, 0))))),
    ("plain-eight-c3", EIGHT, C3, "plain", 0.5, 0.6, 4, {},
     ((False, 220, (7, 0, 7, 0)), (True, 9, None), (False, 642, ((7, 0), (0, 1), (7, 2), (0, 0))))),
    ("lipschitz-eight-c3", EIGHT, C3, "lipschitz", 0.3, 0.2, 6, {},
     ((False, 155, (0, 7, 0, 7, 0)), (True, 0, None), (False, 155, ((0, 0), (7, 1), (0, 2), (7, 0), (0, 1))))),
    ("lipschitz-swap-eight", SWAP, EIGHT, "lipschitz", 0.3, 0.2, 6, {},
     ((True, 0, None), (False, 155, (0, 7, 0, 7, 0)), (False, 155, ((0, 0), (0, 7), (0, 0), (0, 7), (0, 0))))),
    ("average-eight-swap-short", EIGHT, SWAP, "average", 0.3, 0.2, 6, {},
     ((False, 19, (0, 1, 2, 2, 0, 1, 2)), (False, 12, (0, 0, 0, 3, 3, 3, 3)), (False, 68, ((0, 0), (1, 0), (2, 0), (0, 3), (1, 3), (2, 3), (0, 3))))),
    ("bundled-0", C3, SWAP, "h", 0.3, 0.2, 6, {},
     ((True, 15, None), (True, 20, None), (True, 60, None))),
    ("bundled-1", C3, PAIR, "h", 0.3, 0.2, 6, {"delta_left": 0.2, "delta_right": 1.6},
     ((True, 15, None), (True, 10, None), (True, 30, None))),
    ("bundled-2", PAIR, SWAP, "s_limit", 0.3, 0.2, 6, {},
     ((True, 14, None), (True, 28, None), (True, 56, None))),
    ("bundled-3", SWAP, C3, "s_limit", 0.25, 1.6, 6, {},
     ((False, 6, (0, 0, 0, 0, 0, 1)), (False, 1, (0, 0)), (False, 1, ((0, 0), (0, 0))))),
]


@pytest.mark.parametrize("case", PINNED_CASES, ids=lambda case: case[0])
def test_checker_results_are_pinned(case):
    _, left, right, variant, eps, delta, max_len, moduli, expected = case
    record = product_equivalence_check(
        family_from_descriptor(left),
        family_from_descriptor(right),
        variant,
        VariantBudget(epsilon=eps, delta=delta, max_len=max_len),
        **moduli,
    )
    results = (record.factor_left, record.factor_right, record.product_result)
    assert tuple((r.passed, r.checked, r.witness) for r in results) == expected


# (passed, checked) of every checker on finite_cycle(3) x two_bit_swap at
# max_len 1 and 2. One point has no step to check, so every walk-based
# checker passes with checked=0 at max_len 1; limit and s_limit used to raise
# IndexError there. average counts max_len in steps, so its max_len 1 is one
# jump over two points.
SHORT_RESULTS = {
    1: {
        "h": (True, 0), "s_limit": (True, 0), "plain": (True, 0), "limit": (True, 0),
        "average": (False, 1), "asymptotic_average": (False, 1),
        "periodic": (True, 0), "lipschitz": (True, 0),
    },
    2: {
        "h": (False, 2), "s_limit": (False, 2), "plain": (False, 2), "limit": (True, 36),
        "average": (True, 288), "asymptotic_average": (True, 288),
        "periodic": (True, 0), "lipschitz": (True, 24),
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANT_CHECKERS))
def test_checkers_at_the_shortest_lengths(variant):
    check = VARIANT_CHECKERS[variant]
    family = product_family(finite_cycle_family(3), two_bit_swap_family())
    for max_len, expected in SHORT_RESULTS.items():
        result = check(family, VariantBudget(epsilon=0.5, delta=0.6, max_len=max_len))
        assert (result.passed, result.checked) == expected[variant], max_len
    # max_len 0 asks for pseudo-orbits of no points: the walk-based checkers
    # reject it, and average (in steps) has nothing to check.
    zero = VariantBudget(epsilon=0.5, delta=0.6, max_len=0)
    if variant in ("average", "asymptotic_average"):
        assert (check(family, zero).passed, check(family, zero).checked) == (True, 0)
    else:
        with pytest.raises(ValueError):
            check(family, zero)
