"""Property tests of the limit route's cuts.

For each level of ``limit_shadow_point`` on an expanding family, the splice at
the level's cut must pass ``delta_budget``'s check at the level's accuracy:
the pullback oracle's modulus is the least budget over the tail steps, so no
tail defect can reach its own step's budget. Each cut is also the first
admissible one from where the search started.

The cut search bisects, which is sound because every oracle's modulus never
falls as the cut grows; the bisected ``_find_cut`` must agree with a linear
scan from every start, on harmonic, zero and sparse defect profiles.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import find_cut_reference  # noqa: E402
from shadowlab.families import (  # noqa: E402
    alternating_family,
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    product_family,
    rotation_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.limits import (  # noqa: E402
    PullbackOracle,
    _find_cut,
    _tail_sups,
    limit_shadow_point,
    shadowing_oracle,
    splice,
)
from shadowlab.pseudo_orbits import inject_defects  # noqa: E402
from shadowlab.solver import delta_budget  # noqa: E402

FAMILIES = {
    "doubling": doubling_family(),
    "tripling": tripling_family(),
    "alternating": alternating_family(),
    "slow_expanding": slow_expanding_family(),
    "doubling*doubling": product_family(doubling_family(), doubling_family()),
}


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    x=st.floats(0.0, 1.0, exclude_max=True),
    horizon=st.integers(16, 300),
    scale=st.floats(0.01, 1.0),
    levels=st.integers(1, 8),
)
def test_every_level_cut_passes_the_budget_gate_on_its_splice(name, x, horizon, scale, levels):
    fam = FAMILIES[name]
    x0 = (x, 1.0 - x) if fam.space.kind == "product" else x
    # Harmonic defects: the final-quarter tail, below scale / 13, clears every level's target.
    po = inject_defects(fam, x0, [scale / (i + 1) for i in range(horizon)])
    result = limit_shadow_point(fam, po, levels=levels)
    oracle = PullbackOracle(fam)
    start = 0
    for rec in result.levels:
        budget = delta_budget(fam, oracle.accuracy(rec.target), horizon=horizon)
        budget.check(splice(fam, po, rec.cut).orbit.defects)
        assert rec.delta == min(budget.values[rec.cut :], default=budget.values[-1])
        if rec.cut > start:
            assert max(po.defects[rec.cut - 1 :]) >= oracle.modulus(rec.target, rec.cut - 1, horizon)
        start = rec.cut


# One family per oracle kind and more: transport, exhaustive and pullback.
CUT_FAMILIES = {
    "rotation": rotation_family(),
    "finite_cycle": finite_cycle_family(5),
    "eight_state": eight_state_family(),
    "doubling": doubling_family(),
    "alternating": alternating_family(),
    "slow_expanding": slow_expanding_family(),
}


@st.composite
def defect_profiles(draw):
    """A harmonic, all-zero or sparse defect profile of a random horizon."""
    horizon = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["harmonic", "zero", "sparse"]))
    scale = draw(st.floats(1e-4, 1.0))
    if kind == "harmonic":
        return [scale / (i + 1) for i in range(horizon)]
    if kind == "zero":
        return [0.0] * horizon
    hits = draw(st.sets(st.integers(0, max(horizon - 1, 0)), max_size=4)) if horizon else set()
    return [scale if i in hits else 0.0 for i in range(horizon)]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CUT_FAMILIES)),
    profile=defect_profiles(),
    target=st.one_of(st.integers(1, 8).map(lambda n: 1.0 / n), st.floats(1e-6, 1.0)),
)
def test_bisected_cut_equals_the_linear_scan_from_every_start(name, profile, target):
    fam = CUT_FAMILIES[name]
    po = inject_defects(fam, 0.2 if fam.space.kind == "circle" else 1, profile)
    oracle = shadowing_oracle(fam)
    tails = _tail_sups(po.defects)
    for start in range(po.horizon + 1):
        expected = find_cut_reference(po.defects, po.horizon, oracle, target, start)
        assert _find_cut(tails, po.horizon, oracle, target, start) == expected, start


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CUT_FAMILIES)),
    horizon=st.integers(0, 400),
    target=st.floats(1e-6, 1.0),
)
def test_every_oracles_modulus_never_falls_as_the_cut_grows(name, horizon, target):
    oracle = shadowing_oracle(CUT_FAMILIES[name])
    moduli = [oracle.modulus(target, cut, horizon) for cut in range(horizon + 1)]
    assert all(a <= b for a, b in zip(moduli, moduli[1:]))

