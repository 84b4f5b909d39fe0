"""Property tests: the integer density kernels against Fraction references.

Each kernel must return exactly what the brute-force reference in
``oracles.py`` returns, bit for bit where floats come back (0.0 against
-0.0 included).
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    density_feasible_reference,
    exact_mean_reference,
    off_set_sups_reference,
)
from shadowlab.density import (  # noqa: E402
    IndexSet,
    exact_mean,
    exceedances,
    first_density_feasible,
    off_set_sups,
)


@st.composite
def members_and_horizon(draw, max_horizon=160):
    horizon = draw(st.integers(1, max_horizon))
    members = sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=horizon)))
    return members, horizon


@given(data=members_and_horizon(), exponent=st.integers(1, 160))
# count/k meets the budget exactly at k = 2: it must not count as a failure
@example(data=([1], 4), exponent=1)
@example(data=([0, 1, 2, 3], 4), exponent=1)
@example(data=([3], 8), exponent=2)
def test_first_density_feasible_matches_a_fraction_scan(data, exponent):
    members, horizon = data
    # budgets 2^-k for k from 1 up to the horizon, as the library uses them
    budget = Fraction(1, 2 ** min(exponent, horizon))
    assert first_density_feasible(members, horizon, budget) == density_feasible_reference(
        members, horizon, budget
    )


@given(
    data=members_and_horizon(max_horizon=60),
    budget=st.fractions(min_value=0, max_value=2, max_denominator=64),
)
def test_first_density_feasible_on_any_rational_budget(data, budget):
    members, horizon = data
    assert first_density_feasible(members, horizon, budget) == density_feasible_reference(
        members, horizon, budget
    )


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.lists(finite_floats, min_size=1, max_size=40))
@example(values=[5e-324, 2.2250738585072014e-308, -5e-324])
@example(values=[-0.0, 0.0, -0.0])
@example(values=[1e300, 1e-300, -1e300, 1e-300])
@example(values=[-1.5, -0.1, -7.25])
@example(values=[1.7976931348623157e308] * 3)
def test_exact_mean_is_the_fraction_mean(values):
    assert exact_mean(values) == exact_mean_reference(values)


# Distances of a finite metric repeat: a few distinct floats, many times each.
repeated = st.lists(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 2.225073858507201e-308, 0.01, 1.01, 0.5**60, 1.0]
    ),
    min_size=1,
    max_size=3000,
)


@given(values=repeated)
@example(values=[0.0, -0.0] * 500 + [5e-324])
@example(values=[-0.0] * 1000)
@example(values=[5e-324] * 2999 + [1.0])
def test_exact_mean_of_heavily_repeated_values_is_the_fraction_mean(values):
    assert exact_mean(values) == exact_mean_reference(values)


# A small pool makes ties, 0.0 against -0.0 among them, common.
tie_prone = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0])


@given(
    data=st.integers(1, 40).flatmap(
        lambda h: st.tuples(
            st.lists(st.one_of(tie_prone, finite_floats), min_size=h, max_size=h),
            st.sets(st.integers(0, h - 1)),
            st.lists(st.integers(0, h + 2), max_size=8),
        )
    )
)
@example(data=([-0.0, 0.0], set(), [0, 1]))
@example(data=([0.0, -0.0], set(), [0, 1]))
@example(data=([0.0, -0.0, 0.0], {2}, [0, 1, 2, 3]))
@example(data=([-1.0, -2.0], {0}, [0]))
def test_off_set_sups_match_max_over_each_tail(data):
    values, members, cuts = data
    got = off_set_sups(values, IndexSet.from_iterable(members, len(values)), cuts)
    # repr tells 0.0 from -0.0
    assert repr(got) == repr(off_set_sups_reference(values, members, cuts))


@given(
    values=st.lists(st.one_of(tie_prone, finite_floats), max_size=40),
    levels=st.sets(st.floats(min_value=1e-6, max_value=4.0), min_size=1, max_size=8),
)
def test_exceedances_match_one_scan_per_level(values, levels):
    levels = sorted(levels, reverse=True)
    assert exceedances(values, levels) == [
        [n for n, v in enumerate(values) if v > level] for level in levels
    ]
