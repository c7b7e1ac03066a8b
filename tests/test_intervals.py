"""Tests for the closed-interval algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EmptyIntervalError, IntervalError
from repro.utils.intervals import Interval

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def intervals(allow_empty: bool = True):
    """Strategy producing (possibly empty) intervals."""
    base = st.tuples(finite, finite).map(lambda ab: Interval(*ab))
    if allow_empty:
        return base
    return base.filter(lambda iv: not iv.is_empty)


class TestConstruction:
    def test_ordered_endpoints(self):
        iv = Interval(1.0, 2.0)
        assert iv.lo == 1.0
        assert iv.hi == 2.0

    def test_reversed_endpoints_become_empty(self):
        assert Interval(2.0, 1.0).is_empty

    def test_reversed_normalises_to_canonical_empty(self):
        assert Interval(5.0, 3.0) == Interval.EMPTY

    def test_nan_rejected(self):
        with pytest.raises(IntervalError):
            Interval(math.nan, 1.0)
        with pytest.raises(IntervalError):
            Interval(0.0, math.nan)

    def test_point(self):
        iv = Interval.point(3.5)
        assert iv.lo == iv.hi == 3.5
        assert iv.is_point

    def test_around(self):
        iv = Interval.around(10.0, 2.0)
        assert iv == Interval(8.0, 12.0)

    def test_around_negative_radius_rejected(self):
        with pytest.raises(IntervalError):
            Interval.around(0.0, -1.0)

    def test_unbounded(self):
        iv = Interval.unbounded()
        assert iv.contains(1e300)
        assert not iv.is_bounded


class TestPredicates:
    def test_contains_endpoints(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert iv.contains(2.0)
        assert 1.5 in iv

    def test_empty_contains_nothing(self):
        assert not Interval.EMPTY.contains(0.0)

    def test_contains_interval(self):
        assert Interval(0.0, 10.0).contains_interval(Interval(2.0, 3.0))
        assert not Interval(0.0, 10.0).contains_interval(Interval(2.0, 11.0))

    def test_empty_is_subset_of_anything(self):
        assert Interval(0.0, 1.0).contains_interval(Interval.EMPTY)
        assert Interval.EMPTY.contains_interval(Interval.EMPTY)

    def test_overlaps_touching(self):
        # Closed intervals: sharing an endpoint counts as overlap.
        assert Interval(0.0, 1.0).overlaps(Interval(1.0, 2.0))

    def test_overlaps_disjoint(self):
        assert not Interval(0.0, 1.0).overlaps(Interval(1.1, 2.0))

    def test_overlaps_empty(self):
        assert not Interval.EMPTY.overlaps(Interval(0.0, 1.0))
        assert not Interval(0.0, 1.0).overlaps(Interval.EMPTY)

    def test_truthiness(self):
        assert Interval(0.0, 1.0)
        assert not Interval.EMPTY


class TestMeasures:
    def test_width(self):
        assert Interval(1.0, 4.0).width == 3.0

    def test_width_of_empty_is_zero(self):
        assert Interval.EMPTY.width == 0.0

    def test_midpoint(self):
        assert Interval(2.0, 4.0).midpoint == 3.0

    def test_midpoint_of_empty_raises(self):
        with pytest.raises(EmptyIntervalError):
            _ = Interval.EMPTY.midpoint

    def test_midpoint_of_unbounded_raises(self):
        with pytest.raises(IntervalError):
            _ = Interval.unbounded().midpoint


class TestAlgebra:
    def test_intersect(self):
        assert Interval(0.0, 5.0).intersect(Interval(3.0, 8.0)) == Interval(
            3.0, 5.0
        )

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)).is_empty

    def test_intersect_with_empty(self):
        assert Interval(0.0, 1.0).intersect(Interval.EMPTY).is_empty

    def test_hull(self):
        assert Interval(0.0, 1.0).hull(Interval(3.0, 4.0)) == Interval(0.0, 4.0)

    def test_hull_with_empty_is_identity(self):
        iv = Interval(1.0, 2.0)
        assert iv.hull(Interval.EMPTY) == iv
        assert Interval.EMPTY.hull(iv) == iv

    def test_expand(self):
        assert Interval(1.0, 2.0).expand(0.5) == Interval(0.5, 2.5)

    def test_expand_negative_can_empty(self):
        assert Interval(1.0, 2.0).expand(-1.0).is_empty

    def test_expand_empty_stays_empty(self):
        assert Interval.EMPTY.expand(100.0).is_empty

    def test_shift(self):
        assert Interval(1.0, 2.0).shift(3.0) == Interval(4.0, 5.0)

    def test_scale_negative_factor_flips(self):
        assert Interval(1.0, 2.0).scale(-2.0) == Interval(-4.0, -2.0)

    def test_clamp(self):
        iv = Interval(0.0, 10.0)
        assert iv.clamp(-5.0) == 0.0
        assert iv.clamp(5.0) == 5.0
        assert iv.clamp(15.0) == 10.0

    def test_clamp_empty_raises(self):
        with pytest.raises(EmptyIntervalError):
            Interval.EMPTY.clamp(1.0)

    def test_sample_endpoints(self):
        iv = Interval(2.0, 6.0)
        assert iv.sample(0.0) == 2.0
        assert iv.sample(1.0) == 6.0
        assert iv.sample(0.5) == 4.0

    def test_sample_out_of_range_raises(self):
        with pytest.raises(IntervalError):
            Interval(0.0, 1.0).sample(1.5)

    def test_minkowski_sum(self):
        assert Interval(0.0, 1.0) + Interval(2.0, 3.0) == Interval(2.0, 4.0)

    def test_minkowski_difference(self):
        assert Interval(5.0, 6.0) - Interval(1.0, 2.0) == Interval(3.0, 5.0)

    def test_negation(self):
        assert -Interval(1.0, 2.0) == Interval(-2.0, -1.0)

    def test_unpacking(self):
        lo, hi = Interval(1.0, 2.0)
        assert (lo, hi) == (1.0, 2.0)


class TestProperties:
    @given(intervals(), intervals())
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(intervals(), intervals())
    def test_hull_commutes(self, a, b):
        assert a.hull(b) == b.hull(a)

    @given(intervals(), intervals())
    def test_intersection_contained_in_both(self, a, b):
        joined = a.intersect(b)
        assert a.contains_interval(joined)
        assert b.contains_interval(joined)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_interval(a)
        assert hull.contains_interval(b)

    @given(intervals(allow_empty=False), finite)
    def test_clamp_lands_inside(self, iv, x):
        assert iv.contains(iv.clamp(x))

    @given(intervals(), intervals())
    def test_overlap_iff_nonempty_intersection(self, a, b):
        assert a.overlaps(b) == (not a.intersect(b).is_empty)

    @given(intervals(allow_empty=False), st.floats(0.0, 1.0))
    def test_sample_lands_inside(self, iv, u):
        assert iv.contains(iv.sample(u))

    @given(intervals(), finite)
    def test_shift_preserves_width(self, iv, offset):
        # Width is preserved up to the rounding of the shifted
        # endpoints (a few ulps at the shifted magnitude).
        import math

        magnitude = max(abs(iv.lo), abs(iv.hi), abs(offset), 1.0) * 2.0
        tolerance = 4 * math.ulp(magnitude)
        assert iv.shift(offset).width == pytest.approx(
            iv.width, abs=tolerance
        )


class TestEdgeCases:
    """Degenerate and infinite inputs the safety algebra relies on."""

    def test_empty_absorbs_chained_intersections(self):
        chain = (
            Interval(0.0, 10.0)
            .intersect(Interval.EMPTY)
            .intersect(Interval(2.0, 8.0))
            .intersect(Interval.unbounded())
        )
        assert chain.is_empty
        assert chain == Interval.EMPTY

    def test_disjoint_intersection_stays_empty_downstream(self):
        chain = Interval(0.0, 1.0).intersect(Interval(2.0, 3.0))
        assert chain == Interval.EMPTY
        assert chain.intersect(Interval(0.0, 3.0)) == Interval.EMPTY

    def test_infinite_endpoints_through_hull(self):
        left = Interval(-math.inf, 0.0)
        right = Interval(5.0, math.inf)
        hull = left.hull(right)
        assert hull == Interval.unbounded()
        assert hull.width == math.inf

    def test_hull_with_empty_is_identity(self):
        iv = Interval(-math.inf, 3.0)
        assert iv.hull(Interval.EMPTY) == iv
        assert Interval.EMPTY.hull(iv) == iv

    def test_width_of_half_infinite_intervals(self):
        assert Interval(-math.inf, 0.0).width == math.inf
        assert Interval(0.0, math.inf).width == math.inf
        assert Interval.EMPTY.width == 0.0

    def test_degenerate_point_interval_membership(self):
        pt = Interval.point(4.0)
        assert pt.is_point
        assert pt.width == 0.0
        assert pt.overlaps(Interval(4.0, 9.0))
        assert not pt.overlaps(Interval(4.5, 9.0))
        assert pt.intersect(Interval(0.0, 4.0)) == pt
