"""Unit and property tests for way-masked pseudo-LRU replacement."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import ReplacementError, WayMaskedPlru, mask_ways


class TestMaskWays:
    def test_full_mask(self):
        assert mask_ways(0xF, 4) == [0, 1, 2, 3]

    def test_partial_masks(self):
        assert mask_ways(0b1010, 4) == [1, 3]
        assert mask_ways(0xFF00, 16) == list(range(8, 16))

    def test_empty(self):
        assert mask_ways(0, 8) == []


class TestWayMaskedPlru:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            WayMaskedPlru(6)
        with pytest.raises(ValueError):
            WayMaskedPlru(0)

    def test_touch_rejects_out_of_range_ways(self):
        plru = WayMaskedPlru(4)
        for way in (-1, 4, 100):
            with pytest.raises(ValueError):
                plru.touch(way)
        assert plru.bits == 0

    def test_single_way(self):
        plru = WayMaskedPlru(1)
        assert plru.victim() == 0
        plru.touch(0)
        assert plru.victim() == 0

    def test_victim_avoids_recently_touched(self):
        plru = WayMaskedPlru(4)
        plru.touch(0)
        assert plru.victim() != 0
        plru.touch(plru.victim())
        # After touching two ways, the victim is one of the untouched ones.
        assert plru.victim() in (1, 2, 3)

    def test_round_robin_under_sequential_touches(self):
        plru = WayMaskedPlru(4)
        victims = []
        for _ in range(4):
            way = plru.victim()
            victims.append(way)
            plru.touch(way)
        # Touching every victim must cycle through all distinct ways.
        assert sorted(victims) == [0, 1, 2, 3]

    def test_victim_respects_mask(self):
        plru = WayMaskedPlru(16)
        for _ in range(50):
            way = plru.victim(0x00FF)
            assert way < 8
            plru.touch(way)

    def test_mask_with_single_way(self):
        plru = WayMaskedPlru(8)
        for _ in range(5):
            assert plru.victim(0b100) == 2
            plru.touch(2)

    def test_empty_mask_raises(self):
        with pytest.raises(ReplacementError):
            WayMaskedPlru(4).victim(0)

    def test_mask_wider_than_ways_is_truncated(self):
        plru = WayMaskedPlru(4)
        assert plru.victim(0xFFFF) in range(4)

    def test_touch_out_of_range(self):
        with pytest.raises(ValueError):
            WayMaskedPlru(4).touch(4)

    @given(
        st.integers(min_value=1, max_value=0xFFFF),
        st.lists(st.integers(min_value=0, max_value=15), max_size=64),
    )
    def test_property_victim_always_in_mask(self, mask, touches):
        """Whatever the access history, the victim is always an allowed way."""
        plru = WayMaskedPlru(16)
        for way in touches:
            plru.touch(way)
        assert mask & (1 << plru.victim(mask))

    @given(st.integers(min_value=1, max_value=0xF))
    def test_property_masked_victims_eventually_cover_mask(self, mask):
        """Touching each victim eventually visits every allowed way.

        Tree PLRU under an asymmetric mask is not strictly round-robin
        (a lone way in one subtree alternates against a pair in the
        other), but no allowed way may starve.
        """
        plru = WayMaskedPlru(4)
        allowed = mask_ways(mask, 4)
        victims = set()
        for _ in range(4 * len(allowed)):
            way = plru.victim(mask)
            victims.add(way)
            plru.touch(way)
        assert victims == set(allowed)


class _ListPlru:
    """Reference model for WayMaskedPlru, written the plain way.

    ``bits[n]`` is internal node ``n``'s direction bit (index 0 unused);
    ``victim`` re-derives each subtree's leaf range on every step.
    """

    def __init__(self, num_ways):
        self.num_ways = num_ways
        self.bits = [0] * num_ways

    def touch(self, way):
        node = self.num_ways + way
        while node > 1:
            parent = node >> 1
            self.bits[parent] = 0 if node & 1 else 1
            node = parent

    def victim(self, mask):
        mask &= (1 << self.num_ways) - 1
        node = 1
        while node < self.num_ways:
            preferred = 2 * node + self.bits[node]
            other = 2 * node + (1 - self.bits[node])
            node = preferred if self._subtree_has_allowed(preferred, mask) else other
        return node - self.num_ways

    def _subtree_has_allowed(self, node, mask):
        first, count = node, 1
        while first < self.num_ways:
            first *= 2
            count *= 2
        first -= self.num_ways
        return bool(mask & (((1 << count) - 1) << first))


@st.composite
def _plru_script(draw):
    ways = draw(st.sampled_from([1, 2, 4, 8, 16]))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("touch"), st.integers(0, ways - 1)),
            st.tuples(st.just("victim"), st.integers(1, (1 << ways) - 1)),
        ),
        max_size=200,
    ))
    return ways, steps


@given(_plru_script())
def test_property_matches_list_reference(script):
    """Any interleaving of touches and masked victim queries picks the
    same victim as the list-based reference, at every step."""
    ways, steps = script
    plru, reference = WayMaskedPlru(ways), _ListPlru(ways)
    for kind, arg in steps:
        if kind == "touch":
            plru.touch(arg)
            reference.touch(arg)
        else:
            assert plru.victim(arg) == reference.victim(arg)
    assert plru.victim() == reference.victim((1 << ways) - 1)
