from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch3.gf2m import make_field
from bch3.oracle import (
    brute_N,
    covering_radius,
    weight5_all_solvable,
    weight5_reached,
    weight5_solvable,
)


def pack(s1: int, s3: int, s5: int, m: int) -> int:
    """3m-bit syndrome index, as the oracle packs it: s1 low, then s3, s5."""
    return s1 | s3 << m | s5 << 2 * m


def unpack(index: int, m: int) -> tuple[int, int, int]:
    mask = (1 << m) - 1
    return index & mask, index >> m & mask, index >> 2 * m & mask


def translated_syndrome(field, a: int, b: int, s: int) -> tuple[int, int]:
    """Image of (a, b) under the solution translation x_i -> x_i + s."""
    s2 = field.square(s)
    s4 = field.square(s2)
    return a ^ s ^ s2, b ^ s ^ s4


class TestSyndromeTriple:
    def test_pack_unpack_roundtrip(self):
        assert unpack(pack(3, 17, 30, 5), 5) == (3, 17, 30)

    def test_xor_matches_symmetric_difference(self, f5):
        # xor of packed syndromes is the syndrome of the symmetric difference
        def syndrome(support):
            s1 = s3 = s5 = 0
            for x in support:
                s1 ^= x
                s3 ^= f5.pow(x, 3)
                s5 ^= f5.pow(x, 5)
            return pack(s1, s3, s5, f5.m)

        a = {3, 7, 19}
        b = {7, 21}
        assert syndrome(a) ^ syndrome(b) == syndrome(a ^ b)


class TestBruteN:
    def test_published_histogram_m5(self, f5):
        hist = Counter()
        for cls in (0, 1):
            for b in range(f5.q):
                if b != 1:
                    hist[brute_N(f5, cls, b)] += 1
        assert dict(hist) == {0: 27, 2: 35}

    def test_every_value_even(self, f5):
        for a in range(f5.q):
            for b in range(f5.q):
                assert brute_N(f5, a, b) % 2 == 0

    def test_degenerate_parameters_still_counted(self, f5):
        # b = 1 with a = 0 sits on the twelve-line locus; enumeration
        # does not care.
        assert brute_N(f5, 0, 1) % 2 == 0

    def test_too_large_field_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            brute_N(make_field(11), 0, 0)

    def test_translation_invariance_exhaustive(self, f5):
        for s in range(f5.q):
            for a in range(f5.q):
                for b in (0, 9, 27):
                    ta, tb = translated_syndrome(f5, a, b, s)
                    assert brute_N(f5, a, b) == brute_N(f5, ta, tb)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 127), st.integers(0, 127), st.integers(0, 127))
    def test_translation_invariance_sampled_m7(self, a, b, s):
        field = make_field(7)
        ta, tb = translated_syndrome(field, a, b, s)
        assert brute_N(field, a, b) == brute_N(field, ta, tb)


class TestWeight5:
    def test_zero_syndrome(self, f4):
        assert weight5_solvable(f4, 0, 0, 0) == 1

    def test_too_large_field_rejected(self, f9):
        with pytest.raises(ValueError, match="too large"):
            weight5_solvable(f9, 0, 0, 0)

    @pytest.mark.parametrize("m", [4, 5])
    def test_whole_syndrome_group_is_solvable(self, m):
        assert weight5_all_solvable(make_field(m))

    def test_all_triples_solvable_at_m5(self, f5):
        # odd m: the syndrome group is all of F_q^3
        assert len(weight5_reached(f5)) == f5.q ** 3

    def test_m4_span_is_a_proper_subgroup(self, f4):
        # fifth powers of F_16 lie in F_4, so syndromes span 2^10 points
        reached = weight5_reached(f4)
        assert len(reached) == 1 << 10

    def test_pointwise_matches_reached_set(self, f4):
        reached = set(weight5_reached(f4).tolist())
        for packed in (0, 5, 1 << 9, 1 << 11, (1 << 12) - 1):
            assert weight5_solvable(f4, *unpack(packed, 4)) == (packed in reached)


class TestCoveringRadius:
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_radius_is_five(self, m):
        report = covering_radius(m)
        assert report.rho == 5
        assert report.reached_at_weight[0] == 1
        assert report.reached_at_weight[1] == (1 << m) - 1

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            covering_radius(3)

    def test_large_m_needs_opt_in(self):
        with pytest.raises(ValueError, match="allow_large"):
            covering_radius(8)
        with pytest.raises(ValueError):
            covering_radius(10, allow_large=True)

    def test_odd_m_covers_whole_space(self):
        report = covering_radius(5)
        assert sum(report.reached_at_weight) == 1 << 15

    def test_m4_covers_syndrome_span(self):
        report = covering_radius(4)
        assert sum(report.reached_at_weight) == 1 << 10

    def test_json_shape(self):
        report = covering_radius(4)
        payload = report.to_json_dict()
        assert payload["m"] == 4 and payload["rho"] == 5
        assert payload["reached_at_weight"] == list(report.reached_at_weight)
        assert sum(payload["reached_at_weight"][:2]) == 16

    def test_bfs_chunking_is_immaterial(self):
        a = covering_radius(5, chunk=7)
        b = covering_radius(5, chunk=1 << 15)
        assert a == b

    @pytest.mark.parametrize("m", [4, 5])
    def test_weight5_cross_check(self, m):
        # the two implementations of the same statement must agree:
        # BFS visits exactly the weight-<=5-solvable syndromes iff rho <= 5
        field = make_field(m)
        report = covering_radius(m)
        assert report.rho <= 5
        assert sum(report.reached_at_weight) == len(weight5_reached(field))
        assert weight5_all_solvable(field)
