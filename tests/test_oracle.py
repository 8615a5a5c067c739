import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb, gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch3 import coset, oracle
from bch3.gf2m import FieldSpec, find_default_modulus, log_tables, make_field, power_table
from bch3.oracle import brute_N, covering_radius
from conftest import f2_rank_by_loop, full_group_bfs_layers, mul_array, weight4_histogram_by_triples


cached_report = lru_cache(maxsize=None)(covering_radius)

LAYERS_M10 = (1, 1023, 522753, 177910271, 893909676, 1398100)
LAYERS_M11 = (1, 2047, 2094081, 1427465215, 7154780844, 5592404)
LAYERS_M12 = (1, 4095, 8382465, 11436476415, 57252244140, 22369620)
# m = 13 takes about 3 s and 800 MB, too much for the suite; its run is recorded in the doc
LAYERS_M13 = (1, 8191, 33542145, 91558875135, 458073909932, 89478484)
RECORDED = {13: LAYERS_M13}
BFS_DOC = Path(__file__).parents[1] / "docs" / "covering_radius_bfs.md"


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


def orbit_period(field, a: int) -> int:
    """Least p >= 1 with a^(2^p) = a."""
    p, x = 1, field.square(a)
    while x != a:
        p, x = p + 1, field.square(x)
    return p


def listed_orbit_least(field, s1: int, a: int, b: np.ndarray) -> np.ndarray:
    """Least state s1 << 2m | a' << m | b' in the orbit of each state (s1, a, b[k]),
    its whole orbit listed: the Frobenius conjugates (a^(2^i), b^(2^i)), and on the
    s1 = 0 slice their scaling orbits (c^3 a', c^5 b') over every c != 0."""
    m, q = field.m, field.q
    c = np.ones(1, dtype=np.int64) if s1 else np.arange(1, q)  # (1, a, b) stands for its scalings
    c3 = mul_array(field, mul_array(field, c, c), c)
    c5 = mul_array(field, mul_array(field, c3, c), c)
    least = np.full(len(b), 2 * q * q)
    for _ in range(m):
        members = s1 * q * q | (mul_array(field, c3, a) << m)[:, None] | mul_array(field, c5[:, None], b)
        least = np.minimum(least, members.min(axis=0))
        a, b = field.square(a), mul_array(field, b, b)
    return least


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
            brute_N(make_field(17), 0, 0)

    @pytest.mark.parametrize(
        "m, modulus", [(5, None), (7, None), (9, None), (11, None), (11, 0x82B), (13, None)]
    )
    def test_rows_match_closed_form(self, m, modulus):
        # rows A = 0, 1 (indexed by B) against the curve-count invariant
        # (indexed by lam = B + 1) at every B != 1: the oracle behind the
        # published m = 11, 13 tables and the profile
        field = make_field(m, modulus)
        b = np.arange(1, field.q) ^ 1
        for cls, values in enumerate(coset.invariants(field).reshape(2, -1)):
            row = oracle.weight4_rows(field, (cls,))[0]
            assert row[1] == 0  # the degenerate lam = 0 carries no 4-set
            assert np.array_equal(row[b], values[1:])

    def test_linearity_gate_fires(self, f5, monkeypatch):
        # the drift t + t^4 one bit off at t = 1 writes D(0) = 1, which no
        # F_2-linear map has; the gate refuses before any set is enumerated
        fourth = power_table(f5, 4).copy()
        fourth[1] ^= 1
        monkeypatch.setattr(oracle, "power_table", lambda field, k: fourth if k == 4 else power_table(field, k))
        monkeypatch.setattr(oracle, "_SETS_CHUNK", None)  # the walk would fail on it: the gate comes first
        with pytest.raises(AssertionError, match="^the drift must be F_2-linear"):
            oracle._key_counts.__wrapped__(f5)

    def test_evenness_gate_fires(self, f5, monkeypatch):
        # the four base sets of a 4-set share one key, so each key count
        # is even.  A change to one column moves the two base sets that
        # hold it alike; a change to two columns x1 = 2 and x2 = 4 by
        # different bits moves the four base sets of a 4-set {s, s + 2,
        # s + 4, s + 7} by 1, 2, 1 ^ 2 and 0, into four different bins
        cube_fifth = oracle._cube_fifth(f5).copy()
        cube_fifth[2] ^= 1
        cube_fifth[4] ^= 2
        monkeypatch.setattr(oracle, "_cube_fifth", lambda field: cube_fifth)
        with pytest.raises(AssertionError, match="^key counts must be even"):
            oracle._key_counts.__wrapped__(f5)

    def test_row_is_read_only(self, f5):
        with pytest.raises(ValueError):
            oracle.weight4_rows(f5, (1,))[0][0] = 1

    @pytest.mark.parametrize("m", range(5, 14, 2))
    def test_two_classes_hold_every_base_set_once(self, m):
        # Tr 1 = 1 at odd m, so each base set {0, x, y, z} lands on exactly
        # one of the rows A = 0, 1, and after halving the two rows hold
        # (q - 2)(q - 4) / 12: a level dropped or enumerated twice shows
        q = 1 << m
        assert int(oracle.weight4_rows(make_field(m), (0, 1)).sum()) == (q - 2) * (q - 4) // 12

    @pytest.mark.parametrize("m, modulus", [(5, None), (7, 0x89), (9, None)])
    def test_rows_for_any_tuple_match_single_rows(self, m, modulus):
        field = make_field(m, modulus)
        rng = np.random.default_rng(m)
        avals = tuple(int(a) for a in rng.integers(0, field.q, size=6))
        avals += (avals[2],)  # a repeat is counted again, not merged
        rows = oracle.weight4_rows(field, avals)
        assert rows.shape == (len(avals), field.q)
        assert np.array_equal(rows, np.stack([oracle.weight4_rows(field, (a,))[0] for a in avals]))
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        with pytest.raises(ValueError, match="not an element"):
            oracle.weight4_rows(field, (0, field.q))

    @pytest.mark.parametrize(
        "m, modulus", [(4, None), (5, None), (6, None), (7, None), (8, None), (7, 0x89)]
    )
    def test_histogram_matches_triple_enumeration(self, m, modulus):
        # the translation-orbit count against every 4-set, entry by entry
        field = make_field(m, modulus)
        assert np.array_equal(oracle.weight4_histogram(field), weight4_histogram_by_triples(field))

    @pytest.mark.parametrize("m", range(4, 13))
    def test_histogram_total_is_subsets_with_sum_one(self, m):
        # 4-sets with sum 0 are the C(q, 3) / 4 completions of 3-sets;
        # scaling spreads the rest evenly over the q - 1 nonzero sums.
        # Every row: past m = 9 no flat histogram or triple count reaches
        q = 1 << m
        expected = (comb(q, 4) - q * (q - 1) * (q - 2) // 24) // (q - 1)
        assert int(oracle.weight4_rows(make_field(m), range(q)).sum()) == expected

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_all_rows_are_frobenius_invariant(self, m):
        # squaring every element of a 4-set squares its power sums, and
        # (1, a, b) -> (1, a^2, b^2): rows[a^2, b^2] = rows[a, b]
        field = make_field(m)
        rows = oracle.weight4_rows(field, range(field.q))
        square = power_table(field, 2)
        for lo in range(0, field.q, 256):  # a block of rows at a time, no second q^2 array
            assert np.array_equal(rows[square[lo : lo + 256]][:, square], rows[lo : lo + 256])

    def test_histogram_refuses_q_above_512(self, monkeypatch):
        # before any row is read: the flat view would hold q^2 entries
        def refuse(field, avals):
            raise LookupError("weight4_rows was called")

        monkeypatch.setattr(oracle, "weight4_rows", refuse)
        with pytest.raises(ValueError, match="^q=1024 is too large for the full histogram \\(limit 512\\)$"):
            oracle.weight4_histogram(make_field(10))

    def test_histogram_is_read_only(self, f5):
        with pytest.raises(ValueError):
            oracle.weight4_histogram(f5)[0] = 1

    # the two translation tests hold by construction of the orbit count;
    # test_histogram_matches_triple_enumeration is the check on the oracle
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


class TestGroupOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 62), st.lists(st.integers(0, (1 << 62) - 1), max_size=80))
    def test_rank_matches_scalar_reduction(self, bits, vectors):
        # narrow vectors force dependent sets; wide ones mostly independent
        vectors = [v >> 62 - bits for v in vectors]
        assert oracle._f2_rank(vectors) == f2_rank_by_loop(vectors)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 11])
    def test_rank_of_the_columns(self, m):
        field = make_field(m)
        xs = np.arange(1, field.q, dtype=np.int64)
        gens = xs | power_table(field, 3)[1:] << m | power_table(field, 5)[1:] << 2 * m
        rank = oracle._f2_rank(gens)
        assert rank == f2_rank_by_loop(gens)
        # all of F_q^3 except at m = 4, where fifth powers lie in F_4
        assert rank == (10 if m == 4 else 3 * m)
        assert oracle._group_order(field) == 1 << rank


class TestOrbitLabels:
    """The labels the covering-radius BFS runs on, checked without an oracle."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10])
    def test_label_is_least_member_of_its_orbit(self, m):
        field = make_field(m)
        q, n = field.q, field.q - 1
        label = oracle._orbit_labels(field)[0].astype(np.int64)
        state = np.arange(2 * q * q)
        assert np.array_equal(label[label], label)
        assert (label <= state).all()
        # constant under Frobenius (s1, a, b) -> (s1, a^2, b^2) on both slices
        s1, a, b = state >> 2 * m, state >> m & n, state & n
        square = power_table(field, 2)
        assert np.array_equal(label[s1 << 2 * m | square[a] << m | square[b]], label)
        # constant under one scaling step (0, a, b) -> (0, g^3 a, g^5 b); g
        # generates F_q^*, so under every scaling
        g = int(log_tables(field)[0][1])
        a, b = a[: q * q], b[: q * q]
        scaled = mul_array(field, field.pow(g, 3), a) << m | mul_array(field, field.pow(g, 5), b)
        assert np.array_equal(label[scaled], label[: q * q])
        # one label per orbit: Burnside's count of the orbits of Frobenius
        # on the s1 = 1 slice, and of (a, b) -> (c^3 a^(2^k), c^5 b^(2^k))
        # on the s1 = 0 slice; with c = g^l the fixed a != 0 solve
        # (2^k - 1) log a = -3l mod n, which has e_k = 2^gcd(k, m) - 1
        # solutions when e_k divides 3l and none otherwise
        labels = label == state
        assert m * np.count_nonzero(labels[q * q :]) == sum(4 ** gcd(k, m) for k in range(m))
        fixed = 0
        for k in range(m):
            e = (1 << gcd(k, m)) - 1
            fixed += sum((1 + e * (3 * l % e == 0)) * (1 + e * (5 * l % e == 0)) for l in range(n))
        assert n * m * np.count_nonzero(labels[: q * q]) == fixed

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10])
    def test_listed_labels_are_the_states_that_are_their_own_label(self, m):
        # the label pass keeps, block by block, the states that equal their
        # label: against a rescan of the whole table for the states that are their own label
        q = 1 << m
        label, listed = oracle._orbit_labels(make_field(m))
        assert listed.dtype == np.int64
        assert np.array_equal(listed, np.flatnonzero(label == np.arange(2 * q * q)))

    def test_sampled_labels_are_least_of_listed_orbits_m12(self):
        # m = 12 is the first m where the cube and fifth-power cosets (3 and 5
        # of them) and the subfields F_4, F_8, F_16 and F_64 all occur; the
        # exhaustive checks above stop at m = 10.  Each sampled state's orbit is
        # listed whole, with shift-and-reduce products
        m = 12
        field = make_field(m)
        q = field.q
        label = oracle._orbit_labels(field)[0]
        rng = np.random.default_rng(12)
        periods = [next(a for a in range(1, q) if orbit_period(field, a) == d) for d in (1, 2, 3, 4, 6)]
        everything = np.arange(q)
        sampled = np.append([0, 1], rng.integers(2, q, 14))  # b = 0 on every row
        for a in [0, *periods, *rng.integers(2, q, 8)]:
            assert np.array_equal(label[q * q + a * q + everything], listed_orbit_least(field, 1, a, everything))
            assert np.array_equal(label[a * q + sampled], listed_orbit_least(field, 0, a, sampled))

    def test_label_build_holds_no_q_squared_temporary(self):
        # every table the build makes has O(q) entries, and every block
        # _CHUNK: at m = 10 its peak stays within its output and 4 MB, where
        # one int64 temporary over the q^2 states of a slice would take 8 MB
        field = make_field(10)
        oracle._orbit_labels(field)  # the per-field caches it reads, outside the measure
        tracemalloc.start()
        try:
            label, listed = oracle._orbit_labels(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= label.nbytes + listed.nbytes + (4 << 20)

    def test_each_table_is_built_once(self, monkeypatch):
        # a field no cache has seen, so every per-field table is built in this test
        m = 6
        field = FieldSpec(m, find_default_modulus(m))
        monkeypatch.setattr(oracle, "make_field", lambda m: field)
        built, reads, scalings = [], [], []
        for name, record in [("power_table", built), ("_cube_fifth", reads), ("scaling_table", scalings)]:
            original = getattr(oracle, name)

            def spy(*args, original=original, record=record):
                table = original(*args)
                record.append((args[1:], table))
                return table

            monkeypatch.setattr(oracle, name, spy)
        covering_radius(m)
        # the label pass and the search read one cached scaling table, and
        # the column table reads x^3 and x^5 once for the group order and the step
        assert len(scalings) == 2 and all(table is scalings[0][1] for _, table in scalings)
        assert sorted(args for args, _ in built if args != (2,)) == [(3,), (5,)]
        oracle.weight4_rows(field, (0,))
        assert len(reads) == 3  # _group_order, _orbit_depths, weight4_rows
        assert all(table is reads[0][1] for _, table in reads)


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

    def test_large_m_rejected(self):
        with pytest.raises(ValueError, match=f"4 <= m <= {oracle.BFS_MAX_M}"):
            covering_radius(oracle.BFS_MAX_M + 1)

    def test_odd_m_covers_whole_space(self):
        report = covering_radius(5)
        assert sum(report.reached_at_weight) == 1 << 15

    def test_m4_covers_syndrome_span(self):
        report = covering_radius(4)
        assert sum(report.reached_at_weight) == 1 << 10

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_layers_match_full_group_bfs(self, m):
        # every layer, not only the radius: the orbit BFS against the
        # plain BFS over all 2^(3m) syndromes
        assert covering_radius(m).reached_at_weight == full_group_bfs_layers(m)

    def test_m8_layers_pinned(self):
        # checked against the full-group BFS (2^24 syndromes, about 30 s)
        report = cached_report(8)
        assert report.rho == 5
        assert report.reached_at_weight == (1, 255, 32385, 2731135, 13926060, 87380)

    def test_m12_layers_pinned(self):
        # the largest even m in the suite: about 1 s and 220 MB
        report = cached_report(12)
        assert report.rho == 5
        assert report.reached_at_weight == LAYERS_M12

    def test_m10_layers_pinned(self):
        # beyond the full-group BFS; the low layers are checked below
        report = cached_report(10)
        assert report.rho == 5
        assert report.reached_at_weight == LAYERS_M10

    def test_m11_layers_pinned(self):
        report = cached_report(11)
        assert report.rho == 5
        assert report.reached_at_weight == LAYERS_M11

    def test_m10_m11_layers_recorded_in_doc(self):
        text = BFS_DOC.read_text()
        assert f"m = 10: {LAYERS_M10}, sum 2^30." in text
        assert f"m = 11: {LAYERS_M11}, sum 2^33." in text
        assert sum(LAYERS_M11) == 1 << 33

    def test_m12_m13_layers_recorded_in_doc(self):
        text = BFS_DOC.read_text()
        for m, layers in {12: LAYERS_M12, 13: LAYERS_M13}.items():
            assert f"m = {m}: {layers}, sum 2^{3 * m}." in text
            assert sum(layers) == 1 << 3 * m

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
    def test_layer5_pattern(self, m):
        # an observed pattern, not a theorem: the last layer holds
        # 4(q^2 - 1)/3 syndromes from m = 8 on, and not below
        layers = RECORDED.get(m) or cached_report(m).reached_at_weight
        q = 1 << m
        assert len(layers) == 6
        assert (layers[5] == 4 * (q * q - 1) // 3) == (m >= 8)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
    def test_low_layers_are_binomial(self, m):
        # d = 7: every set of at most 3 columns has its own syndrome, so
        # layer k holds C(q - 1, k) syndromes for k <= 3; needs no oracle
        layers = RECORDED.get(m) or cached_report(m).reached_at_weight
        assert layers[:4] == tuple(comb((1 << m) - 1, k) for k in range(4))

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_layers_from_the_invariant_table(self, m):
        # at odd m the layers follow from Z, the number of (class, lam != 0)
        # pairs with N = 0 (docs/covering_radius_bfs.md derives it): on
        # s1 != 0 depth 3 or 4 where N > 0 and 5 elsewhere past lam = 0's
        # short leaders, on s1 = 0 (q - 1)(q - 2)/6 states of depth 3.  The
        # BFS and the count table share no code
        q = 1 << m
        layers = RECORDED.get(m) or cached_report(m).reached_at_weight
        zero = coset.distribution(m).normalized.get(0, 0)
        low = tuple(comb(q - 1, k) for k in range(4))
        last = (q - 1) * (q // 2) * (1 + zero) + q * q - 1 - (q - 1) * (q - 2) // 6
        assert layers == (*low, q**3 - sum(low) - last, last)

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_closed_form_layers(self, m):
        # coset.covering_layers, which the CLI runs at odd m, against the
        # search: a certificate at m = 5 and 7, the interval from m = 9 on
        assert coset.covering_layers(m) == (RECORDED.get(m) or cached_report(m).reached_at_weight)

    @pytest.mark.parametrize("m", [4, 5])
    def test_search_stalls_short_of_a_larger_target(self, m, monkeypatch):
        # the search has no target: it ends when no orbit label is open or
        # when a step finds nothing.  At m = 4 the columns span a proper
        # subgroup, so the labels outside it stay open and an empty step
        # ends the search.  Asked for one syndrome more than the group
        # holds, covering_radius fails its group-size check on the layers
        # instead of passing unchecked
        field = make_field(m)
        order = oracle._group_order(field)
        depth = oracle._orbit_depths(field)
        assert sum(oracle._layers(depth, field.q)) == order
        assert (depth < 0).any() == (m == 4)
        monkeypatch.setattr(oracle, "_group_order", lambda field: order + 1)
        with pytest.raises(AssertionError, match="BFS layers hold"):
            covering_radius(m)

    @pytest.mark.parametrize("m", [5, 7, 9, 11])
    def test_depth_plane_matches_closed_form(self, m):
        # the s1 = 1 slice is the (1, A, B) parameter plane: a weight-4
        # word with syndrome (1, A, B) exists iff that coset has weight <= 4.
        # N(A, B) is the normalized invariant of class Tr(A) at
        # lam = B + A^2 + A + 1, one gather at slot key[A] ^ B; lam = 0 is
        # left out.
        field = make_field(m)
        q = field.q
        plane = oracle._orbit_depths(field)[q * q :].reshape(q, q)
        slot = coset.slot_key(field)[:, None] ^ np.arange(q)  # row A, column B
        values = coset.invariants(field)[slot]
        valid = slot & (q - 1) != 0
        assert np.array_equal((values > 0)[valid], (plane <= 4)[valid])
