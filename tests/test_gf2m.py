import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch3 import gf2m
from bch3.gf2m import (
    TABLE_MAX_M,
    FieldSpec,
    exp_table,
    find_default_modulus,
    inverse_table,
    is_irreducible,
    log_tables,
    mul_const,
    make_field,
    power_table,
    scaling_table,
    trace_mul_table,
)
from conftest import irreducible_by_trial_division, mul_array, trace_by_definition


class TestConstruction:
    def test_known_field(self):
        field = make_field(4, 0x13)
        assert (field.m, field.modulus, field.q) == (4, 0x13, 16)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            make_field(5, 0x1F)

    def test_reducible_modulus_rejected(self):
        # x^5+x^4+x^3+x^2+x+1 = (x+1)(x^4+x^2+1); a failed construction is
        # not cached, so it raises every time
        for _ in range(2):
            with pytest.raises(ValueError, match="reducible"):
                make_field(5, 0x3F)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            make_field(5, 0x24)

    def test_one_field_object_per_modulus(self):
        # the irreducibility test and the trace mask run on the first call only
        assert make_field(11) is make_field(11)
        assert make_field(11, 0x805) is make_field(11, 0x805)
        # fields hash by identity, so the default modulus spelled out must
        # give the same object, or every per-field table is built twice
        assert make_field(11) is make_field(11, find_default_modulus(11))

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            make_field(1)

    def test_negative_modulus_rejected(self):
        # -0x25 has degree 5 and an odd constant term, and the
        # polynomial remainders of the irreducibility test never end on a
        # negative int
        with pytest.raises(ValueError, match="negative"):
            FieldSpec(5, -0x25)

    def test_make_field_refuses_past_the_cap_before_the_search(self, monkeypatch):
        # no field past the cap exists, so no per-field table past it either
        searched = []
        search = gf2m.find_default_modulus

        def spy(m):
            searched.append(m)
            return search(m)

        monkeypatch.setattr(gf2m, "find_default_modulus", spy)
        with pytest.raises(ValueError, match="too large for the per-field tables"):
            make_field(TABLE_MAX_M + 1)
        assert searched == []
        # the control, past the cache so the search runs even when an
        # earlier test built this field: at the cap the field is built
        assert make_field.__wrapped__(TABLE_MAX_M).m == TABLE_MAX_M
        assert searched == [TABLE_MAX_M]

    def test_fieldspec_refuses_past_the_cap_before_irreducibility(self, monkeypatch):
        tested = []
        irreducible = gf2m.is_irreducible

        def spy(p):
            tested.append(p)
            return irreducible(p)

        modulus = find_default_modulus(TABLE_MAX_M)
        monkeypatch.setattr(gf2m, "is_irreducible", spy)
        with pytest.raises(ValueError, match="too large for the per-field tables"):
            FieldSpec(TABLE_MAX_M + 2, (1 << (TABLE_MAX_M + 2)) | 0b1001)
        assert tested == []
        assert FieldSpec(TABLE_MAX_M, modulus).m == TABLE_MAX_M  # the control
        assert tested == [modulus]

    def test_default_modulus_search_refuses_past_the_cap(self, monkeypatch):
        # the exported search guards itself, not only behind make_field:
        # past the cap no field may exist, however fast the test per candidate
        tested = []

        def spy(p):
            tested.append(p)
            raise AssertionError("the search started")

        monkeypatch.setattr(gf2m, "is_irreducible", spy)
        with pytest.raises(ValueError, match="too large for the per-field tables"):
            find_default_modulus.__wrapped__(TABLE_MAX_M + 1)
        with pytest.raises(ValueError, match="must be >= 2"):
            find_default_modulus.__wrapped__(1)
        assert tested == []

    @pytest.mark.parametrize("m,expected", [(4, 0x13), (5, 0x25), (13, 0x201B)])
    def test_default_modulus(self, m, expected):
        assert find_default_modulus(m) == expected

    def test_default_modulus_is_smallest(self):
        # per construction: nothing below 0x25 of degree 5 is irreducible
        assert not any(is_irreducible(p) for p in range(1 << 5, 0x25))

    def test_known_reducible(self):
        assert not is_irreducible(0x23)  # (x^2+x+1)(x^3+x^2+1)
        assert is_irreducible(0x25)

    def test_negative_polynomials_refused(self):
        # in a fresh process with a timeout: the remainder loop never ends
        # on a negative int (nor on a zero divisor), so a missing check
        # fails here instead of hanging the suite.  -0x3 has degree 1 and
        # needs no remainder, so without the check it would read irreducible
        calls = ["is_irreducible(-0x25)", "is_irreducible(-0x3)", "poly_mod(-0x40, 0x25)",
                 "poly_mod(0x40, -0x25)", "poly_mod(0x40, 0)"]
        script = "from bch3.gf2m import is_irreducible, poly_mod\n" + "".join(
            f"try:\n    print({call})\nexcept ValueError as exc:\n    print(exc)\n" for call in calls
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gf2m.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "polynomial -0x25 is negative",
            "polynomial -0x3 is negative",
            "poly_mod needs a >= 0 and b > 0, got -0x40 and 0x25",
            "poly_mod needs a >= 0 and b > 0, got 0x40 and -0x25",
            "poly_mod needs a >= 0 and b > 0, got 0x40 and 0x0",
        ]

    def test_ben_or_matches_trial_division(self):
        # every p below 2^13: degrees 0 to 12, reducible ones with repeated
        # factors and with a factor x among them
        candidates = range(1 << 13)
        expected = [p for p in candidates if irreducible_by_trial_division(p)]
        assert [p for p in candidates if is_irreducible(p)] == expected

    @pytest.mark.parametrize("m", range(2, 17))
    def test_default_modulus_is_the_oracles_smallest(self, m):
        smallest = next(p for p in range(1 << m, 2 << m) if irreducible_by_trial_division(p))
        assert find_default_modulus(m) == smallest


class TestArithmetic:
    def test_add_is_xor(self, f5):
        assert f5.add(0x03, 0x05) == 0x06

    def test_mul_single_reduction(self, f5):
        assert f5.mul(0x02, 0x10) == 0x05

    def test_inv_known_value(self, f5):
        assert f5.inv(0x02) == 0x12

    def test_inv_zero_is_domain_error(self, f5):
        # a ValueError like every other domain error, so the CLI's one
        # error boundary would print it as an error line
        with pytest.raises(ValueError, match="zero has no inverse"):
            f5.inv(0)

    def test_out_of_range_rejected(self, f5):
        with pytest.raises(ValueError):
            f5.mul(32, 1)
        with pytest.raises(ValueError):
            f5.add(-1, 0)

    @settings(max_examples=60)
    @given(st.data())
    def test_field_axioms(self, data):
        field = make_field(data.draw(st.sampled_from([4, 5, 7, 9])))
        a = data.draw(st.integers(0, field.q - 1))
        b = data.draw(st.integers(0, field.q - 1))
        c = data.draw(st.integers(0, field.q - 1))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.square(a) == field.mul(a, a)
        if a:
            assert field.mul(a, field.inv(a)) == 1

    @pytest.mark.parametrize("m", [4, 5, 7, 9])
    def test_frobenius_fixes_everything(self, m):
        field = make_field(m)
        for a in range(field.q):
            s = a
            for _ in range(m):
                s = field.square(s)
            assert s == a

    def test_pow_matches_repeated_mul(self, f5):
        for a in (0, 1, 7, 30):
            acc = 1
            for k in range(10):
                assert f5.pow(a, k) == acc
                acc = f5.mul(acc, a)

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_cube_map_bijective_for_odd_m(self, m):
        field = make_field(m)
        cubes = {field.mul(field.square(x), x) for x in range(field.q)}
        assert len(cubes) == field.q


def _fresh_moduli(m: int) -> list[int]:
    """The two smallest irreducibles of degree m above the default one."""
    default = find_default_modulus(m)
    return [p for p in range(default + 1, 1 << (m + 1)) if is_irreducible(p)][:2]


def _trace_mask_fields():
    """Default fields m = 2..TABLE_MAX_M (at even m, Tr(1) = 0), two fresh
    moduli at each of m = 9, 11 and 13, and 0x1f at m = 4."""
    fields = [make_field(m) for m in range(2, TABLE_MAX_M + 1)]
    fields += [make_field(m, p) for m in (9, 11, 13) for p in _fresh_moduli(m)]
    return fields + [make_field(4, 0x1F)]


class TestTrace:
    @pytest.mark.parametrize("field", _trace_mask_fields(), ids=lambda f: f"m{f.m}-0x{f.modulus:x}")
    def test_trace_mask_matches_definition(self, field):
        # Newton's identities against the Frobenius sum of each basis element
        bits = [trace_by_definition(field, 1 << j) for j in range(field.m)]
        assert field.trace_mask == sum(bit << j for j, bit in enumerate(bits))

    def test_trace_of_zero(self, f5):
        assert f5.trace(0) == 0

    def test_trace_of_one_odd_m(self, f5):
        assert f5.trace(1) == 1

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_kernel_has_index_two(self, m):
        field = make_field(m)
        xs = np.arange(field.q, dtype=np.int64)
        zeros = int(np.count_nonzero((np.bitwise_count(xs & field.trace_mask) & 1) == 0))
        assert zeros == field.q // 2

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_matches_definition_and_frobenius_invariance(self, m):
        field = make_field(m)
        for a in range(field.q):
            t = field.trace(a)
            assert t == trace_by_definition(field, a)
            assert t == field.trace(field.square(a))

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_linear_over_all_pairs(self, m):
        field = make_field(m)
        xs = np.arange(field.q, dtype=np.int64)
        bits = np.bitwise_count(xs & field.trace_mask) & 1
        table = bits[:, None] ^ bits[None, :]
        sums = np.bitwise_count((xs[:, None] ^ xs[None, :]) & field.trace_mask) & 1
        assert np.array_equal(table, sums)


class TestKernelTables:
    def test_inverse_table(self, f7):
        table = inverse_table(f7)
        assert table[0] == 0
        for x in range(1, f7.q):
            assert f7.mul(x, int(table[x])) == 1

    def test_bilinear_trace_table(self, f5):
        table = trace_mul_table(f5)
        assert int(table[1]) == f5.trace_mask
        for a in range(f5.q):
            for u in (1, 2, 17, 30):
                assert f5.trace(f5.mul(a, u)) == (a & int(table[u])).bit_count() % 2


def _kernel_fields():
    """Default fields m = 2..13, two fresh moduli at m = 9 and 11, and
    0x1f at m = 4, where x has order 5 and so is not primitive."""
    fields = [make_field(m) for m in range(2, 14)]
    fields += [make_field(m, p) for m in (9, 11) for p in _fresh_moduli(m)]
    return fields + [make_field(4, 0x1F)]


class TestArrayKernel:
    @pytest.mark.parametrize("field", _kernel_fields(), ids=lambda f: f"m{f.m}-0x{f.modulus:x}")
    def test_power_tables_match_scalar_pow(self, field):
        for k in (3, 5, field.q - 2):
            table = power_table(field, k)
            assert table.dtype == np.int64
            assert table.tolist() == [field.pow(x, k) for x in range(field.q)]
        inv = inverse_table(field)
        assert inv[0] == 0
        assert inv[1:].tolist() == [field.inv(x) for x in range(1, field.q)]

    @pytest.mark.parametrize("field", _kernel_fields(), ids=lambda f: f"m{f.m}-0x{f.modulus:x}")
    def test_log_tables_invert_each_other(self, field):
        exp, log = log_tables(field)
        assert sorted(exp.tolist()) == list(range(1, field.q))
        assert np.array_equal(log[exp], np.arange(field.q - 1))

    @pytest.mark.parametrize("field", _kernel_fields(), ids=lambda f: f"m{f.m}-0x{f.modulus:x}")
    def test_exp_table_holds_powers_of_its_generator(self, field):
        exp = exp_table(field)
        assert np.array_equal(log_tables(field)[0], exp)
        g, n = int(exp[1]), field.q - 1
        # both sides of every seam of the doubling fill, and a seeded sample
        ks = {k for j in range(field.m) for k in ((1 << j) - 1, 1 << j, (1 << j) + 1) if k < n}
        ks |= set(random.Random(field.modulus).sample(range(n), min(n, 64))) | {n - 1}
        for k in sorted(ks):
            assert int(exp[k]) == field.pow(g, k)

    @pytest.mark.parametrize(
        "field", [f for f in _kernel_fields() if f.m <= 8], ids=lambda f: f"m{f.m}-0x{f.modulus:x}"
    )
    def test_scaling_table_scales_every_element(self, field):
        # scaled[log_of[v] + k] = v * g^k for every v, zero included, and
        # every k < q - 1, against shift-and-reduce products (m = 2..8)
        scaled, log_of = scaling_table(field)
        exp = exp_table(field)
        v = np.arange(field.q, dtype=np.int64)[:, None]
        assert np.array_equal(scaled[log_of[v] + np.arange(field.q - 1)], mul_array(field, v, exp))
        assert not scaled.flags.writeable and not log_of.flags.writeable

    def test_mul_const_all_pairs(self, f5):
        xs = np.arange(f5.q, dtype=np.int64)
        for c in range(f5.q):
            assert mul_const(f5, c, xs).tolist() == [f5.mul(c, v) for v in range(f5.q)]

    def test_mul_array_all_pairs(self, f5):
        xs = np.arange(f5.q, dtype=np.int64)
        products = mul_array(f5, xs[:, None], xs[None, :])
        expected = [[f5.mul(a, b) for b in range(f5.q)] for a in range(f5.q)]
        assert products.tolist() == expected

    def test_power_table_edge_exponents(self, f5):
        assert power_table(f5, 0).tolist() == [1] * f5.q
        assert power_table(f5, f5.q - 1).tolist() == [0] + [1] * (f5.q - 1)
        with pytest.raises(ValueError):
            power_table(f5, -1)

    def test_negative_exponent_refused_before_any_table(self, f5, monkeypatch):
        # FieldSpec.pow owns the refusal; power_table asks it first
        def refuse(field):
            raise LookupError("log_tables was read")

        monkeypatch.setattr(gf2m, "log_tables", refuse)
        for call in (lambda: power_table(f5, -1), lambda: f5.pow(2, -1)):
            with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
                call()

    def test_tables_are_read_only(self, f5):
        with pytest.raises(ValueError):
            power_table(f5, 3)[2] = 0
        with pytest.raises(ValueError):
            exp_table(f5)[2] = 0
        with pytest.raises(ValueError):
            trace_mul_table(f5)[2] = 0
