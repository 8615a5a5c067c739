"""The weight-4 coset invariant N, its distribution tables, and bounds.

For odd m and a normalized representative A in {0, 1}, with n1 = n2,
n3 = n7 and n4 = n5 = n6 (docs/count_table.md), the invariant at
lam = B + 1 is 24N = 6*n5 - 2(q + 1) -+ 4(n1 + n3 - q): minus in class
0, where Tr(A + 1) = 1, and plus in class 1.  The translation
x_i -> x_i + s fixes lam = B + A^2 + A + 1 and the trace class of A, so
N depends on (A, B) only through the slot Tr A << m | lam: invariants
holds N at every slot, and (A, B) reads slot slot_key[A] ^ B.  Both
read the two rows n1 + n3 and n5 of curves._count_table, never n1 alone.
calibrate_boundary checks the combined curve trace against this formula
at lam = 1, by the constant that docs/count_table.md proves links them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import curves
from .curves import DegenerateLambdaError, require_odd
from .gf2m import FieldSpec, _readonly, make_field, power_table, scaling_table, trace_mul_table


@lru_cache(maxsize=None)
def invariants(field: FieldSpec) -> np.ndarray:
    """N at slot Tr A << m | lam for both trace classes and every lam: one
    read-only int64 array of 2q entries, -1 at the degenerate slots 0 and
    q, whose (2, q) view is indexed [class, lam].  One pass over n1 + n3
    and n5 fills both halves, each checked once to sit on the even part of
    the lattice (for 24N >= 0, 48 | 24N exactly when 24 | 24N and N is
    even) with the lam = 0 slots zeroed."""
    q = field.q
    n13, n5 = curves._count_table(field)
    out = np.empty(2 * q, dtype=np.int64)
    low, high = out[:q], out[q:]
    np.multiply(n5, 6, out=low)
    low -= 2 * q + 2
    swing = n13 - q  # int32, as the count table: |4(n1 + n3 - q)| <= 4q
    swing *= 4
    np.add(low, swing, out=high)
    low -= swing
    out[::q] = 0
    for half in (low, high):
        np.floor_divide(half, 48, out=swing)  # an int64 remainder takes twice as long
        swing *= -48
        swing += half  # 24N mod 48
        if swing.any() or half.min() < 0:
            raise AssertionError("invariant left its lattice")
    out //= 24
    out[::q] = -1
    return _readonly(out)


@lru_cache(maxsize=None)
def slot_key(field: FieldSpec) -> np.ndarray:
    """key[A] = Tr A << m | A^2 + A + 1 for every element A, as a read-only
    int64 array: (A, B) has its invariant at slot key[A] ^ B, whose low m
    bits are lam.  Tr A is bit 0 of T[A], Tr(1 * A)."""
    return _readonly((trace_mul_table(field) & 1) << field.m | power_table(field, 2) ^ np.arange(field.q) ^ 1)


def N_of(field: FieldSpec, trace_class_a: int, b: int) -> int:
    """The invariant for normalized A (trace class only) and B = b, read
    once curves._lam has checked the degree, the class and b."""
    lam = curves._lam(field, trace_class_a, b)
    return int(invariants(field)[trace_class_a << field.m | lam])


def N_of_general(field: FieldSpec, a: int, b: int) -> int:
    """The invariant for arbitrary A, translated to the normalized form:
    odd m, a and b are checked once, then slot key[a] ^ b is read."""
    require_odd(field.m)  # before the elements, as for normalized A
    field._check(a)  # before the key: a negative index would wrap
    field._check(b)
    slot = int(slot_key(field)[a]) ^ b
    if slot & (field.q - 1) == 0:
        raise DegenerateLambdaError(f"a=0x{a:x}, b=0x{b:x} give lam=0")
    return int(invariants(field)[slot])


@dataclass(frozen=True)
class DistributionTable:
    """Histogram of the invariant over both trace classes and all valid B."""

    m: int
    modulus: int
    per_class: tuple[dict[int, int], dict[int, int]]
    normalized: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "q": 1 << self.m,
            "modulus": f"0x{self.modulus:x}",
            "distribution": {str(k): v for k, v in sorted(self.normalized.items())},
            "normalized_by": 1 << (self.m - 1),
        }

    def to_tsv(self) -> str:
        lines = ["N\tcount_class0\tcount_class1\tnormalized"]
        for key in sorted(self.normalized):
            c0 = self.per_class[0].get(key, 0)
            c1 = self.per_class[1].get(key, 0)
            lines.append(f"{key}\t{c0}\t{c1}\t{c0 + c1}")
        return "\n".join(lines) + "\n"


def distribution(m: int, modulus: int | None = None) -> DistributionTable:
    """Exact value histogram for one odd m from 5 to gf2m.TABLE_MAX_M.

    Values for both trace classes come out of the invariant table, one
    histogram per class, and the two are added as arrays; B is the element
    lam + 1 as lam runs over F_q^*, so exactly q - 1 parameters land in
    each class.  Checked before it is returned, in Python ints over the
    distinct values, so exact at every m: the first moment
    sum N = (q - 2)(q - 4)/12, the refined interval and the second moment.
    """
    require_odd(m)
    if m < 5:  # at m = 3, x^5 = (x^3)^4: the code corrects only two errors
        raise ValueError(f"the tables need m >= 5, got m={m}")
    field = make_field(m, modulus)
    q = field.q
    rows = invariants(field).reshape(2, q)[:, 1:]
    width = int(rows.max()) + 1
    c0, c1 = (np.bincount(row, minlength=width) for row in rows)
    merged = _histogram(c0 + c1)
    per_class = (_histogram(c0), _histogram(c1))
    table = DistributionTable(m=m, modulus=field.modulus, per_class=per_class, normalized=merged)
    # lam = 0 carries N = 0, so the q(q - 2)(q - 4)/24 subsets of sum 1,
    # spread over q/2 values of A per class, all land on lam != 0
    if 12 * sum(value * count for value, count in merged.items()) != (q - 2) * (q - 4):
        raise AssertionError("first moment of N must be (q - 2)(q - 4)/12")
    lo, hi = bounds(m).refined_even
    if min(merged) < lo or max(merged) > hi:
        raise AssertionError("a value escaped the proven interval")
    pairs = sum(value * (value - 1) * count for value, count in merged.items())
    if flat_pairs(m) + (q - 1) * (q // 2) * pairs != 70 * weight8_count(m):
        raise AssertionError("second moment: P_0 + (q - 1)(q/2) sum N(N - 1) must be 70 A_8")
    return table


def _histogram(counts: np.ndarray) -> dict[int, int]:
    """{value: count} over the nonzero bins of a bincount, values ascending."""
    values = np.flatnonzero(counts)
    return dict(zip(values.tolist(), counts[values].tolist()))


def dual_weight_distribution(m: int) -> dict[int, int]:
    """The dual code Tr(ax + bx^3 + cx^5) + e has weights 0, q, q/2, q/2 +- 2^((m-1)/2)
    and q/2 +- 2^((m+1)/2) (Kasami 1969) at odd m only; the Pless moments give their
    frequencies."""
    require_odd(m)
    q = 1 << m
    s2, s4 = q**4 - q**2, 3 * q**5 - 3 * q**4  # sum W^2, sum W^4 over (a, b, c) != 0
    k2 = (s4 - 2 * q * s2) // (48 * q**2)  # Walsh value W = +-sqrt(8q)
    k1 = (s2 - 8 * q * k2) // (2 * q)  # W = +-sqrt(2q)
    h, w1, w2 = q // 2, 1 << (m - 1) // 2, 1 << (m + 1) // 2
    return {0: 1, h - w2: k2, h - w1: k1, h: 2 * (q**3 - 1 - k1 - k2), h + w1: k1, h + w2: k2, q: 1}


def weight8_count(m: int) -> int:
    """A_8 of the extended code, by MacWilliams from its 2^(3m+1)-word dual."""
    q = 1 << m
    return sum(
        count * sum((-1) ** s * math.comb(w, s) * math.comb(q - w, 8 - s) for s in range(9))
        for w, count in dual_weight_distribution(m).items()
    ) // (2 * q**3)


def flat_pairs(m: int) -> int:
    """P_0: ordered pairs of distinct 4-sets with sum 0 and one (s3, s5),
    the cosets of one 2-dimensional subspace (docs/second_moment.md)."""
    q = 1 << m
    return (q - 1) * (q - 2) // 6 * (q // 4) * (q // 4 - 1)


# Largest m of bounds, and so of covering_layers: past it the Weil endpoints overflow a double.
BOUNDS_MAX_M = 1027


@dataclass(frozen=True)
class BoundReport:
    """The three value enclosures for one q: the plain genus bound scaled
    to the invariant, its refinement, and the heuristic interval."""

    q: int
    weil: tuple[float, float]
    refined_even: tuple[int, int]
    heuristic_even: tuple[int, int]


def _even_floor(num: int, den: int) -> int:
    return 2 * (num // (2 * den))


def _even_ceil(num: int, den: int) -> int:
    return -2 * (-num // (2 * den))


def bounds(m: int) -> BoundReport:
    """All three enclosures for 2^m, in exact integer arithmetic from q,
    t = floor(2*sqrt(q)) and s = 2*sqrt(2q), for odd m up to BOUNDS_MAX_M.

    weil: the genus-13 point-count bound scaled to the invariant, clamped
    at 0.  refined_even: the even integers admissible under the refined
    trace bound, from the smallest even above the lower endpoint (clamped
    at 0) through the largest even below the upper one.  heuristic_even:
    the smallest even-endpoint interval containing the heuristic enclosure
    [(q - 4t - s + 4 + 4*sqrt(2))/24, (q + 4t + s + 14 + 4*sqrt(2))/24].
    4*sqrt(2) = sqrt(32) is irrational with 5 < sqrt(32) < 6, so for an
    integer c, floor(c + sqrt(32)) = c + 5 and ceil(c + sqrt(32)) = c + 6;
    the rounding is exact for every m.
    """
    require_odd(m)
    if not 3 <= m <= BOUNDS_MAX_M:
        raise ValueError(f"bounds need 3 <= m <= {BOUNDS_MAX_M}, got m={m}")
    q, t, s = curves._root_forms(m)
    return BoundReport(
        q=q,
        weil=(max((q - 11 - 13 * t) / 24, 0.0), (q + 1 + 13 * t) / 24),
        refined_even=(max(_even_ceil(q - 11 - s - 8 * t, 24), 0), _even_floor(q + 1 + s + 8 * t, 24)),
        heuristic_even=(
            max(_even_floor(q - 4 * t - s + 4 + 5, 24), 0),
            _even_ceil(q + 4 * t + s + 14 + 6, 24),
        ),
    )


def covering_layers(m: int) -> tuple[int, ...]:
    """Syndromes per coset weight 0..5 at odd m from 5 to BOUNDS_MAX_M, from the
    invariant table and no syndrome search (docs/covering_radius_bfs.md).

    With Z the number of (class, lam != 0) pairs with N = 0, the layers
    are 1, q - 1, C(q - 1, 2), C(q - 1, 3), the remainder, and
    L5 = (q - 1)(q/2)(1 + Z) + q^2 - 1 - (q - 1)(q - 2)/6, once every
    state is at depth <= 5.  At m >= 9 the refined interval, whose lower
    end must be positive, proves Z = 0 and depth <= 5, and no field is
    built; at m = 5 and 7 _depth_five_certificate reads Z and proves
    depth <= 5 from the table.
    """
    require_odd(m)
    if not 5 <= m <= BOUNDS_MAX_M:
        raise ValueError(f"the covering layers need odd 5 <= m <= {BOUNDS_MAX_M}, got m={m}")
    q = 1 << m
    if m < 9:
        zero = _depth_five_certificate(make_field(m))
    elif bounds(m).refined_even[0] > 0:
        zero = 0
    else:
        raise AssertionError(f"the refined interval admits N = 0 at m={m}, so Z = 0 is unproven")
    low = tuple(math.comb(q - 1, k) for k in range(4))
    last = (q - 1) * (q // 2) * (1 + zero) + q * q - 1 - (q - 1) * (q - 2) // 6
    return (*low, q**3 - sum(low) - last, last)


def _depth_five_certificate(field: FieldSpec) -> int:
    """Z for one field, once every state the layer argument leaves at
    depth >= 5 has a neighbour of depth <= 4; raises where one has none.

    Those states are the s1 = 0 states other than 0, the normal forms
    (1, A, B) with lam != 0 and N = 0, and those with lam = 0 and
    Tr A = 0.  A neighbour has depth <= 4 when it is a normal form with
    lam != 0 and N > 0.  _open_states lists the states of the last two
    groups, and the s1 = 0 states that the step by x = 1 leaves open,
    from the table slots with N <= 0.  Those then try x = 2, 3, ... in
    turn, each x on the states still open; the step from (s1, a, b) is
    (1, c^3 (a + x^3), c^5 (b + x^5)) with c = 1/(s1 + x).
    """
    m, q, n = field.m, field.q, field.q - 1
    values, key = invariants(field), slot_key(field)  # N(A, B) = values[key[A] ^ B]
    near = values > 0  # the normal forms of depth 3 or 4; lam = 0 holds -1
    zero = int(np.count_nonzero(values == 0))
    s1, a, b = _open_states(values, key)
    scaled, log_of = scaling_table(field)
    inv3, inv5 = -3 * log_of % n, -5 * log_of % n  # the logs of c^3 and c^5 at c = 1/s, s != 0
    cube, fifth = power_table(field, 3), power_table(field, 5)
    x = 1
    while len(s1):
        x += 1
        if x == q:
            least = np.argmin(s1 << 2 * m | a << m | b)
            raise AssertionError(f"state ({s1[least]}, 0x{a[least]:x}, 0x{b[least]:x}) has no neighbour of depth <= 4")
        s = s1 ^ x
        big_a = scaled[log_of[a ^ cube[x]] + inv3[s]]
        big_b = scaled[log_of[b ^ fifth[x]] + inv5[s]]
        stay = ~near[key[big_a] ^ big_b]
        s1, a, b = s1[stay], a[stay], b[stay]
    return zero


def _open_states(values: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s1, a, b) of the states that the depth-five certificate must settle by
    some x >= 2, read from the slots k = Tr A << m | lam of values with N <= 0.

    The normal forms (1, A, B) on slot k are the q/2 elements A of trace
    k >> m, with B = k ^ key[A].  Every such slot but lam = 0, Tr A = 1 gives
    its forms as open s1 = 1 states, and every such slot gives the states
    (0, A + 1, B + 1) that the step by x = 1 takes to its forms, less the
    root (0, 0, 0) on slot q: (Z + 1) q/2 and (Z + 2) q/2 - 1 states.
    """
    q = len(key)
    m = q.bit_length() - 1
    slots = np.flatnonzero(values <= 0)
    by_trace = np.argsort(key >> m, kind="stable").reshape(2, -1)  # the q/2 elements of each trace
    big_a = by_trace[slots >> m]
    big_b = slots[:, None] ^ key[big_a]
    low = (big_a != 1) | (big_b != 1)  # the s1 = 0 states, less the root
    high = slots != q  # the slots whose forms stay open with s1 = 1
    a = np.concatenate([big_a[low] ^ 1, big_a[high].ravel()])
    b = np.concatenate([big_b[low] ^ 1, big_b[high].ravel()])
    s1 = np.repeat([0, 1], [np.count_nonzero(low), np.count_nonzero(high) * (q // 2)])
    return s1, a, b


@dataclass(frozen=True)
class GammaReport:
    """Comparison of the q = 2^13 histogram against a reference profile, the
    gamma command's payload: histogram and residual_nonzero are keyed by l
    for the value N = GAMMA_BASE + 2l, and missing_values lists the N of
    the window that never occur."""

    histogram: dict[int, int]
    residual_nonzero: dict[int, int]
    missing_values: list[int]


GAMMA_BASE = 290
GAMMA_LEN = 51


def load_gamma(path=None) -> tuple[int, ...]:
    """The reference profile, one integer per line; gamma_report checks
    that it has GAMMA_LEN entries."""
    if path is None:
        text = resources.files("bch3").joinpath("data/gamma_q8192.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return tuple(int(line) for line in text.split())


def gamma_report(m: int, gamma, table: DistributionTable | None = None) -> GammaReport:
    """Histogram of the m = 13 run re-indexed by l, with its nonzero residuals
    against 13 times the reference profile and the values it never takes."""
    if m != 13:
        raise ValueError("the profile comparison is defined for m = 13")
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != GAMMA_LEN:
        raise ValueError(f"expected {GAMMA_LEN} profile entries, got {len(gamma)}")
    if table is None:
        table = distribution(13)
    histogram = {ell: 0 for ell in range(GAMMA_LEN)}
    for value, count in table.normalized.items():
        if value < GAMMA_BASE or value > GAMMA_BASE + 2 * (GAMMA_LEN - 1) or value % 2:
            raise ValueError(f"histogram key {value} outside the expected window")
        histogram[(value - GAMMA_BASE) // 2] = count
    residual = {ell: histogram[ell] - 13 * gamma[ell] for ell in range(GAMMA_LEN)}
    return GammaReport(
        histogram=histogram,
        residual_nonzero={ell: r for ell, r in residual.items() if r},
        missing_values=[GAMMA_BASE + 2 * ell for ell, count in histogram.items() if count == 0],
    )


def calibrate_boundary(m: int, modulus: int | None = None) -> dict[int, int]:
    """Constant linking the combined trace to the invariant, per class.

    q + 1 - t_combined - 24*N = 12*Tr A at every lam for any count rows
    (docs/count_table.md).  This reads b = 0, lam = 1, where every trace is
    nonzero, so a slipped constant or coefficient in t_combined moves it,
    and raises unless it is 0 in class 0 and 12 in class 1.  t_combined
    comes from n1' + n3' and n5 of the two-row count table, through the
    formula that curves.curve_traces reports, so no n1 row is built.
    """
    field = make_field(m, modulus)
    out: dict[int, int] = {}
    for cls in (0, 1):
        t_combined = curves._combined_trace(field.q, *curves._sum_rows(field, cls, 1))
        out[cls] = field.q + 1 - t_combined - 24 * N_of(field, cls, 0)
        if out[cls] != 12 * cls:
            raise AssertionError(f"boundary constant in class {cls} is {out[cls]}, not the proven {12 * cls}")
    return out
