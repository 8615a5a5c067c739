"""The weight-4 coset invariant N, its distribution tables, and bounds.

For odd m and a normalized representative A in {0, 1} the invariant is a
linear combination of the seven fibre counts at lam = B + 1.  With
n1 = n2, n3 = n7 and n4 = n5 = n6 (docs/count_table.md) it reads, in
both trace classes,

    N = (-6q - 2 + 8*off + 2*(2*n1' + 2*n3' + 3*n5)) / 24,

where off = Tr(A + 1) and n1', n3' are counted against a constant of
trace off (q - 1 - n when off = 1), as curves._rows returns them.
General (A, B) reduce to this shape along the translation x_i -> x_i + s,
which fixes lam = B + A^2 + A + 1 and the trace class of A.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import curves
from .curves import DegenerateLambdaError, require_odd
from .gf2m import FieldSpec, make_field


@lru_cache(maxsize=None)
def invariants(field: FieldSpec, trace_class_a: int) -> np.ndarray:
    """N for normalized A (trace class only) and every lam, as a read-only
    int64 array indexed like the count table: the degenerate lam = 0 holds -1.

    One combine over the lam != 0 columns of the adjusted count rows,
    checked once to sit on the even part of its lattice; the lam = 0
    column never reaches that check.
    """
    q = field.q
    off, n1, n3, n5 = curves._rows(field, trace_class_a, slice(1, None))
    num = -6 * q - 2 + 8 * off + 2 * (2 * n1 + 2 * n3 + 3 * n5)
    if (num % 24).any() or (num < 0).any() or (num // 24 % 2).any():
        raise AssertionError("invariant left its lattice")
    values = np.concatenate(([-1], num // 24), dtype=np.int64)
    values.flags.writeable = False
    return values


def N_of(field: FieldSpec, trace_class_a: int, b: int) -> int:
    """The invariant for normalized A (trace class only) and B = b.

    The degree, class and b are validated by curves._lam before the
    invariant array is read or built."""
    lam = curves._lam(field, trace_class_a, b)
    return int(invariants(field, trace_class_a)[lam])


def N_of_general(field: FieldSpec, a: int, b: int) -> int:
    """The invariant for arbitrary A, translated to the normalized form:
    odd m, a, b and lam != 0 are checked once, then lam is read."""
    require_odd(field.m)  # before the elements, as for normalized A
    lam = curves.lambda_of(field, a, b)
    if lam == 0:
        raise DegenerateLambdaError(
            f"a=0x{a:x}, b=0x{b:x} give lam=0: the coset family degenerates into twelve lines"
        )
    return int(invariants(field, field.trace(a))[lam])


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

    Values for both trace classes come out of a single batched pass over
    the fibre-count tables; B is the element lam + 1 as lam runs over
    F_q^*, so exactly q - 1 parameters land in each class.  Checked
    before it is returned: the first moment sum N = (q - 2)(q - 4)/12,
    the refined interval and the second moment.
    """
    require_odd(m)
    if m < 5:  # at m = 3, x^5 = (x^3)^4: the code corrects only two errors
        raise ValueError(f"the tables need m >= 5, got m={m}")
    field = make_field(m, modulus)
    q = field.q
    per_class = []
    for cls in (0, 1):
        hist = np.bincount(invariants(field, cls)[1:])
        values = np.flatnonzero(hist)
        per_class.append(dict(zip(values.tolist(), hist[values].tolist())))
    merged = dict(sorted((Counter(per_class[0]) + Counter(per_class[1])).items()))
    table = DistributionTable(
        m=m, modulus=field.modulus, per_class=(per_class[0], per_class[1]), normalized=merged
    )
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
    t = floor(2*sqrt(q)) and s = 2*sqrt(2q).  Past m = 1027 the Weil
    endpoints overflow a double.

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
    if not 3 <= m <= 1027:
        raise ValueError(f"bounds need 3 <= m <= 1027, got m={m}")
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


@dataclass(frozen=True)
class GammaReport:
    """Comparison of the q = 2^13 histogram against a reference profile:
    histogram and residual are keyed by l with value = 290 + 2l."""

    histogram: dict[int, int]
    residual: dict[int, int]


GAMMA_BASE = 290
GAMMA_LEN = 51


def load_gamma(path=None) -> tuple[int, ...]:
    """The 51-entry reference profile, one integer per line."""
    if path is None:
        text = resources.files("bch3").joinpath("data/gamma_q8192.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    values = tuple(int(line) for line in text.split() if line.strip())
    if len(values) != GAMMA_LEN:
        raise ValueError(f"expected {GAMMA_LEN} profile entries, got {len(values)}")
    return values


def gamma_report(m: int, gamma, table: DistributionTable | None = None) -> GammaReport:
    """Histogram of the m = 13 run re-indexed by l, with residuals against
    13 times the reference profile."""
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
    return GammaReport(histogram=histogram, residual=residual)


def calibrate_boundary(m: int, modulus: int | None = None) -> dict[int, int]:
    """Constant linking the combined trace to the invariant, per class.

    For every valid B the quantity q + 1 - t_combined - 24*N must come out
    the same within a trace class (the rational points sitting above
    x = 0, 1, infinity); a drift signals a broken boundary convention in
    the trace derivation.  One array pass over the lam != 0 columns.
    """
    field = make_field(m, modulus)
    nonzero = slice(1, None)
    out: dict[int, int] = {}
    for cls in (0, 1):
        t_combined = curves._traces_at(field, cls, nonzero)[-1]
        const = field.q + 1 - t_combined - 24 * invariants(field, cls)[nonzero]
        if (const != const[0]).any():
            seen = sorted(set(const.tolist()))
            raise AssertionError(f"boundary constant drifts within class {cls}: {seen}")
        out[cls] = int(const[0])
    return out
