"""Arithmetic in binary extension fields F_{2^m}.

Field elements are plain Python ints: bit j is the coefficient of x^j in
the polynomial-basis representative, so 0 and 1 are the field's zero and
one.  All operations are methods of a FieldSpec carrying the degree and
the irreducible modulus; elements of different fields are only kept apart
by passing the right FieldSpec, which is how the bulk numpy kernels can
share the same integer encoding.

The scalar FieldSpec methods (mul, square, pow, inv) are bit loops over
one element: the auditable reference the tables are tested against, and
the order test on the generator in log_tables.  That order test is the
only scalar product work of field setup: at most one FieldSpec.pow per
prime factor of q - 1 for each candidate g, 2 us to 0.8 ms at
m = 3..23 (warm, 2-core Intel Xeon).  The rest makes no scalar product:
Ben-Or's test checks the modulus, Newton's identities give the trace
mask, and one shift-and-reduce pass gives the basis products c*x^j
behind every table.

The array kernel is the span table: v -> c*v is F_2-linear, so a product
by a constant over an int64 array is two lookups into half-width tables
filled by xor-ing basis products over subsets (mul_const), as is
trace_mul_table.  log_tables builds these for all its doubling constants
at once, and every power table (power_table, inverse_table) is one
lookup into the log/antilog tables: no per-field setup loops over the q
elements in Python.  No FieldSpec of degree above TABLE_MAX_M exists (the
modulus search refuses one before it starts), so the cap bounds every
field the package builds and every table grown from it.

Hex strings ("0x25" for x^5 + x^2 + 1) are the external encoding of both
elements and moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

# Largest degree of any field the package builds.  Its per-field tables are
# q-sized: cold through the CLI on a 2-core Xeon, `table --m 21` takes 0.6 s
# at 213 MB peak RSS and `table --m 23` 2.0-2.3 s at 702 MB, each odd step
# of m multiplies the peak above the interpreter's 35 MB by about 4 (3.7
# from m = 21 to 23), and m = 25 would take about 2.7 GB.
TABLE_MAX_M = 23


def poly_degree(p: int) -> int:
    """Degree of a polynomial over F_2 encoded as an int (deg(0) = -1)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b, both polynomials over F_2, b != 0."""
    if a < 0 or b <= 0:  # the loop below would never end
        raise ValueError(f"poly_mod needs a >= 0 and b > 0, got {a:#x} and {b:#x}")
    db = poly_degree(b)
    while True:
        da = poly_degree(a)
        if da < db:
            return a
        a ^= b << (da - db)


def _square_mod(a: int, p: int) -> int:
    """a^2 mod p over F_2: the binary digits of a, read in base 4, are its square."""
    return poly_mod(int(bin(a)[2:], 4), p)


def _poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two polynomials over F_2 (Euclid)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Ben-Or's test (1981): p of degree m >= 1 is irreducible exactly when
    gcd(p, x^(2^i) + x) = 1 for 1 <= i <= m/2, since x^(2^i) + x is the
    product of the irreducibles of degree dividing i.  One squaring per i."""
    if p < 0:
        raise ValueError(f"polynomial {p:#x} is negative")
    m = poly_degree(p)
    if m < 1:
        return False
    r = 2  # x^(2^i) mod p
    for _ in range(m // 2):
        r = _square_mod(r, p)
        if _poly_gcd(p, r ^ 2) != 1:
            return False
    return True


def _check_degree(m: int) -> None:
    """Refuse a degree outside 2 <= m <= TABLE_MAX_M."""
    if m < 2:
        raise ValueError(f"extension degree must be >= 2, got {m}")
    if m > TABLE_MAX_M:
        raise ValueError(f"m={m} is too large for the per-field tables (limit m <= {TABLE_MAX_M})")


@lru_cache(maxsize=None)
def find_default_modulus(m: int) -> int:
    """Smallest integer encoding of a monic irreducible of degree m."""
    _check_degree(m)  # past the cap no field may exist, so none is searched for
    for p in range(1 << m, 1 << (m + 1)):
        if is_irreducible(p):
            return p
    raise AssertionError("unreachable: irreducibles exist in every degree")


@dataclass(frozen=True, eq=False)  # hashed by identity: make_field builds one per field
class FieldSpec:
    """A concrete F_{2^m}: degree, modulus, and the precomputed trace mask.

    trace_mask bit j holds trace(x^j), so the absolute trace of any
    element a is the parity of popcount(a & trace_mask).
    """

    m: int
    modulus: int
    q: int = dc_field(init=False)
    trace_mask: int = dc_field(init=False)

    def __post_init__(self):
        _check_degree(self.m)
        if self.modulus < 0:  # poly_mod never ends on a negative int
            raise ValueError(f"modulus {self.modulus:#x} is negative")
        if poly_degree(self.modulus) != self.m:
            raise ValueError(
                f"modulus 0x{self.modulus:x} has degree {poly_degree(self.modulus)}, expected {self.m}"
            )
        if not self.modulus & 1:
            raise ValueError(f"modulus 0x{self.modulus:x} has zero constant term")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus 0x{self.modulus:x} is reducible")
        object.__setattr__(self, "q", 1 << self.m)
        # Tr(x^k) is the power sum p_k of the modulus's roots.  Newton's identities over F_2:
        # p_k = k e_k + sum_{0<i<k} e_i p_{k-i}, e_i the coefficient of x^(m-i)
        e = [self.modulus >> (self.m - i) & 1 for i in range(self.m)]
        p = [self.m & 1]  # p_0 = Tr(1)
        for k in range(1, self.m):
            p.append((k * e[k] + sum(e[i] & p[k - i] for i in range(1, k))) & 1)
        object.__setattr__(self, "trace_mask", sum(bit << k for k, bit in enumerate(p)))

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"0x{a:x} is not an element of F_2^{self.m}")
        return a

    def add(self, a: int, b: int) -> int:
        """Sum of two elements (coefficientwise xor)."""
        self._check(a)
        self._check(b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product modulo the field modulus."""
        self._check(a)
        self._check(b)
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return r

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, k: int) -> int:
        """Raise a to a nonnegative integer power by square-and-multiply."""
        self._check(a)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            k >>= 1
            a = self.mul(a, a)
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; inverting zero is a domain error."""
        self._check(a)
        if a == 0:
            raise ValueError("zero has no inverse")
        return self.pow(a, self.q - 2)

    def trace(self, a: int) -> int:
        """Absolute trace F_{2^m} -> F_2, as the parity of a masked popcount."""
        self._check(a)
        return (a & self.trace_mask).bit_count() & 1


@lru_cache(maxsize=None)  # the irreducibility test and trace mask run once per field
def make_field(m: int, modulus: int | None = None) -> FieldSpec:
    """Validated FieldSpec; picks the default modulus when none is given."""
    if modulus is None:  # through the cache, so both spellings share one object
        _check_degree(m)  # a refused m never enters the search
        return make_field(m, find_default_modulus(m))
    return FieldSpec(m, modulus)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 2, by trial division."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def _readonly(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _basis_products(field: FieldSpec, cs: list[int], count: int) -> list[list[int]]:
    """rows[r][j] = cs[r] * x^j for j < count, by shift-and-reduce."""
    rows = [[c] for c in cs]
    for row in rows:
        for _ in range(count - 1):
            row.append((row[-1] << 1) ^ (row[-1] >> (field.m - 1)) * field.modulus)
    return rows


def _span_tables(basis: np.ndarray) -> np.ndarray:
    """table[..., s] = xor of basis[..., j] over the set bits j of s, for every
    s below 2^n with n = basis.shape[-1], filled one basis column at a time."""
    table = np.zeros(basis.shape[:-1] + (1 << basis.shape[-1],), dtype=np.int64)
    for k in range(basis.shape[-1]):
        table[..., 1 << k : 2 << k] = table[..., : 1 << k] ^ basis[..., k, None]
    return table


def _mul_tables(field: FieldSpec, cs: list[int]) -> np.ndarray:
    """(low, high) per constant c in cs, c*v = low[v & (2^h - 1)] ^ high[v >> h] for h = m//2:
    v -> c*v is F_2-linear, so both span the basis products c*x^j.  low spans m - h of them,
    not h, so one span-table build fills both; v & (2^h - 1) never reads past entry 2^h."""
    half = field.m // 2
    rows = _basis_products(field, cs, field.m)
    return _span_tables(np.array([[row[: field.m - half], row[half:]] for row in rows], dtype=np.int64))


def mul_const(field: FieldSpec, c: int, v: np.ndarray) -> np.ndarray:
    """c * v elementwise, for one element c and an int64 array v of elements:
    the one-row case of the tables log_tables builds for all its constants."""
    [(low, high)] = _mul_tables(field, [field._check(c)])
    half = field.m // 2
    return low[v & ((1 << half) - 1)] ^ high[v >> half]


@lru_cache(maxsize=None)
def log_tables(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) to the base g, the least primitive element of F_q^*.

    exp[k] = g^k for 0 <= k < q - 1, and log[exp[k]] = k, with log[0] = 0
    as filler.  g passes the order test g^((q-1)/p) != 1 for every prime p
    dividing q - 1; x itself need not be primitive (modulus 0x1f at m = 4).
    exp is filled by doubling, exp[k:2k] = exp[:k] * g^k for k = 2^i, in
    m passes of two gathers each into the multiplier tables of the
    constants g^(2^i), all built in one batched pass.
    """
    n = field.q - 1
    primes = _prime_factors(n)
    g = next(g for g in range(2, field.q) if all(field.pow(g, n // p) != 1 for p in primes))
    constants = [g]  # g^(2^i) for the m passes: n = 2^m - 1, so k = 2^i for i < m
    for _ in range(field.m - 1):
        constants.append(_square_mod(constants[-1], field.modulus))
    half = field.m // 2
    exp = np.ones(n, dtype=np.int64)
    k = 1
    for low, high in _mul_tables(field, constants):
        stop = min(2 * k, n)
        head = exp[: stop - k]
        exp[k:stop] = low[head & ((1 << half) - 1)] ^ high[head >> half]
        k = stop
    log = np.zeros(field.q, dtype=np.int64)
    log[exp] = np.arange(n, dtype=np.int64)
    return _readonly(exp), _readonly(log)


@lru_cache(maxsize=None)
def power_table(field: FieldSpec, k: int) -> np.ndarray:
    """table[x] = x^k for every element x, as a read-only int64 array."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    exp, log = log_tables(field)
    table = exp[log * (k % (field.q - 1)) % (field.q - 1)]
    table[0] = field.pow(0, k)
    return _readonly(table)


def inverse_table(field: FieldSpec) -> np.ndarray:
    """inv_table[x] = x^-1 for x in F_q^*, with inv_table[0] = 0 as filler."""
    return power_table(field, field.q - 2)


@lru_cache(maxsize=None)
def trace_mul_table(field: FieldSpec) -> np.ndarray:
    """T with trace(a*u) = parity(a & T[u]) for all elements a, u.

    Bit j of T[u] is trace(x^j * u); linearity in u lets the whole table
    be filled by xor-ing basis masks over subsets.
    """
    m = field.m
    # bit i of trs is Tr(x^i), so bit j of basis[k] is Tr(x^(j + k)) = Tr(x^j * x^k)
    trs = sum(field.trace(p) << i for i, p in enumerate(_basis_products(field, [1], 2 * m - 1)[0]))
    return _readonly(_span_tables((trs >> np.arange(m, dtype=np.int64)) & (field.q - 1)))
