"""Coset weight invariants and covering radius of triple-error-correcting BCH codes.

The package computes the number of weight-4 words in the weight-4 cosets
of the extended code over F_{2^m} (m odd) from trace counts on a small
family of binary Artin-Schreier curves, checks the results against an
exhaustive solver, and derives the code's covering radius by a syndrome
breadth-first search.
"""

from .gf2m import FieldSpec, find_default_modulus, make_field

__all__ = [
    "FieldSpec",
    "find_default_modulus",
    "make_field",
]
