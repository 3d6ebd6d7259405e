"""Exact verification toolkit for function fields over small finite
fields: field arithmetic, places, covers, projective point searches,
zeta L-polynomials and class numbers."""

__version__ = "1.0.0"
