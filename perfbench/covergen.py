"""Seeded inputs for the ``cover_census`` workload.

Each draw has the shape of a catalog cover: a monic cubic f over the
catalog cover's field, y^2 + y = f over GF(4) (Artin-Schreier, like
curve vii) or y^2 = f over GF(3) (Kummer, like curve vi).  A Kummer draw
must be squarefree; a draw that is not, or that repeats an earlier draw or
the catalog's own f, is rejected and drawn again.  Every accepted draw has
genus 1 by the Hurwitz formula: one ramified place of pole order 3 for
Artin-Schreier, four ramified places of total degree 4 for Kummer.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
COVERS_PER_FIELD = 8

# (id, kind, p, k, f as coefficients c0, c1, c2, 1) for the catalog covers
CATALOG_COVERS = (
    ("vii", "artin_schreier", 2, 2, (2, 0, 0, 1)),   # x^3 + a
    ("vi", "kummer", 3, 1, (2, 2, 0, 1)),            # x^3 + 2x + 2
)


def _element_str(c: int, p: int, k: int) -> str:
    """Element of GF(p^k) in the program's text format (base-p digits are
    the coefficients of powers of the modulus root ``a``)."""
    digits = [(c // p ** i) % p for i in range(k)]
    parts = []
    for i in reversed(range(k)):
        d = digits[i]
        if d:
            coef = "" if d == 1 and i else str(d)
            parts.append(coef + ("" if i == 0 else "a" if i == 1 else f"a^{i}"))
    return "+".join(parts)


def poly_str(coeffs, p: int, k: int) -> str:
    """Little-endian coefficients as ``x^3+(a+1)x^2+...``."""
    parts = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if not c:
            continue
        s = _element_str(c, p, k)
        if i == 0:
            parts.append(f"({s})" if "+" in s else s)
            continue
        coef = "" if c == 1 else f"({s})" if "+" in s else s
        parts.append(coef + ("x" if i == 1 else f"x^{i}"))
    return "+".join(parts)


def _squarefree_mod_p(coeffs, p: int) -> bool:
    """gcd(f, f') == 1 over the prime field GF(p) (k = 1 only)."""
    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    f = trim(list(coeffs))
    g = trim([(i * c) % p for i, c in enumerate(coeffs)][1:])
    if not g:  # f' = 0: f is a p-th power
        return False
    while g:
        inv = pow(g[-1], p - 2, p)
        r = list(f)
        while len(r) >= len(g):
            c = (r[-1] * inv) % p
            shift = len(r) - len(g)
            for j, gj in enumerate(g):
                r[shift + j] = (r[shift + j] - c * gj) % p
            trim(r)
        f, g = g, r
    return len(f) == 1


def _standard_form(kind: str, coeffs, p: int) -> bool:
    if len(coeffs) != 4 or coeffs[3] != 1:
        return False
    return kind == "artin_schreier" or _squarefree_mod_p(coeffs, p)


def draw_covers(seed: int, per_field: int = COVERS_PER_FIELD):
    """The workload's inputs: the two catalog covers, then ``per_field``
    distinct random covers over each of their fields."""
    rng = random.Random(seed)
    out = [cover_record(cid, kind, p, k, f, catalog=True)
           for cid, kind, p, k, f in CATALOG_COVERS]
    for cid, kind, p, k, catalog_f in CATALOG_COVERS:
        q = p ** k
        seen = {catalog_f}
        while len(seen) <= per_field:
            f = (rng.randrange(q), rng.randrange(q), rng.randrange(q), 1)
            if f in seen or not _standard_form(kind, f, p):
                continue
            seen.add(f)
            out.append(cover_record(f"{cid}-r{len(seen) - 1}", kind, p, k, f))
    return out


def cover_record(cid, kind, p, k, coeffs, catalog=False) -> dict:
    rec = {"id": cid, "kind": kind, "p": p, "k": k, "q": p ** k, "genus": 1,
           "f": poly_str(coeffs, p, k)}
    if catalog:
        rec["catalog"] = True
    return rec
