import random

import pytest

from ffcn.gf import (_TABLE_MAX, GF, MAX_K, SUPPORTED_P, FieldError, _is_field,
                     element_str, embed, embedding, make_field, parse_element)
from ffcn.polyring import Poly, is_irreducible

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    elems = list(F.elements())
    assert len(elems) == p ** k
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(p ** k) for _ in range(3))
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def _pairs(q, exhaustive, seed):
    """Every pair of elements of a field of order q, or a seeded sample."""
    if exhaustive:
        return [(a, b) for a in range(q) for b in range(q)]
    rng = random.Random(seed)
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]


def _clmul_mod(a, b, modulus):
    """a * b over GF(2): the whole carry-less product, then its remainder
    by the modulus, both on ints whose bits are the coefficients."""
    prod = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            prod ^= a << i
    k = modulus.bit_length() - 1
    while prod.bit_length() > k:
        prod ^= modulus << (prod.bit_length() - 1 - k)
    return prod


@pytest.mark.parametrize("k", range(1, 21))
def test_binary_mul_and_inv_match_carry_less_products(k):
    # k <= 6 exhaustively; k >= 17 is the path without tables
    F = make_field(2, k)
    assert (F._log is None) == (F.order > _TABLE_MAX)
    modulus = sum(c << i for i, c in enumerate(F.modulus))
    for a, b in _pairs(F.order, k <= 6, k):
        assert F.mul(a, b) == _clmul_mod(a, b, modulus), (a, b)
        if a:
            assert _clmul_mod(a, F.inv(a), modulus) == 1, a


def _ternary_mul_mod(a, b, modulus):
    """a * b over GF(3): the schoolbook product of the base-3 digit
    vectors, then its remainder by the monic modulus (little-endian)."""
    def digits(n):
        out = []
        while n:
            n, d = divmod(n, 3)
            out.append(d)
        return out

    k = len(modulus) - 1
    prod = [0] * (2 * k)
    for i, x in enumerate(digits(a)):
        for j, y in enumerate(digits(b)):
            prod[i + j] = (prod[i + j] + x * y) % 3
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        for j, m in enumerate(modulus):
            prod[top - k + j] = (prod[top - k + j] - c * m) % 3
    return sum(d * 3 ** i for i, d in enumerate(prod[:k]))


@pytest.mark.parametrize("k", range(1, 13))
def test_ternary_mul_and_inv_match_digitwise_products(k):
    # k <= 4 exhaustively; k >= 11 is the path without tables
    F = make_field(3, k)
    assert (F._log is None) == (F.order > _TABLE_MAX)
    for a, b in _pairs(F.order, k <= 4, k):
        assert F.mul(a, b) == _ternary_mul_mod(a, b, F.modulus), (a, b)
        if a:
            assert _ternary_mul_mod(a, F.inv(a), F.modulus) == 1, a


def _ternary_digitwise(a, b, sign):
    """a + sign*b over GF(3^k), coordinate by coordinate."""
    out, scale = 0, 1
    while a or b:
        out += (a % 3 + sign * (b % 3)) % 3 * scale
        a, b, scale = a // 3, b // 3, scale * 3
    return out


@pytest.mark.parametrize("k", range(1, 13))
def test_ternary_add_sub_neg_match_digitwise_arithmetic(k):
    # k <= 4 exhaustively (Zech tables); k >= 11 is the path without tables
    F = make_field(3, k)
    assert (F._zech is None) == (F.order > _TABLE_MAX)
    for a, b in _pairs(F.order, k <= 4, k):
        assert F.add(a, b) == _ternary_digitwise(a, b, 1), (a, b)
        assert F.sub(a, b) == _ternary_digitwise(a, b, -1), (a, b)
        assert F.neg(b) == _ternary_digitwise(0, b, -1), b


@pytest.mark.parametrize("p,modulus,irreducible", [
    (3, (2, 0, 1), False),     # t^2 - 1 = (t - 1)(t + 1)
    (3, (0, 1, 0, 1), False),  # t^3 + t = t(t^2 + 1)
    (2, (1, 0, 1), False),     # t^2 + 1 = (t + 1)^2
    (3, (1, 0, 1), True),      # t^2 + 1
    (2, (1, 1, 0, 1), True),   # t^3 + t + 1
])
def test_ring_test_runs_without_tables(p, modulus, irreducible):
    # the candidate ring is tested with ring operations only: it has no
    # log tables, and a reducible one must be rejected, not raise
    ring = GF(p, len(modulus) - 1, modulus)
    assert _is_field(ring) is irreducible
    assert ring._log is None and ring._zech is None


def test_canonical_moduli():
    # lexicographically smallest monic irreducible, little-endian coeffs
    assert make_field(2, 2).modulus == (1, 1, 1)          # t^2+t+1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # t^3+t+1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)    # t^4+t+1
    assert make_field(2, 20).modulus[:5] == (1, 0, 0, 1, 0)  # t^20+t^3+1


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_moduli_are_the_first_irreducible_candidates(p):
    # make_field tests candidates by powers in their quotient rings;
    # polyring tests them independently, by a q-power matrix and gcds
    Fp = make_field(p, 1)
    for k in range(1, MAX_K + 1):
        modulus = make_field(p, k).modulus
        assert is_irreducible(Poly(Fp, modulus))
        index = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
        for c in range(index):
            candidate = [c // p ** i % p for i in range(k)] + [1]
            assert not is_irreducible(Poly(Fp, candidate)), (k, candidate)


def test_field_size_limits():
    with pytest.raises(FieldError):
        make_field(5, 1)
    with pytest.raises(FieldError):
        make_field(2, 21)
    make_field(2, 20)  # top of the supported range


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_is_field_automorphism(p, k):
    F = make_field(p, k)
    for a in F.elements():
        assert F.frobenius(a, k) == a  # x -> x^(p^k) is the identity
        for b in F.elements():
            fa, fb = F.frobenius(a, 1), F.frobenius(b, 1)
            assert F.frobenius(F.add(a, b), 1) == F.add(fa, fb)
            assert F.frobenius(F.mul(a, b), 1) == F.mul(fa, fb)


def test_trace_surjective_and_additive():
    F = make_field(2, 4)
    values = {F.trace(a) for a in F.elements()}
    assert values == {0, 1}
    assert sum(F.trace(a) == 0 for a in F.elements()) == 8


def test_quadratic_character():
    F = make_field(3, 2)
    squares = {F.mul(a, a) for a in F.elements() if a}
    for a in F.elements():
        chi = F.quadratic_character(a)
        if a == 0:
            assert chi == 0
        elif a in squares:
            assert chi == 1
        else:
            assert chi == -1
    assert len(squares) == 4


def test_embed_is_ring_homomorphism():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    for a in F4.elements():
        for b in F4.elements():
            ea, eb = embed(a, F4, F16), embed(b, F4, F16)
            assert embed(F4.add(a, b), F4, F16) == F16.add(ea, eb)
            assert embed(F4.mul(a, b), F4, F16) == F16.mul(ea, eb)


EMBEDDING_PAIRS = [(p, ks, kd) for p, top in ((2, 12), (3, 7))
                   for kd in range(1, top + 1) for ks in range(1, kd + 1) if kd % ks == 0]


@pytest.mark.parametrize("p,ks,kd", EMBEDDING_PAIRS)
def test_embedding_table_is_the_canonical_field_embedding(p, ks, kd):
    src, dst = make_field(p, ks), make_field(p, kd)
    table = embedding(src, dst)
    assert len(set(table)) == len(table) == src.order

    def modulus_at(x):
        acc = 0
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, x), c)
        return acc

    # the modulus root t = p goes to the smallest root in dst, by a scan
    smallest = next(x for x in dst.elements() if modulus_at(x) == 0)
    assert table[p if ks > 1 else 0] == smallest
    assert table[1] == 1
    # additive on a GF(p)-basis and multiplicative by t imply a ring map
    t = p if ks > 1 else 1
    for a in src.elements():
        for i in range(ks):
            assert table[src.add(a, p ** i)] == dst.add(table[a], table[p ** i])
        assert table[src.mul(a, t)] == dst.mul(table[a], table[t])
    assert all(embed(a, src, dst) == table[a] for a in src.elements())


def test_embed_requires_subfield():
    with pytest.raises(FieldError):
        embed(1, make_field(2, 3), make_field(2, 4))


def test_element_text_round_trip():
    F8 = make_field(2, 3)
    for a in F8.elements():
        s = element_str(F8, a, "b")
        assert parse_element(s, F8, "b") == a
    assert parse_element("b^3", F8, "b") == F8.pow(2, 3)
