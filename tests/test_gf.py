import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import ffcn
from ffcn.gf import (FIELD_MAX, SUPPORTED_P, FieldError, _primitive_powers, embed, embedding,
                     frobenius_table, make_field, orbit_representatives)
from ffcn.polyring import Poly, _prime_factors, is_irreducible

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


def _has_tables(F):
    """Every field make_field returns has exp/log tables (and Zech logs
    for p = 3) covering all of its elements."""
    return (len(F._log) == F.order and len(F._exp) > 2 * F.order - 2
            and (F._zech is None) == (F.p == 2))


@pytest.mark.parametrize("k", range(1, 18))
def test_binary_mul_and_inv_match_carry_less_products(k):
    # k <= 6 exhaustively; GF(2^17) is the largest field
    F = make_field(2, k)
    assert _has_tables(F)
    modulus = sum(c << i for i, c in enumerate(F.modulus))
    for a, b in _pairs(F.order, k <= 6, k):
        assert F.mul(a, b) == _clmul_mod(a, b, modulus), (a, b)
        if a:
            inverse = F.inv(a)
            assert inverse < F.order and _clmul_mod(a, inverse, modulus) == 1, a


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


@pytest.mark.parametrize("k", range(1, 11))
def test_ternary_mul_and_inv_match_digitwise_products(k):
    # k <= 4 exhaustively; GF(3^10) is the largest field
    F = make_field(3, k)
    assert _has_tables(F)
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


@pytest.mark.parametrize("k", range(1, 11))
def test_ternary_add_sub_neg_match_digitwise_arithmetic(k):
    # k <= 4 exhaustively; GF(3^10) is the largest field
    F = make_field(3, k)
    assert _has_tables(F)
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
    (2, (1, 0, 1, 0, 1), False),  # (t^2 + t + 1)^2, with no root in GF(2)
    (3, (1, 0, 2, 0, 1), False),  # (t^2 + 1)^2, with no root in GF(3)
])
def test_ring_test_runs_without_tables(p, modulus, irreducible):
    # a candidate is decided by walks in its quotient ring, before any
    # field or table exists; a reducible one is rejected, not raised on
    assert (_primitive_powers(p, modulus) is not None) is irreducible


def test_canonical_moduli():
    # the first candidate with a primitive t + c, little-endian coeffs
    assert make_field(2, 2).modulus == (1, 1, 1)          # t^2+t+1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # t^3+t+1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)    # t^4+t+1
    assert make_field(2, 17).modulus == (1, 0, 0, 1) + (0,) * 13 + (1,)  # t^17+t^3+1


# the fields whose first irreducible candidate has no primitive t + c:
# (p, k) -> (first irreducible candidate, modulus)
CHANGED_MODULI = {
    (2, 9): ((1, 1) + (0,) * 7 + (1,),  # t^9+t+1
             (1, 0, 0, 0, 1) + (0,) * 4 + (1,)),  # t^9+t^4+1
    (2, 14): ((1,) + (0,) * 4 + (1,) + (0,) * 8 + (1,),  # t^14+t^5+1
              (1, 1, 0, 1, 0, 1) + (0,) * 8 + (1,)),  # t^14+t^5+t^3+t+1
    (3, 8): ((2, 0, 1) + (0,) * 5 + (1,),  # t^8+t^2+2
             (2, 0, 2) + (0,) * 5 + (1,)),  # t^8+2t^2+2
    (3, 10): ((1, 0, 2) + (0,) * 7 + (1,),  # t^10+2t^2+1
              (2, 1, 0, 1) + (0,) * 6 + (1,)),  # t^10+t^3+t+2
}


def _reference_mul(p, modulus):
    """The product of Z_p[t]/(modulus) by the reference products above,
    which need no field tables."""
    if p == 2:
        mask = sum(c << i for i, c in enumerate(modulus))
        return lambda a, b: _clmul_mod(a, b, mask)
    return lambda a, b: _ternary_mul_mod(a, b, modulus)


def _has_order(mul, a, n):
    """a has order n under mul, by square-and-multiply: a^n = 1 and no
    a^(n/r) = 1 for a prime r dividing n."""
    def power(x, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, x)
            x, e = mul(x, x), e >> 1
        return out

    return power(a, n) == 1 and all(power(a, n // r) != 1 for r in _prime_factors(n))


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_moduli_are_the_first_candidates_with_a_primitive_t_plus_c(p):
    # make_field walks powers in the candidates' quotient rings; this
    # decides the rule by polyring's irreducibility test and the
    # reference products, not by the field's tables
    Fp = make_field(p, 1)
    for k in range(1, 18 if p == 2 else 11):
        F = make_field(p, k)
        modulus, n = F.modulus, F.order - 1
        assert is_irreducible(Poly(Fp, modulus))
        mul = _reference_mul(p, modulus)
        # exp[1] is the generator, the smallest element of order p^k - 1
        generator = F._exp[1]
        assert _has_order(mul, generator, n), k
        assert not any(_has_order(mul, x, n) for x in range(1, generator)), k
        if k == 1:
            assert (modulus, generator) == ((0, 1), p - 1)
            continue
        assert p <= generator < 2 * p, k  # t + c
        # no earlier candidate has a primitive t + c: those with a root
        # in GF(p) are reducible, so none of their elements is primitive
        index = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
        first_irreducible = None
        for i in range(index):
            candidate = tuple(i // p ** j % p for j in range(k)) + (1,)
            earlier = _reference_mul(p, candidate)
            assert not any(_has_order(earlier, p + c, n) for c in range(p)), (k, candidate)
            if first_irreducible is None and is_irreducible(Poly(Fp, candidate)):
                first_irreducible = candidate
        if (p, k) in CHANGED_MODULI:
            assert (first_irreducible, modulus) == CHANGED_MODULI[p, k]
        else:
            assert first_irreducible is None, k


def test_importing_gf_loads_no_other_ffcn_module():
    # the package re-exports nothing, so the field layer imports alone
    code = "import sys, ffcn.gf; print(sorted(m for m in sys.modules if m.split('.')[0] == 'ffcn'))"
    src = os.path.dirname(os.path.dirname(ffcn.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "['ffcn', 'ffcn.gf']\n"


def test_field_size_limits():
    with pytest.raises(FieldError):
        make_field(5, 1)
    with pytest.raises(FieldError, match="extension degree 0 is below 1"):
        make_field(2, 0)
    # the largest field of each characteristic, and the first one past it
    for p, k in ((2, 17), (3, 10)):
        assert make_field(p, k).order <= FIELD_MAX < p ** (k + 1)
        with pytest.raises(FieldError, match=rf"GF\({p}\^{k + 1}\) has more than "
                                             rf"FIELD_MAX = {FIELD_MAX} elements"):
            make_field(p, k + 1)
    # a huge degree is refused without computing p^k
    with pytest.raises(FieldError, match=r"GF\(3\^1000000000000\)"):
        make_field(3, 10 ** 12)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_is_field_automorphism(p, k):
    F = make_field(p, k)
    frob = frobenius_table(F, p)
    # x -> x^(p^k) is the identity
    assert frobenius_table(F, p ** k) == tuple(F.elements())
    for a in F.elements():
        assert frob[a] == F.pow(a, p)
        for b in F.elements():
            assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
            assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])


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


@pytest.mark.parametrize("call,message", [
    (lambda: make_field(2, 3).inv(0), "inversion of zero"),
    (lambda: make_field(3, 2).inv(0), "inversion of zero"),
    (lambda: make_field(2, 2).quadratic_character(3),
     "quadratic character undefined in characteristic 2"),
    (lambda: embedding(make_field(2, 1), make_field(3, 2)), "embedding across characteristics"),
], ids=["inv-zero-GF8", "inv-zero-GF9", "quadratic-character-GF4", "embed-GF2-in-GF9"])
def test_illegal_field_operations_raise_by_name(call, message):
    # without its check, inv(0) would read the zeros past exp and return 0,
    # and the character of GF(4) would call every element a square
    with pytest.raises(FieldError) as info:
        call()
    assert (type(info.value), str(info.value)) == (FieldError, message)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_negative_powers_are_powers_of_the_inverse(p, k):
    F = make_field(p, k)
    for a in range(1, F.order):
        power, inv = 1, F.inv(a)
        for n in range(1, F.order + 1):
            power = F.mul(power, inv)
            assert F.pow(a, -n) == power


@pytest.mark.parametrize("k", range(1, 7))
def test_ternary_trace_is_the_sum_of_the_conjugates(k):
    F = make_field(3, k)
    for a in F.elements():
        total, conjugate = 0, a
        for _ in range(k):
            total = F.add(total, conjugate)
            conjugate = F.mul(F.mul(conjugate, conjugate), conjugate)
        assert F.trace(a) == total < 3  # an element of GF(3)
    # the trace is onto GF(3), each value taken by 3^(k-1) elements
    assert sorted(F.trace(a) for a in F.elements()) == [t for t in range(3)
                                                        for _ in range(3 ** (k - 1))]


# ---------------------------------------------------------------------------
# Frobenius tables, orbit representatives and the table-driven kernels


def _naive_horner(F, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _euler_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def _burnside(q, m, r):
    """Orbits of x -> x^q on r-tuples over GF(q^m): the average number of
    tuples fixed by a power of the map, the fixed field GF(q^d) for d | m."""
    total = sum(_euler_phi(m // d) * q ** (d * r) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


def _tuple_representatives(F, q, r):
    """(least r-tuple, orbit size) per orbit, built as the curve point walk
    builds its prefixes: a least head, then a last coordinate least under
    the head's stabiliser."""
    if r == 0:
        return [((), 1)]
    return [(head + (y,), s * t) for head, s in _tuple_representatives(F, q, r - 1)
            for y, t in orbit_representatives(F, q ** s)]


ORBIT_FIELDS = ([(2, 1, m) for m in range(1, 7)] + [(2, 2, m) for m in (1, 2, 3)]
                + [(3, 1, m) for m in (1, 2, 3, 4)])


@pytest.mark.parametrize("p,k,m", ORBIT_FIELDS)
@pytest.mark.parametrize("r", [1, 2])
def test_orbit_representatives_match_burnside_and_brute_force(p, k, m, r):
    q, F = p ** k, make_field(p, k * m)
    reps = _tuple_representatives(F, q, r)
    assert len(reps) == _burnside(q, m, r)
    # every orbit, walked with pow rather than the table, holds exactly one
    # representative, and its size is the representative's orbit size
    least = {}
    for point in itertools.product(F.elements(), repeat=r):
        orbit = [point]
        while True:
            nxt = tuple(F.pow(c, q) for c in orbit[-1])
            if nxt == point:
                break
            orbit.append(nxt)
        least[min(orbit)] = len(orbit)
    assert dict(reps) == least
    assert [x for x, _ in reps] == sorted(x for x, _ in reps)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (2, 17), (3, 10)])
def test_frobenius_table_is_the_q_power_map(p, k):
    F = make_field(p, k)
    rng = random.Random(k)
    sample = F.elements() if F.order <= 729 else [rng.randrange(F.order) for _ in range(300)]
    for step in (1, 2, k):
        q = p ** step
        table = frobenius_table(F, q)
        assert len(table) == F.order
        assert all(table[a] == F.pow(a, q) for a in sample)


# p = 2 and 3, up to the largest fields, GF(2^17) and GF(3^10)
KERNEL_FIELDS = [(2, 1), (2, 4), (2, 10), (2, 16), (2, 17), (3, 1), (3, 3), (3, 7), (3, 10)]


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_horner_and_values_match_naive_evaluation(p, k):
    F = make_field(p, k)
    assert _has_tables(F)
    rng = random.Random(f"horner {p}^{k}")
    for _ in range(200):
        coeffs = [rng.randrange(F.order) if rng.random() < 0.8 else 0
                  for _ in range(rng.randrange(7))]
        xs = [rng.randrange(F.order) for _ in range(5)] + [0, 1]
        expected = [_naive_horner(F, coeffs, x) for x in xs]
        assert [F.horner(coeffs, x) for x in xs] == expected, coeffs
        assert F.values(coeffs, xs) == expected, coeffs
        assert F.values(coeffs, xs[:2]) == expected[:2], coeffs


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_evaluate_and_from_roots_match_naive_products(p, k):
    F = make_field(p, k)
    rng = random.Random(f"evaluate {p}^{k}")
    for _ in range(100):
        coords = [rng.choice((0, 1, rng.randrange(F.order))) for _ in range(4)]
        terms = [(rng.randrange(F.order), tuple(rng.randrange(4) for _ in range(rng.randrange(5))))
                 for _ in range(rng.randrange(6))]
        expected = 0
        for c, factors in terms:
            for v in factors:
                c = F.mul(c, coords[v])
            expected = F.add(expected, c)
        assert F.evaluate(terms, coords) == expected, (terms, coords)
        roots = [rng.randrange(F.order) for _ in range(rng.randrange(6))]
        prod = Poly.one(F)
        for r in roots:
            prod = prod * Poly(F, (F.neg(r), 1))
        assert tuple(F.from_roots(roots)) == prod.coeffs, roots


@pytest.mark.parametrize("k", range(1, 18))
def test_trace_mask_matches_the_sum_of_conjugates(k):
    # every element for k <= 10, a seeded sample above
    F = make_field(2, k)
    rng = random.Random(f"trace {k}")
    sample = F.elements() if k <= 10 else [rng.randrange(F.order) for _ in range(200)]
    for a in sample:
        s, x = 0, a
        for _ in range(k):
            s, x = F.add(s, x), F.mul(x, x)
        assert F.trace(a) == s, a
