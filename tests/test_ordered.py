import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdiv.errors import InfiniteIndexError, NotASubgroupError, RankMismatchError, ValdivError
from valdiv.ordered import (
    _MR_LIMIT,
    Lattice,
    QuotientStructure,
    _prime_factors,
    is_prime,
    lex_compare,
    quotient,
    smith_normal_form,
)

from oracles import (
    abelian_invariant_factors,
    determinantal_invariants,
    minimal_generating_set_size,
    row_reduce_rank,
    trial_division_factors,
)

F = Fraction


def test_lex_compare_examples():
    assert lex_compare((F(1), F(0)), (F(0), F(5))) == 1
    assert lex_compare((F(0), F(0)), (F(0), F(0))) == 0
    assert lex_compare((F(1, 2), F(-3)), (F(1, 2), F(-2))) == -1


def test_lex_compare_rank_mismatch():
    with pytest.raises(RankMismatchError):
        lex_compare((F(1),), (F(1), F(2)))


@settings(max_examples=200)
@given(
    st.lists(st.fractions(), min_size=3, max_size=3),
    st.lists(st.fractions(), min_size=3, max_size=3),
    st.lists(st.fractions(), min_size=3, max_size=3),
)
def test_lex_total_order_compatible_with_addition(v, w, u):
    v, w, u = tuple(v), tuple(w), tuple(u)
    c = lex_compare(v, w)
    assert c == -lex_compare(w, v)
    shifted = lex_compare(
        tuple(a + b for a, b in zip(v, u)), tuple(a + b for a, b in zip(w, u))
    )
    assert shifted == c


def test_rational_rank_examples():
    assert Lattice.standard(2).rational_rank == 2
    dependent = Lattice.from_generators(2, [[1, 2], [2, 4]])
    assert dependent.rational_rank == 1
    gens = [[F(1, 2), 0], [0, F(1, 3)], [F(1, 6), F(1, 6)]]
    lat = Lattice.from_generators(2, gens)
    # oracle: echelon reduction over Q
    assert lat.rational_rank == row_reduce_rank(gens) == 2


def test_canonicalization_is_idempotent_and_equality_works():
    a = Lattice.from_generators(2, [[F(1, 2), 0], [0, 1]])
    b = Lattice.from_generators(2, [[F(1, 2), 1], [F(1, 2), 0], [F(3, 2), 2]])
    assert a == b
    again = Lattice.from_generators(2, a.fraction_rows())
    assert again == a


def test_canonical_form_is_in_lowest_terms_and_a_fixed_point():
    """Each prime of the denominator leaves some entry prime to it, so the
    canonical form needs no division by a common content; and the Hermite
    form of the canonical rows is those rows, with every entry above a pivot
    reduced, so equal lattices compare equal."""
    rng = random.Random(237)
    for _ in range(500):
        r = rng.randint(1, 4)
        gens = [
            [F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(r)]
            for _ in range(rng.randint(1, r + 2))
        ]
        lat = Lattice.from_generators(r, gens)
        assert gcd(lat.denominator, *(x for row in lat.rows for x in row)) == 1
        assert Lattice.from_generators(r, lat.fraction_rows()) == lat


def test_membership_is_exact():
    lat = Lattice.from_generators(2, [[F(1, 2), 0], [0, 1]])
    assert (F(3, 2), F(4)) in lat
    assert (F(1, 3), F(0)) not in lat
    assert (F(1, 2), F(1, 2)) not in lat


def test_q_rank_examples():
    assert Lattice.standard(2).q_rank(3) == 2
    assert Lattice.trivial(2).q_rank(5) == 0
    assert Lattice.from_generators(2, [[2, 0], [0, 2]]).q_rank(2) == 2
    with pytest.raises(ValueError):
        Lattice.standard(1).q_rank(4)


def test_q_rank_equals_rational_rank_for_fg_lattices():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randint(1, 4)
        gens = [
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r)]
            for _ in range(rng.randint(1, r + 1))
        ]
        lat = Lattice.from_generators(r, gens)
        for q in (2, 3, 5):
            assert lat.q_rank(q) == lat.rational_rank


def test_quotient_examples():
    for n in (2, 3, 4):
        q = quotient(Lattice.scaled(2, F(1, n)), Lattice.standard(2))
        assert q.invariant_factors == (n, n)
        assert q.order == n * n
    same = quotient(Lattice.standard(2), Lattice.standard(2))
    assert same.invariant_factors == () and same.order == 1
    q4 = quotient(Lattice.scaled(1, F(1, 4)), Lattice.standard(1))
    assert q4.invariant_factors == (4,) and q4.order == 4


def test_quotient_rejects_bad_inputs():
    with pytest.raises(NotASubgroupError):
        quotient(Lattice.standard(2), Lattice.scaled(2, F(1, 2)))
    with pytest.raises(InfiniteIndexError):
        quotient(Lattice.standard(2), Lattice.from_generators(2, [[1, 0]]))


def test_torsion_rank_and_cyclicity():
    assert QuotientStructure((4,)).torsion_rank == 1
    assert QuotientStructure((4,)).is_cyclic
    assert not QuotientStructure((2, 2)).is_cyclic
    assert QuotientStructure(()).torsion_rank == 0
    q = QuotientStructure((2, 6))
    assert q.torsion_rank == 2
    # oracle: brute-force minimal generating set search on Z/2 x Z/6
    assert minimal_generating_set_size((2, 6)) == 2
    assert quotient(Lattice.scaled(1, F(1, 4)), Lattice.standard(1)).is_cyclic


def test_quotient_structure_validation():
    with pytest.raises(ValueError):
        QuotientStructure((1, 2))
    with pytest.raises(ValueError) as info:
        QuotientStructure((4, 2))
    assert isinstance(info.value, ValdivError)


def test_convex_chain_examples():
    std = Lattice.standard(2)
    chain = std.convex_chain()
    assert len(chain) == 3
    assert chain[0] == std
    assert chain[1] == Lattice.from_generators(2, [[0, 1]])
    assert chain[2] == Lattice.trivial(2)
    assert std.rank == 2
    assert Lattice.trivial(3).rank == 0
    diag = Lattice.from_generators(2, [[1, 1]])
    assert diag.rank == 1


def test_convex_chain_members_are_convex():
    # every chain member D: 0 <= g <= d with d in D and g in L implies g in D
    lat = Lattice.from_generators(2, [[F(1, 2), 0], [0, F(1, 3)]])
    chain = lat.convex_chain()
    rng = random.Random(3)
    zero = (F(0), F(0))
    for sub in chain[1:-1]:
        for _ in range(50):
            d = tuple(
                sum((c * x for c, x in zip([rng.randint(0, 3) for _ in sub.rows], col)), F(0))
                for col in zip(*(sub.fraction_rows() or [zero]))
            ) if sub.rows else zero
            if lex_compare(d, zero) < 0:
                d = tuple(-x for x in d)
            g = tuple(
                sum((c * x for c, x in zip([rng.randint(-2, 2) for _ in lat.rows], col)), F(0))
                for col in zip(*lat.fraction_rows())
            )
            if lex_compare(g, zero) >= 0 and lex_compare(g, d) <= 0:
                assert g in sub


def test_sum_examples():
    s = Lattice.standard(2) + Lattice.from_generators(2, [[F(1, 2), 0]])
    assert s == Lattice.from_generators(2, [[F(1, 2), 0], [0, 1]])
    lat = Lattice.from_generators(2, [[F(1, 5), F(2, 5)]])
    assert lat + Lattice.trivial(2) == lat
    halves = Lattice.scaled(1, F(1, 2)) + Lattice.scaled(1, F(1, 3))
    assert halves == Lattice.scaled(1, F(1, 6))
    with pytest.raises(RankMismatchError):
        Lattice.standard(1) + Lattice.standard(2)


def _random_finite_index_pair(rng, max_rank=4):
    r = rng.randint(1, max_rank)
    k = rng.randint(1, r)
    while True:
        gens = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            for _ in range(k)
        ]
        big = Lattice.from_generators(r, gens)
        if big.rational_rank == k:
            break
    while True:
        mult = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        small_gens = [
            tuple(
                sum((m * row[c] for m, row in zip(mrow, big.fraction_rows())), F(0))
                for c in range(r)
            )
            for mrow in mult
        ]
        small = Lattice.from_generators(r, small_gens)
        if small.rational_rank == k:
            return big, small


def test_torsion_rank_bounded_by_rational_rank_randomized():
    rng = random.Random(11)
    for _ in range(300):
        big, small = _random_finite_index_pair(rng)
        q = quotient(big, small)
        assert small.rational_rank == big.rational_rank
        assert q.torsion_rank <= small.rational_rank


def test_rank_zero_and_one_forcing():
    # rank 0 small of finite index forces equality; rank 1 forces cyclicity
    assert quotient(Lattice.trivial(2), Lattice.trivial(2)).order == 1
    rng = random.Random(13)
    for _ in range(200):
        big, small = _random_finite_index_pair(rng, max_rank=1)
        assert quotient(big, small).is_cyclic


def test_quotient_order_multiplicative_in_chains():
    rng = random.Random(17)
    for _ in range(120):
        c, b = _random_finite_index_pair(rng)
        _, a = _random_finite_index_pair(rng)
        # rebuild a as a sublattice of b
        k = b.rational_rank
        mult = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        rows = [
            tuple(
                sum((m * row[cc] for m, row in zip(mrow, b.fraction_rows())), F(0))
                for cc in range(b.ambient_rank)
            )
            for mrow in mult
        ]
        a = Lattice.from_generators(b.ambient_rank, rows)
        if a.rational_rank != k:
            continue
        assert (
            quotient(c, a).order
            == quotient(c, b).order * quotient(b, a).order
        )


def test_rank_bounded_by_rational_rank():
    rng = random.Random(31)
    for _ in range(100):
        r = rng.randint(1, 4)
        gens = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            for _ in range(rng.randint(1, r + 1))
        ]
        lat = Lattice.from_generators(r, gens)
        assert lat.rank <= lat.rational_rank <= lat.ambient_rank
    mixed = Lattice.from_generators(2, [[F(1, 2), F(1, 3)], [0, 5]])
    assert mixed.rank == 2


def test_rank_inequality_on_fg_lex_lattices():
    # rk(big) <= rk(small) + rr(big/small); finite index makes rr(quotient) 0
    rng = random.Random(19)
    for _ in range(100):
        big, small = _random_finite_index_pair(rng)
        assert big.rank <= small.rank


def test_snf_matches_brute_force_group_enumeration():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        k = rng.randint(1, 3)
        mat = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        diag = smith_normal_form(mat)
        if len(diag) < k or any(d == 0 for d in diag):
            continue
        order = 1
        for d in diag:
            order *= d
        if not 1 <= order <= 64:
            continue
        expected = abelian_invariant_factors(mat)
        assert tuple(d for d in diag if d > 1) == expected
        checked += 1


def test_snf_fixed_cases():
    for mat, expected in (
        ([[4, 0], [0, 6]], [2, 12]),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[0, 0], [0, 0]], []),
        ([], []),
        ([[], []], []),
    ):
        assert smith_normal_form(mat) == expected
        assert determinantal_invariants(mat) == expected


def test_snf_matches_determinantal_divisors():
    rng = random.Random(31)
    seen = {"zero": 0, "singular": 0, "non_square": 0, "empty": 0}
    for _ in range(2000):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        kind = rng.random()
        if kind < 0.1:
            mat = [[0] * n for _ in range(m)]
        elif kind < 0.35 and m >= 2:
            # the last row is an integer combination of the others
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m - 1)]
            c = [rng.randint(-2, 2) for _ in mat]
            mat.append([sum(ci * r[j] for ci, r in zip(c, mat)) for j in range(n)])
        else:
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        expected = determinantal_invariants(mat)
        assert smith_normal_form(mat) == expected, mat
        seen["zero"] += not any(map(any, mat))
        seen["singular"] += m == n and len(expected) < m
        seen["non_square"] += m != n
        seen["empty"] += m * n == 0
    assert min(seen.values()) >= 50, seen


def test_json_round_trip():
    lat = Lattice.from_generators(3, [[F(1, 2), 0, 1], [0, F(1, 3), 0]])
    assert Lattice.from_json(lat.to_json()) == lat


def test_primality_and_factors_match_trial_division_below_1e5():
    for n in range(1, 10**5):
        factors = trial_division_factors(n)
        assert _prime_factors(n) == factors
        assert is_prime(n) == (factors == [n])
    assert not is_prime(0) and not is_prime(-7)


def test_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert _prime_factors(3215031751) == [151, 751, 28351]
    assert _prime_factors(3825123056546413051) == [149491, 747451, 34233211]
    for p in (10**14 + 31, 2**61 - 1, 4294967311, 2**64 + 13):
        assert is_prime(p) and _prime_factors(p) == [p]
    # above the Miller-Rabin bound a witness still proves compositeness
    assert not is_prime(43**16) and 43**16 >= _MR_LIMIT
    assert not is_prime((2**61 - 1) * (10**14 + 31) * 4294967311)


def test_pollard_rho_splits_large_cofactors():
    """Cofactors past the trial-division primes, as products of two primes,
    prime powers and with repeated factors, against trial division."""
    rng = random.Random("rho")
    primes = [p for p in range(1031, 20000) if trial_division_factors(p) == [p]]
    for _ in range(40):
        n = rng.choice([2, 3, 1, 12]) * rng.choice(primes) ** rng.randint(1, 2)
        n *= rng.choice(primes)
        assert _prime_factors(n) == trial_division_factors(n)
    assert _prime_factors(2**64 + 1) == [274177, 67280421310721]
    assert _prime_factors(1000003**2 * (10**14 + 31) * 1031) == [1031, 1000003, 10**14 + 31]
