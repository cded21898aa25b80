"""Finitely generated subgroups of Q^r under the lexicographic order.

A lattice is stored as a common denominator together with a Hermite normal
form basis of the cleared-denominator integer lattice.  That pair is a
canonical form, so equality, membership and quotient invariants are exact.
Coordinate 1 is the most significant lex position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import InfiniteIndexError, NotASubgroupError, RankMismatchError, UsageError

Vector = tuple[Fraction, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Strong probable-prime tests to the first 13 prime bases decide primality
# below _MR_LIMIT (J. Sorenson and J. Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# _prime_factors divides out the primes below this before Pollard-Brent rho.
_TRIAL_LIMIT = 1024


def is_prime(n: int) -> bool:
    """Exact primality by strong probable-prime tests to _MR_BASES, which
    decide below _MR_LIMIT; a probable prime above it is a UsageError."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise UsageError(f"cannot decide whether {n} is prime: it is at least {_MR_LIMIT}")
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n by Brent's variant of Pollard's
    rho (R. P. Brent, BIT 20 (1980)), with x -> x^2 + c for c = 1, 2, ...
    until one splits n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending: trial division below
    _TRIAL_LIMIT, then Pollard-Brent rho on the cofactor."""
    factors, d = [], 2
    while d * d <= n and d < _TRIAL_LIMIT:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if d * d > n:
        return factors + [n] if n > 1 else factors
    large, stack = set(), [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            large.add(m)
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return factors + sorted(large)


def lex_compare(v: Sequence, w: Sequence) -> int:
    """Total order on Q^r: -1 / 0 / +1, coordinate 1 most significant."""
    if len(v) != len(w):
        raise RankMismatchError(f"rank mismatch: {len(v)} vs {len(w)}")
    for x, y in zip(v, w):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def hermite_normal_form(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Row-style HNF basis (positive pivots, entries above a pivot reduced)."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        carriers = [r for r in work if r[col] != 0]
        others = [r for r in work if r[col] == 0]
        if not carriers:
            work = others
            continue
        pivot = carriers[0]
        for r in carriers[1:]:
            a, b = pivot[col], r[col]
            g, u, v = xgcd(a, b)
            pa, pb = a // g, b // g
            new_pivot = [u * x + v * y for x, y in zip(pivot, r)]
            cleared = [-pb * x + pa * y for x, y in zip(pivot, r)]
            pivot = new_pivot
            if any(cleared):
                others.append(cleared)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = others
    # left pivots first: row i, zero left of its pivot, keeps earlier reductions
    for i in range(len(basis)):
        p = next(c for c, x in enumerate(basis[i]) if x)
        for j in range(i):
            q = basis[j][p] // basis[i][p]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form: positive entries in a divisibility
    chain, as many as the rank.

    Row Hermite forms of the matrix and of its transpose alternate until no
    row holds two nonzero entries (the leading pivot never grows, and shrinks
    until it divides its row and column); gcd/lcm exchanges then order the
    surviving pivots.
    """
    a = hermite_normal_form(rows, len(rows[0]) if rows else 0)
    while any(sum(map(bool, r)) > 1 for r in a):
        a = hermite_normal_form(zip(*a), len(a))
    diag = [max(r) for r in a]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


@dataclass(frozen=True)
class QuotientStructure:
    """Finite abelian quotient via invariant factors d1 | d2 | ... (each >= 2)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def torsion_rank(self) -> int:
        """Minimal number of generators of the quotient group."""
        return len(self.invariant_factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


@dataclass(frozen=True)
class Lattice:
    """Canonical form of a finitely generated subgroup of Q^ambient_rank."""

    ambient_rank: int
    denominator: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_generators(ambient_rank: int, generators: Iterable[Sequence]) -> "Lattice":
        gens = []
        for g in generators:
            vec = tuple(Fraction(x) for x in g)
            if len(vec) != ambient_rank:
                raise RankMismatchError(
                    f"generator has length {len(vec)}, ambient rank is {ambient_rank}"
                )
            gens.append(vec)
        denom = 1
        for g in gens:
            for x in g:
                denom = lcm(denom, x.denominator)
        int_rows = [[int(x * denom) for x in g] for g in gens]
        basis = hermite_normal_form(int_rows, ambient_rank)
        return Lattice(ambient_rank, denom, tuple(tuple(r) for r in basis))

    @staticmethod
    def trivial(ambient_rank: int) -> "Lattice":
        return Lattice(ambient_rank, 1, ())

    @staticmethod
    def standard(ambient_rank: int) -> "Lattice":
        """Z^r with the standard basis."""
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(ambient_rank))
            for i in range(ambient_rank)
        )
        return Lattice(ambient_rank, 1, rows)

    @staticmethod
    def scaled(ambient_rank: int, scale: Fraction) -> "Lattice":
        """scale * Z^r."""
        return Lattice.from_generators(
            ambient_rank,
            [
                [scale if i == j else Fraction(0) for j in range(ambient_rank)]
                for i in range(ambient_rank)
            ],
        )

    def fraction_rows(self) -> tuple[Vector, ...]:
        return tuple(
            tuple(Fraction(x, self.denominator) for x in row) for row in self.rows
        )

    @property
    def rational_rank(self) -> int:
        """dim_Q of the span; the Z-rank of the canonical basis."""
        return len(self.rows)

    def coordinates(self, vector: Sequence) -> tuple[int, ...] | None:
        """Integer coordinates of `vector` in the canonical basis, or None."""
        vec = tuple(Fraction(x) for x in vector)
        if len(vec) != self.ambient_rank:
            raise RankMismatchError("vector rank differs from ambient rank")
        scaled = [x * self.denominator for x in vec]
        if any(x.denominator != 1 for x in scaled):
            return None
        t = [int(x) for x in scaled]
        coords = []
        for row in self.rows:
            p = next(c for c, x in enumerate(row) if x)
            q, r = divmod(t[p], row[p])
            if r:
                return None
            coords.append(q)
            t = [x - q * y for x, y in zip(t, row)]
        if any(t):
            return None
        return tuple(coords)

    def __contains__(self, vector) -> bool:
        return self.coordinates(vector) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.ambient_rank != self.ambient_rank:
            raise RankMismatchError("ambient ranks differ")
        return all(row in self for row in other.fraction_rows())

    def q_rank(self, q: int) -> int:
        """dim over F_q of L/qL: L is free of rank k = rational_rank, so
        L/qL ≅ (Z/q)^k."""
        if not is_prime(q):
            raise UsageError(f"{q} is not prime")
        return self.rational_rank

    def __add__(self, other: "Lattice") -> "Lattice":
        if other.ambient_rank != self.ambient_rank:
            raise RankMismatchError("ambient ranks differ")
        return Lattice.from_generators(
            self.ambient_rank, self.fraction_rows() + other.fraction_rows()
        )

    def convex_chain(self) -> list["Lattice"]:
        """The chain L ∩ ({0}^i x Q^(r-i)), i = 0..r, deduplicated.

        For subgroups of lex-ordered Q^r these intersections are exactly the
        convex subgroups, so rank = len(chain) - 1.
        """
        chain = []
        for i in range(self.ambient_rank + 1):
            surviving = [
                row
                for row in self.fraction_rows()
                if all(x == 0 for x in row[:i])
            ]
            sub = Lattice.from_generators(self.ambient_rank, surviving)
            if not chain or chain[-1] != sub:
                chain.append(sub)
        return chain

    @property
    def rank(self) -> int:
        """Number of proper convex subgroups under the lex order."""
        return len(self.convex_chain()) - 1

    def to_json(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "denominator": self.denominator,
            "integer_rows": [list(r) for r in self.rows],
        }

    @staticmethod
    def from_json(data: dict) -> "Lattice":
        rank = data["ambient_rank"]
        denom = data["denominator"]
        gens = [
            [Fraction(x, denom) for x in row] for row in data["integer_rows"]
        ]
        return Lattice.from_generators(rank, gens)

    def __str__(self):
        rows = ", ".join(
            "(" + ", ".join(str(Fraction(x, self.denominator)) for x in r) + ")"
            for r in self.rows
        )
        return f"Lattice(rank {self.ambient_rank}; basis {rows or '0'})"


def quotient(big: Lattice, small: Lattice) -> QuotientStructure:
    """Invariant factors of big/small (requires small ⊆ big of finite index)."""
    if big.ambient_rank != small.ambient_rank:
        raise RankMismatchError("ambient ranks differ")
    coord_rows = []
    for row in small.fraction_rows():
        coords = big.coordinates(row)
        if coords is None:
            raise NotASubgroupError(f"generator {row} lies outside the big lattice")
        coord_rows.append(list(coords))
    if small.rational_rank != big.rational_rank:
        raise InfiniteIndexError(
            f"rational rank drops from {big.rational_rank} to {small.rational_rank}"
        )
    diag = smith_normal_form(coord_rows)
    if len(diag) < big.rational_rank:
        raise InfiniteIndexError("change-of-basis matrix is singular")
    return QuotientStructure(tuple(d for d in diag if d != 1))

