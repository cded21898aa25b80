"""Finitely generated subgroups of Q^r under the lexicographic order.

A lattice is stored as a common denominator together with a Hermite normal
form basis of the cleared-denominator integer lattice.  That pair is a
canonical form, so equality, membership and quotient invariants are exact.
Coordinate 1 is the most significant lex position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import InfiniteIndexError, NotASubgroupError, RankMismatchError

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
    for i in range(len(basis) - 1, -1, -1):
        p = next(c for c, x in enumerate(basis[i]) if x)
        for j in range(i):
            q = basis[j][p] // basis[i][p]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form: nonnegative, divisibility chain."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        piv = next(
            ((i, j) for i in range(top, m) for j in range(top, n) if a[i][j]), None
        )
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        if j0 != top:
            for r in a:
                r[top], r[j0] = r[j0], r[top]
        while True:
            for i in range(top + 1, m):
                if a[i][top]:
                    d, b = a[top][top], a[i][top]
                    if b % d == 0:
                        q = b // d
                        a[i] = [y - q * x for x, y in zip(a[top], a[i])]
                    else:
                        g, u, v = xgcd(d, b)
                        pa, pb = d // g, b // g
                        rt, ri = a[top], a[i]
                        a[top] = [u * x + v * y for x, y in zip(rt, ri)]
                        a[i] = [-pb * x + pa * y for x, y in zip(rt, ri)]
            if any(a[top][j] for j in range(top + 1, n)):
                for j in range(top + 1, n):
                    if a[top][j]:
                        d, b = a[top][top], a[top][j]
                        if b % d == 0:
                            q = b // d
                            for r in a:
                                r[j] -= q * r[top]
                        else:
                            g, u, v = xgcd(d, b)
                            pa, pb = d // g, b // g
                            for r in a:
                                x, y = r[top], r[j]
                                r[top] = u * x + v * y
                                r[j] = -pb * x + pa * y
                continue
            if any(a[i][top] for i in range(top + 1, m)):
                continue
            d = a[top][top]
            bad = next(
                (
                    i
                    for i in range(top + 1, m)
                    if any(a[i][j] % d for j in range(top + 1, n))
                ),
                None,
            )
            if bad is None:
                break
            a[top] = [x + y for x, y in zip(a[top], a[bad])]
        diag.append(abs(a[top][top]))
        top += 1
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
        content = 0
        for row in basis:
            for x in row:
                content = gcd(content, x)
        shrink = gcd(denom, content)
        if shrink > 1:
            denom //= shrink
            basis = [[x // shrink for x in row] for row in basis]
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
        """dim over F_q of L/qL, via the Smith form of the presentation."""
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        k = self.rational_rank
        if k == 0:
            return 0
        relations = [[q if i == j else 0 for j in range(k)] for i in range(k)]
        diag = smith_normal_form(relations)
        return sum(1 for d in diag if d % q == 0)

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
    k = big.rational_rank
    if k == 0:
        return QuotientStructure(())
    diag = smith_normal_form(coord_rows)
    if len(diag) < k or any(d == 0 for d in diag):
        raise InfiniteIndexError("change-of-basis matrix is singular")
    return QuotientStructure(tuple(d for d in diag if d != 1))

