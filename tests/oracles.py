"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is deliberately naive: enumeration, exhaustive search and
direct definitions, with no shared code paths with the library kernels.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod


def row_reduce_rank(rows):
    """Rank of a matrix over Q by plain fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _hnf_upper(rows):
    """Upper-triangular HNF of a nonsingular square integer matrix (naive)."""
    k = len(rows)
    mat = [list(r) for r in rows]
    for col in range(k):
        for i in range(col + 1, k):
            while mat[i][col]:
                if abs(mat[col][col]) > abs(mat[i][col]) or mat[col][col] == 0:
                    mat[col], mat[i] = mat[i], mat[col]
                if mat[i][col] and mat[col][col]:
                    q = mat[i][col] // mat[col][col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[col])]
        if mat[col][col] < 0:
            mat[col] = [-x for x in mat[col]]
    return mat


def abelian_invariant_factors(relation_rows):
    """Invariant factors of Z^k / <rows> by enumerating the quotient group.

    Enumerates the finite quotient, collects the order statistics
    #{x : m*x = 0} for every divisor m of the group order, and matches them
    against every candidate divisibility chain.  Only usable for quotients
    of small order; completely independent of any Smith reduction.
    """
    k = len(relation_rows[0])
    hnf = _hnf_upper(relation_rows)
    order = prod(hnf[i][i] for i in range(k))
    assert order != 0, "relations must have finite quotient"

    def reduce_vec(v):
        v = list(v)
        for j in range(k):
            q = v[j] // hnf[j][j]
            v = [x - q * y for x, y in zip(v, hnf[j])]
        return tuple(v)

    elements = set()
    for combo in product(*(range(hnf[i][i]) for i in range(k))):
        elements.add(reduce_vec(combo))
    assert len(elements) == order

    def add(u, v):
        return reduce_vec([x + y for x, y in zip(u, v)])

    zero = reduce_vec([0] * k)
    counts = {}
    for m in divisors(order):
        counts[m] = sum(
            1 for e in elements if reduce_vec([m * x for x in e]) == zero
        )

    for chain in divisibility_chains(order):
        ok = all(
            prod(gcd(d, m) for d in chain) == counts[m] for m in counts
        )
        if ok:
            return tuple(d for d in chain if d > 1)
    raise AssertionError("no abelian group matches the order statistics")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def divisibility_chains(n, prev=1):
    """All chains d1 | d2 | ... | dk with product n, each di >= 2, di | di+1."""
    if n == 1:
        return [()]
    chains = []
    for d in divisors(n):
        if d >= 2 and d % prev == 0:
            for rest in divisibility_chains(n // d, d):
                chains.append((d,) + rest)
    return chains


def minimal_generating_set_size(factors):
    """Brute-force minimal generator count of ⊕ Z/d for small groups."""
    if not factors:
        return 0
    group = list(product(*(range(d) for d in factors)))
    order = len(group)

    def close(gens):
        seen = {tuple(0 for _ in factors)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    s = tuple((x + y) % d for x, y, d in zip(e, g, factors))
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return len(seen)

    for size in range(0, len(factors) + 1):
        from itertools import combinations

        for gens in combinations(group, size):
            if close(gens) == order:
                return size
    return len(factors)


def brute_force_squares(p):
    """The set of squares in F_p by direct squaring."""
    return {(x * x) % p for x in range(p)}


def left_regular_det(e):
    """Determinant of the n^2 x n^2 left-multiplication matrix over the tower.

    Built from the public algebra product only and reduced by Gaussian
    elimination over the tower field; fully independent of the splitting
    representation route used by nrd().
    """
    alg = e.algebra
    n = alg.degree
    basis = [(k, l) for k in range(n) for l in range(n)]
    cols = []
    for kl in basis:
        prod = e * alg.monomial(*kl)
        cols.append([prod.coeffs.get(b, alg.tower.zero()) for b in basis])
    mat = [[cols[c][r] for c in range(len(basis))] for r in range(len(basis))]
    det = alg.tower.one()
    size = len(basis)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if not mat[r][col].indistinguishable_from_zero():
                piv = r
                break
        if piv is None:
            return alg.tower.zero()
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inv()
        for r in range(col + 1, size):
            if mat[r][col].is_zero():
                continue
            f = mat[r][col] * inv
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def matrix_det(rows):
    """Determinant of a square matrix over a field by Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    field = rows[0][0].field
    mat = [list(r) for r in rows]
    det = field.one()
    for col in range(n):
        piv = next((i for i in range(col, n) if not mat[i][col].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inv()
        for i in range(col + 1, n):
            f = mat[i][col] * inv
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return det


def matrix_charpoly(rows):
    """Coefficients (low to high, monic) of det(X*I - A) by cofactor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    zero, one = rows[0][0].field.zero(), rows[0][0].field.one()

    def entry(i, j):
        return [-rows[i][j], one] if i == j else [-rows[i][j]]

    def add(p, q):
        width = max(len(p), len(q))
        p, q = p + [zero] * (width - len(p)), q + [zero] * (width - len(q))
        return [x + y for x, y in zip(p, q)]

    def mul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = out[i + j] + x * y
        return out

    def minor(rs, cs):
        if len(rs) == 1:
            return entry(rs[0], cs[0])
        total = [zero]
        for idx, c in enumerate(cs):
            term = mul(entry(rs[0], c), minor(rs[1:], cs[:idx] + cs[idx + 1 :]))
            total = add(total, term if idx % 2 == 0 else [-x for x in term])
        return total

    poly = minor(tuple(range(n)), tuple(range(n)))
    return (poly + [zero] * (n + 1 - len(poly)))[: n + 1]
