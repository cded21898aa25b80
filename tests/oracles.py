"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is deliberately naive: enumeration, exhaustive search and
direct definitions, with no shared code paths with the library kernels.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
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


def _integer_det(rows):
    """Determinant of a square integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _integer_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def determinantal_invariants(rows):
    """Smith diagonal by determinantal divisors: d_k is the gcd of all k x k
    minors and s_k = d_k / d_(k-1), for every k up to the rank."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out, previous = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = gcd(d, _integer_det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // previous)
        previous = d
    return out


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


def is_irreducible_mod_p(coeffs, p):
    """Irreducibility of a monic integer polynomial (low to high) over F_p.

    Trial division by every monic polynomial of degree 1 .. deg/2, with plain
    integer arithmetic mod p.
    """
    f = [c % p for c in coeffs]
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            rem = list(f)
            for shift in range(n - d, -1, -1):
                factor = rem[shift + d]
                for i, c in enumerate(g):
                    rem[shift + i] = (rem[shift + i] - factor * c) % p
            if not any(rem):
                return False
    return True


def trial_division_factors(n):
    """The distinct prime factors of n >= 1, ascending, dividing by every
    d = 2, 3, 4, ... while d * d <= n."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def series_plain(value):
    """A field element as it is; a series as (coeffs, bound), nested."""
    if not hasattr(value, "coeffs"):
        return value
    return ({e: series_plain(c) for e, c in value.coeffs.items()}, value.bound)


def series_invariant_breaches(value, path=()):
    """Where a series breaks the invariant its constructor trusts, at every
    level: a zero field coefficient, an exponent at or above the bound, an
    exact-zero child, or a class other than LaurentSeries (TwistedSeries
    when the ring has an automorphism).  Empty for a clean series and for a
    field element; path is the exponents above value."""
    if not hasattr(value, "coeffs"):
        return []
    want = "LaurentSeries" if value.ring.sigma is None else "TwistedSeries"
    breaches = [] if type(value).__name__ == want else [(path, type(value).__name__)]
    for e, c in value.coeffs.items():
        here = path + (e,)
        if value.bound is not None and e >= value.bound:
            breaches.append((here, f"at or above O({value.bound})"))
        if not hasattr(c, "coeffs"):
            if c.is_zero():
                breaches.append((here, "zero coefficient"))
        elif not c.coeffs and c.bound is None:
            breaches.append((here, "exact-zero child"))
        else:
            breaches += series_invariant_breaches(c, here)
    return breaches


def naive_series_product(a, b):
    """a*b for two series of one ring, in the nested form of series_plain.

    Every pair of terms is multiplied, children by recursion, and summed
    term by term, with no ordering and no early stop.  A truncated factor
    bounds the product at its bound plus the other factor's least exponent
    (its bound when it has no terms); a twisted ring applies sigma^e1 to the
    right-hand coefficient.  An exact zero factor gives an exact zero.
    """
    if not hasattr(a, "coeffs"):
        return a * b
    if (not a.coeffs and a.bound is None) or (not b.coeffs and b.bound is None):
        return ({}, None)
    bounds = []
    for x, y in ((a, b), (b, a)):
        if x.bound is not None:
            bounds.append(x.bound + (min(y.coeffs) if y.coeffs else y.bound))
    bound = min(bounds) if bounds else None
    sigma = a.ring.sigma
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if bound is not None and e >= bound:
                continue
            prod = naive_series_product(c1, c2 if sigma is None else sigma.power(e1)(c2))
            out[e] = _naive_sum(out[e], prod) if e in out else prod
    return _naive_clean(out, bound)


def _naive_sum(x, y):
    if not isinstance(x, tuple):
        return x + y
    bounds = [b for b in (x[1], y[1]) if b is not None]
    out = dict(x[0])
    for e, c in y[0].items():
        out[e] = _naive_sum(out[e], c) if e in out else c
    return _naive_clean(out, min(bounds) if bounds else None)


def _naive_clean(coeffs, bound):
    """Drop terms at or above the bound, field zeros and exact-zero children."""
    keep = {}
    for e, c in coeffs.items():
        exact_zero = c == ({}, None) if isinstance(c, tuple) else c.is_zero()
        if (bound is None or e < bound) and not exact_zero:
            keep[e] = c
    return (keep, bound)


def smallest_element_of_order(field, n):
    """The least element of exact multiplicative order n, by sort_key.

    Walks the elements in sorted order and the powers x, x^2, ... of each one
    by repeated multiplication, giving up on x past x^n.
    """
    one = field.one()
    for x in sorted(field.elements(), key=lambda e: e.sort_key()):
        if x.is_zero():
            continue
        acc, k = x, 1
        while acc != one and k < n:
            acc, k = acc * x, k + 1
        if acc == one and k == n:
            return x
    return None


def square_roots(x):
    """Every y with y * y == x, sorted by sort_key, by squaring every element."""
    return _square_roots_table(x.field).get(x, [])


@lru_cache(maxsize=None)
def _square_roots_table(field):
    table = {}
    for y in sorted(field.elements(), key=lambda e: e.sort_key()):
        table.setdefault(y * y, []).append(y)
    return table


def boxed_series_inverse(s):
    """The inverse of a series over a field, in the form of series_plain, by
    the coefficient recurrence on boxed field elements, sigma^i looked up
    for every product.

    With c_i the coefficient at t^(lead+i), d_m = -c_0^-1 sum_(i=1..m)
    c_i sigma^i(d_(m-i)) for m below the relative precision (the default
    precision for an exact series, bound - lead otherwise; 1 for an exact
    monomial, whose inverse is exact), and the inverse is
    sum_m sigma^-lead(d_m) t^(m-lead).
    """
    lead = min(e for e, c in s.coeffs.items() if not c.is_zero())
    sigma = s.ring.sigma
    exact_monomial = len(s.coeffs) == 1 and s.bound is None
    if exact_monomial:
        rel = 1
    else:
        rel = s.ring.default_prec if s.bound is None else s.bound - lead
    c0_inv = s.coeffs[lead].inv()
    d = {0: c0_inv}
    for m in range(1, rel):
        acc = None
        for i in range(1, m + 1):
            c = s.coeffs.get(lead + i)
            if c is None or m - i not in d:
                continue
            right = d[m - i] if sigma is None else sigma.power(i)(d[m - i])
            acc = c * right if acc is None else acc + c * right
        if acc is not None and not (c0_inv * acc).is_zero():
            d[m] = -(c0_inv * acc)
    if sigma is not None:
        d = {m: sigma.power(-lead)(c) for m, c in d.items()}
    return ({m - lead: c for m, c in d.items()}, None if exact_monomial else rel - lead)


def budget_hensel_sqrt(u):
    """A square root of the unit u of a tower, or None when its residue is no
    square: the lift hensel_sqrt ran before it doubled its precision.

    From the least root of the residue, Newton's step s <- (s + u/s)/2,
    each one inverting s at full precision, until s*s - u is
    indistinguishable from zero, within a budget of 4 + 2 * height *
    bits(default precision) steps; PrecisionExhaustedError past it.
    """
    roots = square_roots(u.residue())
    if not roots:
        return None
    tower = u.tower
    s = tower.constant(roots[0])
    half = tower.constant(tower.base.element(2).inv())
    budget = 4 + 2 * sum(
        max(1, tower.default_prec).bit_length() for _ in range(max(1, tower.height))
    )
    for _ in range(budget):
        if (s * s - u).indistinguishable_from_zero():
            return s
        s = (s + u * s.inv()) * half
    if (s * s - u).indistinguishable_from_zero():
        return s
    from valdiv.errors import PrecisionExhaustedError

    raise PrecisionExhaustedError("Newton iteration failed to certify a square root")


# ---------------------------------------------------------------------------
# extension fields on plain lists
#
# An element of F[w_1]/(f_1)...[w_k]/(f_k) is a list of deg f_k elements of
# the field below it; at depth 0 it is an int mod p, or a Fraction when p is
# 0 (F = Q).  `moduli` lists f_1..f_k innermost first, each monic and low to
# high, with coefficients one depth down.


def naive_extension_sum(x, y, p):
    if isinstance(x, list):
        return [naive_extension_sum(u, v, p) for u, v in zip(x, y)]
    return (x + y) % p if p else x + y


def naive_extension_negative(x, p):
    if isinstance(x, list):
        return [naive_extension_negative(u, p) for u in x]
    return -x % p if p else -x


def _ext_mul(x, y, moduli, p):
    if moduli:
        return naive_extension_product(x, y, moduli, p)
    return x * y % p if p else x * y


def _ext_embed(c, moduli):
    """The int c as an element at the depth of moduli."""
    if not moduli:
        return c
    *inner, f = moduli
    return [_ext_embed(c, inner)] + [_ext_embed(0, inner) for _ in range(len(f) - 2)]


def naive_extension_product(a, b, moduli, p):
    """a*b by the schoolbook product, then long division by the monic f_k
    from the top coefficient down."""
    *inner, f = moduli
    n = len(f) - 1
    prod = [_ext_embed(0, inner) for _ in range(2 * n - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = naive_extension_sum(prod[i + j], _ext_mul(x, y, inner, p), p)
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        for i, fi in enumerate(f):
            term = naive_extension_negative(_ext_mul(c, fi, inner, p), p)
            prod[k - n + i] = naive_extension_sum(prod[k - n + i], term, p)
    return prod[:n]


def naive_extension_elements(moduli, p):
    """Every element of a finite extension, as plain lists."""
    if not moduli:
        return list(range(p))
    *inner, f = moduli
    return [list(c) for c in product(naive_extension_elements(inner, p), repeat=len(f) - 1)]


def naive_extension_inverse(a, moduli, p):
    """The x with a*x = 1, by trying every element; None for a = 0."""
    one = _ext_embed(1, moduli)
    for x in naive_extension_elements(moduli, p):
        if naive_extension_product(a, x, moduli, p) == one:
            return x
    return None


def extension_sort_key(coeffs):
    """sort_key of the element of F_p[w]/(f) with these coefficients."""
    return (1, tuple((0, c) for c in coeffs))


def extension_str(coeffs, var):
    """str of the element of F_p[w]/(f) with these coefficients: nonzero
    terms low to high, `c*w^k` with c and the power left out when 1."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        if not power:
            terms.append(str(c))
        else:
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# symbol-algebra sums of products, one boxed pair at a time


def pairwise_algebra_product(x, y):
    """x*y in a symbol algebra by the pair loop: every pair product is boxed,
    scaled by its phase, wrapped by a and b, and summed one by one."""
    alg = x.algebra
    n = alg.degree
    out: dict = {}
    for (k1, l1), c1 in x.coeffs.items():
        for (k2, l2), c2 in y.coeffs.items():
            c = c1 * c2
            phase = alg._omega_pow[(l1 * k2) % n] if n > 1 else None
            if phase is not None and phase != alg.tower.base.one():
                c = c.scale(phase)
            k, l = k1 + k2, l1 + l2
            if k >= n:
                c = c * alg.a
                k -= n
            if l >= n:
                c = c * alg.b
                l -= n
            key = (k, l)
            out[key] = out[key] + c if key in out else c
    return type(x)(alg, out)


def pairwise_l_dot(alg, us, vs):
    """Sum of the products u * v over L = F[i], whose elements have keys
    (k, 0) only, every pair product boxed and added one by one; i^n wraps to a."""
    n = alg.degree
    out: dict = {}
    for u, v in zip(us, vs):
        for (k1, l1), x in u.coeffs.items():
            for (k2, l2), y in v.coeffs.items():
                assert l1 == l2 == 0, "an element of L with a power of j"
                prod = x * y
                k = k1 + k2
                if k >= n:
                    prod = prod * alg.a
                    k -= n
                out[(k, 0)] = out[(k, 0)] + prod if (k, 0) in out else prod
    return type(us[0])(alg, out)


def splitting_trace(e):
    """Trd(e) as the trace of the splitting representation: the sum of the
    diagonal entries of rho(e), elements of L = F[i] whose components off
    the key (0, 0) must vanish."""
    alg = e.algebra
    alg.verify_splitting_relations()
    total = alg.zero()
    for r, row in enumerate(e.splitting_matrix()):
        total = total + row[r]
    for kl, comp in total.coeffs.items():
        if kl != (0, 0) and not comp.indistinguishable_from_zero():
            raise AssertionError("reduced trace acquired a component in i")
    return total.scalar_part()


# ---------------------------------------------------------------------------
# the cyclic layer of a norm-one decomposition, chosen by walking the orbit


def orbit_walk_layer(e):
    """(x0, order) for decomposing the non-scalar e by shortcuts, products
    and the orbit walk: the reference for `sk1._search_monomial_conjugator`,
    which reads both off e's keys.

    Keys all in F[i] (l = 0) take x0 = j, keys all in F[j] take x0 = i, and
    otherwise the first of j, i, i^k j^l whose conjugation sigma moves e and
    commutes with it, both decided by products.  The order is the first
    r <= n with sigma^r(e) equal to e to precision, found by applying sigma
    r times.  Raises DegenerateDecompositionError as the library did.
    """
    from valdiv.errors import DegenerateDecompositionError
    from valdiv.sk1 import conjugation

    def equalish(u, v):
        return (u - v).indistinguishable_from_zero()

    alg, n = e.algebra, e.algebra.degree
    keys = set(e.coeffs)
    if all(l == 0 for _, l in keys):
        x0 = alg.j()
    elif all(k == 0 for k, _ in keys):
        x0 = alg.i()
    else:
        candidates = [alg.j(), alg.i()]
        candidates += [
            alg.monomial(k, l)
            for k in range(n)
            for l in range(n)
            if (k, l) not in ((0, 0), (1, 0), (0, 1))
        ]
        for x0 in candidates:
            se = conjugation(x0)(e)
            if equalish(se * e, e * se) and not equalish(se, e):
                break
        else:
            raise DegenerateDecompositionError(
                "element does not generate a recognized conjugation-cyclic layer"
            )
    sigma, cur = conjugation(x0), e
    for order in range(1, n + 1):
        cur = sigma(cur)
        if equalish(cur, e):
            return x0, order
    raise DegenerateDecompositionError("conjugation does not close on the layer")


def two_check_decomposition(e, rng):
    """The factors of e's commutator witness by the flow that checked each
    resolvent twice: Nrd(e) = 1 certified from `prd`; the norm prefixes of
    the Hilbert-90 resolvent formed by applying sigma; a candidate c kept
    once e sigma(c) ~ c; then `verify`, whose failure raised.  The reference
    for `sk1.decompose_norm_one`, which takes e's conjugate chain as the
    prefixes and `verify` as the one check; it must print the same factors
    and raise the same errors."""
    from valdiv import sk1
    from valdiv.errors import (
        DegenerateDecompositionError,
        NormCertificateError,
        PrecisionExhaustedError,
    )

    def equalish(u, v):
        return (u - v).indistinguishable_from_zero()

    alg, one = e.algebra, e.algebra.one()
    c0 = e.prd()[0]
    nr = -c0 if alg.degree % 2 else c0
    diff = nr - alg.tower.one()
    if not diff.is_zero() and not diff.indistinguishable_from_zero():
        raise NormCertificateError(f"reduced norm is {nr}, not 1")
    if not diff.is_zero() and not diff.certifies_zero_position():
        raise PrecisionExhaustedError("norm-one check undecided at working precision")
    if equalish(e, one):
        return ()
    if all(kl == (0, 0) for kl, c in e.coeffs.items() if not c.indistinguishable_from_zero()):
        # the scalar witness [j, i]^k for e ~ omega^k, the first such k
        k = next((k for k in range(alg.degree) if equalish(e, alg.scalar(alg.omega**k))), None)
        if k is not None:
            witness = sk1.CommutatorWitness(((alg.j(), alg.i()),) * k, e)
            if witness.verify():
                return witness.factors
        if e.is_scalar():
            raise DegenerateDecompositionError(
                "central norm-one scalar outside the root-of-unity image"
            )
    x0, order = sk1._search_monomial_conjugator(e)
    sigma = sk1.conjugation(x0)
    powers, prefixes, sig_e = [one, e], [e], e
    for _ in range(order - 1):
        sig_e = sigma(sig_e)
        prefixes.append(prefixes[-1] * sig_e)
    if not equalish(prefixes[-1], one):
        raise NormCertificateError(f"norm along the cyclic layer is {prefixes[-1]}, not 1")
    for _ in range(sk1.RETRIES):
        b = alg.zero()
        for k in range(order):  # a random element of the layer generated by e
            w = rng.randint(0, max(alg.tower.base.char - 1, 9))
            if w:
                while len(powers) <= k:
                    powers.append(powers[-1] * e)
                b = b + powers[k].scale(alg.tower.constant(w))
        c = sig_b = b
        for prefix in prefixes[:-1]:
            sig_b = sigma(sig_b)
            c = c + prefix * sig_b
        if c.indistinguishable_from_zero() or not equalish(e * sigma(c), c):
            continue
        witness = sk1.CommutatorWitness(((c, x0),), e)
        if not witness.verify():
            raise DegenerateDecompositionError("resolvent witness failed verification")
        return witness.factors
    raise DegenerateDecompositionError(f"no nonzero resolvent found in {sk1.RETRIES} retries")


# ---------------------------------------------------------------------------
# commutator witnesses and conjugators, re-multiplied with their inverses


def commutator_product_check(witness):
    """prod x y x^-1 y^-1 over the witness factors, formed with the inverses
    and compared with the target to precision: the reference for
    `sk1.CommutatorWitness.verify`, which moves its last factor across
    instead.  Raises what `AlgebraElement.inv` raises for a non-unit."""
    target = witness.target
    acc = target.algebra.one()
    for x, y in witness.factors:
        acc = acc * (x * y * x.inv() * y.inv())
    return acc.agrees_to_precision(target)


def conjugator_check(x, k, target):
    """x k x^-1 equal to target to precision, with the inverse of x: the
    reference for the last check of `sk1.skolem_noether_conjugator`."""
    return (x * k * x.inv()).agrees_to_precision(target)
