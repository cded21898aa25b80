import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fractions import Fraction

from valdiv.grammar import parse_algebra
from valdiv.pipeline import (
    build_quaternion_example,
    build_symbol_example,
)
from valdiv.symbol import SymbolAlgebra


def make_symbol_xy(n: int, p: int, prec: int = 16) -> SymbolAlgebra:
    """(x, y) symbol of degree n over F_p((x))((y)) with the smallest omega."""
    return build_symbol_example(n, p, prec)


def make_quaternion_f5(prec: int = 16) -> SymbolAlgebra:
    """(2, t) over F5((t)): 2 is a non-square unit, t a uniformizer."""
    return build_quaternion_example(prec)


def make_rational_quaternion() -> SymbolAlgebra:
    """(-1, -1) over Q with the trivial valuation (height-0 tower)."""
    return parse_algebra("symbol(n=2, omega=-1, a=-1, b=-1) over Q")


def random_algebra_element(alg, rng, terms=2, span=2, allow_negative=True):
    """Sparse random element: few basis monomials with monomial coefficients."""
    n = alg.degree
    out = alg.zero()
    p = alg.tower.base.char
    for _ in range(rng.randint(1, terms)):
        k, l = rng.randrange(n), rng.randrange(n)
        lo = -span if allow_negative else 0
        exps = tuple(rng.randint(lo, span) for _ in range(alg.tower.height))
        c = rng.randint(1, p - 1) if p else Fraction(rng.randint(1, 9), rng.randint(1, 4))
        out = out + alg.monomial(k, l, alg.tower.monomial(exps, c))
    return out
