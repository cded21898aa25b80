"""Leading-image views of the valuation filtration.

A homogeneous element is a grade together with a representative whose value
realizes it; two representatives are identified exactly when their difference
has certified strictly higher value.  The associated graded structure is kept
intensional: grade arithmetic, the conjugation action on residues, and the
norm grade law are all computed through representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DescriptorMismatchError,
    NoRepresentativeError,
    NotAUnitError,
    PrecisionExhaustedError,
    UndecidedComparisonError,
)
from .fields import FieldElement
from .laurent import INFINITE_VALUATION
from .symbol import AlgebraElement, RamificationReport, SymbolAlgebra


@dataclass(frozen=True)
class HomogeneousElement:
    """Image of a nonzero element in the grade component of its value."""

    grade: tuple[Fraction, ...]
    rep: AlgebraElement

    def __mul__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        return homog_mul(self, other)

    def inverse(self) -> "HomogeneousElement":
        """Inverse representative at grade -grade: homogeneous units invert."""
        return tilde(self.rep.inv())

    def __eq__(self, other):
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        if self.rep.algebra != other.rep.algebra:
            raise DescriptorMismatchError("homogeneous elements of different algebras")
        if self.grade != other.grade:
            return False
        diff = self.rep - other.rep
        if diff.is_zero():
            return True
        try:
            v = diff.valuation()
        except PrecisionExhaustedError as exc:
            raise UndecidedComparisonError(
                f"difference vanishes to working precision: {exc}"
            ) from exc
        return v is INFINITE_VALUATION or v > self.grade

    def __hash__(self):
        return hash(("homog", self.grade))

    def __str__(self):
        grade = "(" + ", ".join(str(g) for g in self.grade) + ")"
        return f"[grade={grade}] {self.rep} + O(>grade)"

    def __repr__(self):
        return str(self)


def tilde(e: AlgebraElement) -> HomogeneousElement:
    """Leading image of a nonzero element in its grade component."""
    v = e.valuation()
    if v is INFINITE_VALUATION:
        raise NotAUnitError("zero has no leading image")
    return HomogeneousElement(v, e)


def homog_mul(h1: HomogeneousElement, h2: HomogeneousElement) -> HomogeneousElement:
    """Graded product: grades add, representatives multiply."""
    grade = tuple(a + b for a, b in zip(h1.grade, h2.grade))
    return HomogeneousElement(grade, h1.rep * h2.rep)


@dataclass(frozen=True)
class GradedAlgebraView:
    """Dimension data and filtration predicates of the graded structure."""

    algebra: SymbolAlgebra
    report: RamificationReport

    @property
    def zero_component_degree(self) -> int:
        return self.report.residue_degree

    def graded_dimension(self) -> int:
        """residue degree times value-group index; equals dim when defect 1."""
        return self.report.residue_degree * self.report.index

    def in_valuation_ring(self, e: AlgebraElement) -> bool:
        v = e.valuation()
        if v is INFINITE_VALUATION:
            return True
        return v >= tuple(Fraction(0) for _ in v)

    def in_maximal_ideal(self, e: AlgebraElement) -> bool:
        v = e.valuation()
        if v is INFINITE_VALUATION:
            return True
        return v > tuple(Fraction(0) for _ in v)


def graded_view(algebra: SymbolAlgebra) -> GradedAlgebraView:
    return GradedAlgebraView(algebra, algebra.classify())


def theta(algebra, gamma, unit_elem) -> FieldElement:
    """Conjugation action of a value on unit residues.

    Picks a monomial representative d at the value gamma and returns the
    residue of d * x * d^-1.  Works for symbol algebras (gamma a rational
    vector) and twisted series rings (gamma an integer).
    """
    d = algebra.monomial_with_value(gamma)
    if d is None:
        raise NoRepresentativeError(f"no monomial representative at {gamma}")
    v = unit_elem.valuation()
    if v is INFINITE_VALUATION or (v != 0 if isinstance(v, int) else any(v)):
        raise NotAUnitError("theta acts on unit-valuation elements only")
    conj = d * unit_elem * d.inv()
    return conj.residue()


def nrd_grade_check(h: HomogeneousElement) -> bool:
    """Norm grade law: v(Nrd(rep)) equals degree * grade."""
    n = h.rep.algebra.degree
    nv = h.rep.nrd().valuation()
    if nv is INFINITE_VALUATION:
        return False
    return tuple(Fraction(x) for x in nv) == tuple(n * g for g in h.grade)
