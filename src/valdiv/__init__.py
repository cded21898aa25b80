"""Exact arithmetic for valued division algebras over iterated Laurent series fields.

The package computes valuation-theoretic invariants of symbol algebras over
towers k((x1))...((xm)): value groups and their lattice invariants, reduced
norms through an explicit splitting representation, ramification
classification, the associated graded structure, constructive commutator
witnesses for reduced-norm-one elements, and a cohomological-dimension
calculator feeding a triviality verdict engine.  A CLI exposes the pipelines;
see the README for the description grammar.
"""

from .errors import ValdivError
from .fields import (
    QQ,
    ExtensionField,
    Field,
    FieldAutomorphism,
    FieldElement,
    PrimeField,
    cyclotomic_polynomial,
    frobenius,
    is_square,
    multiplicative_order,
    primitive_root_of_unity,
    sqrt,
)
from .graded import (
    GradedAlgebraView,
    HomogeneousElement,
    graded_view,
    homog_mul,
    nrd_grade_check,
    theta,
    tilde,
)
from .grammar import (
    parse_algebra,
    parse_description,
    parse_field,
    parse_profile,
    parse_series,
    parse_tower,
    print_algebra,
    print_profile,
    print_series,
)
from .laurent import (
    INFINITE_VALUATION,
    LaurentSeries,
    SeriesRing,
    Tower,
    TowerElement,
    TwistedSeriesRing,
    central_indeterminate,
    hensel_sqrt,
    unit_is_square,
)
from .ordered import (
    Lattice,
    QuotientStructure,
    lex_compare,
    quotient,
    smith_normal_form,
)
from .pipeline import run_example, selftest, sk1_witness_batch
from .profiles import CdResult, FieldProfile, declared_profile, profile_from_tower
from .sk1 import (
    CommutatorWitness,
    DiagramContext,
    NormOneElement,
    Verdict,
    certify_norm_one,
    commutator,
    compute_zeta,
    decompose_norm_one,
    hilbert90_decompose,
    kappa,
    skolem_noether_conjugator,
    verdict,
)
from .symbol import (
    AlgebraElement,
    RamificationReport,
    SymbolAlgebra,
    quaternion_is_division,
)

__version__ = "0.1.0"
