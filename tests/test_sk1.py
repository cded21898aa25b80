import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest

from valdiv import pipeline, sk1, symbol
from valdiv.errors import (
    CharPolyMismatchError,
    ConjugatorSearchError,
    DegenerateDecompositionError,
    NormCertificateError,
    NotInvertibleError,
    PrecisionExhaustedError,
    UsageError,
    ValdivError,
)
from valdiv.fields import (
    QQ,
    ExtensionField,
    FieldAutomorphism,
    FieldElement,
    PrimeField,
    has_order,
    multiplicative_order,
)
from valdiv.grammar import parse_algebra, parse_series
from valdiv.pipeline import sk1_witness_batch
from valdiv.profiles import INF, declared_profile, profile_from_tower
from valdiv.sk1 import (
    CommutatorWitness,
    certify_norm_one,
    commutator,
    compute_zeta,
    conjugation,
    decompose_norm_one,
    hilbert90_decompose,
    kappa,
    skolem_noether_conjugator,
    verdict,
)
from valdiv.symbol import AlgebraElement

from oracles import (
    commutator_product_check,
    conjugator_check,
    orbit_walk_layer,
    series_plain,
    two_check_decomposition,
)

from conftest import (
    make_quaternion_f5,
    make_rational_quaternion,
    make_symbol_xy,
    random_algebra_element,
)

F = Fraction


def test_certify_norm_one_examples():
    alg = make_symbol_xy(3, 7)
    assert certify_norm_one(alg.one()).element == alg.one()
    scaled = alg.scalar(alg.omega)
    cert = certify_norm_one(scaled)  # nrd = omega^3 = 1
    assert cert.certificate == alg.tower.one()
    with pytest.raises(NormCertificateError):
        certify_norm_one(alg.i())


def test_commutator_examples():
    alg = make_symbol_xy(3, 7)
    i, j = alg.i(), alg.j()
    assert commutator(i, i).element == alg.one()
    # [i, j] = omega^{-1} under the j i = omega i j convention
    c = commutator(i, j).element
    omega_inv = alg.omega.inv()
    assert c == alg.scalar(alg.tower.constant(omega_inv))
    # [j, i] = omega
    assert commutator(j, i).element == alg.scalar(alg.tower.constant(alg.omega))
    f = alg.scalar(alg.tower.monomial((1, 2), 3))
    assert commutator(i, f).element == alg.one()


def test_commutator_outputs_are_grade_zero_norm_one():
    rng = random.Random(61)
    for alg in (make_quaternion_f5(), make_symbol_xy(3, 7)):
        zero_vec = tuple(F(0) for _ in range(alg.tower.height))
        done = 0
        while done < 250:
            x = random_algebra_element(alg, rng)
            y = random_algebra_element(alg, rng)
            if x.nrd().indistinguishable_from_zero():
                continue
            if y.nrd().indistinguishable_from_zero():
                continue
            c = commutator(x, y)
            assert c.element.valuation() == zero_vec
            done += 1


def test_kappa_on_corpus_algebras():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        alg = make_symbol_xy(n, p)
        out = kappa(alg, alg.v_of_i(), alg.v_of_j())
        assert out.element.is_scalar()
        root = out.element.scalar_part().residue()
        assert has_order(root, n)
        # alternating
        assert kappa(alg, alg.v_of_i(), alg.v_of_i()).element == alg.one()
        # field values die in either slot
        for lam in [(F(1), F(0)), (F(0), F(1)), (F(2), F(-1))]:
            assert kappa(alg, alg.v_of_i(), lam).element == alg.one()
            assert kappa(alg, lam, alg.v_of_j()).element == alg.one()


def test_kappa_representative_perturbation():
    alg = make_symbol_xy(3, 7)
    base = kappa(alg, alg.v_of_i(), alg.v_of_j()).element
    # change representative by a unit factor: output changes by a unit
    # commutator, which for scalars means not at all
    d1 = alg.i().scale(alg.tower.base.element(3))
    d2 = alg.j()
    pert = commutator(d1, d2).element
    assert pert == base


def test_hilbert90_gaussian_rationals():
    QI = ExtensionField(QQ, [1, 0, 1], var="i")
    conj = FieldAutomorphism(QI, -QI.generator())
    a = QI.element([F(3, 5), F(4, 5)])

    def sample(attempt):
        return QI.one() if attempt == 0 else QI.element([1, attempt])

    c = hilbert90_decompose(a, conj, 2, sample)
    assert c == QI.element([F(8, 5), F(4, 5)])  # 1 + a
    assert a * conj(c) == c
    assert c * conj(c).inv() == a


def test_hilbert90_identity_element():
    QI = ExtensionField(QQ, [1, 0, 1], var="i")
    conj = FieldAutomorphism(QI, -QI.generator())

    def sample(attempt):
        return QI.element([1, attempt])

    c = hilbert90_decompose(QI.one(), conj, 2, sample)
    assert c * conj(c).inv() == QI.one()


def test_hilbert90_rejects_non_norm_one():
    QI = ExtensionField(QQ, [1, 0, 1], var="i")
    conj = FieldAutomorphism(QI, -QI.generator())
    with pytest.raises(NormCertificateError):
        hilbert90_decompose(QI.element(2), conj, 2, lambda k: QI.one())


def test_hilbert90_finite_field_brute_force():
    F5 = PrimeField(5)
    F25 = ExtensionField(F5, [-2, 0, 1], var="g")
    frob = FieldAutomorphism(F25, F25.generator() ** 5)
    # find a multiplicative generator by brute force
    gen = next(
        el
        for el in F25.elements()
        if not el.is_zero() and multiplicative_order(el) == 24
    )
    a = gen**4
    norm = a * frob(a)
    assert norm == F25.one()  # a^(1+5) = gen^24 = 1
    rng = random.Random(67)

    def sample(attempt):
        return F25.element([rng.randint(0, 4), rng.randint(0, 4)])

    c = hilbert90_decompose(a, frob, 2, sample)
    assert a * frob(c) == c
    # brute-force cross-check: some solution exists among all elements
    solutions = [
        x for x in F25.elements() if not x.is_zero() and x * frob(x).inv() == a
    ]
    assert solutions
    assert c * frob(c).inv() == a


@pytest.mark.parametrize(
    "field",
    [
        ExtensionField(PrimeField(5), [-2, 0, 1], var="g"),
        ExtensionField(PrimeField(7), [-2, 0, 0, 1], var="g"),
    ],
)
def test_hilbert90_attempt_reuses_the_norm_prefixes(field, monkeypatch):
    # an order-k layer: each attempt takes k - 1 products prefix * sigma^r(b)
    p, k = field.char, field.degree
    frob = FieldAutomorphism(field, field.generator() ** p)
    x = field.generator() + field.one()
    a = x * frob(x).inv()
    products = []
    marks = []
    mul = FieldElement.__mul__

    def counted(u, v):
        products.append(1)
        return mul(u, v)

    def sample(attempt):
        marks.append(len(products))
        return field.zero() if attempt == 0 else field.one()

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    c = hilbert90_decompose(a, frob, k, sample)
    monkeypatch.undo()
    assert marks == [k - 1, 2 * (k - 1)]  # the norm check, then attempt 0
    assert c * frob(c).inv() == a


def test_skolem_noether_examples():
    quat = make_quaternion_f5()
    i, j = quat.i(), quat.j()
    rng = random.Random(71)
    x = skolem_noether_conjugator(i, -i, rng)
    assert (x * i * x.inv()).agrees_to_precision(-i)
    # target = k itself: identity-like conjugator works
    x_id = skolem_noether_conjugator(i, i, rng)
    assert (x_id * i * x_id.inv()).agrees_to_precision(i)

    cubic = make_symbol_xy(3, 7)
    i3 = cubic.i()
    target = i3.scale(cubic.omega)
    x3 = skolem_noether_conjugator(i3, target, rng)
    assert (x3 * i3 * x3.inv()).agrees_to_precision(target)


def test_skolem_noether_rejects_mismatched_charpoly():
    quat = make_quaternion_f5()
    with pytest.raises(CharPolyMismatchError):
        skolem_noether_conjugator(quat.i(), quat.j(), random.Random(0))


def test_decompose_identity_and_scalars():
    alg = make_symbol_xy(3, 7)
    w0 = decompose_norm_one(certify_norm_one(alg.one()))
    assert len(w0) == 0 and w0.verify()
    omega_scalar = alg.scalar(alg.omega)
    w1 = decompose_norm_one(certify_norm_one(omega_scalar))
    assert w1.verify()
    omega_sq = alg.scalar(alg.omega**2)
    w2 = decompose_norm_one(certify_norm_one(omega_sq))
    assert w2.verify()


def test_decompose_rational_quaternion_worked_example():
    alg = make_rational_quaternion()
    i = alg.i()
    e = alg.scalar(F(3, 5)) + i.scale(alg.tower.constant(F(4, 5)))
    cert = certify_norm_one(e)
    witness = decompose_norm_one(cert, random.Random(3))
    assert witness.verify()
    assert len(witness) == 1


def test_decompose_generate_and_check_quaternions():
    rng = random.Random(73)
    for alg in (make_rational_quaternion(), make_quaternion_f5()):
        successes = 0
        for _ in range(30):
            e = _random_norm_one_in_i_span(alg, rng)
            witness = decompose_norm_one(certify_norm_one(e), rng)
            assert witness.verify()
            successes += 1
        assert successes == 30


def _random_norm_one_in_i_span(alg, rng):
    # c * (j c^-1 j^-1) has reduced norm 1 and lies in the span of powers of i
    while True:
        if alg.tower.base.char:
            p = alg.tower.base.char
            c = alg.scalar(rng.randint(1, p - 1)) + alg.i().scale(
                alg.tower.base.element(rng.randint(0, p - 1))
            )
        else:
            c = alg.scalar(F(rng.randint(1, 9))) + alg.i().scale(
                alg.tower.constant(F(rng.randint(-9, 9)))
            )
        if not c.nrd().indistinguishable_from_zero():
            break
    j = alg.j()
    return c * j * c.inv() * j.inv()


def test_decompose_j_span_and_degenerate():
    alg = make_quaternion_f5()
    j, i = alg.j(), alg.i()
    rng = random.Random(79)
    e = j * i * j.inv() * i.inv()  # norm-one in the j-span? scalar actually
    w = decompose_norm_one(certify_norm_one(e), rng)
    assert w.verify()
    # a norm-one element mixing i and j still decomposes via conjugator search
    c = alg.scalar(1) + (alg.i() * alg.j()).scale(alg.tower.base.element(2))
    if not c.nrd().indistinguishable_from_zero():
        target = c * alg.i() * c.inv() * alg.i().inv()
        wit = decompose_norm_one(certify_norm_one(target), rng)
        assert wit.verify()


def _spied_products(monkeypatch):
    products = []
    real = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return real(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    return products


def test_decompose_in_the_j_layer_conjugates_by_i_and_multiplies_by_no_one(monkeypatch):
    """e = c i c^-1 i^-1 with c = 1 + 2j + 3j^2 lies in F[j], so its witness
    is one commutator with i.  No product of the decomposition, its Hilbert 90
    samples or its verification has one as a factor, and e^2 is formed once."""
    alg = make_symbol_xy(3, 7)
    i, j = alg.i(), alg.j()
    c = alg.one() + j.scale(alg.tower.constant(2)) + (j * j).scale(alg.tower.constant(3))
    e = c * i * c.inv() * i.inv()
    assert all(k == 0 for k, _ in e.coeffs)
    cert = certify_norm_one(e)
    products = _spied_products(monkeypatch)
    witness = decompose_norm_one(cert, random.Random(5))
    assert witness.verify() and len(witness) == 1
    assert witness.factors[0][1] == i
    assert [pair for pair in products if alg.one() in pair] == []
    assert sum(y is e for _, y in products) == 1


def test_witness_product_of_several_commutators_multiplies_by_no_one(monkeypatch):
    alg = make_symbol_xy(3, 7)
    omega_sq = alg.scalar(alg.omega**2)
    witness = decompose_norm_one(certify_norm_one(omega_sq))
    assert len(witness) == 2
    products = _spied_products(monkeypatch)
    assert witness.product() == omega_sq
    assert products and [pair for pair in products if alg.one() in pair] == []
    assert CommutatorWitness((), alg.one()).product() == alg.one()


def test_witness_product_forms_each_commutator_once(monkeypatch):
    """The witness of omega^2 repeats [j, i]: it is formed once (three
    products) and the two copies multiplied (one more), not formed twice."""
    alg = make_symbol_xy(3, 7)
    witness = decompose_norm_one(certify_norm_one(alg.scalar(alg.omega**2)))
    products = _spied_products(monkeypatch)
    assert witness.product() == alg.scalar(alg.omega**2)
    assert len(products) == 4


def _spied_conjugations(monkeypatch, e):
    """Counts the calls sigma(e) of every conjugation built from now on."""
    applied = []
    real = sk1.conjugation

    def counted(x0):
        sigma = real(x0)

        def spy(z):
            applied.append(z is e)
            return sigma(z)

        return spy

    monkeypatch.setattr(sk1, "conjugation", counted)
    return applied


def test_decompose_applies_sigma_to_an_element_of_l_never(monkeypatch):
    """For e in F[i] the order is read off the keys, and the norm prefixes
    are e's conjugate chain, formed by its norm: sigma(e) is not formed.
    The orbit walk forms it once, to find the order."""
    alg = make_symbol_xy(3, 7)
    e = _random_norm_one_in_i_span(alg, random.Random(7))
    assert all(l == 0 for _, l in e.coeffs)
    cert = certify_norm_one(e)
    applied = _spied_conjugations(monkeypatch, e)
    witness = decompose_norm_one(cert, random.Random(5))
    assert witness.factors[0][1] is alg.j() and applied.count(True) == 0
    del applied[:]
    monkeypatch.setattr(sk1, "_search_monomial_conjugator", orbit_walk_layer)
    assert decompose_norm_one(cert, random.Random(5)).factors == witness.factors
    assert applied.count(True) == 1


def test_search_forms_no_product_for_commuting_keys(monkeypatch):
    """e = c i c^-1 i^-1 with c = 1 + 2ij lies in F[ij]: its keys (k, k)
    commute pairwise, so j is chosen, with order 3, without a product."""
    alg = make_symbol_xy(3, 7)
    i, j = alg.i(), alg.j()
    c = alg.one() + (i * j).scale(alg.tower.constant(2))
    e = c * i * c.inv() * i.inv()
    assert sorted(e.coeffs) == [(0, 0), (1, 1), (2, 2)]
    products = _spied_products(monkeypatch)
    assert sk1._search_monomial_conjugator(e) == (j, 3)
    assert products == []


def test_search_forms_the_two_products_for_keys_that_do_not_commute(monkeypatch):
    """e = c j c^-1 j^-1 with c = 1 + i + ij lies in F[i + ij], whose keys
    do not commute (i and ij); j maps it into itself, which only the two
    products sigma(e) e and e sigma(e) can tell."""
    alg = make_symbol_xy(3, 7)
    i, j = alg.i(), alg.j()
    c = alg.one() + i + i * j
    e = c * j * c.inv() * j.inv()
    products = _spied_products(monkeypatch)
    assert sk1._search_monomial_conjugator(e) == (j, 3)
    se = conjugation(j)(e)
    assert [(x == se, y == se) for x, y in products] == [(True, False), (False, True)]
    assert products[0][1] is e and products[1][0] is e


def test_commutator_witness_verification_catches_corruption():
    alg = make_quaternion_f5()
    good = CommutatorWitness(((alg.i(), alg.j()),), commutator(alg.i(), alg.j()).element)
    assert good.verify()
    bad = CommutatorWitness(((alg.i(), alg.j()),), alg.one() + alg.i())
    assert not bad.verify()


def test_compute_zeta_corpus():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        report = make_symbol_xy(n, p).classify()
        ctx = compute_zeta(report)
        assert ctx.zeta == 1
        assert ctx.galois_order == 1
        assert ctx.h_minus_1_trivial is True
        if n > 1:
            assert ctx.zeta_formula_inputs == {
                "algebra_index": n,
                "residue_index": 1,
                "residue_center_degree": 1,
            }
            assert any("tameness rule" in note for note in ctx.notes)
    # trivial degree-1 algebra
    from valdiv.laurent import Tower
    from valdiv.symbol import SymbolAlgebra

    field = PrimeField(5)
    tower = Tower(field, ["t"])
    triv = SymbolAlgebra(tower, 1, field.one(), tower.constant(2), tower.var("t"))
    assert compute_zeta(triv.classify()).zeta == 1

    quat_report = make_quaternion_f5().classify()
    ctx = compute_zeta(quat_report)
    assert ctx.zeta == 1
    assert ctx.galois_order == 2
    assert ctx.zeta_formula_inputs == {
        "algebra_index": 2,
        "residue_index": 1,
        "residue_center_degree": 2,
    }
    assert ctx.notes == ()  # formula already gives 1
    assert ctx.grade_quotient.is_cyclic

    # without tameness zeta is the index quotient, 3 / 1 when totally ramified
    report = make_symbol_xy(3, 7).classify()
    ctx = compute_zeta(dataclasses.replace(report, is_tame=False))
    assert ctx.zeta == 3 and ctx.notes == ()
    undecided = compute_zeta(dataclasses.replace(report, is_tame=False, is_division=None))
    assert undecided.zeta is None and undecided.zeta_formula_inputs is None
    assert undecided.notes == ("residue data insufficient; zeta unknown",)


def test_verdict_case_rank_two():
    alg = make_symbol_xy(3, 7)
    report = alg.classify()
    profile = profile_from_tower(alg.tower)
    v = verdict(profile, report, 3)
    assert v.conclusion == "trivial"
    assert v.rule == "rank_one_to_three"
    assert v.inputs["r_q"] == 2


def test_verdict_squarefree_for_quaternion_over_low_cd_field():
    alg = make_quaternion_f5()
    report = alg.classify()
    profile = profile_from_tower(alg.tower)  # cd_2 = 1 + 1 = 2, so not 3
    v = verdict(profile, report, 2)
    assert v.conclusion == "trivial"
    assert v.rule == "squarefree_index"


def test_verdict_boundary_unknown():
    # r_q = 0, degree q^2, neither semiramified nor totally ramified, cd = 3
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    report = RamificationReport(
        algebra="synthetic degree-4 division algebra",
        dimension=16,
        degree=4,
        value_group=Lattice.standard(0),
        grade_quotient=QuotientStructure(()),
        index=1,
        residue_degree=16,
        defect=1,
        is_defectless=True,
        is_totally_ramified=False,
        is_semiramified=False,
        is_tame=True,
        is_division=True,
    )
    profile = declared_profile({2: 3})
    v = verdict(profile, report, 2)
    assert v.conclusion == "unknown"
    assert v.rule is None


def test_verdict_not_applicable_cases():
    alg = make_symbol_xy(3, 7)
    report = alg.classify()
    profile = profile_from_tower(alg.tower)
    assert verdict(profile, report, 7).conclusion == "not_applicable"  # q = residue char
    # non-q-primary degree with cd = 3 and no fallback firing
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    synthetic = RamificationReport(
        algebra="synthetic degree-12 algebra",
        dimension=144,
        degree=12,
        value_group=Lattice.standard(0),
        grade_quotient=QuotientStructure(()),
        index=1,
        residue_degree=144,
        defect=1,
        is_defectless=True,
        is_totally_ramified=False,
        is_semiramified=False,
        is_tame=True,
        is_division=None,
    )
    v = verdict(declared_profile({2: 3}), synthetic, 2)
    assert v.conclusion == "not_applicable"


def test_verdict_boley_rule():
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    synthetic = RamificationReport(
        algebra="synthetic degree-4 algebra over a cd-2 field",
        dimension=16,
        degree=4,
        value_group=Lattice.standard(0),
        grade_quotient=QuotientStructure(()),
        index=1,
        residue_degree=16,
        defect=1,
        is_defectless=True,
        is_totally_ramified=False,
        is_semiramified=False,
        is_tame=True,
        is_division=None,
    )
    v = verdict(declared_profile({2: 2}), synthetic, 2)
    assert v.conclusion == "trivial"
    assert v.rule == "cohomological_dimension_at_most_two"


def test_verdict_remark_fallback_with_hint():
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    synthetic = RamificationReport(
        algebra="synthetic rank-zero algebra with field residue of split part",
        dimension=16,
        degree=4,
        value_group=Lattice.standard(0),
        grade_quotient=QuotientStructure(()),
        index=1,
        residue_degree=16,
        defect=1,
        is_defectless=True,
        is_totally_ramified=False,
        is_semiramified=False,
        is_tame=True,
        is_division=True,
    )
    v = verdict(
        declared_profile({2: 3}),
        synthetic,
        2,
        residue_hints={"inertially_split_residue_is_field": True},
    )
    assert v.conclusion == "trivial"
    assert v.rule == "rank_zero_inertially_split_field_residue"


def _rank_zero_report(degree, index, **flags):
    """A synthetic defectless report over a height-0 tower (q-rank 0)."""
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    return RamificationReport(
        algebra=f"synthetic degree-{degree} algebra of index {index}",
        dimension=degree * degree,
        degree=degree,
        value_group=Lattice.standard(0),
        grade_quotient=QuotientStructure(()),
        index=index,
        residue_degree=degree * degree // index,
        defect=1,
        is_defectless=True,
        is_totally_ramified=flags.get("total", False),
        is_semiramified=flags.get("semi", False),
        is_tame=True,
        is_division=True,
    )


@pytest.mark.parametrize(
    "degree, index, flag", [(4, 4, "semi"), (4, 16, "total"), (2, 2, "semi"), (2, 4, "total")]
)
def test_verdict_rank_zero_theorem_rule(degree, index, flag):
    """q-rank 0, cd_q(F) = 3 and a semiramified or totally ramified algebra:
    the paper's rank-0 rule, ahead of the square-free index rule at degree
    2; with an infinite residue dimension it does not fire."""
    report = _rank_zero_report(degree, index, **{flag: True})
    v = verdict(declared_profile({2: 3}), report, 2)
    assert (v.conclusion, v.rule) == ("trivial", "rank_zero_semiramified_or_totally_ramified")
    assert v.inputs["r_q"] == 0
    v = verdict(declared_profile({2: INF}), report, 2)
    assert v.rule != "rank_zero_semiramified_or_totally_ramified"
    if degree == 4:
        assert v.conclusion == "not_applicable"
    else:
        assert (v.conclusion, v.rule) == ("trivial", "squarefree_index")


@pytest.mark.parametrize("cd", [5, INF])
def test_verdict_hint_rule_needs_cd_exactly_3(cd):
    """The rank-0 hint rule keeps the standing hypotheses of the rank rules:
    the report that gets it at cd_q(F) = 3 in
    `test_verdict_remark_fallback_with_hint` does not at 5 or infinity."""
    hints = {"inertially_split_residue_is_field": True}
    v = verdict(declared_profile({2: cd}), _rank_zero_report(4, 1), 2, residue_hints=hints)
    assert (v.conclusion, v.rule) == ("not_applicable", None)


def test_verdict_refuses_a_profile_of_another_height():
    """r_q is read from the profile, so its layers must be the tower's."""
    alg = make_symbol_xy(4, 5)
    with pytest.raises(UsageError, match="profile has 0 Laurent layers.*tower has 2"):
        verdict(declared_profile({2: 3}), alg.classify(), 2)
    with pytest.raises(UsageError, match="profile has 3 Laurent layers.*tower has 2"):
        verdict(declared_profile({2: 0}, ("x", "y", "z")), alg.classify(), 2)
    v = verdict(declared_profile({2: 1}, ("x", "y")), alg.classify(), 2)
    assert (v.conclusion, v.rule) == ("trivial", "rank_one_to_three")


def test_verdict_never_trivial_on_boundary_regression():
    # fuzz around the boundary: no trivial verdict without a firing rule
    from valdiv.ordered import Lattice, QuotientStructure
    from valdiv.symbol import RamificationReport

    for deg in (4, 8, 9):
        q = 2 if deg in (4, 8) else 3
        synthetic = RamificationReport(
            algebra=f"synthetic degree-{deg}",
            dimension=deg * deg,
            degree=deg,
            value_group=Lattice.standard(0),
            grade_quotient=QuotientStructure(()),
            index=1,
            residue_degree=deg * deg,
            defect=1,
            is_defectless=True,
            is_totally_ramified=False,
            is_semiramified=False,
            is_tame=True,
            is_division=True,
        )
        v = verdict(declared_profile({q: 3}), synthetic, q)
        assert v.conclusion == "unknown"


def _tower_verdict_args(alg, q):
    return profile_from_tower(alg.tower), alg.classify(), q


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            lambda: _tower_verdict_args(make_symbol_xy(3, 7), 7),
            ("not_applicable", None, "q = 7 equals the residue characteristic; the coprimality"
             " hypothesis fails"),
        ),
        (
            lambda: _tower_verdict_args(make_symbol_xy(3, 7), 3),
            ("trivial", "rank_one_to_three", "cd_q(F) = 3 with finite residue dimension, degree 3"
             " is 3-primary and the q-rank is 2 (between 1 and 3): the reduced Whitehead group"
             " is trivial"),
        ),
        (
            lambda: (declared_profile({2: 3}), _rank_zero_report(4, 4, semi=True), 2),
            ("trivial", "rank_zero_semiramified_or_totally_ramified", "q-rank 0 with a"
             " semiramified or totally ramified algebra forces the value groups to coincide and"
             " the group collapses"),
        ),
        (
            lambda: _tower_verdict_args(make_quaternion_f5(), 2),
            ("trivial", "squarefree_index", "the index divides the square-free degree 2, which"
             " always gives a trivial reduced Whitehead group"),
        ),
        (
            lambda: (declared_profile({2: 2}), _rank_zero_report(4, 1), 2),
            ("trivial", "cohomological_dimension_at_most_two", "cd_q(F) = 2 <= 2 with a 2-primary"
             " index is a known triviality regime"),
        ),
        (
            lambda: (
                declared_profile({2: 3}), _rank_zero_report(4, 1), 2,
                {"inertially_split_residue_is_field": True},
            ),
            ("trivial", "rank_zero_inertially_split_field_residue", "q-rank 0 reduces to an"
             " inertially split algebra whose residue algebra is a field, hence semiramified and"
             " trivial"),
        ),
        (
            lambda: (declared_profile({2: 3}), _rank_zero_report(12, 1), 2),
            ("not_applicable", None, "degree 12 is not a power of 2; the q-primary hypothesis"
             " fails"),
        ),
        (
            lambda: (declared_profile({2: INF}), _rank_zero_report(4, 1), 2),
            ("not_applicable", None, "cd_q(F) is infinite, not exactly 3; assert an exact value to"
             " enable the rank rules"),
        ),
        (
            lambda: (declared_profile({2: 3}), _rank_zero_report(4, 1), 2),
            ("unknown", None, "no sufficient condition applies: q-rank 0 with a division algebra"
             " that is neither semiramified nor totally ramified lies outside the proved cases"),
        ),
    ],
    ids=[
        "residue_char", "rank_one_to_three", "rank_zero_semiramified", "squarefree_index",
        "cd_at_most_two", "rank_zero_hint", "not_q_primary", "cd_not_exactly_3", "unknown",
    ],
)
def test_verdict_rows_give_their_conclusion_case_and_reasoning(args, expected):
    """The residue-characteristic return and each row of the verdict table,
    first to last: conclusion, case and reasoning as the rule dispatch that
    the table replaced gave them."""
    v = verdict(*args())
    assert (v.conclusion, v.rule, v.reasoning) == expected

def test_witness_batch_computes_the_norm_of_j_once(monkeypatch):
    """The algebra keeps one i and one j, so the reduced characteristic
    polynomial of j, which the random norm-one element and its decomposition
    both need, is computed once and then read from j's cache.  The other
    is that of the random c, which is inverted; e lies in F[i], so its norm
    is its conjugate chain, and the resolvent is certified a unit without
    its norm."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    assert alg.i() is alg.i() and alg.j() is alg.j()
    computed, real = [], AlgebraElement.prd

    def spy(self):
        if self._prd is None:
            computed.append(set(self.coeffs))
        return real(self)

    monkeypatch.setattr(AlgebraElement, "prd", spy)
    sk1_witness_batch(alg, count=1, seed=0)
    assert len(computed) == 2
    assert computed.count({(0, 1)}) == 1


@pytest.mark.parametrize(
    "text, counts",
    [
        # conjugation by j is tau: e's norm chain is the resolvent's prefixes
        ("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", {"norm": 2, "resolvent": 3}),
        # b = x + y truncates the inverse of j: sigma is two products, and the
        # resolvent forms its own prefixes with them
        ("symbol(n=3, omega=2, a=x, b=x+y) over F7((x))((y))", {"norm": 2, "resolvent": 13}),
    ],
)
def test_witness_batch_job_products(monkeypatch, text, counts):
    """The algebra products of one batch job, by stage.  The norm of e in
    F[i] is its conjugate chain, n - 1 products (Berkowitz made 8), and the
    resolvent's only check is verify's three products: the two-check flow
    made 6 and 16 in the resolvent.  Making e (c, its inverse, the
    commutator) and the sample's powers of e take 9."""
    alg = parse_algebra(text, 10)
    alg.verify_splitting_relations()
    stage, made = ["batch"], {}
    real = symbol._sum_of_products

    def staged(name, func):
        def run(*args, **kwargs):
            outer, stage[0] = stage[0], name
            try:
                return func(*args, **kwargs)
            finally:
                stage[0] = outer

        return run

    def products(alg, pairs):
        made[stage[0]] = made.get(stage[0], 0) + 1
        return real(alg, pairs)

    monkeypatch.setattr(symbol, "_sum_of_products", products)
    monkeypatch.setattr(sk1, "certify_norm_one", staged("norm", certify_norm_one))
    monkeypatch.setattr(sk1, "hilbert90_decompose", staged("resolvent", sk1.hilbert90_decompose))
    monkeypatch.setattr(CommutatorWitness, "verify", staged("verify", CommutatorWitness.verify))
    (entry,) = sk1_witness_batch(alg, count=1, seed=0)
    assert entry["verified"] is True
    assert made == {"batch": 9, **counts, "verify": 3}


def _plain(e):
    return {kl: series_plain(c.payload) for kl, c in e.coeffs.items()}


def _phase_of(x0, z):
    """omega^(l k' - k l') c i^k' j^l' term by term, for x0 = i^k j^l."""
    alg = x0.algebra
    ((k, l), _), = x0.coeffs.items()
    return AlgebraElement(
        alg,
        {(k2, l2): c.scale(alg.omega ** ((l * k2 - k * l2) % alg.degree)) for (k2, l2), c in z.coeffs.items()},
    )


@pytest.mark.parametrize(
    "text, phased",
    [
        # every monomial of (x, y) has an exact inverse
        ("symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))", ["i", "j", "i*j", "i^2*j"]),
        ("symbol(n=4, omega=2, a=x, b=y) over F5((x))((y))", ["i", "j", "i*j", "i^2*j"]),
        # the inverse of i is truncated once a = x + y is inverted
        ("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", ["j"]),
    ],
)
def test_conjugation_by_a_monomial_is_a_phase_where_the_inverse_is_exact(monkeypatch, text, phased):
    """Where the phase applies it equals the two products in every coefficient
    and every bound at every level, and forms no product; elsewhere the
    products are kept, and the phase would have certified other windows."""
    alg = parse_algebra(text, 8)
    tower = alg.tower
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    rng = random.Random(88)
    products = []
    real = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return real(x, y)

    phase_would_differ = 0
    for x0 in (alg.i(), alg.j(), alg.monomial(1, 1), alg.monomial(2, 1)):
        sigma = conjugation(x0)
        x0_inv = x0.inv()
        for _ in range(10):
            z = random_algebra_element(alg, rng, terms=3)
            if rng.random() < 0.5:
                z = z.scale(dense)
            want = x0 * z * x0_inv
            with monkeypatch.context() as patch:
                patch.setattr(AlgebraElement, "__mul__", counted)
                del products[:]
                got = sigma(z)
            assert _plain(got) == _plain(want)
            assert len(products) == (0 if str(x0) in phased else 2)
            phase_would_differ += _plain(_phase_of(x0, z)) != _plain(want)
    assert (phase_would_differ > 0) == (len(phased) < 4)


def test_kappa_of_monomials_builds_no_splitting_matrix(monkeypatch):
    alg = make_symbol_xy(3, 7)
    alg.verify_splitting_relations()

    def refuse(*args):
        raise AssertionError("splitting representation used")

    monkeypatch.setattr(AlgebraElement, "splitting_matrix", refuse)
    monkeypatch.setattr(symbol, "_l_charpoly", refuse)
    out = kappa(alg, alg.v_of_i(), alg.v_of_j())
    assert out.element == alg.scalar(alg.tower.constant(alg.omega.inv()))


# ---------------------------------------------------------------------------
# the layer read off the keys against the orbit walk


_SWEEP_ALGEBRAS = [
    ("symbol(n=2, omega=-1, a=2, b=t) over F5((t))", 16),
    ("symbol(n=2, omega=-1, a=x, b=x+y) over F3((x))((y))", 8),
    ("symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))", 8),
    ("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8),
    ("symbol(n=3, omega=2, a=x, b=x+y) over F7((x))((y))", 10),
]


def sweep_elements(alg, rng, count):
    """count norm-one elements c x0 c^-1 x0^-1 for monomials x0.

    c spans the powers of a random monomial u, so e lies in F[u], except
    for one in five, whose c has random keys; two in five have c scaled by
    the truncated 1/(1 + x + y), so their keys may be uncertified."""
    n, tower = alg.degree, alg.tower
    p = tower.base.char
    dense = tower.one()
    for v in tower.variables:
        dense = dense + tower.var(v)
    dense = dense.inv()
    made = 0
    while made < count:
        u = (rng.randrange(n), rng.randrange(n))
        x0 = alg.monomial(*rng.choice([(0, 1), (1, 0), (rng.randrange(n), rng.randrange(1, n))]))
        mixed = rng.random() < 0.2
        c = alg.zero()
        for r in range(n):
            key = (rng.randrange(n), rng.randrange(n)) if mixed else (u[0] * r, u[1] * r)
            coef = rng.randint(0, p - 1)
            if coef:
                exps = tuple(rng.randint(0, 1) for _ in range(tower.height))
                c = c + alg.monomial(*key, tower.monomial(exps, coef))
        if rng.random() < 0.4:
            c = c.scale(dense)
        try:
            if c.nrd().indistinguishable_from_zero():
                continue
            e = c * x0 * c.inv() * x0.inv()
        except ValdivError:
            continue
        made += 1
        yield e


def decomposition_outcome(e, seed, flow=None):
    """("witness", the printed factors), or the error type and message;
    flow(e, rng) gives the factors, by default `certify_norm_one` then
    `decompose_norm_one`."""
    flow = flow or (lambda e, rng: decompose_norm_one(certify_norm_one(e), rng).factors)
    try:
        return "witness", tuple((str(x), str(y)) for x, y in flow(e, random.Random(seed)))
    except ValdivError as exc:
        return type(exc).__name__, str(exc)


def _layer_or_error(choose, e):
    try:
        return choose(e)
    except DegenerateDecompositionError as exc:
        return str(exc)


def sweep_layers(monkeypatch, algebras, count):
    """Decompose count seeded elements per algebra twice, reading the layer
    off the keys and by the orbit walk, and assert that both agree.

    Where every key is certified, the conjugator and its order must be
    equal; on every element the whole decomposition outcome must be.
    Returns, per algebra, the set of outcomes and key shapes seen."""
    seen_by = {}
    for text, prec in algebras:
        alg = parse_algebra(text, prec)
        seen = seen_by[text] = set()
        for idx, e in enumerate(sweep_elements(alg, random.Random(text), count)):
            certified = [kl for kl, c in e.coeffs.items() if not c.indistinguishable_from_zero()]
            new = decomposition_outcome(e, idx)
            with monkeypatch.context() as patch:
                patch.setattr(sk1, "_search_monomial_conjugator", orbit_walk_layer)
                old = decomposition_outcome(e, idx)
            layered = not e.is_scalar() and not e.agrees_to_precision(alg.one())
            assert new == old
            if layered and set(certified) <= {(0, 0)}:
                # scalar to precision and fixed by every monomial: see below
                witness = decompose_norm_one(certify_norm_one(e), random.Random(idx))
                assert new[0] == "witness" and commutator_product_check(witness)
                seen.add("scalar to precision")
            if len(certified) < len(e.coeffs):
                seen.add("uncertified keys")
            elif layered:
                chosen = _layer_or_error(sk1._search_monomial_conjugator, e)
                assert chosen == _layer_or_error(orbit_walk_layer, e)
            if any(sk1._phase(u, v, alg.degree) for u in certified for v in certified):
                seen.add("non-commuting keys")
            seen.add(new[0])
    return seen_by


def test_layer_read_off_the_keys_matches_the_orbit_walk(monkeypatch):
    """Seeded norm-one elements over five algebras, a truncated conjugator
    (the inverse of j once b = x + y) and mixed, non-commuting keys
    included: the layer read off the keys gives the orbit walk's outcomes."""
    seen_by = sweep_layers(monkeypatch, _SWEEP_ALGEBRAS, 20)
    assert all("witness" in seen for seen in seen_by.values())
    for text, _ in _SWEEP_ALGEBRAS[3:]:  # the inverse of i, or of j, is truncated
        assert {"witness", "uncertified keys"} <= seen_by[text]
    assert "non-commuting keys" in seen_by[_SWEEP_ALGEBRAS[3][0]]


# the two n = 4 algebras that, with _SWEEP_ALGEBRAS, make up the sweep on
# which the benchmark's frozen failure n4-axy-p8/27 was studied
_N4_ALGEBRAS = [
    ("symbol(n=4, omega=2, a=x, b=y) over F5((x))((y))", 8),
    ("symbol(n=4, omega=auto, a=x+y, b=y) over F5((x))((y))", 8),
]


def test_one_check_decomposition_matches_the_two_check_flow(monkeypatch):
    """On 30 seeded elements of each of seven algebras, decompose_norm_one,
    with e's conjugate chain as the norm prefixes where j acts as tau and
    verify as the one acceptance test, prints the factors and raises the
    error types and messages of the two-check flow of tests/oracles.py."""
    shared, real = [], sk1.hilbert90_decompose

    def h90(*args, **kwargs):
        shared.append(kwargs["prefixes"] is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(sk1, "hilbert90_decompose", h90)
    seen = set()
    for text, prec in _SWEEP_ALGEBRAS + _N4_ALGEBRAS:
        alg = parse_algebra(text, prec)
        for idx, e in enumerate(sweep_elements(alg, random.Random(text), 30)):
            new = decomposition_outcome(e, idx)
            assert new == decomposition_outcome(e, idx, two_check_decomposition), (text, idx)
            seen.add(new[0])
    assert seen == {"witness", "DegenerateDecompositionError", "NormCertificateError"}
    assert shared.count(True) >= 20 and shared.count(False) >= 80


def test_an_element_scalar_to_precision_fixed_by_every_monomial_gets_the_scalar_witness():
    """e = c j c^-1 j^-1 with c = i^2/(1 + x + y) + O(y^9) equals the scalar
    omega in every certified coefficient but keeps uncertified i-terms.
    Every monomial conjugation fixes it, so no layer exists; its witness is
    the scalar one, [j, i], which the product oracle accepts too.  The
    orbit walk took the shortcut x0 = j with order 1 and reported the layer
    norm, which is e, as a norm failure."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    tower = alg.tower
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    c = alg.monomial(2, 0, dense) + alg.scalar(parse_series("O(y^9)", tower))
    e = c * alg.j() * c.inv() * alg.j().inv()
    assert sorted(e.coeffs) == [(0, 0), (1, 0), (2, 0)]
    assert [kl for kl, v in e.coeffs.items() if not v.indistinguishable_from_zero()] == [(0, 0)]
    assert e.scalar_part().residue() == alg.omega
    assert not e.is_scalar()
    witness = decompose_norm_one(certify_norm_one(e))
    assert witness.factors == ((alg.j(), alg.i()),)
    assert witness.verify() and commutator_product_check(witness)
    x0, order = orbit_walk_layer(e)
    assert x0 is alg.j() and order == 1
    with pytest.raises(NormCertificateError, match="norm along the cyclic layer"):
        hilbert90_decompose(e, conjugation(x0), order, None)



def test_the_engine_walks_the_route_tuple(monkeypatch):
    """decompose_norm_one tries sk1._ROUTES in order: with one route left,
    omega and an element of F[i] each get that route's refusal instead of
    their witness, and in either order both decompose as before."""
    alg = make_symbol_xy(3, 7)
    omega = alg.scalar(alg.omega)
    layered = _random_norm_one_in_i_span(alg, random.Random(7))

    def outcomes():
        return [decomposition_outcome(e, 5) for e in (omega, layered)]

    default = outcomes()
    assert default[0] == ("witness", (("j", "i"),))
    assert default[1][0] == "witness" and default[1][1][0][1] == "j"
    monkeypatch.setattr(sk1, "_ROUTES", (sk1._layer_witness,))
    assert outcomes()[0] == (
        "DegenerateDecompositionError",
        "central norm-one scalar outside the root-of-unity image",
    )
    assert outcomes()[1] == default[1]
    monkeypatch.setattr(sk1, "_ROUTES", (sk1._scalar_witness,))
    assert outcomes() == [
        default[0],
        ("DegenerateDecompositionError", "not a power of omega in every certified coefficient"),
    ]
    monkeypatch.setattr(sk1, "_ROUTES", (sk1._layer_witness, sk1._scalar_witness))
    assert outcomes() == default


def test_only_a_refusal_moves_the_walk_on(monkeypatch):
    """A route's DegenerateDecompositionError passes the element to the next
    route, and the last refusal is raised; any other error ends the walk."""
    alg = make_symbol_xy(3, 7)
    tried = []

    def route(error):
        def refuse(e, rng):
            tried.append(error.__name__)
            raise error(error.__name__)

        return refuse

    cert = certify_norm_one(alg.scalar(alg.omega))
    refusal, other = route(DegenerateDecompositionError), route(NormCertificateError)
    monkeypatch.setattr(sk1, "_ROUTES", (refusal, other, refusal))
    with pytest.raises(NormCertificateError):
        decompose_norm_one(cert)
    assert tried == ["DegenerateDecompositionError", "NormCertificateError"]
    monkeypatch.setattr(sk1, "_ROUTES", (refusal, sk1._scalar_witness))
    assert decompose_norm_one(cert).factors == ((alg.j(), alg.i()),)
    monkeypatch.setattr(sk1, "_ROUTES", (sk1._layer_witness, refusal))
    with pytest.raises(DegenerateDecompositionError, match="^DegenerateDecompositionError$"):
        decompose_norm_one(cert)


def test_the_walk_frees_a_refusal_without_the_cyclic_collector(monkeypatch):
    """A refusal held in the walk's frame would form a cycle with its
    traceback, which holds that frame, so every decomposition that moves
    past a route would leave garbage for the collector; it is freed at once."""
    refusals = []

    class Refusal(DegenerateDecompositionError):
        def __init__(self, *args):
            super().__init__(*args)
            refusals.append(weakref.ref(self))

    def refuse(e, rng):
        raise Refusal("refused")

    alg = make_symbol_xy(3, 7)
    cert = certify_norm_one(alg.scalar(alg.omega))
    monkeypatch.setattr(sk1, "_ROUTES", (refuse, sk1._scalar_witness))
    gc.disable()
    try:
        assert decompose_norm_one(cert).factors == ((alg.j(), alg.i()),)
        assert len(refusals) == 1 and refusals[0]() is None
    finally:
        gc.enable()

def test_the_identity_to_precision_is_the_scalar_witness_at_k_0():
    """e = 1 + O(y^9) i + O(y^5) j^2 is 1 in every certified coefficient: the
    scalar route returns the empty witness, and the layer route, which finds
    no monomial that moves e, refuses it."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    tower = alg.tower
    e = alg.one() + alg.monomial(1, 0, parse_series("O(y^9)", tower))
    e = e + alg.monomial(0, 2, parse_series("O(y^5)", tower))
    assert [kl for kl, c in e.coeffs.items() if not c.indistinguishable_from_zero()] == [(0, 0)]
    assert not e.is_scalar()
    witness = decompose_norm_one(certify_norm_one(e))
    assert witness == CommutatorWitness((), e) == sk1._scalar_witness(e, None)
    with pytest.raises(DegenerateDecompositionError, match="recognized conjugation-cyclic layer"):
        sk1._layer_witness(e, random.Random(0))

# ---------------------------------------------------------------------------
# verification without inverses: the unit certificate and the product oracle


def _spied_norm_fallback(monkeypatch):
    """The elements whose unit certificate falls back to the reduced norm."""
    calls, real = [], AlgebraElement.unit_prd

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AlgebraElement, "unit_prd", spy)
    return calls


@pytest.mark.parametrize(
    "text",
    [
        "symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))",
        "symbol(n=4, omega=2, a=x, b=y) over F5((x))((y))",
    ],
)
def test_unit_certificate_accepts_f_of_i_without_a_norm(monkeypatch, text):
    """v(i) = v(a)/n has order n, so F[i] is a field of degree n: a certified
    nonzero element of it is a unit, an uncertified key included, and no
    reduced norm is formed.  So is a single term with a truncated coefficient."""
    alg = parse_algebra(text, 8)
    tower, n = alg.tower, alg.degree
    assert [v.denominator for v in alg.v_of_i()] == [1, n]
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    exact = sum((alg.monomial(k, 0, tower.constant(k + 1)) for k in range(n)), alg.zero())
    truncated = alg.one() + alg.monomial(1, 0, dense) + alg.monomial(n - 1, 0, parse_series("O(y^2)", tower))
    assert truncated.coeffs[(n - 1, 0)].indistinguishable_from_zero()

    def refuse(self):
        raise AssertionError("reduced characteristic polynomial formed")

    monkeypatch.setattr(AlgebraElement, "prd", refuse)
    for x in (exact, truncated, alg.monomial(2, 1, dense)):
        sk1._certify_unit(x)


@pytest.mark.parametrize(
    "text, key",
    [
        # b = 1: v(j) = 0, and F[j] = F[t]/(t^3 - 1) has zero divisors
        ("symbol(n=3, omega=2, a=x, b=1) over F7((x))", (0, 1)),
        # v(i^2) = v(x)/2 has order 2, not 4
        ("symbol(n=4, omega=2, a=x, b=y) over F5((x))((y))", (2, 0)),
    ],
)
def test_unit_certificate_falls_back_to_the_norm_outside_a_field(monkeypatch, text, key):
    alg = parse_algebra(text, 8)
    x = alg.scalar(2) + alg.monomial(*key)
    calls = _spied_norm_fallback(monkeypatch)
    sk1._certify_unit(x)
    assert calls == [x]


@pytest.mark.parametrize(
    "constant, error, message",
    [
        ("-1", NotInvertibleError, "reduced norm is zero; not a unit"),
        ("-1 + O(x^3)", PrecisionExhaustedError, "reduced norm is undecided at precision"),
    ],
)
def test_unit_certificate_refuses_a_zero_divisor_as_inv_does(constant, error, message):
    """j - 1 in (x, 1) has reduced norm 1 - b = 0; with a truncated constant
    the norm is zero to precision.  The certificate, and verify through it,
    raise inv's error with inv's message."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x, b=1) over F7((x))", 8)

    def zero_divisor():  # a new element each time, with nothing cached
        return alg.j() + alg.scalar(parse_series(constant, alg.tower))

    raised = []
    for check in (
        lambda: zero_divisor().inv(),
        lambda: sk1._certify_unit(zero_divisor()),
        lambda: CommutatorWitness(((zero_divisor(), alg.i()),), alg.one()).verify(),
    ):
        with pytest.raises(error) as info:
            check()
        raised.append(str(info.value))
    assert raised == [message] * 3


def test_decomposition_forms_no_norm_of_the_resolvent(monkeypatch):
    """The resolvent c lies in F[i], a field, so verify certifies it a unit
    without its reduced characteristic polynomial."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    e = _random_norm_one_in_i_span(alg, random.Random(11))
    cert = certify_norm_one(e)
    resolvents, computed = [], []
    real_h90, real_prd = sk1.hilbert90_decompose, AlgebraElement.prd

    def h90(*args, **kwargs):
        resolvents.append(real_h90(*args, **kwargs))
        return resolvents[-1]

    def prd(self):
        if self._prd is None:
            computed.append(self)
        return real_prd(self)

    monkeypatch.setattr(sk1, "hilbert90_decompose", h90)
    monkeypatch.setattr(AlgebraElement, "prd", prd)
    witness = decompose_norm_one(cert, random.Random(5))
    (c,) = resolvents
    assert witness.factors[0][0] is c
    assert not all(v.is_exact() for v in c.coeffs.values())
    assert all(x is not c for x in computed)


def _oracle_refuses(witness) -> bool:
    try:
        return not commutator_product_check(witness)
    except PrecisionExhaustedError:
        return True


def test_verify_agrees_with_the_product_oracle_and_refuses_mutants():
    """Seeded layer-route witnesses over the sweep algebras pass verify and,
    where the oracle's inverse of the resolvent is decided, the oracle too.
    A wrong factor, swapped factors and a perturbed target fail both."""
    checked, decided = 0, 0
    for text, prec in _SWEEP_ALGEBRAS:
        alg = parse_algebra(text, prec)
        bump = alg.scalar(alg.tower.var(alg.tower.variables[0]))
        for idx, e in enumerate(sweep_elements(alg, random.Random(text), 14)):
            try:
                witness = decompose_norm_one(certify_norm_one(e), random.Random(idx))
            except ValdivError:
                continue
            if len(witness) != 1 or e.is_scalar():  # at n = 2, [i, j] = [j, i]
                continue
            ((x, y),) = witness.factors
            assert witness.verify()
            try:
                assert commutator_product_check(witness)
                decided += 1
            except PrecisionExhaustedError:
                pass
            for factors, target in (((x + alg.one(), y), e), ((y, x), e), ((x, y), e + bump)):
                mutant = CommutatorWitness((factors,), target)
                assert not mutant.verify()
                assert _oracle_refuses(mutant)
            checked += 1
    assert checked >= 30 and decided >= 25  # 35 and 31 when written


def test_verify_of_a_repeated_commutator_refuses_a_wrong_count():
    """The witness of omega^2 repeats [j, i]; as a witness of omega it fails
    verify and the oracle alike."""
    alg = make_symbol_xy(3, 7)
    witness = decompose_norm_one(certify_norm_one(alg.scalar(alg.omega**2)))
    assert witness.verify() and commutator_product_check(witness)
    mutant = CommutatorWitness(witness.factors, alg.scalar(alg.omega))
    assert not mutant.verify() and not commutator_product_check(mutant)


def test_skolem_noether_refuses_a_candidate_that_is_not_a_conjugator(monkeypatch):
    """j i j^-1 = omega i.  With the nullspace replaced by the coordinates of
    1 + i, which commutes with i, every candidate is a unit and is refused,
    as the oracle with the inverse refuses it; the true nullspace gives a
    conjugator that the oracle accepts."""
    alg = make_symbol_xy(3, 7)
    i = alg.i()
    target = i.scale(alg.omega)
    found = skolem_noether_conjugator(i, target, random.Random(2))
    assert conjugator_check(found, i, target)
    wrong = alg.one() + i
    assert not conjugator_check(wrong, i, target)
    basis = [(k, l) for k in range(3) for l in range(3)]
    monkeypatch.setattr(
        sk1, "_nullspace", lambda _alg, _mat: [[wrong.coeffs.get(b, alg.tower.zero()) for b in basis]]
    )
    with pytest.raises(ConjugatorSearchError, match="no invertible conjugator"):
        skolem_noether_conjugator(i, target, random.Random(2))
