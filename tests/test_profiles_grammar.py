import random
import re

import pytest

from valdiv.errors import ParseError, UndefinedValueError, UsageError
from valdiv.fields import QQ, ExtensionField, PrimeField
from valdiv.grammar import (
    parse_algebra,
    parse_description,
    parse_field,
    parse_profile,
    parse_series,
    parse_tower,
    print_algebra,
    print_field,
    print_profile,
    print_series,
    print_tower,
)
from valdiv.laurent import Tower
from valdiv.profiles import INF, FieldProfile, ResidueBase, declared_profile, profile_from_tower
from valdiv.symbol import SymbolAlgebra

from oracles import series_invariant_breaches, series_plain


def test_parse_field_descriptors():
    assert parse_field("Q") is QQ
    assert parse_field("F5") == PrimeField(5)
    f = parse_field("F7[w]/(w^2+w+3)")
    assert isinstance(f, ExtensionField)
    assert f.base == PrimeField(7)
    assert f.degree == 2
    qi = parse_field("Q[z]/(z^2+1)")
    assert qi.degree == 2 and qi.base is QQ


def test_field_round_trip():
    for text in ["Q", "F5", "F7[w]/(3 + w + w^2)", "Q[z]/(1 + z^2)"]:
        field = parse_field(text)
        assert parse_field(print_field(field)) == field


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as err:
        parse_field("F7[w]/(w^2+w+)")
    assert err.value.line == 1
    assert err.value.col > 0
    with pytest.raises(ParseError):
        parse_field("G5")
    with pytest.raises(ParseError):
        parse_profile("decl(cd2)")
    with pytest.raises(ParseError, match=r"^unexpected character \(line 1, col 3\)$"):
        parse_field("F7 @")


@pytest.mark.parametrize(
    "text, message",
    [
        ("Qp(p=4)((t))", "p must be a prime, got 4 (line 1, col 5)"),
        ("Qp(p=0)((t))", "p must be a prime, got 0 (line 1, col 5)"),
        ("Qp(p=-7)((t))", "p must be a prime, got -7 (line 1, col 5)"),
        ("decl(cd4=1)((t))", "cd4: 4 is not a prime (line 1, col 5)"),
        ("decl(cd2=1, cd1=0)", "cd1: 1 is not a prime (line 1, col 12)"),
        ("decl(cd2=1, cd2=3)((t))", "cd2 is declared twice (line 1, col 12)"),
        ("decl(cd3=-1)((x))((y))((z))((w))", "cd3 must be >= 0 or inf, got -1 (line 1, col 9)"),
        ("decl(x=1)((t))", "expected cd<q>=<value>, found 'x' (line 1, col 5)"),
        ("F5^0((t))", "the extension degree must be >= 1, got 0 (line 1, col 3)"),
        ("F5^-2", "the extension degree must be >= 1, got -2 (line 1, col 3)"),
    ],
)
def test_invalid_profile_parameters_fail_at_their_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_profile(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "tower, text, col",
    [
        ("F7((x))((y))", "O(y*x*x^3)", 6),
        ("F7((x))((y))", "2 + O(y*x*y)", 10),
        ("F5((t))", "O(t*t)", 4),
    ],
)
def test_marker_deeper_than_the_tower_fails_at_the_extra_component(tower, text, col):
    with pytest.raises(ParseError) as err:
        parse_series(text, parse_tower(tower))
    assert str(err.value) == f"truncation marker deeper than the tower (line 1, col {col})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("O(y*x*z)", "unknown variable 'z' in truncation marker (line 1, col 6)"),
        ("O(w)", "unknown variable 'w' in truncation marker (line 1, col 2)"),
        ("O(x*y^2)", "marker components must follow nesting order, expected 'y' (line 1, col 2)"),
        ("y + O(x^3)", "marker components must follow nesting order, expected 'y' (line 1, col 6)"),
        ("O(y*y)", "marker components must follow nesting order, expected 'x' (line 1, col 4)"),
    ],
)
def test_marker_errors_point_at_the_offending_component(text, message):
    with pytest.raises(ParseError) as err:
        parse_series(text, parse_tower("F7((x))((y))"))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "profile",
    [
        FieldProfile(ResidueBase("finite", p=5), ("t",)),
        FieldProfile(ResidueBase("finite", p=2, extension_degree=3)),
        profile_from_tower(parse_tower("F3[w]/(w^2+1)((t))")),
        profile_from_tower(parse_tower("Q((t))")),
        FieldProfile(ResidueBase("padic", p=7), ("t",)),
        FieldProfile(ResidueBase("alg_closed"), ("x", "y")),
        declared_profile({3: 1, 2: INF}, ("x", "y")),
    ],
)
def test_every_base_kind_parses_back_from_its_description(profile):
    assert parse_profile(profile.describe()) == profile


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ResidueBase("padic", p=4), "p must be a prime, got 4"),
        (lambda: ResidueBase("finite", p=9), "p must be a prime, got 9"),
        (lambda: ResidueBase("finite", p=3, extension_degree=0), "the extension degree must be >= 1, got 0"),
        (lambda: declared_profile({3: -1}, ("x", "y", "z", "w")), "cd3 must be >= 0 or inf, got -1"),
        (lambda: declared_profile({4: 1}), "cd4: 4 is not a prime"),
        (lambda: declared_profile({3: 1.5}), "cd3 must be >= 0 or inf, got 1.5"),
        (lambda: declared_profile({3: "infinite"}), "cd3 must be >= 0 or inf, got infinite"),
        (lambda: ResidueBase("declared", cd_table=((3, 1), (3, 2))), "a prime is declared twice"),
    ],
)
def test_profile_constructors_refuse_what_the_grammar_refuses(build, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        build()


def test_parse_tower():
    tow = parse_tower("F5((x))((y))", default_prec=8)
    assert tow.base == PrimeField(5)
    assert tow.variables == ("x", "y")
    assert tow.default_prec == 8
    assert parse_tower(print_tower(tow)) == tow
    assert parse_tower("F5((x))((y))  \n", default_prec=8) == tow


def test_parse_profile_shapes():
    p1 = parse_profile("decl(cd2=1)((x))((y))")
    assert p1.height == 2
    assert p1.cd_q(2).value == 3
    p2 = parse_profile("F5((t))")
    assert p2.height == 1
    assert p2.residue_char == 5
    p3 = parse_profile("Qp(p=7)((t))")
    assert p3.cd_q(2).kind == "at_most"
    p4 = parse_profile("decl(cd2=inf)")
    assert p4.cd_q(2).kind == "infinite"


def test_profile_round_trip_corpus():
    for text in [
        "decl(cd2=1)((x))((y))",
        "decl(cd2=2)((t))",
        "decl(cd2=0)",
        "F5((t))",
        "F25",  # not prime -> error below
    ]:
        if text == "F25":
            with pytest.raises(Exception):
                parse_profile(text)
            continue
        prof = parse_profile(text)
        assert parse_profile(print_profile(prof)) == prof
        assert print_profile(prof) == text


def test_profile_round_trip_randomized():
    rng = random.Random(83)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(200):
        kind = rng.choice(["finite", "declared", "padic"])
        height = rng.randint(0, 3)
        variables = tuple(f"v{i}" for i in range(height))
        if kind == "finite":
            text = f"F{rng.choice(primes)}"
        elif kind == "padic":
            text = f"Qp(p={rng.choice(primes)})"
        else:
            entries = sorted(rng.sample(primes, rng.randint(1, 3)))
            text = "decl(" + ", ".join(
                f"cd{q}={rng.choice([0, 1, 2, 3, 'inf'])}" for q in entries
            ) + ")"
        text += "".join(f"(({v}))" for v in variables)
        prof = parse_profile(text)
        assert parse_profile(print_profile(prof)) == prof


def test_cd_arithmetic_examples():
    assert parse_profile("decl(cd2=1)((x))((y))").cd_q(2).value == 3
    assert parse_profile("decl(cd2=2)((t))").cd_q(2).value == 3
    assert parse_profile("decl(cd2=0)").cd_q(2).value == 0
    assert parse_profile("decl(cd3=1)((x))((y))").cd_q(3).value == 3
    # algebraically closed base: dimension 0 at every prime
    assert parse_profile("C").cd_q(5).value == 0
    assert parse_profile("C((t))").cd_q(2).value == 1
    assert parse_profile(print_profile(parse_profile("C((t))"))) == parse_profile("C((t))")


def test_cd_is_additive_across_layers():
    for m in range(0, 4):
        prof = declared_profile({5: 1}, tuple(f"x{i}" for i in range(m)))
        assert prof.cd_q(5).value == 1 + m
        assert prof.r_q(5) == m


def test_cd_undefined_at_residue_characteristic():
    prof = parse_profile("F5((t))")
    with pytest.raises(UndefinedValueError):
        prof.cd_q(5)
    assert prof.cd_q(2).value == 2


def test_profile_from_tower():
    tow = parse_tower("F7((x))((y))")
    prof = profile_from_tower(tow)
    assert prof.residue_char == 7
    assert prof.r_q(3) == 2
    assert prof.cd_q(3).value == 3
    over_f9 = profile_from_tower(parse_tower("F3[w]/(w^2+1)((t))"))
    assert over_f9.describe() == "F3^2((t))" and over_f9.residue_char == 3
    assert parse_profile("F3^2((t))") == over_f9
    assert parse_profile("F3^1((t))") == parse_profile("F3((t))")


def test_parse_algebra_and_round_trip():
    alg = parse_algebra("symbol(n=4, omega=auto, a=x, b=y) over F5((x))((y))")
    assert alg.degree == 4
    assert alg.omega == PrimeField(5).element(2)
    assert alg.a == alg.tower.var("x")
    text = print_algebra(alg)
    again = parse_algebra(text)
    assert again == alg
    quat = parse_algebra("symbol(n=2, omega=-1, a=2, b=t) over F5((t))")
    assert quat.degree == 2
    assert quat.a == quat.tower.constant(2)
    assert parse_algebra(print_algebra(quat)) == quat


@pytest.mark.parametrize("field", ["F5[w]/(w^2+2)", "F7[w]/(w^2+1)"])
@pytest.mark.parametrize("n", [4, 8])
def test_algebras_over_an_extension_field_parse_back(field, n):
    """Slots may name the field's generator, so omega=auto's choice (2 + 2*w
    at n = 8 over F7[w]/(w^2+1)) parses back, and a coefficient of several
    terms prints in parentheses, so (1 + w)*t is not read as 1 + w*t."""
    alg = parse_algebra(f"symbol(n={n}, omega=auto, a=t, b=3 + (1 + w)*t + w^2*t^2) over {field}((t))")
    text = print_algebra(alg)
    assert "(1 + w)*t" in text
    assert parse_algebra(text) == alg
    assert print_algebra(parse_algebra(text)) == text


@pytest.mark.filterwarnings("ignore::valdiv.fields.IrreducibilityWarning")
def test_negative_coefficients_and_generator_exponents():
    alg = parse_algebra("symbol(n=2, omega=-1, a=1-t, b=t) over Q((t))")
    assert print_algebra(alg) == "symbol(n=2, omega=-1, a=1 + -1*t, b=t) over Q((t))"
    assert parse_algebra(print_algebra(alg)) == alg
    field = parse_field("Q[u]/(u + 3*u^2 - 2*u^3 + u^5)")
    assert field.describe() == "Q[u]/(u + 3*u^2 + -2*u^3 + u^5)"
    assert parse_field(field.describe()) == field
    tower = parse_tower("F7[w]/(w^2+1)((t))")
    assert parse_series("w^3*t - -w", tower) == parse_series("6*w*t + w", tower)
    with pytest.raises(ParseError, match=r"^the generator 'w' takes exponents >= 0 \(line 1, col 2\)$"):
        parse_series("t*w^-1", tower)


def test_parse_description_dispatch():
    assert isinstance(parse_description("symbol(n=2, omega=-1, a=2, b=t) over F5((t))"), SymbolAlgebra)
    assert isinstance(parse_description("decl(cd2=1)((x))((y))"), FieldProfile)


def test_series_literals_round_trip():
    tow = parse_tower("F5((t))", default_prec=8)
    s = parse_series("2 + t + O(t^6)", tow)
    assert s.payload.coeffs[0] == PrimeField(5).element(2)
    assert s.payload.bound == 6
    assert parse_series(print_series(s), tow) == s

    exact = parse_series("2 + 3*t^2 + t^-1", tow)
    assert print_series(exact) == "t^-1 + 2 + 3*t^2"
    assert parse_series(print_series(exact), tow) == exact

    # parenthesized factors, alone and inside a product
    assert print_series(parse_series("(1+t)", tow)) == "1 + t"
    assert print_series(parse_series("2*(1+t)*t", tow)) == "2*t + 2*t^2"


def test_series_round_trip_after_arithmetic():
    tow = parse_tower("F5((t))", default_prec=6)
    t = tow.var("t")
    val = (tow.one() - t).inv()
    assert parse_series(print_series(val), tow) == val

    xy = parse_tower("F7((x))((y))", default_prec=5)
    x, y = xy.var("x"), xy.var("y")
    e = (xy.one() + x * y.inv()).inv() * x
    assert parse_series(print_series(e), xy) == e


def test_series_round_trip_randomized():
    rng = random.Random(89)
    xy = parse_tower("F7((x))((y))", default_prec=6)
    for _ in range(100):
        e = xy.zero()
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(-3, 3), rng.randint(-3, 3))
            e = e + xy.monomial(exps, rng.randint(0, 6))
        if rng.random() < 0.4 and not e.is_zero():
            e = e.inv()
        assert parse_series(print_series(e), xy) == e


def test_nested_series_literal_with_inner_marker():
    xy = parse_tower("F7((x))((y))", default_prec=6)
    text = "3*x + 2*y + O(y^3) + O(y^0*x^4)"
    e = parse_series(text, xy)
    assert print_series(e) == text
    assert parse_series(print_series(e), xy) == e
    # marker order is not significant on input
    other = parse_series("3*x + 2*y + O(y^0*x^4) + O(y^3)", xy)
    assert other == e


def test_truncation_markers_cut_terms():
    t = parse_tower("F5((t))")
    s = parse_series("1 + t + t^3 + t^5 + O(t^3)", t).payload
    one = PrimeField(5).one()
    assert series_plain(s) == ({0: one, 1: one}, 3)
    # O(x^2) at y^0 cuts x^5 and leaves a truncated zero; O(y^3*x^1) lies
    # beyond O(y^2), in either order
    xy = parse_tower("F7((x))((y))")
    one = PrimeField(7).one()
    for text in (
        "x^5 + y + O(y^0*x^2) + O(y^2) + O(y^3*x^1)",
        "x^5 + y + O(y^3*x^1) + O(y^0*x^2) + O(y^2)",
    ):
        e = parse_series(text, xy).payload
        assert series_plain(e) == ({0: ({}, 2), 1: ({0: one}, None)}, 2)
        assert series_invariant_breaches(e) == []
