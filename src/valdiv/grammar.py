"""Description grammar for fields, towers, profiles, algebras and series.

    field    := "Q" | "F"<p> [ "[" name "]" "/" "(" expr ")" ]   (expr in name, powers >= 0)
    tower    := field ( "((" name "))" )*
    profile  := ( field | "F"<p> "^" int>=1 | "Qp" "(" "p" "=" prime ")" | "decl" "(" cd-list ")" )
                tower-suffix
    cd-list  := "cd"<prime> "=" (int>=0|"inf") ( "," ... )*   (each prime at most once)
    algebra  := "symbol" "(" "n" "=" int>=1 "," "omega" "=" (expr|"auto") ","
                 "a" "=" expr "," "b" "=" expr ")" "over" tower
    expr     := sum of products of integers, fractions and var^exp, each product
                with its own leading minus signs; over F<p>[w]/(f) a product
                may hold w^exp, exp >= 0, a constant of the base field
    series   := expr with optional truncation markers O(v^k) / O(v^e*w^k)

A description is parsed once, from one token stream, with one expression
parser, so every error is positioned in the description; printers emit the
same grammar, and parse(print(x)) = x holds for every representable value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldConstructionError, ParseError, UsageError
from .fields import (
    QQ,
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    primitive_root_of_unity,
)
from .laurent import DEFAULT_PRECISION, Tower, TowerElement
from .ordered import is_prime
from .profiles import INF, FieldProfile, ResidueBase, residue_base
from .symbol import SymbolAlgebra

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[()\[\]/^*+\-=,]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    self._fail("unexpected character", pos + len(text[pos:]) - len(text[pos:].lstrip()))
                break
            if m.group("name"):
                self.items.append(("name", m.group("name"), m.start("name")))
            elif m.group("int"):
                self.items.append(("int", m.group("int"), m.start("int")))
            else:
                self.items.append(("sym", m.group("sym"), m.start("sym")))
            pos = m.end()
        self.idx = 0

    def here(self) -> int:
        """Position of the next token, or the end of the text."""
        return self.items[self.idx][2] if self.idx < len(self.items) else len(self.text)

    def _fail(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.here()
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1)
        raise ParseError(message, line, col)

    def peek(self) -> tuple[str, str] | None:
        if self.idx < len(self.items):
            kind, val, _ = self.items[self.idx]
            return kind, val
        return None

    def next(self) -> tuple[str, str]:
        if self.idx >= len(self.items):
            self._fail("unexpected end of input")
        kind, val, _ = self.items[self.idx]
        self.idx += 1
        return kind, val

    def expect(self, kind: str, value: str | None = None) -> str:
        got = self.peek()
        if got is None or got[0] != kind or (value is not None and got[1] != value):
            want = value if value is not None else kind
            found = got[1] if got else "end of input"
            self._fail(f"expected {want!r}, found {found!r}")
        return self.next()[1]

    def accept(self, kind: str, value: str | None = None) -> bool:
        got = self.peek()
        if got is not None and got[0] == kind and (value is None or got[1] == value):
            self.next()
            return True
        return False

    def done(self):
        if self.idx != len(self.items):
            self._fail(f"trailing input starting at {self.items[self.idx][1]!r}")


def _parse_whole(text: str, read):
    """read(tokens) over the whole of text: anything left after it is an error."""
    tokens = _Tokens(text)
    value = read(tokens)
    tokens.done()
    return value


# ---------------------------------------------------------------------------
# fields


def _parse_int(tokens: _Tokens) -> int:
    sign = 1
    while tokens.accept("sym", "-"):
        sign = -sign
    return sign * int(tokens.expect("int"))


def parse_field(text: str) -> Field:
    return _parse_whole(text, _parse_field_base)


def _check_prime(tokens: _Tokens, n: int, message: str, pos: int) -> None:
    """Fail at pos with message when n is not a prime, and with the reason
    of is_prime when it cannot decide."""
    try:
        prime = is_prime(n)
    except UsageError as exc:
        tokens._fail(str(exc), pos)
    if not prime:
        tokens._fail(message, pos)


def _parse_field_base(tokens: _Tokens) -> Field:
    name = tokens.expect("name")
    if name == "Q":
        base: Field = QQ
    elif re.fullmatch(r"F\d+", name):
        p = int(name[1:])
        _check_prime(tokens, p, f"{name} is not a prime field", tokens.items[tokens.idx - 1][2])
        base = PrimeField(p)
    else:
        tokens._fail(f"unknown field base {name!r}")
    if tokens.accept("sym", "["):
        var = tokens.expect("name")
        tokens.expect("sym", "]")
        tokens.expect("sym", "/")
        tokens.expect("sym", "(")
        pos = tokens.items[tokens.idx - 1][2]
        payload = _parse_expression(tokens, Tower(base, [var])).payload
        tokens.expect("sym", ")")
        if payload.bound is not None:
            tokens._fail("a modulus cannot carry a truncation marker", pos)
        if min(payload.coeffs, default=0) < 0:
            tokens._fail(f"a modulus cannot have negative powers of {var}", pos)
        top = max(payload.coeffs, default=0)
        poly = [payload.coeffs.get(k, base.zero()) for k in range(top + 1)]
        try:
            return ExtensionField(base, poly, var=var)
        except FieldConstructionError as exc:
            tokens._fail(str(exc), pos)
    return base


def print_field(field: Field) -> str:
    return field.describe()


# ---------------------------------------------------------------------------
# towers and profiles


def _parse_tower_suffix(tokens: _Tokens, field: Field | None) -> list[str]:
    """((v1))((v2))...: distinct names, none of them the generator of `field`."""
    names: list[str] = []
    generator = getattr(field, "var", None)
    while tokens.accept("sym", "("):
        tokens.expect("sym", "(")
        name = tokens.expect("name")
        if name in names or name == generator:
            owner = "an inner tower variable" if name in names else f"the generator of {field}"
            tokens._fail(
                f"tower variable {name!r} already names {owner}", tokens.items[tokens.idx - 1][2]
            )
        names.append(name)
        tokens.expect("sym", ")")
        tokens.expect("sym", ")")
    return names


def parse_tower(text: str, default_prec: int = DEFAULT_PRECISION) -> Tower:
    return _parse_whole(text, lambda tokens: _parse_tower_inner(tokens, default_prec))


def _parse_tower_inner(tokens: _Tokens, default_prec: int) -> Tower:
    base = _parse_field_base(tokens)
    return Tower(base, _parse_tower_suffix(tokens, base), default_prec=default_prec)


def print_tower(tower: Tower) -> str:
    return tower.describe()


def parse_profile(text: str) -> FieldProfile:
    return _parse_whole(text, _parse_profile_inner)


def _parse_profile_inner(tokens: _Tokens) -> FieldProfile:
    got = tokens.peek()
    if got is None:
        tokens._fail("empty profile description")
    name, field = got[1], None
    if name == "Qp":
        tokens.next()
        tokens.expect("sym", "(")
        tokens.expect("name", "p")
        tokens.expect("sym", "=")
        pos, p = tokens.here(), _parse_int(tokens)
        _check_prime(tokens, p, f"p must be a prime, got {p}", pos)
        tokens.expect("sym", ")")
        base = ResidueBase("padic", p=p)
    elif name == "C":
        tokens.next()
        base = ResidueBase("alg_closed")
    elif name == "decl":
        tokens.next()
        tokens.expect("sym", "(")
        entries: dict[int, object] = {}
        while True:
            pos, key = tokens.here(), tokens.expect("name")
            m = re.fullmatch(r"cd(\d+)", key)
            if not m:
                tokens._fail(f"expected cd<q>=<value>, found {key!r}", pos)
            q = int(m.group(1))
            _check_prime(tokens, q, f"{key}: {q} is not a prime", pos)
            if q in entries:
                tokens._fail(f"cd{q} is declared twice", pos)
            tokens.expect("sym", "=")
            pos, nxt = tokens.here(), tokens.peek()
            if nxt and nxt[0] == "name" and nxt[1] == INF:
                tokens.next()
                entries[q] = INF
            else:
                entries[q] = _parse_int(tokens)
                if entries[q] < 0:
                    tokens._fail(f"cd{q} must be >= 0 or inf, got {entries[q]}", pos)
            if not tokens.accept("sym", ","):
                break
        tokens.expect("sym", ")")
        base = ResidueBase("declared", cd_table=tuple(sorted(entries.items())))
    else:
        field = _parse_field_base(tokens)
        base = residue_base(field)
        if isinstance(field, PrimeField) and tokens.accept("sym", "^"):
            pos, k = tokens.here(), _parse_int(tokens)
            if k < 1:
                tokens._fail(f"the extension degree must be >= 1, got {k}", pos)
            base = ResidueBase("finite", p=field.char, extension_degree=k)
    names = _parse_tower_suffix(tokens, field)
    return FieldProfile(base, tuple(names))


def print_profile(profile: FieldProfile) -> str:
    return profile.describe()


# ---------------------------------------------------------------------------
# tower-element expressions and series literals


def _parse_expression(tokens: _Tokens, tower: Tower) -> TowerElement:
    total = tower.zero()
    markers: list[tuple[tuple[int, ...], int]] = []
    sign = 1
    if tokens.accept("sym", "-"):
        sign = -1
    while True:
        got = tokens.peek()
        if got and got[0] == "name" and got[1] == "O":
            tokens.next()
            tokens.expect("sym", "(")
            prefix, bound = _parse_marker(tokens, tower)
            tokens.expect("sym", ")")
            markers.append((prefix, bound))
        else:
            total = total + _parse_term(tokens, tower, sign)
        if tokens.accept("sym", "+"):
            sign = 1
        elif tokens.accept("sym", "-"):
            sign = -1
        else:
            break
    payload = total.payload
    for prefix, bound in markers:
        payload = _apply_marker(payload, prefix, bound)
    return TowerElement(tower, payload)


def _parse_term(tokens: _Tokens, tower: Tower, sign: int) -> TowerElement:
    coef, constant = Fraction(sign), tower.base.one()
    while tokens.accept("sym", "-"):
        coef = -coef
    generator = getattr(tower.base, "var", None)
    exps = [0] * tower.height
    saw = False
    while True:
        got = tokens.peek()
        if got and got[0] == "int":
            num = int(tokens.next()[1])
            if tokens.accept("sym", "/"):
                den = int(tokens.expect("int"))
                pos, p = tokens.items[tokens.idx - 1][2], tower.base.char
                if den == 0:
                    tokens._fail("zero denominator", pos)
                if p and den % p == 0:
                    tokens._fail(f"denominator divisible by {p}", pos)
                coef *= Fraction(num, den)
            else:
                coef *= num
            saw = True
        elif got and got[0] == "name" and got[1] in (*tower.variables, generator):
            pos, name = tokens.here(), tokens.next()[1]
            e = 1
            if tokens.accept("sym", "^"):
                e = _parse_int(tokens)
            if name == generator:
                if e < 0:
                    tokens._fail(f"the generator {name!r} takes exponents >= 0", pos)
                constant = constant * tower.base.generator() ** e
            else:
                exps[tower._var_position(name)] += e
            saw = True
        elif got and got[0] == "sym" and got[1] == "(":
            tokens.next()
            inner = _parse_expression(tokens, tower)
            tokens.expect("sym", ")")
            mono = tower.monomial(tuple(exps), tower.base.element(coef) * constant)
            rest = mono * inner
            if tokens.accept("sym", "*"):
                return rest * _parse_term(tokens, tower, 1)
            return rest
        else:
            break
        if not tokens.accept("sym", "*"):
            break
    if not saw:
        tokens._fail("expected a term")
    return tower.monomial(tuple(exps), tower.base.element(coef) * constant)


def _parse_marker(tokens: _Tokens, tower: Tower) -> tuple[tuple[int, ...], int]:
    """O(v^k) or O(v^e * w^k): positions down the nesting, then the bound."""
    comps: list[tuple[str, int, int]] = []  # name, exponent, position
    while True:
        pos, name = tokens.here(), tokens.expect("name")
        if name not in tower.variables:
            tokens._fail(f"unknown variable {name!r} in truncation marker", pos)
        if len(comps) == tower.height:
            tokens._fail("truncation marker deeper than the tower", pos)
        e = 1
        if tokens.accept("sym", "^"):
            e = _parse_int(tokens)
        comps.append((name, e, pos))
        if not tokens.accept("sym", "*"):
            break
    # components must follow nesting order: outermost ... innermost
    for (name, _, pos), want in zip(comps, reversed(tower.variables)):
        if name != want:
            tokens._fail(f"marker components must follow nesting order, expected {want!r}", pos)
    prefix = tuple(e for _, e, _ in comps[:-1])
    return prefix, comps[-1][1]


def _apply_marker(payload, prefix, bound):
    """The series payload with O(.) applied; _parse_marker keeps it above the field."""
    if not prefix:
        new_bound = bound if payload.bound is None else min(payload.bound, bound)
        return payload.ring.series(payload.coeffs, new_bound)
    e = prefix[0]
    inner = payload.coeffs.get(e)
    if inner is None:
        inner = payload.ring.coeff_ring.zero()
    new_inner = _apply_marker(inner, prefix[1:], bound)
    coeffs = dict(payload.coeffs)
    coeffs[e] = new_inner
    # a marker at a position beyond the outer window is a no-op: ring.series
    # drops it
    return payload.ring.series(coeffs, payload.bound)


def parse_series(text: str, tower: Tower) -> TowerElement:
    return _parse_whole(text, lambda tokens: _parse_expression(tokens, tower))


def print_series(element: TowerElement) -> str:
    """Flat monomial rendering with explicit truncation markers."""
    tower = element.tower
    terms: list[tuple[tuple[int, ...], FieldElement]] = []
    markers: list[tuple[tuple[int, ...], int]] = []

    def walk(payload, prefix):
        if isinstance(payload, FieldElement):
            terms.append((prefix, payload))
            return
        if payload.bound is not None:
            markers.append((prefix, payload.bound))
        for e in sorted(payload.coeffs):
            walk(payload.coeffs[e], prefix + (e,))

    walk(element.payload, ())
    parts = []
    for exps, coeff in sorted(terms):
        parts.append(_render_term(tower, exps, coeff))
    for prefix, bound in sorted(markers):
        names = [tower.variables[tower.height - 1 - d] for d in range(len(prefix) + 1)]
        frags = [
            f"{name}^{e}" if e != 1 else name for name, e in zip(names, prefix)
        ]
        last = names[-1]
        frags.append(f"{last}^{bound}" if bound != 1 else last)
        parts.append("O(" + "*".join(frags) + ")")
    return " + ".join(parts) if parts else "0"


def _render_term(tower: Tower, exps: tuple[int, ...], coeff: FieldElement) -> str:
    frags = []
    cs = str(coeff)
    for d, e in enumerate(exps):
        if e == 0:
            continue
        name = tower.variables[tower.height - 1 - d]
        frags.append(name if e == 1 else f"{name}^{e}")
    if not frags:
        return cs
    if cs == "1":
        return "*".join(frags)
    if " + " in cs:  # a coefficient of several terms of F_p[w]/(f)
        cs = f"({cs})"
    return cs + "*" + "*".join(frags)


# ---------------------------------------------------------------------------
# algebras


def parse_algebra(text: str, default_prec: int = DEFAULT_PRECISION) -> SymbolAlgebra:
    return _parse_whole(text, lambda tokens: _parse_algebra_inner(tokens, default_prec))


def _parse_algebra_inner(tokens: _Tokens, default_prec: int) -> SymbolAlgebra:
    tokens.expect("name", "symbol")
    tokens.expect("sym", "(")
    order = ["n", "omega", "a", "b"]
    slots: dict[str, tuple[int, int]] = {}  # token index of the slot's start and delimiter
    for idx, key in enumerate(order):
        tokens.expect("name", key)
        tokens.expect("sym", "=")
        # skip to the ',' or ')' at depth 0; slots are read once the tower is known
        depth, start = 0, tokens.idx
        while True:
            got = tokens.peek()
            if got is None:
                tokens._fail("unterminated algebra description")
            if depth == 0 and got[1] in (",", ")"):
                break
            depth += {"(": 1, ")": -1}.get(got[1], 0)
            tokens.next()
        slots[key] = (start, tokens.idx)
        if idx < len(order) - 1:
            tokens.expect("sym", ",")
    tokens.expect("sym", ")")
    tokens.expect("name", "over")
    tower = _parse_tower_inner(tokens, default_prec)
    after_tower = tokens.idx

    def read(key, parse):
        tokens.idx, end = slots[key]
        value = parse(tokens)
        if tokens.idx != end:
            tokens._fail(f"trailing input starting at {tokens.peek()[1]!r}")
        return value

    def expression(tokens):
        return _parse_expression(tokens, tower)

    n = read("n", _parse_int)
    if n < 1:
        tokens._fail(f"n must be a positive integer, got {n}", tokens.items[slots["n"][0]][2])
    a = read("a", expression)
    b = read("b", expression)
    start, end = slots["omega"]
    if end == start + 1 and tokens.items[start][:2] == ("name", "auto"):
        omega = primitive_root_of_unity(tower.base, n)
    else:
        omega_elem = read("omega", expression)
        if tower.height and omega_elem.valuation() != (0,) * tower.height:
            tokens._fail(
                "omega must be a constant of the coefficient field", tokens.items[start][2]
            )
        omega = omega_elem.residue()
    tokens.idx = after_tower
    return SymbolAlgebra(tower, n, omega, a, b)


def print_algebra(alg: SymbolAlgebra) -> str:
    return (
        f"symbol(n={alg.degree}, omega={alg.omega}, a={print_series(alg.a)},"
        f" b={print_series(alg.b)}) over {alg.tower.describe()}"
    )


def parse_description(text: str, default_prec: int = DEFAULT_PRECISION):
    """Dispatch: algebra descriptions start with `symbol`, else a profile."""
    stripped = text.lstrip()
    if stripped.startswith("symbol"):
        return parse_algebra(text, default_prec)
    return parse_profile(text)
