"""Description grammar for fields, towers, profiles, algebras and series.

    field    := "Q" | "F"<p> [ "[" name "]" "/" "(" poly ")" ]
    tower    := field ( "((" name "))" )*
    profile  := ( field-base | "Qp" "(" "p" "=" int ")" | "decl" "(" cd-list ")" ) tower-suffix
    algebra  := "symbol" "(" "n" "=" int "," "omega" "=" (expr|"auto") ","
                 "a" "=" expr "," "b" "=" expr ")" "over" tower
    expr     := signed sum of products of integers, fractions and var^exp
    series   := expr with optional truncation markers O(v^k) / O(v^e*w^k)

Parsers report positioned errors; printers emit the same grammar, and
parse(print(x)) = x holds for every representable value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .fields import (
    QQ,
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    primitive_root_of_unity,
)
from .laurent import LaurentSeries, Tower, TowerElement
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

    def _fail(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.items[self.idx][2] if self.idx < len(self.items) else len(self.text)
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


# ---------------------------------------------------------------------------
# fields


def _parse_int(tokens: _Tokens) -> int:
    sign = 1
    while tokens.accept("sym", "-"):
        sign = -sign
    return sign * int(tokens.expect("int"))


def _parse_poly(tokens: _Tokens, base: Field, var: str) -> list:
    """Integer-coefficient polynomial in var, returned as base coefficients."""
    coeffs: dict[int, int] = {}
    sign = 1
    if tokens.accept("sym", "-"):
        sign = -1
    while True:
        coef = 1
        exp = 0
        saw_factor = False
        while True:
            got = tokens.peek()
            if got and got[0] == "int":
                coef *= int(tokens.next()[1])
                saw_factor = True
            elif got and got[0] == "name" and got[1] == var:
                tokens.next()
                e = 1
                if tokens.accept("sym", "^"):
                    e = _parse_int(tokens)
                exp += e
                saw_factor = True
            else:
                break
            if not tokens.accept("sym", "*"):
                # allow juxtaposition only through '*'; stop at anything else
                nxt = tokens.peek()
                if not (nxt and (nxt[0] == "int" or (nxt[0] == "name" and nxt[1] == var))):
                    break
        if not saw_factor:
            tokens._fail("expected a polynomial term")
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        if tokens.accept("sym", "+"):
            sign = 1
        elif tokens.accept("sym", "-"):
            sign = -1
        else:
            break
    top = max(coeffs)
    return [base.element(coeffs.get(k, 0)) for k in range(top + 1)]


def parse_field(text: str) -> Field:
    tokens = _Tokens(text)
    field = _parse_field_base(tokens)
    tokens.done()
    return field


def _parse_field_base(tokens: _Tokens) -> Field:
    name = tokens.expect("name")
    if name == "Q":
        base: Field = QQ
    elif re.fullmatch(r"F\d+", name):
        p = int(name[1:])
        if not is_prime(p):
            tokens._fail(f"{name} is not a prime field", tokens.items[tokens.idx - 1][2])
        base = PrimeField(p)
    else:
        tokens._fail(f"unknown field base {name!r}")
    if tokens.accept("sym", "["):
        var = tokens.expect("name")
        tokens.expect("sym", "]")
        tokens.expect("sym", "/")
        tokens.expect("sym", "(")
        poly = _parse_poly(tokens, base, var)
        tokens.expect("sym", ")")
        return ExtensionField(base, poly, var=var)
    return base


def print_field(field: Field) -> str:
    return field.describe()


# ---------------------------------------------------------------------------
# towers and profiles


def _parse_tower_suffix(tokens: _Tokens) -> list[str]:
    names = []
    while tokens.accept("sym", "("):
        tokens.expect("sym", "(")
        names.append(tokens.expect("name"))
        tokens.expect("sym", ")")
        tokens.expect("sym", ")")
    return names


def parse_tower(text: str, default_prec: int = 32) -> Tower:
    tokens = _Tokens(text)
    base = _parse_field_base(tokens)
    names = _parse_tower_suffix(tokens)
    tokens.done()
    return Tower(base, names, default_prec=default_prec)


def print_tower(tower: Tower) -> str:
    return tower.describe()


def parse_profile(text: str) -> FieldProfile:
    tokens = _Tokens(text)
    profile = _parse_profile_inner(tokens)
    tokens.done()
    return profile


def _parse_profile_inner(tokens: _Tokens) -> FieldProfile:
    got = tokens.peek()
    if got is None:
        tokens._fail("empty profile description")
    name = got[1]
    if name == "Qp":
        tokens.next()
        tokens.expect("sym", "(")
        tokens.expect("name", "p")
        tokens.expect("sym", "=")
        p = _parse_int(tokens)
        tokens.expect("sym", ")")
        base = ResidueBase("padic", p=p)
    elif name == "C":
        tokens.next()
        base = ResidueBase("alg_closed")
    elif name == "decl":
        tokens.next()
        tokens.expect("sym", "(")
        entries = []
        while True:
            key = tokens.expect("name")
            m = re.fullmatch(r"cd(\d+)", key)
            if not m:
                tokens._fail(f"expected cd<q>=<value>, found {key!r}")
            tokens.expect("sym", "=")
            nxt = tokens.peek()
            if nxt and nxt[0] == "name" and nxt[1] == INF:
                tokens.next()
                entries.append((int(m.group(1)), INF))
            else:
                entries.append((int(m.group(1)), _parse_int(tokens)))
            if not tokens.accept("sym", ","):
                break
        tokens.expect("sym", ")")
        base = ResidueBase("declared", cd_table=tuple(sorted(entries)))
    else:
        base = residue_base(_parse_field_base(tokens))
    names = _parse_tower_suffix(tokens)
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
        payload = _apply_marker(payload, prefix, bound, tokens, tower)
    return TowerElement(tower, payload)


def _parse_term(tokens: _Tokens, tower: Tower, sign: int) -> TowerElement:
    coef = Fraction(sign)
    exps = [0] * tower.height
    saw = False
    while True:
        got = tokens.peek()
        if got and got[0] == "int":
            num = int(tokens.next()[1])
            if tokens.accept("sym", "/"):
                den = int(tokens.expect("int"))
                coef *= Fraction(num, den)
            else:
                coef *= num
            saw = True
        elif got and got[0] == "name" and got[1] in tower.variables:
            name = tokens.next()[1]
            e = 1
            if tokens.accept("sym", "^"):
                e = _parse_int(tokens)
            exps[tower._var_position(name)] += e
            saw = True
        elif got and got[0] == "sym" and got[1] == "(":
            tokens.next()
            inner = _parse_expression(tokens, tower)
            tokens.expect("sym", ")")
            mono = tower.monomial(tuple(exps), tower.base.element(coef))
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
    return tower.monomial(tuple(exps), tower.base.element(coef))


def _parse_marker(tokens: _Tokens, tower: Tower) -> tuple[tuple[int, ...], int]:
    """O(v^k) or O(v^e * w^k): positions down the nesting, then the bound."""
    comps: list[tuple[str, int]] = []
    while True:
        name = tokens.expect("name")
        if name not in tower.variables:
            tokens._fail(f"unknown variable {name!r} in truncation marker")
        e = 1
        if tokens.accept("sym", "^"):
            e = _parse_int(tokens)
        comps.append((name, e))
        if not tokens.accept("sym", "*"):
            break
    # components must follow nesting order: outermost ... innermost
    expected = [tower.variables[tower.height - 1 - d] for d in range(len(comps))]
    for (name, _), want in zip(comps, expected):
        if name != want:
            tokens._fail(
                f"marker components must follow nesting order, expected {want!r}"
            )
    prefix = tuple(e for _, e in comps[:-1])
    return prefix, comps[-1][1]


def _apply_marker(payload, prefix, bound, tokens, tower):
    if not prefix:
        if isinstance(payload, FieldElement):
            tokens._fail("truncation marker deeper than the tower")
        new_bound = bound if payload.bound is None else min(payload.bound, bound)
        return LaurentSeries(payload.ring, payload.coeffs, new_bound)
    e = prefix[0]
    if isinstance(payload, FieldElement):
        tokens._fail("truncation marker deeper than the tower")
    inner = payload.coeffs.get(e)
    if inner is None:
        inner = payload.ring.coeff_zero()
        if isinstance(inner, FieldElement):
            tokens._fail("truncation marker deeper than the tower")
    new_inner = _apply_marker(inner, prefix[1:], bound, tokens, tower)
    coeffs = dict(payload.coeffs)
    coeffs[e] = new_inner
    # a marker at a position beyond the outer window is a no-op: the
    # normalization inside LaurentSeries drops it
    return LaurentSeries(payload.ring, coeffs, payload.bound)


def parse_series(text: str, tower: Tower) -> TowerElement:
    tokens = _Tokens(text)
    value = _parse_expression(tokens, tower)
    tokens.done()
    return value


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
    return cs + "*" + "*".join(frags)


# ---------------------------------------------------------------------------
# algebras


def parse_algebra(text: str, default_prec: int = 32) -> SymbolAlgebra:
    tokens = _Tokens(text)
    alg = _parse_algebra_inner(tokens, default_prec)
    tokens.done()
    return alg


def _parse_algebra_inner(tokens: _Tokens, default_prec: int) -> SymbolAlgebra:
    tokens.expect("name", "symbol")
    tokens.expect("sym", "(")
    fields: dict[str, object] = {}
    order = ["n", "omega", "a", "b"]
    raw: dict[str, str] = {}
    for idx, key in enumerate(order):
        tokens.expect("name", key)
        tokens.expect("sym", "=")
        # capture raw token span until ',' or ')' at depth 0
        depth = 0
        start = tokens.idx
        while True:
            got = tokens.peek()
            if got is None:
                tokens._fail("unterminated algebra description")
            kind, val = got
            if kind == "sym" and val == "(":
                depth += 1
            elif kind == "sym" and val == ")":
                if depth == 0:
                    break
                depth -= 1
            elif kind == "sym" and val == "," and depth == 0:
                break
            tokens.next()
        end = tokens.idx
        span_start = tokens.items[start][2]
        span_end = (
            tokens.items[end][2] if end < len(tokens.items) else len(tokens.text)
        )
        raw[key] = tokens.text[span_start:span_end].strip()
        if idx < len(order) - 1:
            tokens.expect("sym", ",")
    tokens.expect("sym", ")")
    tokens.expect("name", "over")
    base = _parse_field_base(tokens)
    names = _parse_tower_suffix(tokens)
    tower = Tower(base, names, default_prec=default_prec)

    n = int(raw["n"])
    a = parse_series(raw["a"], tower)
    b = parse_series(raw["b"], tower)
    if raw["omega"] == "auto":
        omega = primitive_root_of_unity(tower.base, n)
    else:
        omega_elem = parse_series(raw["omega"], tower)
        v = omega_elem.valuation()
        if v != tuple(0 for _ in range(tower.height)) and tower.height > 0:
            raise ParseError("omega must be a constant of the coefficient field")
        omega = omega_elem.residue()
    return SymbolAlgebra(tower, n, omega, a, b)


def print_algebra(alg: SymbolAlgebra) -> str:
    return (
        f"symbol(n={alg.degree}, omega={alg.omega}, a={print_series(alg.a)},"
        f" b={print_series(alg.b)}) over {alg.tower.describe()}"
    )


def parse_description(text: str, default_prec: int = 32):
    """Dispatch: algebra descriptions start with `symbol`, else a profile."""
    stripped = text.lstrip()
    if stripped.startswith("symbol"):
        return parse_algebra(text, default_prec)
    return parse_profile(text)
