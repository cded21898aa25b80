"""Cohomological-dimension profiles of tower fields.

A profile records the residue base (with its known or declared per-prime
cohomological dimensions), the tower height m (each Laurent layer is a rank-1
discrete layer, so the q-rank of the value group is m for every q), and the
residue characteristic.  The calculator adds one per layer:
cd_q(tower) = cd_q(residue base) + m, defined when q differs from the residue
characteristic and the residue dimension is finite.

Completion-style bases only bound the dimension from above, so their results
carry kind "at_most" and downstream rules demand an explicit declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UndefinedValueError, UsageError
from .laurent import Tower
from .ordered import is_prime

INF = "inf"


@dataclass(frozen=True)
class CdResult:
    """Outcome of a cohomological-dimension query."""

    kind: str  # "exact" | "at_most" | "infinite" | "undefined"
    value: int | None = None
    residue_finite: bool = True
    note: str = ""

    def describe(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_most":
            return f"<= {self.value}"
        if self.kind == "infinite":
            return "infinite"
        return f"undefined ({self.note})" if self.note else "undefined"


@dataclass(frozen=True)
class ResidueBase:
    """Symbolic residue base of a profile.

    kind "finite": F_{p^k}, dimension 1 at every admissible prime.
    kind "padic": completion-of-global marker with residue Q_p; dimension 2,
        reported as an upper bound at profile level.
    kind "alg_closed": algebraically closed, dimension 0.
    kind "declared": user-asserted per-prime dimensions.
    kind "rational": plain Q; no table entry, dimensions must be declared.
    """

    kind: str
    p: int = 0
    extension_degree: int = 1
    cd_table: tuple[tuple[int, object], ...] = ()

    def __post_init__(self):
        # what describe() prints must parse back: the grammar refuses these
        # at their tokens, and the constructors refuse them here
        if self.kind in ("finite", "padic") and not is_prime(self.p):
            raise UsageError(f"p must be a prime, got {self.p}")
        if self.extension_degree < 1:
            raise UsageError(f"the extension degree must be >= 1, got {self.extension_degree}")
        primes = [q for q, _ in self.cd_table]
        if len(set(primes)) < len(primes):
            raise UsageError("a prime is declared twice")
        for q, v in self.cd_table:
            if not is_prime(q):
                raise UsageError(f"cd{q}: {q} is not a prime")
            if v != INF and not (isinstance(v, int) and v >= 0):
                raise UsageError(f"cd{q} must be >= 0 or inf, got {v}")

    @property
    def residue_char(self) -> int:
        return self.p if self.kind == "finite" else 0

    def cd_q(self, q: int) -> CdResult:
        if self.kind == "finite":
            return CdResult("exact", 1)
        if self.kind == "alg_closed":
            return CdResult("exact", 0)
        if self.kind == "padic":
            if q == self.p:
                return CdResult(
                    "undefined",
                    note=f"q = {q} equals the local prime of the base",
                    residue_finite=False,
                )
            return CdResult(
                "at_most",
                2,
                note="completion base: the dimension is only bounded above",
            )
        if self.kind == "declared":
            table = dict(self.cd_table)
            if q not in table:
                return CdResult(
                    "undefined", note=f"no declared value at q = {q}",
                    residue_finite=False,
                )
            v = table[q]
            if v == INF:
                return CdResult("infinite", residue_finite=False)
            return CdResult("exact", int(v))
        return CdResult(
            "undefined",
            note="rational base: declare the dimension explicitly",
            residue_finite=False,
        )

    def describe(self) -> str:
        if self.kind == "finite":
            return f"F{self.p}" + (
                f"^{self.extension_degree}" if self.extension_degree > 1 else ""
            )
        if self.kind == "padic":
            return f"Qp(p={self.p})"
        if self.kind == "alg_closed":
            return "C"
        if self.kind == "declared":
            body = ", ".join(
                f"cd{q}={v}" for q, v in self.cd_table
            )
            return f"decl({body})"
        return "Q"


@dataclass(frozen=True)
class FieldProfile:
    """Residue base plus Laurent layers; the object the verdict engine reads."""

    base: ResidueBase
    variables: tuple[str, ...] = ()

    @property
    def height(self) -> int:
        return len(self.variables)

    @property
    def residue_char(self) -> int:
        return self.base.residue_char

    def r_q(self, q: int) -> int:
        """q-rank of the value group Z^m: the height, for every prime q."""
        if not is_prime(q):
            raise UsageError(f"{q} is not prime")
        return self.height

    def cd_q(self, q: int) -> CdResult:
        """Residue dimension plus one per Laurent layer."""
        if not is_prime(q):
            raise UsageError(f"{q} is not prime")
        if self.residue_char and q == self.residue_char:
            raise UndefinedValueError(
                f"cd_q undefined at q = {q}: equals the residue characteristic"
            )
        base_cd = self.base.cd_q(q)
        if base_cd.kind in ("undefined", "infinite"):
            return base_cd
        return CdResult(
            base_cd.kind,
            base_cd.value + self.height,
            residue_finite=base_cd.residue_finite,
            note=base_cd.note,
        )

    def describe(self) -> str:
        return self.base.describe() + "".join(f"(({v}))" for v in self.variables)


def residue_base(field) -> ResidueBase:
    """Residue base of a concrete field: finite F_(p^k), or rational Q."""
    size = field.size()
    if size is None:
        return ResidueBase("rational")
    p = field.char
    degree = 1
    while p**degree < size:
        degree += 1
    return ResidueBase("finite", p=p, extension_degree=degree)


def profile_from_tower(tower: Tower) -> FieldProfile:
    """Profile of a concrete arithmetic tower (finite or rational base)."""
    return FieldProfile(residue_base(tower.base), tuple(tower.variables))


def declared_profile(cd_table: dict[int, object], variables=()) -> FieldProfile:
    entries = tuple(sorted(cd_table.items()))
    return FieldProfile(ResidueBase("declared", cd_table=entries), tuple(variables))
