"""Coefficient fields (rationals or a prime field) and dense polynomials.

Scalars are Fraction for the rationals and FpElt for F_p, both supporting
exact +, -, *, / and truth testing, so the polynomial layer is agnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .errors import UsageError


@dataclass(frozen=True)
class FpElt:
    """An element of the prime field F_p, normalized to [0, p)."""

    p: int
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    def _coerce(self, other) -> "FpElt":
        if isinstance(other, FpElt):
            assert other.p == self.p
            return other
        if isinstance(other, int):
            return FpElt(self.p, other)
        if isinstance(other, Fraction) and other.denominator == 1:
            return FpElt(self.p, other.numerator)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.value + other.value)

    __radd__ = __add__

    def __neg__(self) -> "FpElt":
        return FpElt(self.p, -self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElt(self.p, self.value * pow(other.value, -1, self.p))

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CoeffField:
    """The rationals (char == 0) or the prime field F_char."""

    char: int

    def __post_init__(self) -> None:
        if self.char != 0 and not is_prime(self.char):
            raise UsageError(f"coefficient field characteristic {self.char} is not prime")

    @property
    def name(self) -> str:
        return "rational" if self.char == 0 else f"f{self.char}"

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else FpElt(self.char, 0)

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else FpElt(self.char, 1)

    def coerce(self, value):
        if self.char == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise UsageError(f"cannot coerce {value!r} into the rationals")
        if isinstance(value, FpElt):
            if value.p != self.char:
                raise UsageError("element of a different prime field")
            return value
        if isinstance(value, int):
            return FpElt(self.char, value)
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise UsageError(f"denominator of {value} vanishes mod {self.char}")
            num = FpElt(self.char, value.numerator)
            return num / FpElt(self.char, value.denominator)
        raise UsageError(f"cannot coerce {value!r} into F_{self.char}")

    def parse_scalar(self, text: str):
        try:
            return self.coerce(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad scalar {text!r}: {exc}") from None

    @staticmethod
    def from_name(text: str) -> "CoeffField":
        name = text.strip().lower()
        if name in ("rational", "rationals", "q"):
            return CoeffField(0)
        if re.fullmatch(r"f?\d+", name):
            return CoeffField(int(name.lstrip("f")))
        raise UsageError(f"unknown coefficient field {text!r} (use 'rational' or 'f<p>')")

    def all_elements(self):
        """Every element; finite fields only."""
        if self.char == 0:
            raise UsageError("the rationals cannot be enumerated")
        return [FpElt(self.char, v) for v in range(self.char)]


@dataclass(frozen=True)
class CurvePoly:
    """Dense polynomial in one variable over a coefficient field.

    Coefficients ascend by degree and never end in zero, so the zero
    polynomial has an empty tuple and degree -1.
    """

    field: CoeffField
    coeffs: tuple

    @staticmethod
    def from_coeffs(field: CoeffField, values) -> "CurvePoly":
        cs = [field.coerce(v) for v in values]
        while cs and not cs[-1]:
            cs.pop()
        return CurvePoly(field, tuple(cs))

    @staticmethod
    def zero(field: CoeffField) -> "CurvePoly":
        return CurvePoly(field, ())

    @staticmethod
    def one(field: CoeffField) -> "CurvePoly":
        return CurvePoly.from_coeffs(field, [1])

    @staticmethod
    def monomial(field: CoeffField, degree: int, coeff=1) -> "CurvePoly":
        return CurvePoly.from_coeffs(field, [0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def valuation(self) -> int | None:
        """Least degree with a nonzero coefficient; None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __add__(self, other: "CurvePoly") -> "CurvePoly":
        assert self.field == other.field
        size = max(len(self.coeffs), len(other.coeffs))
        return CurvePoly.from_coeffs(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(size)]
        )

    def __neg__(self) -> "CurvePoly":
        return CurvePoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CurvePoly") -> "CurvePoly":
        return self + (-other)

    def __mul__(self, other: "CurvePoly") -> "CurvePoly":
        assert self.field == other.field
        if self.is_zero or other.is_zero:
            return CurvePoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return CurvePoly.from_coeffs(self.field, out)

    def scale(self, scalar) -> "CurvePoly":
        s = self.field.coerce(scalar)
        return CurvePoly.from_coeffs(self.field, [c * s for c in self.coeffs])

    def shift(self, k: int) -> "CurvePoly":
        """Multiply by x^k."""
        assert k >= 0
        if self.is_zero:
            return self
        return CurvePoly(self.field, (self.field.zero,) * k + self.coeffs)

    def divmod_by(self, other: "CurvePoly") -> tuple["CurvePoly", "CurvePoly"]:
        assert self.field == other.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [self.field.zero] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        while len(rem) - 1 >= other.degree and any(bool(c) for c in rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < other.degree:
                break
            k = len(rem) - 1 - other.degree
            factor = rem[-1] / lead
            quot[k] = quot[k] + factor
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - factor * b
        return (
            CurvePoly.from_coeffs(self.field, quot),
            CurvePoly.from_coeffs(self.field, rem),
        )

    def monic(self) -> "CurvePoly":
        if self.is_zero:
            return self
        return self.scale(self.field.one / self.coeffs[-1])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            text = str(c)
            sign = " + "
            if text.startswith("-"):
                sign, text = " - ", text[1:]
            if i > 0:
                power = f"x^{i}" if i > 1 else "x"
                text = power if text == "1" else f"{text}*{power}"
            if not out:
                out = text if sign == " + " else f"-{text}"
            else:
                out += sign + text
        return out


def poly_gcd_monic(a: CurvePoly, b: CurvePoly) -> CurvePoly:
    """Monic greatest common divisor; zero if both inputs are zero."""
    assert a.field == b.field
    while not b.is_zero:
        _, r = a.divmod_by(b)
        a, b = b, r
    return a.monic()


_POLY_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?[0-9/]*)\s*(?:(?P<star>\*)?\s*x(?:\^(?P<exp>\d+))?)?$"
)


def parse_curve_poly(field: CoeffField, text: str) -> CurvePoly:
    """Parse '3 + x^2 - 2*x^5' or a bracketed coefficient list '[3,0,1]'."""
    body = text.strip()
    if not body:
        raise UsageError("empty polynomial")
    if body.startswith("[") and body.endswith("]"):
        inner = body[1:-1].strip()
        values = [field.parse_scalar(tok) for tok in inner.split(",")] if inner else []
        return CurvePoly.from_coeffs(field, values)
    compact = body.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if not chunks or "".join(chunks) != compact:
        raise UsageError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, object] = {}
    for chunk in chunks:
        match = _POLY_TERM_RE.match(chunk)
        if not match or (match.group("star") and not match.group("coeff").strip("+-")):
            raise UsageError(f"bad polynomial term {chunk!r} in {text!r}")
        has_x = "x" in chunk
        raw = match.group("coeff")
        if raw in ("", "+"):
            scalar = field.one
        elif raw == "-":
            scalar = -field.one
        else:
            scalar = field.parse_scalar(raw)
        if not has_x:
            if raw.strip("+-") == "":
                raise UsageError(f"bad polynomial term {chunk!r} in {text!r}")
            exp = 0
        else:
            exp = int(match.group("exp") or 1)
        coeffs[exp] = coeffs.get(exp, field.zero) + scalar
    size = max(coeffs) + 1 if coeffs else 0
    return CurvePoly.from_coeffs(field, [coeffs.get(i, field.zero) for i in range(size)])
