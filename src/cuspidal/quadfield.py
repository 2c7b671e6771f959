"""Exact arithmetic in a quadratic field Q(sqrt(m)).

Elements are written over the integral basis (1, omega) of the maximal
order, where omega = sqrt(m) when m = 2, 3 mod 4 and omega = (1+sqrt(m))/2
when m = 1 mod 4. All arithmetic is integer arithmetic on the coordinate
pairs; nothing here ever touches floating point.
"""

from __future__ import annotations

import re

from .arith import is_squarefree
from .errors import UsageError
from .value import Interned, Value


class QuadField(Value, metaclass=Interned, fields=("m",)):
    """Descriptor of Q(sqrt(m)) for squarefree m not in {0, 1}.

    omega_sq is (r, s) with omega^2 = r + s*omega, computed once per field: (m, 0)
    for omega = sqrt(m), ((m-1)/4, 1) for omega = (1+sqrt(m))/2. It is the one
    record of omega's shape; s is the trace of omega and -r its norm."""

    __slots__ = ("m", "omega_sq")

    def __init__(self, m: int) -> None:
        Value.__init__(self, m)
        if m in (0, 1) or not is_squarefree(m):
            raise UsageError(f"m must be squarefree and not 0 or 1, got {str(m)[:24]}")
        object.__setattr__(self, "omega_sq", ((m - 1) // 4, 1) if m % 4 == 1 else (m, 0))

    @property
    def disc_max(self) -> int:
        """Discriminant of the maximal order, s^2 + 4r: m, or 4m."""
        r, s = self.omega_sq
        return s * s + 4 * r

    @property
    def is_imaginary(self) -> bool:
        return self.m < 0

    @property
    def omega_trace(self) -> int:
        return self.omega_sq[1]

    @property
    def zero(self) -> QuadElt:
        return QuadElt(self, 0, 0)

    @property
    def one(self) -> QuadElt:
        return QuadElt(self, 1, 0)

    @property
    def omega(self) -> QuadElt:
        return QuadElt(self, 0, 1)

    def __repr__(self) -> str:
        return f"QuadField({self.m})"


def _same_field(x: QuadElt, y: QuadElt) -> None:
    if x.field is not y.field and x.field != y.field:
        raise UsageError(f"field mismatch: {x.field} vs {y.field}")


class QuadElt(Value):
    """Element a + b*omega of the maximal order of QuadField."""

    __slots__ = ("field", "a", "b")

    def __add__(self, other: QuadElt | int) -> QuadElt:
        other = self._coerce(other)
        _same_field(self, other)
        return QuadElt(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: QuadElt | int) -> QuadElt:
        other = self._coerce(other)
        _same_field(self, other)
        return QuadElt(self.field, self.a - other.a, self.b - other.b)

    def __rsub__(self, other: QuadElt | int) -> QuadElt:
        return self._coerce(other) - self

    def __neg__(self) -> QuadElt:
        return QuadElt(self.field, -self.a, -self.b)

    def __mul__(self, other: QuadElt | int) -> QuadElt:
        other = self._coerce(other)
        _same_field(self, other)
        r, s = self.field.omega_sq
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadElt(self.field, a * c + b * d * r, a * d + b * c + b * d * s)

    __rmul__ = __mul__

    def __floordiv__(self, other: QuadElt | int) -> QuadElt:
        """The exact quotient self/other = self*sigma(other)/N(other); UsageError
        when other does not divide self in the maximal order."""
        other = self._coerce(other)
        num, n = self * other.conjugate(), other.norm()
        if num.a % n or num.b % n:
            raise UsageError(f"{other} does not divide {self} in the maximal order")
        return QuadElt(self.field, num.a // n, num.b // n)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __pow__(self, k: int) -> QuadElt:
        """self^k, k >= 0, left to right over the bits of k: each product is by self."""
        assert k >= 0
        out = self.field.one
        for bit in bin(k)[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def _coerce(self, other: QuadElt | int) -> QuadElt:
        if isinstance(other, int):
            return QuadElt(self.field, other, 0)
        return other

    def conjugate(self) -> QuadElt:
        t = self.field.omega_trace
        return QuadElt(self.field, self.a + self.b * t, -self.b)

    def trace(self) -> int:
        return 2 * self.a + self.b * self.field.omega_trace

    def norm(self) -> int:
        r, s = self.field.omega_sq
        return self.a * self.a + self.a * self.b * s - self.b * self.b * r

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        w = "w"
        bpart = w if self.b == 1 else ("-" + w if self.b == -1 else f"{self.b}*{w}")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        babs = w if abs(self.b) == 1 else f"{abs(self.b)}*{w}"
        return f"{self.a}{sign}{babs}"


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-]?)
        (?:
            (?P<coeff>[0-9]+(?:/[0-9]+)?)(?:\*(?P<sym1>[ws]))?
          | (?P<sym2>[ws])
        )$""",
    re.VERBOSE,
)


def parse_element(field: QuadField, text: str) -> QuadElt:
    """Parse 'a', 'a+b*w', or 'a+b*s' (w = omega, s = sqrt(m)).

    Coefficients may be fractions such as 1/2, which is how e.g. omega is
    written in the s-basis for m = 1 mod 4; anything that does not land in
    the maximal order is rejected. Text without '/' is read on ints.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise UsageError("empty element")
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(pieces) != compact:
        raise UsageError(f"cannot parse element {text[:24]!r}")
    if "/" in compact:
        from fractions import Fraction as num
    else:
        num = int
    alpha = num(0)  # coefficient of 1
    beta = num(0)  # coefficient of omega
    for piece in pieces:
        mt = _TERM_RE.match(piece)
        if not mt:
            raise UsageError(f"cannot parse term {piece[:24]!r} in {text[:24]!r}")
        sign = -1 if mt.group("sign") == "-" else 1
        sym = mt.group("sym1") or mt.group("sym2")
        try:
            coeff = sign * num(mt.group("coeff") or "1")
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coefficient in {text[:24]!r}: {exc}") from None
        if sym is None:
            alpha += coeff
        elif sym == "w":
            beta += coeff
        else:  # s = sqrt(m) = (1 + t)*omega - t, t = trace(omega)
            t = field.omega_sq[1]
            alpha, beta = alpha - t * coeff, beta + (1 + t) * coeff
    if alpha.denominator != 1 or beta.denominator != 1:
        raise UsageError(f"{text[:24]!r} is not in the maximal order of {field}")
    return QuadElt(field, int(alpha), int(beta))
