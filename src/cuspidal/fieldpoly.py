"""Coefficient fields (rationals or a prime field) and dense polynomials.

A CurvePoly stores plain ints: residues mod p over F_p, and over Q integer
numerators over one positive common denominator. Products, division and
the gcd run on those ints. A scalar of F_p is an int in [0, p) and one of
the rationals a Fraction, as coeff, CoeffField.coerce, parse_scalar and
all_elements return them. The gcd over Q is Brown's modular gcd (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 6), certified on every call:
it divides each input exactly, and has the degree of the gcd modulo a prime
dividing no leading coefficient, which bounds every common divisor's. Division
has two kernels: _rem_mod, Euclid's remainder mod p without a quotient, and
_exact_quotient, the certifying exact division, which CurveIdeal.contains also
runs to divide by an ideal's content."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import count, zip_longest
from math import gcd, lcm

from .arith import is_prime, primitive_part
from .config import MAX_EXPONENT
from .errors import UsageError, check
from .value import Value


class CoeffField(Value):
    """The rationals (char == 0) or the prime field F_char."""

    __slots__ = ("char",)

    def __init__(self, char: int) -> None:
        Value.__init__(self, char)
        if char != 0 and not is_prime(char):
            raise UsageError(f"coefficient field characteristic {str(char)[:24]} is not prime")

    @property
    def name(self) -> str:
        return "rational" if self.char == 0 else f"f{self.char}"

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def coerce(self, value):
        """value as a Fraction over Q, or as a residue in [0, p) over F_p."""
        p = self.char
        if not isinstance(value, (int, Fraction)):
            raise UsageError(f"cannot coerce {value!r} into {f'F_{p}' if p else 'the rationals'}")
        if not p:
            return Fraction(value)
        if value.denominator % p == 0:
            raise UsageError(f"denominator of {value} vanishes mod {p}")
        return value.numerator * pow(value.denominator, -1, p) % p

    def parse_scalar(self, text: str):
        tok = text.strip()  # plain integers are read with int(), the rest with Fraction
        exp = re.search(r"[eE][+-]?([0-9_]+)$", tok)  # Fraction builds 10^e: refuse a large e
        digits = exp[1].replace("_", "").lstrip("0") if exp else ""
        if len(digits) > _EXPONENT_DIGITS or int(digits or 0) > MAX_EXPONENT:
            raise UsageError(f"the exponent of {text[:24]!r} exceeds the limit {MAX_EXPONENT}")
        try:
            if not tok.isascii():  # Fraction() reads any Unicode digit; the grammar reads ASCII
                raise ValueError(f"Invalid literal for Fraction: {tok!r}")
            return self.coerce(int(tok) if re.fullmatch(r"[+-]?[0-9]+", tok) else Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad scalar {text[:24]!r}: {exc}") from None

    @staticmethod
    def from_name(text: str) -> "CoeffField":
        name = text.strip().lower()
        if name in ("rational", "rationals", "q"):
            return CoeffField(0)
        if re.fullmatch(r"f?[0-9]+", name) and int(name.lstrip("f")):
            return CoeffField(int(name.lstrip("f")))
        raise UsageError(f"unknown coefficient field {text[:24]!r} (use 'rational' or 'f<p>')")

    def all_elements(self):
        """Every element; finite fields only."""
        if self.char == 0:
            raise UsageError("the rationals cannot be enumerated")
        return list(range(self.char))


class CurvePoly(Value):
    """Dense polynomial in one variable over a coefficient field.

    The coefficient of x^i is nums[i] / den. Over F_p, nums are residues in
    [0, p) and den is 1; over Q, den is positive and shares no factor with
    all of nums. So equal polynomials have equal nums and den, and hash
    alike. nums never end in zero: the zero polynomial has an empty tuple
    and degree -1.
    """

    __slots__ = ("field", "nums", "den")

    @staticmethod
    def from_ints(field: CoeffField, nums, den: int = 1) -> "CurvePoly":
        """The polynomial with coefficients nums[i] / den, normalized."""
        if field.char:
            inv = pow(den, -1, field.char)
            nums, den = [x * inv % field.char for x in nums], 1
        elif (g := gcd(den, *nums) if den > 0 else -gcd(den, *nums)) != 1:
            nums, den = [x // g for x in nums], den // g
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        return CurvePoly(field, tuple(nums[:end]), den)

    @staticmethod
    def from_coeffs(field: CoeffField, values) -> "CurvePoly":
        """The polynomial with coefficients values[i]; from_ints reduces the ints mod p."""
        cs = [v if type(v) is int else field.coerce(v) for v in values]
        den = lcm(*(c.denominator for c in cs))
        return CurvePoly.from_ints(field, [c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def zero(field: CoeffField) -> "CurvePoly":
        return CurvePoly(field, (), 1)

    @staticmethod
    def one(field: CoeffField) -> "CurvePoly":
        return CurvePoly(field, (1,), 1)

    @staticmethod
    def monomial(field: CoeffField, degree: int) -> "CurvePoly":
        return CurvePoly.one(field).shift(degree)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, i: int):
        """The coefficient of x^i as a Fraction, or over F_p a residue."""
        x = self.nums[i] if 0 <= i < len(self.nums) else 0
        return x if self.field.char else Fraction(x, self.den)

    def valuation(self) -> int | None:
        """Least degree with a nonzero coefficient; None for zero."""
        return next((i for i, c in enumerate(self.nums) if c), None)

    def __add__(self, other: "CurvePoly") -> "CurvePoly":
        assert self.field == other.field
        den = lcm(self.den, other.den)
        a, b = ([x * (den // f.den) for x in f.nums] for f in (self, other))
        out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        return CurvePoly.from_ints(self.field, out, den)

    def __neg__(self) -> "CurvePoly":
        return CurvePoly.from_ints(self.field, [-x for x in self.nums], self.den)

    def __sub__(self, other: "CurvePoly") -> "CurvePoly":
        return self + (-other)

    def __mul__(self, other: "CurvePoly") -> "CurvePoly":
        assert self.field == other.field
        out = _mul(self.nums, other.nums, len(self.nums) + len(other.nums) - 1, 0)
        return CurvePoly.from_ints(self.field, out, self.den * other.den)

    def shift(self, k: int) -> "CurvePoly":
        """Multiply by x^k."""
        assert k >= 0
        if self.is_zero:
            return self
        return CurvePoly(self.field, (0,) * k + self.nums, self.den)

    def monic(self) -> "CurvePoly":
        if self.is_zero:
            return self
        return CurvePoly.from_ints(self.field, self.nums, self.nums[-1])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        den, parts = self.den, []
        for i, c in enumerate(self.nums):
            if c:
                text = str(abs(c)) if den == 1 else str(abs(c) // (g := gcd(c, den))) + (
                    "" if g == den else f"/{den // g}")
                if i:
                    power = f"x^{i}" if i > 1 else "x"
                    text = power if text == "1" else f"{text}*{power}"
                parts.append((" - " if c < 0 else " + ") + text)
        out = "".join(parts)
        return out[3:] if out[1] == "+" else "-" + out[3:]


def _mul(f, g, m: int, p: int) -> list[int]:
    """The schoolbook product f*g mod x^m of coefficient lists, reduced mod p unless p = 0."""
    out = [0] * m
    for i, x in enumerate(f[:m]):
        if x:
            seg = g[:m - i]
            out[i:i + len(seg)] = [o + x * y for o, y in zip(out[i:i + len(seg)], seg)]
    return [x % p for x in out] if p else out


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a by b mod p, as residues without trailing zeros; no quotient
    is built. a and b are residues in [0, p) and b's lead is nonzero. Each step pops a's
    top coefficient c and adds -c/lead(b) times b's tail to the deg b coefficients below
    it; the last step also reduces them mod p, so no coefficient is reduced twice."""
    db, tail, rem = len(b) - 1, b[:-1], list(a)
    neg_inv = p - pow(b[-1], -1, p)
    for k in range(len(a) - 1 - db, 0, -1):
        if f := rem.pop() * neg_inv % p:
            rem[k:] = [x + f * y for x, y in zip(rem[k:], tail)]
    if len(rem) > db:
        f = rem.pop() * neg_inv % p
        rem = [(x + f * y) % p for x, y in zip(rem, tail)]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _exact_quotient(a: list[int], b: list[int], p: int) -> list[int] | None:
    """a / b if b divides a over Z (p = 0) or, for monic b, mod p; else None. Each step
    pops a's top coefficient into the preallocated quotient, divided by lead(b) over Z and
    reduced mod p, and subtracts that multiple of b's tail from the deg b coefficients
    below it. Over Z a quotient coefficient past Mignotte's bound 2^deg*|a|_2 for factors
    of a stops it."""
    db, tail, rem = len(b) - 1, b[:-1], list(a)
    if len(a) <= db:
        return None
    quot = [0] * (len(a) - db)
    if not p:
        limit = 2 * len(a) + max(map(abs, a)).bit_length()
    for k in range(len(quot) - 1, -1, -1):
        if p:
            f = rem.pop() % p
        else:
            f, r = divmod(rem.pop(), b[-1])
            if r or f.bit_length() > limit:
                return None
        if f:
            rem[k:] = [x - f * y for x, y in zip(rem[k:], tail)]
        quot[k] = f
    return None if any(x % p if p else x for x in rem) else quot


@cache
def _gcd_prime(i: int) -> int:
    """The i-th prime below 2^30, largest first. arith.is_prime decides numbers this small
    by Miller-Rabin, which draws on no search budget, so CUSPIDAL_BOUND cannot stop it."""
    c = (_gcd_prime(i - 1) if i else 2**30 + 1) - 2
    while not is_prime(c):
        c -= 2
    return c


def gcd_cofactors(polys: list[CurvePoly]) -> tuple[CurvePoly, list[CurvePoly]]:
    """(c, [g / c for g in polys]), c the monic gcd (zero if every g is). Over F_p it is
    Euclid's gcd of the residues, made monic. Over Q, with A_i the primitive parts and b the
    gcd of their leads, b*gcd(A_i)/lead is b times Euclid's monic gcd mod any prime dividing
    no lead, unless that gcd has too high a degree (dropped); images join by CRT until the
    primitive lift divides every A_i. Euclid runs on _rem_mod and the division test, which
    certifies c on every call, on _exact_quotient."""
    field, char = polys[0].field, polys[0].field.char
    live = [g for g in polys if g.nums]
    if not live:
        return polys[0], list(polys)
    if char:
        rows = [g.nums for g in live]
    else:
        scales = [gcd(*g.nums) for g in live]  # g = k*A/den with A primitive
        rows = [[x // k for x in g.nums] for g, k in zip(live, scales)]
    b = 1 if char else gcd(*(a[-1] for a in rows))
    crt, modulus = [0] * (len(rows[0]) + 1), 1
    for p in [char] if char else map(_gcd_prime, count()):
        if any(a[-1] % p == 0 for a in rows):
            continue
        x, *images = rows if char else ([v % p for v in a] for a in rows)
        for y in images:
            while y:
                x, y = y, _rem_mod(x, y, p)
        if len(x) < len(crt):  # every earlier image had too high a degree
            crt, modulus = [0] * len(x), 1
        if len(x) > len(crt):
            continue
        t, u = pow(modulus, -1, p), b * pow(x[-1], -1, p)
        crt = [r + modulus * ((y * u - r) * t % p) for r, y in zip(crt, x)]
        modulus *= p
        c = crt if char else primitive_part([r - modulus if 2 * r > modulus else r for r in crt])
        if None not in (quots := [_exact_quotient(a, c, char) for a in rows]):
            break
    check(None not in quots, "the content does not divide a generator")
    if char:  # quotients by a monic c: residues whose lead is their generator's
        cofactors = iter(CurvePoly(field, tuple(q), 1) for q in quots)
    else:
        cofactors = iter(CurvePoly.from_ints(field, [x * k * c[-1] for x in q], g.den)
                         for q, k, g in zip(quots, scales, live))
    return CurvePoly.from_ints(field, c, c[-1]), [next(cofactors) if g.nums else g for g in polys]


_POLY_CHUNK_RE = re.compile(r"[+-]?[^+-]+")
_POLY_TERM_RE = re.compile(  # an exponent's leading zeros stay out of its group
    r"^(?P<coeff>[+-]?[0-9/]*)\s*(?:(?P<star>\*)?\s*(?P<x>x)(?:\^0*(?P<exp>[0-9]+))?)?$"
)
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


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
    chunks = _POLY_CHUNK_RE.findall(compact)
    if not chunks or "".join(chunks) != compact:
        raise UsageError(f"cannot parse polynomial {text[:24]!r}")
    terms: dict[int, int | Fraction] = {}
    for chunk in chunks:
        match = _POLY_TERM_RE.match(chunk)
        raw, star, x, digits = match.groups() if match else ("", None, None, None)
        if not match or (star or not x) and not raw.strip("+-"):
            raise UsageError(f"bad polynomial term {chunk[:24]!r} in {text[:24]!r}")
        try:  # int() reads ints (a bare sign as 1); parse_scalar fractions and int()'s errors
            scalar = field.parse_scalar(raw) if "/" in raw else int(raw + "1" * (raw in "+-"))
        except ValueError:
            scalar = field.parse_scalar(raw)
        digits = digits or ("1" if x else "0")
        if len(digits) > _EXPONENT_DIGITS or (exp := int(digits)) > MAX_EXPONENT:
            raise UsageError(f"the exponent of {chunk[:24]!r} exceeds the limit {MAX_EXPONENT}")
        terms[exp] = terms.get(exp, 0) + scalar
    nums = [terms.get(e, 0) for e in range(max(terms) + 1)]  # ints unless a '/' was read
    return (CurvePoly.from_coeffs if "/" in compact else CurvePoly.from_ints)(field, nums)
