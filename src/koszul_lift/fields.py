"""Exact coefficient fields: Q and F_p, one ``Field`` class keyed by ``char``.

``char`` is 0 for Q, whose elements are ``Fraction``s, and a prime
p < 2**31 for F_p, whose elements are ints in ``[0, p)``; the bound keeps
every element inside the int64 array that ``linalg.rref`` builds over F_p.
Elements are plain Python values, so the linear algebra stays cheap: zero
is falsy and an element prints with ``str``.  Over F_p the kernel reduces
with ``% char``; over Q it works on integer rows internally and returns
Fractions, so Fractions appear only at its boundary.  A ``Field`` coerces
outside input and hides the reduction mod p in ``add``, ``mul`` and
``neg``.  Fields compare and hash by ``char``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import InvalidInputError, ParseError


class Field:
    """Q when ``char`` is 0, else F_p with p = ``char``.  Build one with
    ``QQ``, ``GF(p)`` or ``field_from_spec``."""

    def __init__(self, char: int):
        self.char = char
        self.zero = Fraction(0) if char == 0 else 0
        self.one = Fraction(1) if char == 0 else 1

    def __call__(self, value):
        """Coerce an int, Fraction, or string to a field element.  Over F_p
        a Fraction with p in its denominator is an InvalidInputError."""
        p = self.char
        if p == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                try:
                    return Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise _literal_error("rational", value, exc) from exc
            raise ParseError(f"cannot coerce {value!r} to Q")
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise InvalidInputError(
                    f"coefficient {value} has a denominator divisible by {p}"
                )
            return value.numerator % p * pow(den, p - 2, p) % p
        if isinstance(value, str):
            try:
                return self(Fraction(value))
            except (ValueError, ZeroDivisionError, InvalidInputError) as exc:
                raise _literal_error("coefficient", value, exc) from exc
        raise ParseError(f"cannot coerce {value!r} to F_{p}")

    def add(self, a, b):
        p = self.char
        s = a + b
        return s - p if p and s >= p else s

    def mul(self, a, b):
        p = self.char
        return a * b % p if p else a * b

    def neg(self, a):
        p = self.char
        if not p:
            return -a
        return p - a if a else 0

    def to_spec(self):
        """JSON-serializable field tag: "Q" or the prime p."""
        return self.char or "Q"

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(self.char)

    def __repr__(self):
        return f"GF({self.char})" if self.char else "QQ"


def _literal_error(kind: str, value: str, exc: Exception) -> ParseError:
    """The ParseError for the string ``value`` that ``Fraction`` rejected
    with ``exc``.  A literal whose digits exceed Python's limit on integer
    string conversion (``sys.get_int_max_str_digits``) is valid but cannot
    be read; the message names that limit and shows only the literal's
    first 20 characters."""
    if isinstance(exc, ValueError) and "int_max_str_digits" in str(exc):
        return ParseError(
            f"bad {kind} literal {value[:20]!r}... ({len(value)} "
            "characters): more digits than Python's limit of "
            f"{sys.get_int_max_str_digits()} for integer string conversion "
            "(sys.set_int_max_str_digits)"
        )
    return ParseError(f"bad {kind} literal {value!r}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


QQ = Field(0)

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field F_p, one instance per p.  Anything but an int prime
    in (1, 2^31) is an InvalidInputError; a bool is 0 or 1, so the range
    rejects it."""
    if not isinstance(p, int):
        raise InvalidInputError(f"prime must be an integer, got {p!r}")
    field = _gf_cache.get(p)
    if field is None:
        if not (1 < p < 2**31):
            raise InvalidInputError(f"prime must lie in (1, 2^31), got {p}")
        if not _is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        field = _gf_cache[p] = Field(p)
    return field


def field_from_spec(spec) -> Field:
    """Inverse of ``Field.to_spec``; also accepts "QQ" and digit strings."""
    if spec in ("Q", "QQ"):
        return QQ
    if isinstance(spec, str) and spec.isdecimal():
        spec = int(spec)
    if isinstance(spec, int):
        try:
            return GF(spec)
        except InvalidInputError as exc:
            raise ParseError(f"bad field spec: {exc}") from exc
    raise ParseError(f"unknown field spec {spec!r}")
