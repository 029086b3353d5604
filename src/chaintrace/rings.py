"""Exact coefficient rings: Z, Q, Z/m, and prime fields GF(p).

Every ring here is a value object holding no element state; elements are
plain ints (Z, Z/m, GF(p)) or fractions.Fraction (Q).  All arithmetic is
exact.  Floating point never appears.

Z/m is supported for any m >= 2 at the arithmetic level.  Operations that
need a principal-ideal structure (Smith normal form, homology) additionally
require m to be a prime power and raise UnsupportedRingError otherwise; the
callers that can work over general m via integer lifts say so explicitly.

Every command imports this module, but only work over Q needs fractions,
which in turn loads decimal.  ``Fraction`` here is a stand-in that imports
the class on its first call and rebinds the module's name to it, so a job
over Z, Z/m or GF(p) loads neither module and Q arithmetic calls the class
directly.
"""

from __future__ import annotations

import math

from .errors import NotInvertibleError, UnsupportedRingError
from .values import Value

__all__ = ["BaseRing", "ZZ", "QQ", "Zmod", "GF"]


def _factor_prime_power(m: int) -> tuple[int, int] | None:
    """Return (p, k) with m = p**k, or None if m is not a prime power."""
    if m < 2:
        return None
    for p in range(2, math.isqrt(m) + 1):
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (m, 1)


def Fraction(*args):
    """fractions.Fraction; the first call imports it and rebinds this name."""
    global Fraction
    from fractions import Fraction

    return Fraction(*args)


class BaseRing(Value):
    """One of Z, Q, Z/m, GF(p), identified by kind and optional modulus."""

    __slots__ = ("kind", "modulus")
    _fields = __slots__

    def __init__(self, kind: str, modulus: int | None = None) -> None:
        if kind in ("Z", "Q"):
            if modulus is not None:
                raise ValueError(f"{kind} takes no modulus")
        elif kind == "Zmod":
            if modulus is None or modulus < 2:
                raise ValueError("Zmod needs a modulus >= 2")
        elif kind == "GF":
            pk = _factor_prime_power(modulus or 0)
            if pk is None or pk[1] != 1:
                raise ValueError("GF needs a prime modulus")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        self.kind = kind  # "Z" | "Q" | "Zmod" | "GF"
        self.modulus = modulus

    # -- basic structure ---------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "GF")

    @property
    def characteristic(self) -> int:
        return self.modulus if self.modulus is not None else 0

    def prime_power(self) -> tuple[int, int] | None:
        """(p, k) when this is Z/p^k or GF(p); None for Z, Q, composite m."""
        if self.modulus is None:
            return None
        return _factor_prime_power(self.modulus)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    # -- element arithmetic ------------------------------------------------

    def normalize(self, x):
        """Coerce an int/Fraction into canonical element form."""
        if self.kind == "Q":
            return Fraction(x)
        if not isinstance(x, int):  # a Fraction; only Q makes them
            if x.denominator != 1:
                if self.modulus is None:
                    raise ValueError(f"{x} is not an integer element")
                return self.mul(int(x.numerator), self.inv(int(x.denominator) % self.modulus))
            x = int(x)
        if self.modulus is not None:
            return x % self.modulus
        return x

    def add(self, a, b):
        c = a + b
        return c % self.modulus if self.modulus is not None else c

    def sub(self, a, b):
        c = a - b
        return c % self.modulus if self.modulus is not None else c

    def mul(self, a, b):
        c = a * b
        return c % self.modulus if self.modulus is not None else c

    def neg(self, a):
        return (-a) % self.modulus if self.modulus is not None else -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        if self.is_zero(a):
            return False
        if self.kind == "Q":
            return True
        if self.kind == "Z":
            return a in (1, -1)
        return math.gcd(int(a), self.modulus) == 1

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise NotInvertibleError("0 has no inverse")
            return Fraction(1) / a
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise NotInvertibleError(f"{a} is not a unit in Z")
        try:
            return pow(int(a), -1, self.modulus)
        except ValueError:
            raise NotInvertibleError(f"{a} is not a unit mod {self.modulus}") from None

    def divides(self, a, b) -> bool:
        """Whether a | b in this ring."""
        if self.is_zero(a):
            return self.is_zero(b)
        if self.is_field:
            return True
        if self.kind == "Z":
            return b % a == 0
        # Z/m: a | b iff gcd(a, m) | b
        return int(b) % math.gcd(int(a), self.modulus) == 0

    def exact_div(self, b, a):
        """Solve a * x = b given that a | b; canonical x."""
        if self.is_field:
            return self.mul(b, self.inv(a))
        if self.kind == "Z":
            q, r = divmod(b, a)
            if r != 0:
                raise ValueError(f"{a} does not divide {b} in Z")
            return q
        m = self.modulus
        g = math.gcd(int(a), m)
        if int(b) % g != 0:
            raise ValueError(f"{a} does not divide {b} mod {m}")
        # a/g is a unit mod m/g; lift the solution of (a/g) x = b/g mod m/g.
        mg = m // g
        if mg == 1:
            return 0
        x = (b // g) * pow(a // g, -1, mg) % mg
        return x % m

    # -- pivot support for elimination -----------------------------------

    def pivot_measure(self, a):
        """Size of a as an elimination pivot; smaller is better.

        Z uses |a|; fields make every nonzero element equally good (so the
        row-major tie-break decides); Z/p^k uses the p-adic valuation.
        Returns None for zero (not a pivot).
        """
        if self.is_zero(a):
            return None
        if self.kind == "Z":
            return abs(a)
        if self.is_field:
            return 1
        pk = self.prime_power()
        if pk is None:
            raise UnsupportedRingError(
                f"elimination over Z/{self.modulus} needs a prime power modulus"
            )
        p, _ = pk
        v, a = 0, int(a)
        while a % p == 0:
            a //= p
            v += 1
        return v

    # -- formatting --------------------------------------------------------

    def format_element(self, a) -> str:
        return str(a)

    def parse_element(self, text: str):
        text = text.strip()
        try:
            if self.kind == "Q":
                return Fraction(text)
            return self.normalize(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {text!r} as an element of {self}") from exc

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "GF":
            return f"GF({self.modulus})"
        return f"Z/{self.modulus}"


ZZ = BaseRing("Z")
QQ = BaseRing("Q")


def Zmod(m: int) -> BaseRing:
    """The ring Z/m for m >= 2."""
    return BaseRing("Zmod", m)


def GF(p: int) -> BaseRing:
    """The prime field with p elements."""
    return BaseRing("GF", p)
