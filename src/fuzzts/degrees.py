"""Exact truth degrees in [0, 1].

A degree is a decimal number with at most nine fractional digits.  It is an
``int`` equal to its numerator over 10^9: ``Degree.parse("0.8") == 800000000``.
The whole toolkit only ever takes max, min, and comparisons of degrees, and
those are closed over the input values, so no rounding happens anywhere:
inputs with more than nine fractional digits are rejected, never rounded.

Ordering, hashing and truth value are those of the numerator, so the built-in
``max``/``min`` serve as the lattice join/meet.  ``str`` gives the decimal
form (``0``, ``1``, ``0.8``); arithmetic on degrees yields plain ``int``s.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import DegreeError

#: Fixed denominator of every degree.
SCALE = 10**9

# [0-9], not \d: \d also matches non-ASCII digits such as "\u0665" or "\uff11"
_DECIMAL_RE = re.compile(r"([0-9]+)(?:\.([0-9]+))?")

# `Degree.parse` remembers up to this many literals, least recently used
# dropped first: model files repeat few distinct literals over many lines, so
# a hit is the common case.  It remembers only literals up to the length
# limit, because a valid literal may carry any number of leading zeros and
# the limit bounds the cache's bytes as well as its entries.
_PARSE_CACHE_SIZE = 4096
_PARSE_CACHE_MAX_LEN = 64


def _parse_literal(cls: type["Degree"], text: str) -> "Degree":
    m = _DECIMAL_RE.fullmatch(text.strip())
    if m is None:
        raise DegreeError(f"not a decimal degree literal: {text!r}")
    # leading zeros stripped, so a long literal never reaches int()
    whole, frac = m.group(1).lstrip("0"), m.group(2) or ""
    if len(frac) > 9:
        raise DegreeError(
            f"degree precision: {text!r} has more than 9 fractional digits"
        )
    if len(whole) > 1:
        raise DegreeError(f"degree out of range: {text!r}")
    numerator = int(whole or "0") * SCALE + int(frac.ljust(9, "0"))
    if numerator > SCALE:
        raise DegreeError(f"degree out of range: {text!r}")
    return cls(numerator)


_parse_cached = lru_cache(maxsize=_PARSE_CACHE_SIZE)(_parse_literal)


class Degree(int):
    """An exact number in [0, 1]: the int ``n`` standing for ``n / 10^9``."""

    __slots__ = ()

    def __new__(cls, numerator: int):
        if not isinstance(numerator, int) or isinstance(numerator, bool):
            raise DegreeError(f"degree numerator must be an int, got {numerator!r}")
        if not 0 <= numerator <= SCALE:
            raise DegreeError(f"degree out of range: {numerator}/{SCALE}")
        return int.__new__(cls, numerator)

    @classmethod
    def parse(cls, text: str) -> "Degree":
        """Parse a decimal literal like ``0``, ``1``, ``0.8`` exactly.

        Rejects anything outside [0, 1] and literals with more than nine
        fractional digits (no silent rounding).

        Literals of up to 64 characters are cached by text in a bounded LRU
        cache of 4,096 entries, so equal text gives the same ``Degree``
        object; longer ones are parsed on every call, and a rejected literal
        is never cached and raises on every call.
        """
        if len(text) <= _PARSE_CACHE_MAX_LEN:
            return _parse_cached(cls, text)
        return _parse_literal(cls, text)

    def __repr__(self):
        return f"Degree({str(self)!r})"

    def __str__(self):
        """Minimal decimal form: ``0``, ``1``, ``0.8``."""
        if self == 0:
            return "0"
        if self == SCALE:
            return "1"
        return f"0.{int(self):09d}".rstrip("0")


#: The lattice bottom and top.
ZERO = Degree(0)
ONE = Degree(SCALE)


def as_degree(value: "Degree | str") -> Degree:
    """Coerce a degree literal or a Degree to a Degree.

    A plain ``int`` is rejected: ``Degree(1)`` stands for 10^-9, so reading
    a bare 1 as the top degree would hide a numerator that lost its type.
    """
    if isinstance(value, Degree):
        return value
    if isinstance(value, str):
        return Degree.parse(value)
    raise DegreeError(f"cannot interpret {value!r} as a degree")
