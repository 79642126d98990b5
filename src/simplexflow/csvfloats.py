"""CSV floats as array work: the bytes of ``'%.17g' % x`` for a block of
float64 values, each followed by its separator.

|x| = m 2^e is scaled to y = |x| 10^(16 - k), k = floor(log10 |x|), with
10^q as a double-double (hi + lo) 2^g and m hi as an exact Dekker product
(Dekker 1971), so y is known to about 1e-31 relative and D = round(y) holds
the 17 significant digits.  SWAR integer steps turn D into digit bytes, and
a byte template per (notation, significant digits) lays them out by the
``%g`` rules: fixed notation for decimal exponents -4 to 16, otherwise
``d.ddde+XX``, trailing zeros dropped and ``-0`` kept.  A value that is not
finite, or whose rounding lies within 1e-9 of a tie (the error is about
1e-14 of a unit), goes through ``'%.17g' % x`` itself (Gay 1990).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

#: decimal exponents of nonzero float64 values: 5e-324 to 1.8e308
_X_MIN, _X_MAX = -324, 308
#: q = 16 - k, for k one past either end of the exponent range
_Q_MIN, _Q_MAX = 15 - _X_MAX, 17 - _X_MIN
#: Veltkamp's constant 2^27 + 1: splits a float64 into two 26-bit halves
_SPLIT = 134217729.0
#: bytes per value in a block: four little-endian uint64 words.  Byte 0 is
#: the sign, 1-5 the "0.000" of fixed notation below 1, 6 the first digit, 7
#: a point after it, 8-23 the other 16 digits, 24-28 "e+XXX", 29 the
#: separator; a byte left 0 is dropped
_WIDTH = 32
#: a value's pattern is (notation class, significant digits): class 0 is
#: exponent notation, class X + 5 fixed notation at decimal exponent X
_FIXED = range(-4, 17)


class _Tables(NamedTuple):
    #: (4, q) rows hi, head(hi), tail(hi), lo: 10^q = (hi + lo) 2^g with hi
    #: in [1/2, 1] and |lo| <= 2^-54, head + tail = hi in 26-bit halves
    powers: np.ndarray
    #: g per q
    binary_exponents: np.ndarray
    #: 2.0 ** i, to scale by 2^(e + g)
    powers_of_two: np.ndarray
    #: uint64 per first digit: it at byte 6
    first_digit: np.ndarray
    #: (3, patterns) uint64: words 0-2 of a pattern: the prefix, "0" (48) at
    #: each kept digit byte and a point after the first digit; a digit's
    #: value is added
    patterns: np.ndarray
    #: per X - _X_MIN: class * 18, so + significant digits (0 as 1) is the pattern
    class_code: np.ndarray
    #: per X - _X_MIN: word 3 without its separator ("e", sign, 2 or 3 digits)
    exponent_words: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built on first use (2-5 ms), exactly: Python integer division rounds
    10^q to 106 bits correctly."""
    hi, lo = np.empty((2, _Q_MAX + 1 - _Q_MIN))
    binary_exponents = np.empty(hi.size, np.int16)
    for row, q in enumerate(range(_Q_MIN, _Q_MAX + 1)):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        g = num.bit_length() - den.bit_length()
        if (num << max(0, -g)) >= (den << max(0, g)):
            g += 1
        num, den = num << max(0, 106 - g), den << max(0, g - 106)
        scaled = (2 * num + den) // (2 * den)
        top = (scaled + (1 << 52)) >> 53
        hi[row], lo[row] = math.ldexp(top, -53), math.ldexp(scaled - (top << 53), -106)
        binary_exponents[row] = g
    head = hi * _SPLIT
    head -= head - hi
    # words 0-2 of each pattern, then word 3 of each exponent
    patterns, exponent_words = bytearray(), bytearray()
    for x in [None, *_FIXED]:
        point = 1 if x is None else max(x + 1, 0)
        prefix = b"" if x is None or x >= 0 else b"0.000"[: 1 - x]
        for significant in range(18):
            kept = max(significant, point, 1)
            patterns += b"\0" + prefix.ljust(5, b"\0") + b"0"
            patterns += b"." if point == 1 < significant else b"\0"
            patterns += (b"0" * (kept - 1)).ljust(16, b"\0")
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    for x in exponents.tolist():
        text = b"\0\0" if x in _FIXED else b"e%+03d" % x
        exponent_words += text[:2] + text[2:].rjust(3, b"\0") + bytes(3)
    tables = _Tables(
        powers=np.array([hi, head, hi - head, lo]),
        binary_exponents=binary_exponents,
        powers_of_two=2.0 ** np.arange(80),
        first_digit=np.arange(10, dtype=np.uint64) << np.uint64(48),
        patterns=np.frombuffer(patterns, np.uint64).reshape(-1, 3).T.copy(),
        class_code=18 * np.where(np.isin(exponents, _FIXED), exponents + 5, 0),
        exponent_words=np.frombuffer(exponent_words, np.uint64),
    )
    for array in tables:
        array.setflags(write=False)
    return tables


def _scaled_decimal(m: np.ndarray, e: np.ndarray, k: np.ndarray, tables: _Tables) -> tuple:
    """(y_hi, y_lo) with y_hi + y_lo = m 2^e 10^(16 - k) to about 1e-31
    relative; ``m`` becomes y_lo and ``e`` is overwritten."""
    row = np.subtract(16 - _Q_MIN, k, dtype=np.intp)
    hi, head, tail, lo = tables.powers
    y_hi = hi[row]
    y_hi *= m
    m_head = m * _SPLIT
    m_tail = m_head - m
    m_head -= m_tail
    np.subtract(m, m_head, out=m_tail)
    part = lo[row]
    m *= part
    # plus the rounding error of m * hi, exactly (Dekker 1971)
    np.take(head, row, out=part)
    error = m_head * part
    error -= y_hi
    part *= m_tail
    error += part
    np.take(tail, row, out=part)
    m_head *= part
    error += m_head
    m_tail *= part
    error += m_tail
    m += error
    del m_head, m_tail, part, error
    e += tables.binary_exponents[row]
    scale = tables.powers_of_two[e]
    y_hi *= scale
    m *= scale
    return y_hi, m


def decimal_digits(values: np.ndarray) -> tuple:
    """(digits, exponent, fallback) of float64 ``values``, as ``'%.17g'``
    rounds them: the 17 significant digits as an int64 in [1e16, 1e17) and
    the decimal exponent as an int16 (0 and 0 for a zero or a value that is
    not finite).  ``fallback``
    marks a value that is not finite or whose rounding lies within 1e-9 of a
    tie; its digits are not meant to be used."""
    tables = _tables()
    a = np.abs(values)
    nonfinite = ~np.isfinite(a)
    # zeros and non-finite values are scaled as 2.0, clear of the edges
    # below; their digits are reset
    special = nonfinite | (a == 0)
    a[special] = 2.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.int16)
    m, e = np.frexp(a)
    del a
    y_hi, y_lo = _scaled_decimal(m, e, k, tables)
    del m, e
    # log10 may round across a power of ten, and then y falls outside
    # [1e16, 1e17); a y_hi strictly inside leaves y inside
    edge = np.flatnonzero(np.abs(y_hi - 5.5e16) >= 4.5e16)
    if edge.size:
        k[edge] += (y_hi[edge] - 1e17) + y_lo[edge] >= 0
        k[edge] -= (y_hi[edge] - 1e16) + y_lo[edge] < 0
        y_hi[edge], y_lo[edge] = _scaled_decimal(*np.frexp(np.abs(values[edge])), k[edge], tables)
    del edge
    # y_hi >= 1e16 > 2^53 is an integer, so y rounds where y_lo does
    whole = np.rint(y_lo)
    y_lo -= whole
    fallback = np.abs(y_lo) > 0.5 - 1e-9
    fallback |= nonfinite
    digits = y_hi.astype(np.int64)
    digits += whole.astype(np.int64)
    del y_hi, y_lo, whole, nonfinite
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[special] = 0
    k[special] = 0
    return digits, k, fallback


def format_block(values: np.ndarray, column: int, width: int) -> bytearray:
    """The bytes of ``'%.17g' % x`` for each of the float64 ``values``, each
    followed by "," or, at the last of ``width`` columns, by a newline; the
    first value is in column ``column`` (0-based) of its row.  Each array is
    released once used, so a block peaks near 75 bytes a value."""
    tables = _tables()
    digits, k, fallback = decimal_digits(values)
    # the first digit, then the next 16 as two words of eight, a digit a byte
    # (SWAR: halving the decimal width in each lane of a word at a time)
    first, digits = np.divmod(digits, 10**16)
    first = first.astype(np.uint8)
    octets = np.array(np.divmod(digits, 10**8))
    del digits
    lanes = octets // 10**4
    octets -= lanes * 10**4
    octets <<= 32
    octets |= lanes
    np.multiply(octets, 5243, out=lanes)
    lanes >>= 19
    lanes &= 0x0000007F0000007F
    octets -= lanes * 100
    octets <<= 16
    octets |= lanes
    np.multiply(octets, 103, out=lanes)
    lanes >>= 10
    lanes &= 0x000F000F000F000F
    octets -= lanes * 10
    octets <<= 8
    octets |= lanes
    del lanes
    # the last nonzero digit: the highest nonzero byte of either word
    used = np.frexp(octets.astype(np.float64))[1]
    used += 7
    used >>= 3
    significant = used[1] + 9
    significant *= used[1] > 0
    np.maximum(significant, used[0] + 1, out=significant)
    del used
    code = tables.class_code[k - _X_MIN]
    code += significant
    # fixed notation from 10 up puts its point after digit k + 1 of the 17
    inner = np.flatnonzero((k >= 1) & (k < 16) & (significant > k + 1))
    del significant
    block = bytearray(_WIDTH * len(values))
    words = np.frombuffer(block, np.uint64).reshape(-1, _WIDTH // 8)
    for j, octet in enumerate(octets, 1):
        np.add(octet.view(np.uint64), tables.patterns[j][code], out=words[:, j])
    del octets, octet
    word = tables.patterns[0][code]
    word += tables.first_digit[first]
    word += np.signbit(values).view(np.uint8) * np.uint8(ord("-"))
    words[:, 0] = word
    np.take(tables.exponent_words, k - _X_MIN, out=word)
    word |= np.uint64(ord(",") << 40)
    word[width - 1 - column % width::width] ^= np.uint64((ord(",") ^ ord("\n")) << 40)
    words[:, 3] = word
    del first, word, code
    chars = words.view(np.uint8)
    # the digits after such a point move one byte on, over the unused "e"
    if inner.size:
        point = k[inner, None]
        shift = np.arange(17)
        moved = chars[inner[:, None], 8 + shift - (shift > point)]
        moved[shift == point] = ord(".")
        chars[inner, 8:25] = moved
    del k
    for i in np.flatnonzero(fallback).tolist():
        text = b"%.17g" % values[i]
        chars[i, :29] = 0
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
    del chars, words
    return block.translate(None, b"\0")
