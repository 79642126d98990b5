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

Every array step writes into six rows of float64 scratch, four of them the
memory of the 32-byte slots the text is laid out in.  A block of n values
peaks near 65n bytes when ``bytearray.translate`` drops the unused bytes of
the slots: it allocates its result as long as them.
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
SLOT_BYTES = 32
#: a value's pattern is (notation class, significant digits): class 0 is
#: exponent notation, class X + 5 fixed notation at decimal exponent X
_FIXED = range(-4, 17)


class _Tables(NamedTuple):
    #: (2, q) rows hi, lo: 10^q = (hi + lo) 2^g with hi in [1/2, 1] and
    #: |lo| <= 2^-54
    powers: np.ndarray
    #: int32 g per q
    binary_exponents: np.ndarray
    #: (3, patterns) uint64: words 0-2 of a pattern: the prefix, "0" (48) at
    #: each kept digit byte and a point after the first digit; a digit's
    #: value is added
    patterns: np.ndarray
    #: per pattern: fixed notation from 10 up with a point inside the digits
    inner_point: np.ndarray
    #: int16 per X - _X_MIN: class * 18, so + significant digits (0 as 1) is
    #: the pattern
    class_code: np.ndarray
    #: per X - _X_MIN: word 3 without its separator ("e", sign, 2 or 3 digits)
    exponent_words: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built on first use (2-5 ms), exactly: Python integer division rounds
    10^q to 106 bits correctly."""
    powers = np.empty((2, _Q_MAX + 1 - _Q_MIN))
    binary_exponents = np.empty(powers.shape[1], np.int32)
    for row, q in enumerate(range(_Q_MIN, _Q_MAX + 1)):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        g = num.bit_length() - den.bit_length()
        if (num << max(0, -g)) >= (den << max(0, g)):
            g += 1
        num, den = num << max(0, 106 - g), den << max(0, g - 106)
        scaled = (2 * num + den) // (2 * den)
        top = (scaled + (1 << 52)) >> 53
        powers[:, row] = math.ldexp(top, -53), math.ldexp(scaled - (top << 53), -106)
        binary_exponents[row] = g
    # words 0-2 of each pattern, then word 3 of each exponent
    patterns, exponent_words, inner_point = bytearray(), bytearray(), []
    for x in [None, *_FIXED]:
        point = 1 if x is None else max(x + 1, 0)
        prefix = b"" if x is None or x >= 0 else b"0.000"[: 1 - x]
        for significant in range(18):
            kept = max(significant, point, 1)
            inner_point.append(x is not None and 1 < point < significant)
            patterns += b"\0" + prefix.ljust(5, b"\0") + b"0"
            patterns += b"." if point == 1 < significant else b"\0"
            patterns += (b"0" * (kept - 1)).ljust(16, b"\0")
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    for x in exponents.tolist():
        text = b"\0\0" if x in _FIXED else b"e%+03d" % x
        exponent_words += text[:2] + text[2:].rjust(3, b"\0") + bytes(3)
    tables = _Tables(
        powers=powers,
        binary_exponents=binary_exponents,
        patterns=np.frombuffer(patterns, np.uint64).reshape(-1, 3).T.copy(),
        inner_point=np.array(inner_point),
        class_code=np.where(np.isin(exponents, _FIXED), 18 * (exponents + 5), 0).astype(np.int16),
        exponent_words=np.frombuffer(exponent_words, np.uint64),
    )
    for array in tables:
        array.setflags(write=False)
    return tables


def _scaled_decimal(k: np.ndarray, slots, tables: _Tables) -> tuple:
    """(y_hi, y_lo), rows of ``slots``, with y_hi + y_lo = |x| 10^(16 - k)
    to about 1e-31 relative.  ``slots`` is six float64 rows shaped like
    ``k``, row 0 holding |x| (finite, nonzero); every row is overwritten."""
    m, p, m_head, error, part, tail = slots
    # m 2^(e + g) first: a power of two scales every product below exactly
    row = tail.view(np.intp)
    np.subtract(16 - _Q_MIN, k, out=row)
    e = p.view(np.int32)[: len(k)]
    np.frexp(m, out=(m, e))
    g = m_head.view(np.int32)[: len(k)]
    np.take(tables.binary_exponents, row, out=g, mode="clip")
    e += g
    np.ldexp(m, e, out=m)
    hi, lo = tables.powers
    np.take(hi, row, out=p, mode="clip")
    # hi = head + tail and m = m_head + m_tail, each in 26-bit halves
    head = part
    np.multiply(p, _SPLIT, out=head)
    np.subtract(head, p, out=tail)
    head -= tail
    np.subtract(p, head, out=tail)
    p *= m
    np.multiply(m, _SPLIT, out=m_head)
    np.subtract(m_head, m, out=error)
    m_head -= error
    m_tail = np.subtract(m, m_head, out=m)
    # the rounding error of m * hi, exactly (Dekker 1971)
    np.multiply(m_head, head, out=error)
    error -= p
    head *= m_tail
    error += head
    np.multiply(m_head, tail, out=part)
    error += part
    tail *= m_tail
    error += tail
    # plus m * lo
    m = np.add(m_head, m_tail, out=m_head)
    row = m_tail.view(np.intp)
    np.subtract(16 - _Q_MIN, k, out=row)
    np.take(lo, row, out=part, mode="clip")
    part *= m
    error += part
    return p, error


def decimal_digits(values: np.ndarray, slots=None) -> tuple:
    """(digits, exponent, fallback) of float64 ``values``, as ``'%.17g'``
    rounds them: the 17 significant digits as an int64 in [1e16, 1e17) and
    the decimal exponent as an int16 (0 and 0 for a zero or a value that is
    not finite).  ``fallback`` marks a value that is not finite or whose
    rounding lies within 1e-9 of a tie; its digits are not meant to be used.
    ``slots``, six float64 rows shaped like ``values``, is the scratch; the
    digits are returned in the memory of its row 4."""
    tables = _tables()
    if slots is None:
        slots = np.empty((6, len(values)))
    a = slots[0]
    np.abs(values, out=a)
    nonfinite = np.isfinite(values)
    np.logical_not(nonfinite, out=nonfinite)
    # zeros and non-finite values are scaled as 2.0, clear of the edges
    # below; their digits are reset
    special = a == 0
    special |= nonfinite
    a[special] = 2.0
    np.log10(a, out=slots[1])
    np.floor(slots[1], out=slots[1])
    k = slots[1].astype(np.int16)
    y_hi, y_lo = _scaled_decimal(k, slots, tables)
    # log10 may round across a power of ten, and then y falls outside
    # [1e16, 1e17); a y_hi strictly inside leaves y inside
    distance = np.subtract(y_hi, 5.5e16, out=slots[0])
    edge = np.flatnonzero(np.abs(distance, out=distance) >= 4.5e16)
    if edge.size:
        k[edge] += (y_hi[edge] - 1e17) + y_lo[edge] >= 0
        k[edge] -= (y_hi[edge] - 1e16) + y_lo[edge] < 0
        redo = np.empty((6, edge.size))
        np.abs(values[edge], out=redo[0])
        y_hi[edge], y_lo[edge] = _scaled_decimal(k[edge], redo, tables)
    # y_hi >= 1e16 > 2^53 is an integer, so y rounds where y_lo does
    whole = np.rint(y_lo, out=slots[0])
    y_lo -= whole
    fallback = np.abs(y_lo, out=y_lo) > 0.5 - 1e-9
    fallback |= nonfinite
    digits, rounding = slots[4].view(np.int64), slots[2].view(np.int64)
    np.copyto(digits, y_hi, casting="unsafe")
    np.copyto(rounding, whole, casting="unsafe")
    digits += rounding
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[special] = 0
    k[special] = 0
    return digits, k, fallback


def format_block(values: np.ndarray, column: int, width: int, block: bytearray) -> bytearray:
    """The bytes of ``'%.17g' % x`` for each of the float64 ``values``, each
    followed by "," or, at the last of ``width`` columns, by a newline; the
    first value is in column ``column`` (0-based) of its row.  The text is
    laid out in ``block``, a bytearray of at least ``SLOT_BYTES`` a value
    that a caller may reuse from block to block; the digits are found in it
    and two more float64 rows, released before the slots are translated."""
    tables = _tables()
    n = len(values)
    planes = np.frombuffer(block, np.float64, 4 * n).reshape(4, n)
    spare = np.empty((2, n))
    digits, k, fallback = decimal_digits(values, [*planes, *spare])
    # the first digit, then the next 16 as two words of eight, a digit a byte
    # (SWAR: halving the decimal width in each lane of a word at a time)
    octets, lanes = spare.view(np.uint64), planes[:2].view(np.uint64)
    np.divmod(octets[0], 10**16, out=(lanes[0], octets[0]))
    first = lanes[0].astype(np.uint8)
    np.divmod(octets[0], 10**8, out=(octets[0], octets[1]))
    # each step keeps (x - c l) << b | l with l = x // c in each lane of b
    # bits: (x << b) - ((c << b) - 1) l, so the lanes need no division
    np.multiply(octets, 109951163, out=lanes)
    lanes >>= 40
    octets <<= 32
    lanes *= (10**4 << 32) - 1
    octets -= lanes
    np.multiply(octets, 5243, out=lanes)
    lanes >>= 19
    lanes &= 0x0000007F0000007F
    octets <<= 16
    lanes *= (100 << 16) - 1
    octets -= lanes
    np.multiply(octets, 103, out=lanes)
    lanes >>= 10
    lanes &= 0x000F000F000F000F
    octets <<= 8
    lanes *= (10 << 8) - 1
    octets -= lanes
    # the last nonzero digit: the highest nonzero byte of either word
    scaled = planes[2:]
    np.copyto(scaled, octets)
    used = planes[0].view(np.int32).reshape(2, n)
    np.frexp(scaled, out=(scaled, used))
    counts = planes[1].view(np.int16)[: 2 * n].reshape(2, n)
    np.copyto(counts, used)
    counts += 7
    counts >>= 3
    significant = counts[1]
    np.add(significant, 9, out=significant, where=significant > 0)
    counts[0] += 1
    np.maximum(significant, counts[0], out=significant)
    at = planes[2].view(np.intp)
    np.subtract(k, _X_MIN, out=at)
    code = np.take(tables.class_code, at, mode="clip")
    code += significant
    words = np.frombuffer(block, np.uint64, 4 * n).reshape(n, 4)
    words[:, 1] = octets[0]
    words[:, 2] = octets[1]
    words[:, 0] = first
    words[:, 0] <<= 48
    np.add(words[:, 0], ord("-"), out=words[:, 0], where=np.signbit(values))
    index, word = spare[0].view(np.intp), spare[1].view(np.uint64)
    np.copyto(index, code)
    inner = np.flatnonzero(tables.inner_point[index])
    for j, pattern in enumerate(tables.patterns):
        np.take(pattern, index, out=word, mode="clip")
        words[:, j] += word
    np.subtract(k, _X_MIN, out=index)
    np.take(tables.exponent_words, index, out=word, mode="clip")
    word |= ord(",") << 40
    word[width - 1 - column % width::width] ^= (ord(",") ^ ord("\n")) << 40
    words[:, 3] = word
    del digits, first, code, octets, index, word, spare
    chars = words.view(np.uint8)
    # fixed notation from 10 up puts its point after digit k + 1 of the 17:
    # the digits after it move one byte on, over the unused "e", for each
    # exponent in turn (np.unique would allocate a megabyte on its first call)
    if inner.size:
        exponents = k[inner]
        for x in np.flatnonzero(np.bincount(exponents)).tolist():
            rows = inner[exponents == x]
            chars[rows, 9 + x:25] = chars[rows, 8 + x:24]
            chars[rows, 8 + x] = ord(".")
        del exponents, rows
    for i in np.flatnonzero(fallback).tolist():
        text = b"%.17g" % values[i]
        chars[i, :29] = 0
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
    del k, fallback, inner
    # slots past the last value, left from a longer block, are dropped
    np.frombuffer(block, np.uint8)[SLOT_BYTES * n:] = 0
    return block.translate(None, b"\0")
