"""Vectorized float-to-text kernels of the CSV, JSON and SVG writers, each
byte-identical to Python's own formatting of every value.

A kernel lays a block of float64 values out as a NUL-padded uint8 matrix,
one slot per value, from exact integer digits; the writer removes the
padding.  A value whose digits a kernel cannot prove is formatted by Python
itself, per element, as the fallback:

- format_e16: FLOAT_FMT % v ('%.16e', write_csv);
- format_repr: float.__repr__, json's float format (write_json);
- format_f2: '%.2f' % v (svg_line_plot's coordinates).

format_e16 and format_repr share one exact scaling (_scaled): a value with
1e-250 <= |v| <= 1e250 is taken to S = |v| 10^(16 - e), e = floor(log10 |v|),
as a double-double (Dekker's product with a Veltkamp split, and 10^k as a
hi/lo pair computed from Python ints on first use), whose error is below
1e-14 of a unit of S.  The tables are built on first use, not at import.
"""
from __future__ import annotations

import functools
import json

import numpy as np

#: fixed scientific float formatting of write_csv: 17 significant digits
FLOAT_FMT = "%.16e"

#: rows per formatted block of write_csv (5 values a row for a spectrum),
#: and values per block of format_repr and format_f2: below that, the fixed
#: cost of their numpy calls shows
CSV_BLOCK_ROWS = 1024
TEXT_BLOCK = 4 * CSV_BLOCK_ROWS

_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)


def _split(a):
    """Veltkamp's split of a into big + small, each of at most 26 bits,
    so that products of halves are exact (Dekker)."""
    c = 134217729.0 * a
    big = c - (c - a)
    return big, a - big


@functools.cache
def _pow10(k: int):
    """10**k as a double-double hi + lo, each rounded to nearest from the
    exact value in Python ints, with hi also split into big + small."""
    if k >= 0:
        hi = float(10 ** k)
        lo = float(10 ** k - int(hi))
    else:
        den = 10 ** -k
        hi = 1 / den
        p, q = hi.as_integer_ratio()
        lo = (q - p * den) / (q * den)
    return (hi, *_split(hi), lo)


@functools.cache
def _digit_tables():
    """The text of every 4-digit group as one uint32, in four variants
    of 10000 each: as it is, with trailing zeros as NUL, with leading zeros
    as NUL, and the same but 0 as '0'; and, indexed by e + 400 for
    e = -400..400, the text of exponent e ('e', its sign, 2 or 3 digits) as
    a NUL-padded uint64."""
    group = np.arange(10000, dtype=np.uint16)[:, None]
    head = group // np.array([1000, 100, 10, 1], np.uint16)
    chars = (head % 10 + ord("0")).astype(np.uint8)
    # the digits kept by a variant: not those that, with every digit
    # before them (leading zeros) or after them (trailing zeros), are 0
    leading = head > 0
    trailing = group % np.array([10000, 1000, 100, 10], np.uint16) > 0
    leading_one = leading.copy()
    leading_one[:, 3] = True
    quads = np.concatenate([chars, chars * trailing, chars * leading,
                            chars * leading_one])
    exps = b"".join(("e%+03d" % e).encode().ljust(8, b"\0")
                    for e in range(-400, 401))
    return quads.view(np.uint32).ravel(), np.frombuffer(exps, np.uint64)


def _scaled(v: np.ndarray):
    """The 17-digit scaling of each value of the float64 array v: |v| and
    10^(16 - e); e = floor(log10 |v|); S = |v| 10^(16 - e) as the integer
    n nearest to it and the rest f = S - n, |f| <= 1/2; and whether the
    value was scaled.  Not scaled are a non-finite or out-of-range value
    and one whose S lies outside [1e16, 1e17), which happens where log10
    misjudges e next to a power of ten."""
    a = np.abs(v)
    ok = (a >= 1e-250) & (a <= 1e250)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k0 = 16 - int(e.max())
    pows = np.array([_pow10(k) for k in range(k0, 17 - int(e.min()))]).T
    hi, big, small, lo = np.take(pows, 16 - k0 - e, axis=1)
    a_big, a_small = _split(a)
    p = a * hi
    t = ((a_big * big - p) + a_big * small + a_small * big) \
        + a_small * small + a * lo
    s = p + t
    r = t - (s - p)
    nearest = np.rint(r)
    n = s.astype(np.int64) + nearest.astype(np.int64)
    ok &= (s < 1e17) & ((s - 1e16) + r >= 0.0)
    return a, hi, e, n, r - nearest, ok


def _digit_groups(n: np.ndarray):
    """The lead digit of each 17-digit integer of n and its other 16
    digits as four groups of four, shape (4, len(n)); n is overwritten."""
    digits = np.empty((5, len(n)), np.int64)
    for j, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        digits[j] = n // scale
        n -= digits[j] * scale
    digits[4] = n
    return digits[0], digits[1:]


# ---------------------------------------------------------------------------
# '%.16e': write_csv
# ---------------------------------------------------------------------------

#: bytes of one NUL-padded value of format_e16: sign, lead digit, '.',
#: 16 digits, exponent text (5) and separator
_E16_WIDTH = 25


def _e16_digits(v: np.ndarray):
    """The 17 significant digits and decimal exponent e of each value of
    a float64 array, as FLOAT_FMT rounds them, and whether they were found.

    Each scaled value is rounded to the 17-digit integer n of its digits;
    zeros give 0, with the e = 0 that _scaled gives them.  Not found are
    the values _scaled does not scale and one whose rest f is within 1e-6
    of 1/2 (a decimal tie, which % rounds half-even on the exact value, or
    a near-tie).  The scaling's error is far inside that 1e-6, so every
    found value rounds as the exact one does.  The digits are returned as
    by _digit_groups."""
    _, _, e, n, f, ok = _scaled(v)
    ok &= np.abs(f) < 0.5 - 1e-6
    zero = v == 0.0
    ok |= zero
    n[zero] = 0
    return *_digit_groups(n), e, ok


def format_e16(block: np.ndarray) -> bytes:
    """The bytes of FLOAT_FMT % v for each element of a float64 block,
    comma-separated, one row per line: the text of _e16_digits in a
    NUL-padded byte matrix, and FLOAT_FMT % v in the slot of each value
    whose digits were not found, with the padding removed."""
    v = block.ravel()
    lead, groups, e, ok = _e16_digits(v)
    quads, exps = _digit_tables()
    text = np.empty(block.shape + (_E16_WIDTH,), np.uint8)
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    text = text.reshape(len(v), -1)
    text[:, 2] = ord(".")
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=text[:, 0])
    np.add(lead, ord("0"), out=text[:, 1], casting="unsafe")
    text[:, 3:19] = np.take(quads, groups.T).view(np.uint8)
    e += 400
    text[:, 19:24] = np.take(exps, e).view(np.uint8).reshape(-1, 8)[:, :5]
    for i in np.flatnonzero(~ok):
        fallback = (FLOAT_FMT % float(v[i])).encode()
        text[i, :-1] = 0
        text[i, :len(fallback)] = np.frombuffer(fallback, np.uint8)
    return text.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# float.__repr__: write_json
# ---------------------------------------------------------------------------

def _nearest(n, f, u: int):
    """The multiple of u nearest to S = n + f, its distance from S, and
    the difference of the distances of the two multiples around S."""
    rem = n % u
    below = np.abs(rem + f)
    above = (u - rem) - f
    return n - rem + u * (above < below), np.minimum(below, above), \
        np.abs(above - below)


def _shortest_digits(v: np.ndarray):
    """The digits of float.__repr__ for each value of a float64 array: the
    17-digit integer D whose leading digits they are, followed by zeros,
    the decimal exponent e of the first, and whether they were found.

    The shortest digit count p is the least for which the p-digit decimal
    nearest to S lies within h of S, where h is half the gap between |v|
    and its neighbouring doubles, scaled as S: h = 2^(E - 53) 10^(16 - e)
    for 2^E <= |v| < 2^(E + 1), between 0.55 and 11.1 units.  So p = 17
    always fits, p = 16 and p = 15 are tested on the multiples of 10 and
    100 nearest to S, and a value with p <= 15 has one multiple M of 100
    within h (they are 100 apart), so its p is 17 minus the trailing zeros
    of M and its digits are those of M.  A D of 10^17 is the carry '1' at
    e + 1.  Not found are the values _scaled does not scale, exact powers
    of two (the gap below them is half the gap above), values whose
    distance from a decisive candidate is within 1e-9 h of h, and values
    whose two candidates at the chosen p = 16 or 17 are within 1e-9 h of
    a tie, which repr breaks on the exact value; the scaling's error is
    far inside that margin."""
    a, hi, e, n, f, ok = _scaled(v)
    bits = a.view(np.uint64)
    h = (bits & _EXPONENT).view(np.float64) * hi * 2.0 ** -53
    tol = 1e-9 * h
    c16, d16, tie16 = _nearest(n, f, 10)
    c15, d15, _ = _nearest(n, f, 100)
    in16 = d16 <= h
    in15 = d15 <= h
    ok &= ((bits & _MANTISSA) != 0) & (np.abs(d16 - h) > tol) \
        & (np.abs(d15 - h) > tol) \
        & np.where(in16, in15 | (tie16 > tol), np.abs(np.abs(f) - 0.5) > tol)
    d = np.where(in15, c15, np.where(in16, c16, n))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    zero = v == 0.0
    ok |= zero
    d[zero] = 0
    return d, e, ok


#: the text part of a format_repr slot: sign, 5 bytes before the digits,
#: 17 digits each followed by a possible '.', 5 bytes after them
_REPR_WIDTH = 45


@functools.cache
def _repr_slots(sep: bytes) -> np.ndarray:
    """The NUL-padded format_repr slots, text and then sep, for each
    decimal exponent e = -400..400 and digit count, at index
    2 (e + 400) + (one digit): the '0.' and zeros before the digits of
    -4 <= e < 0; the '0' digits always written (the first e + 2 for
    0 <= e <= 15, so that integral values end in '.0'); the '.' after digit
    e (0 <= e <= 15) or after the first of several digits (exponent form);
    and the exponent text of e < -4 or e > 15.  format_repr ORs the sign
    and the digits into them."""
    _, exps = _digit_tables()
    slots = np.zeros((801, 2, _REPR_WIDTH + len(sep)), np.uint8)
    slots[:, :, _REPR_WIDTH:] = np.frombuffer(sep, np.uint8)
    exponent_form = np.ones(801, bool)
    exponent_form[396:416] = False
    slots[exponent_form, 0, 7] = ord(".")
    slots[exponent_form, :, 40:45] = exps[exponent_form].view(np.uint8) \
        .reshape(-1, 1, 8)[:, :, :5]
    for e in range(-4, 0):
        slots[e + 400, :, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1),
                                                   np.uint8)
    for e in range(16):
        slots[e + 400, :, 6:10 + 2 * e:2] = ord("0")
        slots[e + 400, :, 7 + 2 * e] = ord(".")
    return slots.reshape(1602, -1)


def format_repr(v: np.ndarray, sep: bytes) -> bytes:
    """The bytes of float.__repr__(x) + sep for each element x of a 1-D
    float64 block v (json.dumps(x) for a non-finite one): the digits of
    _shortest_digits laid out as repr lays them out (exponent form for
    e < -4 or e > 15, with at least two exponent digits; no '.' after a
    single-digit mantissa; 'd.0' for integral values) in their slot of
    _repr_slots, and json.dumps(x) in the slot of each value whose digits
    were not found, with the padding removed."""
    d, e, ok = _shortest_digits(v)
    quads, _ = _digit_tables()
    lead, groups = _digit_groups(d)
    # a group followed only by zero groups loses its trailing zeros
    zero = groups == 0
    tail = zero[2] & zero[3]
    single = tail & zero[0] & zero[1]
    groups[3] += 10000
    groups[2] += 10000 * zero[3]
    groups[1] += 10000 * tail
    groups[0] += 10000 * (tail & zero[1])
    text = np.take(_repr_slots(sep), 2 * (e + 400) + single, axis=0)
    text[:, 0] = np.signbit(v) * ord("-")
    digits = np.empty((len(v), 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(quads, groups.T).view(np.uint8)
    text[:, 6:40:2] |= digits
    for i in np.flatnonzero(~ok):
        fallback = json.dumps(float(v[i])).encode()
        text[i, :_REPR_WIDTH] = 0
        text[i, :len(fallback)] = np.frombuffer(fallback, np.uint8)
    return text.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# '%.2f': svg_line_plot
# ---------------------------------------------------------------------------

def format_f2(v: np.ndarray):
    """The text of '%.2f' % x for each x of a 1-D float64 array, as a
    NUL-padded (len(v), 12) uint8 matrix, and whether each was formatted.

    100 |x| is the exact double-double p + t (Dekker's product; 100 is
    its own big half), rounded half-even on that exact value: rint(p),
    moved by one where p is exactly half-way and t decides the side.
    Values with |x| >= 1e7 and non-finite ones are not formatted."""
    a = np.abs(v)
    ok = a < 1e7
    a = np.where(ok, a, 0.0)
    p = a * 100.0
    big, small = _split(a)
    t = (big * 100.0 - p) + small * 100.0
    n = np.rint(p)
    half = p - n
    n += ((half == 0.5) & (t > 0.0)).astype(np.float64) \
        - ((half == -0.5) & (t < 0.0))
    whole, cents = np.divmod(n.astype(np.int64), 100)
    high, low = np.divmod(whole, 10000)
    quads, _ = _digit_tables()
    text = np.empty((len(v), 12), np.uint8)
    text[:, 0] = np.signbit(v) * ord("-")
    text[:, 1:5] = np.take(quads, high + 20000)[:, None].view(np.uint8)
    text[:, 5:9] = np.take(quads, low + np.where(high > 0, 0, 30000)
                           )[:, None].view(np.uint8)
    text[:, 9] = ord(".")
    text[:, 10:] = np.take(quads, cents)[:, None].view(np.uint8)[:, 2:]
    return text, ok


def join_rows(text: np.ndarray, bad, fallback) -> bytes:
    """The bytes of the rows of a NUL-padded uint8 matrix with the padding
    removed, each row i of bad replaced by the bytes fallback(i)."""
    pieces, start = [], 0
    for i in np.flatnonzero(bad):
        pieces += [text[start:i].tobytes().translate(None, b"\0"),
                   fallback(i)]
        start = i + 1
    pieces.append(text[start:].tobytes().translate(None, b"\0"))
    return b"".join(pieces)
