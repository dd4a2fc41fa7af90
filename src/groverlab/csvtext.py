"""CSV body text from numpy columns, byte for byte what Python's % prints.

``rows(template, columns)`` formats equal-length columns through a row
template of literal text and the three conversions the CSV writer uses:
``%d``, ``%.17g`` and ``%.0f``.  Each conversion returns its cells as a byte
matrix, one row per CSV row, 0 meaning "no byte": it works out their width,
then writes them as words, most of them looked up in small tables and
masked.  ``rows`` joins the literals and the cell matrices side by side
into a bytearray, and ``translate`` drops the zeros once per call.  A NaN
float cell is empty.

A ``%.17g`` cell scales |x| by 10^(16 - e), e = floor(log10 |x|), in
double-double arithmetic: a Dekker two-product of |x| with the double
nearest 10^(16 - e), plus |x| times that double's error.  That gives the
17-digit integer part and a remainder within 1e-14 of the exact one, which
decides the rounding wherever it is not within 1e-9 of one half.  Python's
% formats every cell the arithmetic cannot vouch for (a near-tie, a float
outside the ranges below, an integer not held in a numpy integer array), so
those bytes are Python's by construction (and widen the cells if need be).
"""

from __future__ import annotations

import functools
import re
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["rows"]

# The values each conversion formats in numpy; Python's % takes the rest.
# |x| for %.17g: the power-of-ten table and the Dekker split stay normal and
# finite in this range.
_G_RANGE = (1e-280, 1e280)
# That range as the bits of |x|: their offset from its start's, as a uint64,
# exceeds its width outside it, at 0, inf and NaN too.
_G_START, _G_END = np.array(_G_RANGE).view(np.uint64)
# |x| for %.0f: np.rint and the int64 cast are exact below 2^53.
_F_LIMIT = 2.0**53
# Array kinds %d formats in numpy: bool, signed and unsigned integers.
_INT_KINDS = "biu"
# A %.17g remainder this close to one half may be a tie the double-double
# product cannot resolve.
_TIE = 1e-9

_CONVERSION = re.compile(r"%(d|\.17g|\.0f)")
_POWERS = 300  # the power table holds 10^k for |k| <= _POWERS
_EXPONENTS = 330  # the exponent table holds e+XX for |e| <= _EXPONENTS
_SPLIT = 2.0**27 + 1  # Veltkamp splitter: 26-bit halves multiply exactly


@functools.lru_cache(maxsize=None)
def _parse(template: str):
    """The template's literals (one more than its conversions) as bytes."""
    parts = _CONVERSION.split(template)
    literals = [p.encode() for p in parts[::2]]
    if len(parts) == 1 or any(b"%" in lit for lit in literals):
        raise ValueError(f"template {template!r} needs conversions, all %d, %.17g or %.0f")
    return tuple(literals), tuple(parts[1::2])


class _Tables(NamedTuple):
    quads: np.ndarray  # uint32 whose bytes are the four ASCII digits of 0..9999
    zeros: np.ndarray  # trailing zero digits of 0..9999 as four digits
    # uint32 masks of the digits of 0..9999 without leading zeros: row 0
    # keeps none of 0, row 1 (a number's last group) keeps its last "0"
    significant: np.ndarray
    powers: np.ndarray  # hi, lo, hi_hi, hi_lo of 10^k by k + 300, k = -300..300
    lead: np.ndarray  # sign, "0." and zeros, the first digit and a point after it
    # The %.17g layout by key = 18 * code + the trailing zero digits of the 17,
    # code = e + 5 in fixed notation (-4 <= e < 17), else 0.
    layout: np.ndarray  # 18 * code by e + _EXPONENTS
    lead_key: np.ndarray  # the lead word's index less the sign and the first digit
    integer: np.ndarray  # two words of masks of the 16 digits after the first
    fraction: np.ndarray  # the same for the fraction part
    point: np.ndarray  # "." after the integer digits after the first, or nothing
    exponent: np.ndarray  # "e+XX" by e + _EXPONENTS, empty in fixed notation


def _words(text: Sequence[bytes], width: int = 8) -> np.ndarray:
    """Byte strings, zero-padded to ``width``, as native words of that width."""
    raw = b"".join(t.ljust(width, b"\0") for t in text)
    return np.frombuffer(raw, f"u{width}").copy()


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The lookup tables, built on first use.

    The powers of ten come from Python's int arithmetic and its correctly
    rounded int/int division: hi is the double nearest 10^k, lo the double
    nearest 10^k - hi, and hi is split into two 26-bit halves.

    The %.17g layout is up to seven words: the lead word, the integer
    digits after the first (two words) and the point after them, the
    fraction digits (two words) and the exponent.
    """
    n = np.arange(10000, dtype=np.uint16)
    quads = np.empty((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.int8)
    length = np.ones(10000, np.int8)
    for k in (1, 2, 3, 4):
        quads[:, 4 - k] = n // np.uint16(10**(k - 1)) % np.uint16(10) + np.uint16(48)
        zeros += n % np.uint16(10**k) == 0
        length += n >= 10**k
    quads = quads.view(np.uint32).ravel()
    suffix = _words([b"", b"\0\0\0\xff", b"\0\0\xff\xff", b"\0\xff\xff\xff", b"\xff" * 4], 4)
    significant = suffix[np.stack([np.where(n == 0, 0, length), length])]

    hi, lo, tens = [], [], [10**k for k in range(_POWERS + 1)]
    for k in range(-_POWERS, _POWERS + 1):
        big, den = tens[max(k, 0)], tens[max(-k, 0)]
        hi.append(big / den)
        num, two = hi[-1].as_integer_ratio()  # hi = num / two
        lo.append((big * two - num * den) / (den * two))
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)

    # Lead word, by ((sign * 5 + zeros) * 2 + point) * 10 + first digit, where
    # e = -zeros in fixed notation below 1, else zeros = 0, and the point
    # follows the first digit when no integer digits do.
    lead = _words([b"-"[:sign] + (b"0." + b"0" * (z - 1) if z else b"") + str(d).encode()
                   + b"."[:dot] for sign in (0, 1) for z in range(5) for dot in (0, 1)
                   for d in range(10)])
    e = np.arange(-_EXPONENTS, _EXPONENTS + 1)
    code, zeros_17 = np.divmod(np.arange(22 * 18), 18)
    point = np.where(code > 0, code - 5, 0)  # integer digits after the first, or -zeros
    ints, digits = np.maximum(point, 0)[:, None], 17 - zeros_17  # digits: significant
    j = np.arange(1, 17)
    integer = ((j <= ints) * np.uint8(255)).view(np.uint64)
    fraction = (((j > ints) & (j < digits[:, None])) * np.uint8(255)).view(np.uint64)
    tables = _Tables(quads, zeros, significant, np.stack([hi, lo, hh, hi - hh], axis=1), lead,
                     np.where((e >= -4) & (e < 17), 18 * (e + 5), 0),
                     (np.maximum(-point, 0) * 2 + ((point == 0) & (digits > 1))) * 10,
                     integer.T.copy(), fraction.T.copy(),
                     np.where((point > 0) & (digits > point + 1), _words([b"."])[0], 0),
                     _words([b"" if -4 <= x < 17 else b"e%+03d" % x for x in e.tolist()]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _python_cells(conversion: str, values: np.ndarray) -> np.ndarray:
    """Python's ``conversion % v`` for each value, as zero-padded uint8 rows."""
    texts = [(conversion % v).encode("ascii") for v in values.tolist()]
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), width)


def _patched(cells: np.ndarray, values: np.ndarray, bad: np.ndarray,
             conversion: str) -> np.ndarray:
    """``cells`` with the rows ``bad`` replaced: a NaN by no bytes, anything
    else by Python's bytes (widening the cells if they need it)."""
    if bad.size == 0:
        return cells
    python_rows = bad[~np.isnan(values[bad])]
    text = _python_cells(conversion, values[python_rows])
    if text.shape[1] > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, text.shape[1] - cells.shape[1])))
    cells[bad] = 0
    cells[python_rows, :text.shape[1]] = text
    return cells


def _integer_cells(u: np.ndarray, negative: Optional[np.ndarray] = None) -> np.ndarray:
    """Decimal digits of the uint64 magnitudes ``u``, without leading zeros,
    one word per four digits, after a sign word if any of ``negative`` is set."""
    t = _tables()
    groups = max(1, -(-len(str(int(u.max()))) // 4))
    parts, rest = [], u  # four-digit groups, right to left
    for _ in range(groups - 1):
        q = rest // np.uint64(10000)
        parts.append(rest - q * np.uint64(10000))
        rest = q
    parts.append(rest)
    signed = negative is not None and bool(negative.any())  # a sign word only if needed
    words = np.empty((len(u), signed + groups), np.uint32)
    if signed:
        words[:, 0] = np.where(negative, _words([b"-"], 4)[0], 0)
    for g, part in enumerate(reversed(parts)):
        part = part.view(np.int64)
        keep = t.significant[int(g == groups - 1)][part]
        if g:  # all four digits where a group to the left is nonzero
            keep = np.where(u >= 10**(4 * (groups - g)), np.uint32(0xFFFFFFFF), keep)
        np.bitwise_and(t.quads[part], keep, out=words[:, signed + g])
    return words.view(np.uint8)


def _d_cells(column) -> np.ndarray:
    """``%d`` over the int64 and uint64 ranges; bools print 0/1."""
    values = np.asarray(column)
    if values.dtype.kind not in _INT_KINDS:
        return _python_cells("%d", values)
    if values.dtype.kind == "b":  # one digit each
        return (values + np.uint8(48))[:, None]
    if values.dtype.kind == "u":
        return _integer_cells(values.astype(np.uint64, copy=False))
    signed = values.astype(np.int64, copy=False)
    negative = signed < 0
    u = signed.view(np.uint64)
    if not negative.any():
        return _integer_cells(u)
    # Two's complement: -u wraps to the magnitude, 2^63 for the int64 minimum.
    return _integer_cells(np.where(negative, np.negative(u), u), negative)


def _f_cells(column) -> np.ndarray:
    """``%.0f``: np.rint rounds half to even, as C and Python do."""
    values = np.asarray(column, dtype=np.float64)
    magnitude = np.abs(values)
    fast = magnitude < _F_LIMIT
    rounded = np.rint(np.where(fast, magnitude, 0.0)).astype(np.int64)
    cells = _integer_cells(rounded.view(np.uint64), np.signbit(values))
    return _patched(cells, values, np.flatnonzero(~fast), "%.0f")


def _scaled(a: np.ndarray, e: np.ndarray):
    """a 10^(16 - e) as p + r: p = fl(a hi), r = its exact error + a lo."""
    hi, lo, hh, hl = _tables().powers.take(16 + _POWERS - e, axis=0).T
    p = a * hi
    ah = a * _SPLIT
    ah -= ah - a  # Veltkamp: ah the high 26 bits of a, al the rest
    al = a - ah
    # r = (((ah hh - p) + ah hl + al hh) + al hl) + a lo, summed in that order.
    return p, ah * hh - p + ah * hl + al * hh + al * hl + a * lo


def _g_cells(columns: Sequence) -> List[np.ndarray]:
    """``%.17g`` of each of the equal-length ``columns``, one cell matrix per
    column: 17 significant digits, trailing zeros stripped, fixed notation
    for -4 <= e < 17 and d.ddde+XX otherwise.  The arithmetic runs once over
    all of them; each matrix is as wide as its own cells need."""
    t = _tables()
    count = len(columns)
    values = (np.asarray(columns[0], dtype=np.float64) if count == 1 else
              np.concatenate([np.asarray(column, dtype=np.float64) for column in columns]))
    n = len(values) // count
    a = np.abs(values)
    zero = a == 0  # formatted as 2 with the digit 2 replaced by 0
    slow = a.view(np.uint64) - _G_START > _G_END - _G_START
    a[slow] = 2.0  # not a power of ten: these values take no edge path below
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e)
    # log10 may put e one off near a power of ten: then p + r lies outside
    # [1e16, 1e17), and e moves by one.
    edge = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]
    if edge.size:
        pe, re_ = p[edge], r[edge]
        up = (pe > 1e17) | ((pe == 1e17) & (re_ >= 0))
        down = (pe < 1e16) | ((pe == 1e16) & (re_ < 0))
        e[edge] += up.astype(np.int64) - down
        p[edge], r[edge] = _scaled(a[edge], e[edge])
    whole = np.rint(r)  # a remainder within _TIE of a half makes the value bad
    d = p.astype(np.int64) + whole.astype(np.int64)
    bad = (slow ^ zero) | (np.abs(r - whole) > 0.5 - _TIE)
    del a, p, r, whole  # each block's arrays go as soon as they are used up
    carry = (d == 10**17).nonzero()[0]
    if carry.size:
        d[carry] = 10**16
        e[carry] += 1

    # The first digit, then the sixteen after it as rows g1..g4 of four: two
    # halves of eight, each split in the same floor-divide (contiguous rows;
    # a strided divmod takes four times as long).
    first = d // 10**16
    d -= first * 10**16
    g = np.empty((4, len(d)), np.int64)
    np.floor_divide(d, 10**8, out=g[1])
    np.subtract(d, g[1] * 10**8, out=g[3])
    np.floor_divide(g[1::2], 10**4, out=g[::2])
    g[1::2] -= g[::2] * 10**4
    digits = t.quads.take(g.T, mode="clip").view(np.uint64)
    # Trailing zero digits: those of the last nonzero group, and four for
    # each 0000 after it (``zeros`` of 0000 is 4).
    z = t.zeros[g]
    empty = z == 4
    zeros = z[3] + empty[3] * (z[2] + empty[2] * (z[1] + empty[1] * z[0]))
    del d, g, z, empty

    index = e + _EXPONENTS
    key = t.layout[index] + zeros
    lead = t.lead_key[key] + first - 2 * zero
    lead += np.signbit(values) * 100
    del first, zeros
    # Words no cell of a matrix uses are left out of it: the integer digits
    # after the first and their point below 10, the second word of them
    # below 10^9, the exponent in fixed notation, and its last four bytes
    # (zeros) when every exponent has two digits.
    keys = key.reshape(count, n)
    cells = []
    for c, (top, low) in enumerate(zip(keys.max(axis=1).tolist(), keys.min(axis=1).tolist())):
        part = slice(c * n, (c + 1) * n)
        integer = (top // 18 + 2) // 8  # (e + 7) // 8 for the largest fixed e
        fraction = 1 + integer + (integer > 0)  # the first fraction word
        exponent = low < 18
        ckey = keys[c]
        words = np.empty((n, fraction + 2 + exponent), np.uint64)
        words[:, 0] = t.lead[lead[part]]
        for k in range(integer):
            np.bitwise_and(digits[part, k], t.integer[k][ckey], out=words[:, 1 + k])
        if integer:
            words[:, fraction - 1] = t.point[ckey]
        for k in (0, 1):
            np.bitwise_and(digits[part, k], t.fraction[k][ckey], out=words[:, fraction + k])
        matrix = words.view(np.uint8)
        if exponent:
            words[:, fraction + 2] = t.exponent[index[part]]
            if int(np.abs(e[part]).max()) < 100:
                matrix = matrix[:, :-4]
        cells.append(_patched(matrix, values[part], bad[part].nonzero()[0], "%.17g"))
    return cells


_CELLS = {"d": _d_cells, ".0f": _f_cells}
# Most values one _g_cells call formats: %.17g columns of one block are
# formatted together up to this many, so that the calls' fixed costs are
# shared while their temporaries stay within a trace block's.
_G_VALUES = 2**13


def _cells(conversion: str, column) -> np.ndarray:
    """One column's cell matrix; a (values, index) pair's rows are the cells
    of values[index], each entry of values formatted once."""
    if isinstance(column, tuple):
        values, index = column
        return _cells(conversion, values)[np.asarray(index, dtype=np.intp)]
    return _g_cells([column])[0] if conversion == ".17g" else _CELLS[conversion](column)


def rows(template: str, columns: Sequence) -> bytearray:
    """``"".join(template % row for row in zip(*columns)).encode()``, NaN cells empty.

    ``template`` is literal text around ``%d``, ``%.17g`` and ``%.0f``
    conversions, one per column; the columns are equal-length arrays or
    lists, or (values, index) pairs that stand for the column values[index]
    and format each entry of values once.  Each conversion returns its cells
    as a byte matrix, and the literals and those matrices are joined side by
    side into one, whose zeros are dropped.  A cell takes up to 56 bytes of
    it (more where Python's text is longer), so the caller bounds the memory
    by the rows it passes: every CLI block is at most 2^14 cells, and a
    trace or spectrum block peaks at about 1.1 MB traced.
    """
    literals, conversions = _parse(template)
    if len(columns) != len(conversions):
        raise ValueError(f"template {template!r} takes {len(conversions)} columns, "
                         f"got {len(columns)}")
    n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    if n == 0:
        return bytearray()
    cells = {}  # the %.17g columns' cell matrices, by column
    g = [k for k, conversion in enumerate(conversions)
         if conversion == ".17g" and not isinstance(columns[k], tuple)]
    per = max(1, _G_VALUES // n)
    for lo in range(0, len(g), per):
        cells.update(zip(g[lo:lo + per], _g_cells([columns[k] for k in g[lo:lo + per]])))
    parts = []  # in template order, without empty literals
    for k, literal in enumerate(literals):
        if literal:
            parts.append(np.frombuffer(literal * n, np.uint8).reshape(n, len(literal)))
        if k < len(columns):
            parts.append(cells[k] if k in cells else _cells(conversions[k], columns[k]))
    raw = bytearray(n * sum(part.shape[1] for part in parts))
    np.concatenate(parts, axis=1, out=np.frombuffer(raw, np.uint8).reshape(n, -1))
    del parts, cells  # frees the cell matrices before the compacted copy
    return raw.translate(None, b"\0")
