"""csvtext.rows against Python's % formatting: every byte must agree."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab import cli, csvtext
from groverlab.csvtext import rows

FLOATS = ("%.17g", "%.0f")
TEMPLATES = [cli.TRACE_ROW, cli.SWEEP_ROW, cli.SPECTRUM_ROW, cli.MANIFOLD_ROW, cli.ASYMPTOTICS_ROW]


def python_rows(template, columns):
    """The reference: one % call per row, encoded; a NaN cell is empty, and
    no other cell can contain "nan"."""
    cells = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "".join(template % row for row in cells).replace("nan", "").encode()


@pytest.fixture
def python_cells(monkeypatch):
    """The number of values each call of the Python fallback formats."""
    calls, fallback = [], csvtext._python_cells

    def counted(conversion, values):
        calls.append(len(values))
        return fallback(conversion, values)
    monkeypatch.setattr(csvtext, "_python_cells", counted)
    return calls


def assert_same(template, columns):
    got, want = rows(template, columns), python_rows(template, columns)
    if got != want:
        lines = zip(got.split(b"\n"), want.split(b"\n"), zip(*columns))
        row = next((g, w, r) for g, w, r in lines if g != w)
        pytest.fail(f"{template!r}: {row[0]!r} != {row[1]!r} for {row[2]!r}")


def power_neighbours():
    """10^k for k = -320..308 (the double nearest it) and its two float
    neighbours, with both signs."""
    out = []
    for k in range(-320, 309):
        v = float(f"1e{k}")
        out += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    return np.array(out + [-v for v in out])


def dyadic_ties():
    """n / 2^j whose exact decimal expansion has 18 significant digits
    ending in 5: halfway between two 17-digit decimals."""
    out = []
    for j in range(2, 120):
        five = 5**j
        first = -(-10**17 // five) | 1
        for n in range(first, min(10**18 // five, 2**53), 2)[:3]:
            out += [n / 2**j, -n / 2**j]
    return np.array(out)


def digit_groups():
    """Doubles whose 17 significant digits show each of the 16 zero/nonzero
    patterns of the four groups of four after the first digit, in fixed and
    exponent notation, with all-zero tails and a value just below a power of
    ten.  The formatter splits the groups off one by one, and random bit
    patterns show a 0000 group about once in 10^4 draws."""
    values = [1.0, 0.5, 1e16, 9.9999999999999995e-5]
    # Nonzero groups with and without trailing zeros.
    for nonzero in (("1000", "0200", "0030", "4710"), ("7999", "0001", "9997", "0002")):
        for pattern in range(16):
            groups = "".join("0000" if pattern >> k & 1 else nonzero[k] for k in range(4))
            values.append(float("1" + groups))  # an even integer below 2^54: exact
            values += [float(f"{first}.{groups}e{exp}") for first in (1, 9)
                       for exp in (-300, -5, -4, -1, 0, 7, 16, 17, 300)]
    shown = {tuple(("%.16e" % v)[2 + 4 * k:6 + 4 * k] != "0000" for k in range(4))
             for v in values}
    assert len(shown) == 16
    return np.array(values)


SPECIALS = np.array([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, math.inf),
    0.5, 1.5, 2.5, -0.5, -2.5, 0.49999999999999994, 2.0**52 + 0.5, 2.0**53, 2.0**53 + 2, -2.0**53,
    1e16, 1e17, 99999999999999999.0, 9.999999999999999e16, 1e-4, 1e-5, 9.99999999999999e-5,
    0.1, 1 / 3, 2 / 3, math.pi, 123456789012345678.0, 1e300, -1e300,
])
INTEGERS = [0, 1, -1, 9, 10, -10, 9999, 10000, 99999999, 10**16 - 1, 10**16,
            10**18, -10**18, 2**53 + 1, 2**63 - 1, -2**63, -2**63 + 1]


@pytest.mark.parametrize("conversion", FLOATS)
@pytest.mark.parametrize("values", [
    power_neighbours(), dyadic_ties(), SPECIALS, digit_groups(),
    np.random.default_rng(1).random(20000),
    np.exp(np.random.default_rng(2).uniform(math.log(1e-320), math.log(1e308), 20000)),
], ids=["powers", "ties", "specials", "groups", "uniform", "log-uniform"])
def test_float_sets(conversion, values):
    assert_same(conversion + "\n", [values])
    assert_same(conversion + "\n", [-values])


@pytest.mark.parametrize("ulps", [-1, 1])
def test_log10_one_ulp_off(monkeypatch, ulps):
    """The exponent is checked against the scaled value, so a log10 one ulp
    off (which puts e one off at powers of ten) changes no byte."""
    log10 = np.log10
    monkeypatch.setattr(csvtext.np, "log10", lambda x: np.nextafter(log10(x), ulps * math.inf))
    assert_same("%.17g\n", [power_neighbours()])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    for conversion in FLOATS:
        assert_same(conversion + "\n", [values])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
def test_random_int64(values):
    assert_same("%d\n", [np.array(values, dtype=np.int64)])


@pytest.mark.parametrize("column", [
    np.array(INTEGERS, dtype=np.int64), INTEGERS, np.array([True, False, True]), [False, True],
    np.array([0, 2**63, 2**64 - 1], dtype=np.uint64), np.array([-128, 0, 127], dtype=np.int8),
    [2**64, -2**70, 5, 10**40],  # beyond int64: Python's %
], ids=["int64", "list", "bool", "bool-list", "uint64", "int8", "big"])
def test_integers(column):
    assert_same("%d\n", [column])


def mixed_column(conversion, rng, n):
    """Values of a conversion's own kind, drawn from the sets above."""
    if conversion == "%d":
        return rng.choice(np.array(INTEGERS, dtype=np.int64), n)
    pool = np.concatenate([SPECIALS, dyadic_ties(), power_neighbours()[::7], rng.random(300)])
    return rng.choice(pool, n)


# A row with a multi-byte literal, whose columns put cells that Python
# writes wider than the array layout among cells the arrays write.
WIDE_ROW = "%d µs,%.17g;%.0f → %.17g\n"
WIDE_VALUES = {"d": [-2**63], ".17g": [5e-324, -5e-324, -0.0, math.nan, 1e300],
               ".0f": [1e300, -1e300, -0.0, math.nan]}


def template_columns(template, rng, n):
    """Mixed columns for a template; for WIDE_ROW, with WIDE_VALUES placed
    at random rows."""
    conversions = csvtext._CONVERSION.findall(template)
    columns = [mixed_column("%" + c, rng, n) for c in conversions]
    if template == WIDE_ROW:
        for column, conversion in zip(columns, conversions):
            special = WIDE_VALUES[conversion]
            column[rng.choice(n, len(special), replace=False)] = special
    return columns


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.replace("%.17g", "g")[:24])
def test_cli_templates(template):
    rng = np.random.default_rng(len(template))
    conversions = csvtext._CONVERSION.findall(template)
    assert_same(template, [mixed_column("%" + c, rng, 400) for c in conversions])


@pytest.mark.parametrize("step", [1, 7, pytest.param(None, id="default")])
def test_step_size_changes_no_byte(step):
    """Rows formatted a block of ``step`` rows at a time, as the CLI streams
    them, join to the bytes of one call (``None``: one call)."""
    rng = np.random.default_rng(step or 0)
    for template in TEMPLATES + [WIDE_ROW]:
        columns = template_columns(template, rng, 50)
        cut = step or 50
        got = b"".join(rows(template, [c[lo:lo + cut] for c in columns])
                       for lo in range(0, 50, cut))
        assert got == rows(template, columns)
        assert_same(template, columns)


@pytest.mark.parametrize("template", TEMPLATES + [WIDE_ROW],
                         ids=lambda t: t.replace("%.17g", "g")[:24])
def test_python_fallback_gives_the_same_bytes(monkeypatch, python_cells, template):
    """Every cell through Python's %: no kind is fast, every remainder a tie."""
    monkeypatch.setattr(csvtext, "_INT_KINDS", "")
    monkeypatch.setattr(csvtext, "_F_LIMIT", 0.0)
    monkeypatch.setattr(csvtext, "_TIE", math.inf)
    rng = np.random.default_rng(7)
    columns = template_columns(template, rng, 200)
    assert_same(template, columns)
    nan_cells = sum(int(np.isnan(c).sum()) for c in columns if c.dtype.kind == "f")
    assert sum(python_cells) == 200 * len(columns) - nan_cells


def test_long_trace_rarely_falls_back(python_cells, capsys):
    """Fewer than 0.1% of the cells of `trace --n 1000000 --m-max 1000000`
    go to Python's %: the fast path, not the fallback, carries the trace."""
    n = 10**6
    assert cli.main(["trace", "--n", str(n), "--m-max", str(n), "--out", os.devnull]) == 0
    capsys.readouterr()
    assert sum(python_cells) < 1e-3 * (n + 1)


def test_rejects_other_conversions_and_column_counts():
    with pytest.raises(ValueError):
        rows("%.3f\n", [[1.0]])
    with pytest.raises(ValueError):
        rows("%d,%d\n", [[1]])
    with pytest.raises(ValueError):
        rows("m\n", [])
    assert rows("%d\n", [np.array([], dtype=np.int64)]) == b""
