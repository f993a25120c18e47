"""The number-text kernel of frontals.io against Python's own formatting.

format_rows must write every value exactly as repr(float(v)) or
'%.{d}f' % v does, byte for byte, on its exact numpy path and on the
per-value fallback alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals import io as fio
from frontals.legendre import astroid_frontal
from frontals.mates import special_operator

FINITE = st.floats(allow_nan=False, allow_infinity=False)
TINY = 5e-324
HUGE = 1.7976931348623157e308


def kernel(values, decimals=None, seps=("\n",)):
    rows = np.asarray(values, dtype=float).reshape(-1, len(seps))
    return b"".join(fio.format_rows(rows, seps, decimals)).decode()


def python(values, decimals=None, seps=("\n",)):
    fmt = "%r" if decimals is None else f"%.{decimals}f"
    values = tuple(np.asarray(values, dtype=float).ravel().tolist())
    return ("".join(fmt + sep for sep in seps) * (len(values) // len(seps))) % values


def edge_values():
    """Zeros, the ends of repr's positional range and their neighbours,
    powers of two, the extreme floats, and numbers with few digits."""
    ends = np.array([1e-4, 1e16, 1e-5, 1e17, 1e15, 0.001, 1.0, 10.0])
    powers = 2.0 ** np.arange(-1074, 1024, 7)
    values = np.concatenate([
        [0.0, -0.0, TINY, -TINY, HUGE, -HUGE, 2.2250738585072014e-308, 0.1, 0.3, 2.5, 1.5, 123.456],
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [9999999999999998.0, 0.1 + 0.2, 1.0 / 3.0, 2.0**53 + 2.0, 2.0**52 + 0.5],
    ])
    return np.concatenate([values, -values])


def random_values(seed, n):
    """n log-uniform magnitudes over (and just beyond) the range the exact
    path covers, and n / 64 random bit patterns: every finite float as
    likely as its bits, nearly all of them in exponent notation."""
    rng = np.random.default_rng(seed)
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 17.0, n)
    bits = rng.integers(0, 2**64, n // 64, dtype=np.uint64).view(np.float64)
    return np.concatenate([spread, bits[np.isfinite(bits)]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(FINITE, min_size=1, max_size=40))
def test_shortest_matches_repr(values):
    assert kernel(values) == python(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=40), st.integers(1, 12))
def test_fixed_matches_percent_f(values, decimals):
    assert kernel(values, decimals) == python(values, decimals)


def test_a_million_random_values_match_repr():
    values = random_values(17, 10**6)
    assert len(values) > 10**6
    assert kernel(values) == python(values)


@pytest.mark.parametrize("decimals", range(1, 13))
def test_random_values_match_percent_f(decimals):
    rng = np.random.default_rng(decimals)
    values = rng.choice([-1.0, 1.0], 2**15) * 10.0 ** rng.uniform(-decimals - 2, 16 - decimals, 2**15)
    assert kernel(values, decimals) == python(values, decimals)


def test_edge_values():
    values = edge_values()
    assert kernel(values) == python(values)
    for decimals in (0, 1, 3, 12, 16, 17, 20):
        assert kernel(values, decimals) == python(values, decimals)


def test_fixed_halfway_cases_round_half_even():
    # An odd k over 2**(d + 1), times 10**d, is k 5**d / 2: an exact tie
    # right after the last kept decimal, which '%.{d}f' rounds to even.
    rng = np.random.default_rng(11)
    for decimals in range(1, 13):
        odd = np.concatenate([np.arange(-63, 64), rng.integers(-2**36, 2**36, 256)]) * 2 + 1
        halves = odd / 2.0 ** (decimals + 1)
        assert kernel(halves, decimals) == python(halves, decimals)
    assert kernel([0.125, 0.375, -0.625, 2.5e-5], 2) == "0.12\n0.38\n-0.62\n0.00\n"


def test_separators_follow_their_columns():
    values = np.concatenate([edge_values()[:99], random_values(3, 320)[-300:]])
    seps = (",", " L ", "\r\n")
    assert kernel(values, None, seps) == python(values, None, seps)
    small = values[np.abs(values) < 1e9][:200]
    assert kernel(small, 4, (",", " L ")) == python(small, 4, (",", " L "))


def test_mate_csv_reads_back_to_the_same_bits(tmp_path):
    mp = special_operator(astroid_frontal(256), "involute", lambda0=0.4)
    path = tmp_path / "mate.csv"
    fio.write_mate_csv(path, mp)
    header, cols = fio.read_csv_columns(path)
    pts, nus = mp.mate.gamma.on_grid("position"), mp.mate.on_grid("nu")
    written = [mp.lam.grid, pts[:, 0], pts[:, 1], nus[:, 0], nus[:, 1], mp.lam.lam,
               mp.mate_curvature.ell, mp.mate_curvature.beta]
    assert header == fio.MATE_HEADER
    for name, want in zip(header, written):
        assert np.array_equal(cols[name].view(np.uint64), np.asarray(want, dtype=float).view(np.uint64)), name


def test_shortest_table_matches_the_list_built_templates():
    rows = []
    for sign in (0, 1):
        for p in range(-3, 17):
            for k in range(18):
                if p <= 0:
                    body = [fio._ZERO, fio._DOT] + [fio._ZERO] * -p + fio._DIGIT[:k]
                else:
                    body = fio._DIGIT[:p] + [fio._DOT] + fio._DIGIT[p:max(k, p + 1)]
                rows.append([fio._MINUS] * sign + body)
    index = np.zeros((len(rows), max(map(len, rows)) + len(fio._SEP)), dtype=np.int32)
    for key, row in enumerate(rows):
        index[key, :len(row) + len(fio._SEP)] = row + fio._SEP
    got_index, got_lengths = fio._shortest_table()
    assert got_index.dtype == np.int32 and np.array_equal(got_index, index)
    assert np.array_equal(got_lengths, [len(r) for r in rows])


def test_quads_match_the_digits_of_each_group():
    text, last = fio._quads()
    groups = [f"{g:04d}" for g in range(10000)]
    assert text.dtype == np.uint32 and text.tobytes() == "".join(groups).encode()
    assert last.tolist() == [len(g.rstrip("0")) or -16 for g in groups]

