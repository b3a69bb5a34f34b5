import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sfwmsim.floattext import (WIDTH, _floor_log10_pow2, _floor_log2_pow10, _power_of_ten,
                               repr_rows)
from test_cli import EDGE_VALUES


def _assert_reprs(values):
    """The rows of ``values``, NULs dropped and one per line, are their reprs."""
    x = np.asarray(values, dtype=np.float64)
    for start in range(0, len(x), 2 ** 18):
        part = x[start:start + 2 ** 18]
        lines = np.zeros((len(part), WIDTH + 1), dtype=np.uint8)
        lines[:, :WIDTH] = repr_rows(part)
        lines[:, WIDTH] = ord("\n")
        text = lines.tobytes().translate(None, b"\0").decode()
        expected = [repr(v) for v in part.tolist()]
        if text != "\n".join(expected) + "\n":
            got = text.splitlines()
            bad = [(e, g) for e, g in zip(expected, got) if e != g]
            raise AssertionError(f"{len(bad)} of {len(part)} differ, e.g. {bad[:5]}")


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20250).integers(0, 2 ** 64, 1_100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) >= 1_000_000
    _assert_reprs(values)


def test_every_power_of_two_matches_repr():
    # the interval below a power of two is half as wide as the one above
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert len(powers) == 2098 and powers[0] == 5e-324
    _assert_reprs(powers)
    _assert_reprs(-powers)


def test_powers_of_ten_and_their_neighbours_match_repr():
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    neighbours = [np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]
    _assert_reprs(np.concatenate([tens, *neighbours]))


def test_integers_match_repr():
    _assert_reprs(np.arange(100_001, dtype=np.float64))
    _assert_reprs(np.arange(2 ** 53 - 2000, 2 ** 53 + 2000, dtype=np.float64))
    _assert_reprs(-np.arange(2 ** 53 - 2000, 2 ** 53 + 2000, dtype=np.float64))


def test_edge_values_match_repr_in_both_signs():
    edges = np.array(EDGE_VALUES)
    _assert_reprs(np.concatenate([edges, -edges]))


def test_non_finite_values_match_repr():
    _assert_reprs([math.inf, -math.inf, math.nan])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_floats_match_repr(values):
    _assert_reprs(values)


def test_the_exponent_and_power_of_ten_tables_are_exact():
    # floor(log10 2^q) and floor(log10 3/4 2^q) over every normal exponent, and
    # floor(log2 10^e) over every power of ten that they select
    q = np.arange(-1074, 972, dtype=np.int64)
    for three_quarters, scale in ((0, 1), (1, 3)):
        k = _floor_log10_pow2(q, np.int64(three_quarters))
        for qi, ki in zip(q.tolist(), k.tolist()):
            value = scale * 2 ** (qi + 1074)  # the value times 2^1074 (times 4/3)
            unit = 2 ** 1074 * (4 if three_quarters else 1)
            assert _at_most(10, ki, value, unit) and not _at_most(10, ki + 1, value, unit)
    e = np.arange(-292, 325, dtype=np.int64)
    for ei, b in zip(e.tolist(), _floor_log2_pow10(e).tolist()):
        assert _at_most(2, b, *_power(10, ei)) and not _at_most(2, b + 1, *_power(10, ei))
        assert 2 ** 125 < _power_of_ten(ei) < 2 ** 126


def _power(base, exponent):
    """base^exponent as a (numerator, denominator) pair."""
    return (base ** exponent, 1) if exponent >= 0 else (1, base ** -exponent)


def _at_most(base, exponent, num, den):
    """base^exponent <= num / den, exactly."""
    p, d = _power(base, exponent)
    return p * den <= num * d
