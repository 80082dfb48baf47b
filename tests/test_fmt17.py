from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from syncopt import fmt17


def printf_rows(block) -> bytes:
    """The reference: every cell through Python's own '%.17g'."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in np.asarray(block).tolist())


POWERS = np.array([float(Fraction(10) ** k) for k in range(-30, 31)])
ADVERSARIAL = np.concatenate([
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf),
    [
        1 + 2**-17, 0.0013818740844726562, 2.5, 0.5,  # exact ties and short dyadics
        1.0000005759589568, 1.000000860704847,  # within 1e-6 of a tie, not one
        99999999999999999.0, 1e17, 1e16, 12345678901234567.0,  # the switch to e+17
        1e-4, 1e-5, 9.99999e-5, 0.00012345,  # the switch at e-05
        5e-324, 2.2250738585072014e-308, 1e-280, 1e280, 1.7976931348623157e308,
        0.0, np.nan, np.inf,
    ],
])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matches_printf(block):
    assert fmt17.csv_rows(block) == printf_rows(block)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_adversarial_cells_match_printf(sign):
    values = sign * ADVERSARIAL  # -0.0 and -inf with the negative sign
    assert fmt17.csv_rows(values[None, :]) == printf_rows(values[None, :])
    assert fmt17.csv_rows(values[:, None]) == printf_rows(values[:, None])


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_exponent_estimate_one_ulp_off(monkeypatch, direction):
    # floor(log10) then misses by one next to the powers of ten; the retry
    # and the carry of a y that rounds to 1e17 must put every cell right
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    values = ADVERSARIAL[None, :]
    assert fmt17.csv_rows(values) == printf_rows(values)


def test_python_formats_only_what_numpy_cannot_certify():
    cells = [np.nan, np.inf, 5e-324, 1e300, 1.0000005759589568, 1 + 2**-17, 1.5, 0.0]
    _, _, fallback = fmt17._decimal(np.array(cells), fmt17._tables())
    assert fallback.tolist() == [True] * 5 + [False] * 3


def test_fallback_is_rare_on_normal_cells():
    block = np.random.default_rng(0).standard_normal(100_000)
    _, _, fallback = fmt17._decimal(block, fmt17._tables())
    assert fallback.mean() < 0.01
