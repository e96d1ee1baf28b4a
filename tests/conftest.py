"""Shared reference implementations for the test suite."""

import mpmath
import pytest


def _term_by_term_sum(epsilon: float) -> float:
    """sum_{n>=1} n^3 e^(-eps n) - 6/eps^4, adding the series term by term.

    An independent route to ``regulated_cubic_sum``, which uses the closed
    form.  Cost grows as O(1/eps), so use it for eps >= 0.05.  The sum stops
    once a term is below 1e-18 of the running total and below 1e-20
    absolutely: the regulated value is a near-cancellation of the total, so
    the relative rule alone would leave a tail ~1e-9 of the result at
    eps = 0.05.  It runs at 30 digits because the subtraction cancels ~9.
    """
    with mpmath.workdps(30):
        eps = mpmath.mpf(epsilon)
        ratio = mpmath.e ** (-eps)
        power = mpmath.mpf(1)
        running = mpmath.mpf(0)
        n = 1
        while True:
            power *= ratio
            term = n**3 * power
            running += term
            if term < 1e-18 * running and term < 1e-20:
                break
            n += 1
        return float(running - 6 / eps**4)


@pytest.fixture
def term_by_term_sum():
    return _term_by_term_sum
