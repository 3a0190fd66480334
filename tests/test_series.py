import math
from itertools import count, repeat

from finitepart.series import sum_until_small


def test_two_consecutive_small_terms_stop_and_exact_zeros_count():
    s = sum_until_small([1.0, 0.0, 0.0, 5.0], 1e-15, 100)
    assert s.converged
    assert (s.total, s.terms, s.last, s.prev, s.largest) == (1.0, 3, 0.0, 0.0, 1.0)


def test_an_isolated_small_term_is_reset_by_a_large_one():
    terms = [1.0, 1e-20, 2.0, 1e-20, 1e-20, 9.0]
    s = sum_until_small(terms, 1e-15, 100)
    assert s.converged and s.terms == 5
    total = 0.0
    for t in terms[:5]:
        total += t
    assert s.total == total
    assert (s.last, s.prev, s.largest) == (1e-20, 1e-20, 2.0)


def test_offset_moves_the_stop_but_stays_out_of_the_total():
    terms = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18, 1e-21, 1e-24, 1e-27]
    own = sum_until_small(terms, 1e-15, 100)
    assert own.converged and own.terms == 7
    # small against 1 + the running total, the series stops sooner
    s = sum_until_small(terms, 1e-15, 100, offset=1.0)
    assert s.converged and s.terms == 6
    total = 0.0
    for t in terms[:6]:
        total += t
    assert s.total == total


def test_cap_returns_unconverged_partial_total():
    s = sum_until_small(repeat(1.0), 1e-15, 10)
    assert not s.converged
    assert (s.total, s.terms, s.last, s.prev) == (10.0, 10, 1.0, 1.0)
    # running out of terms is the same outcome
    s = sum_until_small([3.0, 1.0], 1e-15, 10)
    assert not s.converged and (s.total, s.terms) == (4.0, 2)
    # a cap of zero or below sums nothing
    for cap in (0, -3):
        s = sum_until_small(repeat(1.0), 1e-15, cap)
        assert not s.converged and (s.total, s.terms) == (0.0, 0)


def test_non_finite_totals_stop_unconverged():
    s = sum_until_small([1.0, math.inf, 0.0, 0.0], 1e-15, 100)
    assert not s.converged and s.terms == 2 and s.total == math.inf
    s = sum_until_small([1.0, math.nan, 0.0, 0.0], 1e-15, 100)
    assert not s.converged and s.terms == 2 and math.isnan(s.total)
    # finite terms whose total overflows
    s = sum_until_small(iter([1e308, 1e308, 0.0, 0.0]), 1e-15, 100)
    assert not s.converged and s.terms == 2 and s.total == math.inf
    s = sum_until_small((1e308 + 1e308j for _ in count()), 1e-15, 100,
                        start=0j)
    assert not s.converged and s.terms == 2
    assert isinstance(s.total, complex) and math.isinf(s.total.real)


def test_complex_terms_keep_their_order_and_zero_signs():
    terms = [-1.0 - 0.0j, 0.5j, -1e-3 + 0j, 1e-20, 1e-20]
    s = sum_until_small(terms, 1e-15, 100, start=0.0 + 0.0j)
    want = 0.0 + 0.0j
    for t in terms:
        want += t
    assert s.converged and s.terms == 5 and s.total == want
    assert repr(s.total) == repr(want)
