"""A used descriptor is freed by reference counting alone.

The rung sources and quadrature rules that a descriptor's ladder keeps hold
no reference back to the descriptor, so no reference cycle runs through
it: once its last name goes it is freed at once, with its ladder, and the
cyclic garbage collector finds nothing to do.  Each case runs with the
collector off, checks that a weak reference to the descriptor is dead
right after ``del`` and that ``gc.collect()`` then finds no garbage.
"""

import contextlib
import gc
import io
import math
import weakref

import pytest

import cli_corpus
from finitepart.cli import main
from finitepart.entire import (CustomSeries, Exponential, MonomialExp,
                               Polynomial)
from finitepart.finite_part import (FpiMethod, _Recurrence, _SeriesTables,
                                    _Split, finite_part_integral)
from finitepart.quadrature import GaussJacobi
from finitepart.stieltjes import TransformSpec, evaluate_transform


def _gauss_stream(decaying):
    """e^{-x^2} as a user stream."""
    def coeff(k):
        return 0.0 if k % 2 else (-1.0) ** (k // 2) / math.factorial(k // 2)

    return CustomSeries(coeff, lambda x: math.exp(-x * x), decaying=decaying,
                        label="gauss")


def _rungs(m, nu, a, method):
    """Rungs 1..m of f at (nu, a), the last one by ``method``."""
    def use(f):
        for k in range(1, m + 1):
            v = finite_part_integral(f, k, nu, a)
        assert v.method is method
    return use


def _transform(n, omega, a, nu, route, kernel="pole"):
    """The transform of f, which must take ``route``, and a second omega on
    the same ladder."""
    def use(f):
        for w in (omega, 0.9 * omega):
            res = evaluate_transform(TransformSpec(f, n, w, a, nu, kernel))
            assert res.route == route
    return use


_NONE = type(None)

# case -> (descriptor maker, its use, the types of the rung source and of
# the Gauss-Jacobi rule that its ladder keeps at the (nu, a) of the use)
CASES = {
    "recurrence": (lambda: Exponential(2.5),
                   _rungs(6, 0.25, 1.0, FpiMethod.RECURRENCE),
                   (_Recurrence, _NONE)),
    "maclaurin-poly": (lambda: Polynomial([1.0, -2.0, 0.5], lowest=1),
                       _rungs(5, 0.0, 2.0, FpiMethod.SERIES_FINITE),
                       (_SeriesTables, _NONE)),
    "maclaurin-stream": (lambda: _gauss_stream(False),
                         _rungs(5, 0.5, 1.5, FpiMethod.SERIES_FINITE),
                         (_SeriesTables, _NONE)),
    "split": (lambda: _gauss_stream(True),
              _rungs(4, 0.25, math.inf, FpiMethod.SPLIT_INFINITE),
              (_Split, _NONE)),
    "direct-finite-a": (lambda: MonomialExp(1, 0.5),
                        _transform(2, 1.5, 2.0, 0.0, "direct"),
                        (_NONE, GaussJacobi)),
    "direct-at-infinity": (lambda: _gauss_stream(True),
                           _transform(2, 0.9, math.inf, 0.25, "direct"),
                           (_Split, GaussJacobi)),
    "series": (lambda: Exponential(1.0),
               _transform(2, 0.3, 4.0, 0.0, "series"), (_Recurrence, _NONE)),
    "closed": (lambda: Exponential(2.0),
               _transform(2, 1.5, 30.0, 0.0, "closed"), (_NONE, _NONE)),
    "quadratic": (lambda: Exponential(1.0),
                  _transform(1, 0.3, 2.0, 0.0, "series", "quadratic"),
                  (_Recurrence, _NONE)),
    "quadratic-direct": (lambda: _gauss_stream(True),
                         _transform(1, 0.8, math.inf, 0.0, "direct",
                                    "quadratic"), (_Split, GaussJacobi)),
}


def _kept(f):
    """The types of the rung source and the Gauss-Jacobi rule of f's ladder
    at the (nu, a) of its last use."""
    lad = f._ladder[3]
    return type(lad.series), type(lad.rule)


@pytest.mark.parametrize("case", sorted(CASES))
def test_used_descriptor_is_freed_by_reference_counting(case):
    make, use, keeps = CASES[case]
    gc.collect()
    gc.disable()
    try:
        f = make()
        use(f)
        assert _kept(f) == keeps
        ref = weakref.ref(f)
        del f
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit:  # help and argparse's rejections
            return None


def test_cli_calls_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # every corpus command that exits 0; a first run makes what a process
    # makes once (imports, parsers, node tables), the second is counted
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv in cli_corpus.ARGVS:
        if _run(argv) != 0:
            continue
        gc.collect()
        gc.disable()
        try:
            assert _run(argv) == 0
            assert gc.collect() == 0, argv
        finally:
            gc.enable()
        ran += 1
    assert ran >= 30
