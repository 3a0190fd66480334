"""Validation errors of the library and the CLI, one case per raising
branch, each with its message."""

import json
import math
import re

import pytest

from finitepart.cli import main
from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial)
from finitepart.gammafn import digamma_int, harmonic, pochhammer
from finitepart.specfun import (Gauss2F1BranchParams, Gauss2F1IntParams,
                                KummerParams)
from finitepart.stieltjes import singular_term_branch, singular_term_integer

STREAM = CustomSeries(lambda k: 1.0 / math.factorial(k), math.exp)
DERIVATIVE = "derivative order must be >= 0"


@pytest.mark.parametrize("call,message", [
    (lambda: STREAM.coeff(-1), "coefficient index must be >= 0"),
    (lambda: STREAM.derivative_at(-1, 0.5), DERIVATIVE),
    (lambda: Polynomial([1.0, 2.0]).derivative_at(-1, 0.5), DERIVATIVE),
    (lambda: MonomialExp(2, 1.0).derivative_at(-1, 0.5), DERIVATIVE),
    (lambda: (Exponential(1.0) * 2.0).derivative_at(-1, 0.5), DERIVATIVE),
    (lambda: Polynomial([1.0], lowest=-1), "lowest exponent must be >= 0"),
    (lambda: BinomialPoly(-1, 2), "BinomialPoly requires p, q >= 0"),
    (lambda: harmonic(-1), "harmonic index must be >= 0"),
    (lambda: digamma_int(0),
     "digamma_int defined for positive integers only"),
    (lambda: pochhammer(0.5, -1), "pochhammer order must be >= 0"),
    (lambda: Gauss2F1IntParams(5, 2.0, 4, 2.0),
     "r must be a positive integer"),
    (lambda: Gauss2F1BranchParams(0, 0.5, 2, 2.0),
     "n must be a positive integer"),
    (lambda: KummerParams(1, 1.5, 0.5), "n must be a positive integer"),
    (lambda: singular_term_integer(Exponential(1.0), 2, 0.0),
     "omega must be positive"),
    (lambda: singular_term_branch(Exponential(1.0), 0, 0.5, 0.1),
     "order n must be >= 1"),
], ids=["coeff", "derivative-stream", "derivative-polynomial",
        "derivative-monexp", "derivative-scaled", "polynomial-lowest",
        "binomial-p", "harmonic", "digamma", "pochhammer", "gauss-int-r",
        "gauss-branch-n", "kummer-n", "singular-integer-omega",
        "singular-branch-n"])
def test_negative_or_non_integer_argument_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


SWEEP = ["sweep", "--f", "exp(1)", "--n", "1", "--omega-grid"]


@pytest.mark.parametrize("argv,doc,message", [
    (SWEEP + ["1e-3:0.5"], None, "grid must be lo:hi:count"),
    (SWEEP + ["0.5:1e-3:4"], None,
     "grid requires 0 < lo < hi and count >= 2"),
    (None, {"command": "specfun", "params": {"family": "bessel", "n": 1}},
     "unknown specfun family 'bessel'"),
    (None, {"command": "compare", "params": {"op": "sweep", "f": "exp(1)"}},
     "unknown compare op 'sweep'"),
], ids=["grid-fields", "grid-range", "replay-specfun-family",
        "replay-compare-op"])
def test_cli_validation_exits_2(tmp_path, capsys, argv, doc, message):
    if doc is not None:
        # argparse rejects these choices; a stored config reaches the runner
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"config": doc}))
        argv = ["--replay", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
