"""Why term-by-term integration misses the dominant small-omega terms.

S(omega) = int_0^inf exp(-x)/(omega+x) dx blows up like -ln(omega) as
omega -> 0, but expanding 1/(omega+x) and integrating term by term
produces only powers of omega (through finite-part values).  The missing
logarithm lives in the singular contribution of the pole at z = -omega.
This script sweeps omega and prints the naive part, the singular part,
and their sum against direct quadrature; then it does the same for a
branch-point kernel where the missing piece is an omega^{-1/2} power.
"""

import math

from finitepart import (Exponential, Polynomial, TransformSpec, classify,
                        evaluate_transform)
from finitepart.oracles import transform_oracle

f = Exponential(1.0)
print("S = int_0^inf exp(-x)/(omega+x) dx")
print(f"{'omega':>10} {'naive':>14} {'singular':>14} {'total':>16} "
      f"{'quadrature':>16} {'leading -ln w':>14}")
for omega in (1e-1, 1e-2, 1e-3, 1e-4):
    spec = TransformSpec(f, 1, omega)
    res = evaluate_transform(spec)
    quad = transform_oracle(spec)
    print(f"{omega:>10.0e} {res.naive_sum:>14.8f} {res.singular:>14.8f} "
          f"{res.total:>16.10f} {quad:>16.10f} {-math.log(omega):>14.8f}")

print()
one = Polynomial([1.0])
print("with a branch point: int_0^inf x^(-1/2)/(omega+x) dx = pi/sqrt(omega)")
print(f"{'omega':>10} {'naive':>10} {'singular':>16} {'pi/sqrt(w)':>16}")
for omega in (1e-1, 1e-2, 1e-3):
    res = evaluate_transform(TransformSpec(one, 1, omega, nu=0.5))
    print(f"{omega:>10.0e} {res.naive_sum:>10.4f} {res.singular:>16.10f} "
          f"{math.pi / math.sqrt(omega):>16.10f}")

print()
print("dominant-term classification (order of the zero of f decides):")
for fn, n, nu in [(Exponential(1.0), 1, 0.0), (Polynomial([1.0]), 3, 0.0),
                  (Polynomial([1.0], lowest=2), 1, 0.0),
                  (Polynomial([1.0]), 1, 0.5)]:
    lb = classify(fn, n, nu, a=1.0)
    log = " * ln(omega)" if lb.carries_log else ""
    print(f"  f={fn!r:34} n={n} nu={nu}:  {lb.kind.value:22} "
          f"coeff={lb.coefficient:+.6f}  omega^{lb.exponent:g}{log}")
