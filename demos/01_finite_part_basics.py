"""Finite-part integrals from two independent directions.

The integral int_0^a exp(-x)/x^m dx diverges at the origin for m >= 1,
yet a finite value survives once the exactly known divergent terms are
removed.  This script evaluates that value two ways:

  1. the coefficient series (the library's primary path),
  2. the defining limit: on [eps, a] the divergent group of the Taylor
     head is removed exactly, so eps -> 0 leaves one ordinary integral.

It then shows the classic trap: for the infinite-limit finite part,
substituting x -> x/b does NOT rescale the value; a logarithm appears.
"""

import math

from finitepart import Exponential, finite_part_integral, fpi_epsilon_oracle

f = Exponential(1.0)

print("finite part of exp(-x)/x^m on (0, 1]")
print(f"{'m':>3} {'series':>22} {'eps-limit':>22} {'difference':>12}")
for m in (1, 2, 3, 4):
    series = finite_part_integral(f, m, 0.0, 1.0).value
    eps = fpi_epsilon_oracle(f, m, 0.0, 1.0)
    print(f"{m:>3} {series:>22.15g} {eps:>22.15g} {series - eps:>12.2e}")

print()
print("infinite upper limit: the value at b = 1 does not determine b = 2")
for m in (1, 2, 3):
    v1 = finite_part_integral(Exponential(1.0), m).value
    v2 = finite_part_integral(Exponential(2.0), m).value
    naive = 2 ** (m - 1) * v1                    # what substitution predicts
    missing = (-1.0) ** m * 2 ** (m - 1) * math.log(2.0) / math.factorial(m - 1)
    print(f"  m={m}:  actual={v2:+.12f}  substitution={naive:+.12f}  "
          f"difference={v2 - naive:+.12f}  (log term {missing:+.12f})")
