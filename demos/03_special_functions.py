"""New series for 2F1 and Kummer U where the usual series are useless.

The canonical Gauss series for 2F1(a, b; c; z) converges only in the unit
disk, and small-argument expansions of U(a, b, omega) for the parameter
families below are scarce in the tables.  The naive + singular
decomposition of their Stieltjes integral representations produces
convergent expansions in 1/zeta (respectively omega), evaluated here
against closed forms and direct quadrature of the defining integrals.
"""

import math

from scipy import special

from finitepart import (Gauss2F1BranchParams, Gauss2F1IntParams, KummerParams,
                        MonomialExp, TransformSpec, gauss2f1_branch,
                        gauss2f1_integer, kummer_u, kummer_u_leading)
from finitepart.oracles import transform_oracle

print("2F1(5,2;4;-zeta)  vs the tabulated (zeta+2)/(2(zeta+1)^3)")
for zeta in (1.5, 2.0, 10.0, 100.0):
    got = gauss2f1_integer(Gauss2F1IntParams(5, 2, 4, zeta))
    want = (zeta + 2.0) / (2.0 * (zeta + 1.0) ** 3)
    print(f"  zeta={zeta:>6}: series={got:.15g}   closed={want:.15g}")

print()
print("2F1(2,1/2;5/2;-zeta)  vs the arctangent closed form")
for zeta in (2.0, 4.0, 25.0):
    got = gauss2f1_branch(Gauss2F1BranchParams(2, 0.5, 1, zeta))
    want = 3 * (math.sqrt(zeta) + (zeta - 1) * math.atan(math.sqrt(zeta))) \
        / (4 * zeta**1.5)
    print(f"  zeta={zeta:>6}: series={got:.15g}   closed={want:.15g}")

print()
print("U(1/2,-3/2,omega)  vs the erfc closed form")
for omega in (0.25, 1.0, 3.0):
    got = kummer_u(KummerParams(0.5, 3, omega))
    want = (2 * math.sqrt(omega) * (3 - 2 * omega)
            + math.exp(omega) * math.sqrt(math.pi)
            * (4 * omega * (omega - 1) + 3)
            * special.erfc(math.sqrt(omega))) / 8.0
    print(f"  omega={omega:>5}: series={got:.15g}   closed={want:.15g}")

print()
print("U(2,-4,omega) for small omega: series, quadrature of its Stieltjes")
print("form omega^5 int_0^inf x e^-x (omega+x)^-7 dx, and the dominant terms")
for omega in (1e-1, 1e-2, 1e-3):
    p = KummerParams(2, 7, omega)
    got = kummer_u(p)
    quad = omega**5 * transform_oracle(
        TransformSpec(MonomialExp(1, 1.0), 7, omega))
    lead = kummer_u_leading(p)
    print(f"  omega={omega:>6}: series={got:.12g}  quadrature={quad:.12g}  "
          f"leading={lead:.12g}")
