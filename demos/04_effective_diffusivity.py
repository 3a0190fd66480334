"""High-Peclet effective diffusivity without Pade summation.

For a measure density g(tau), the enhancement integral
Pe^2 g(tau)/(1 + Pe^2 tau^2) is a quadratic-kernel Stieltjes transform at
omega = 1/Pe.  Its exact naive + singular decomposition evaluates the
high-Peclet limit directly; the classical route (small-Pe moment series
resummed with Pade approximants, then pushed to large Pe) is unnecessary.

Here g(tau) = exp(-|tau|)/2.  The singular part contributes
(pi/(2 omega)) cos(omega) + (ln(omega)/omega) sin(omega) per half-line,
so kappa_eff grows like pi * Pe / ... with a logarithmic correction the
term-by-term route misses entirely.
"""

from finitepart import (Exponential, TransformSpec, effective_diffusivity,
                        eval_quadratic)
from finitepart.oracles import transform_oracle

g = Exponential(1.0) * 0.5

print(f"{'Pe':>8} {'kappa_eff':>18} {'quadrature':>18} "
      f"{'naive part':>14} {'singular part':>14}")
for pe in (2.0, 5.0, 10.0, 50.0, 100.0, 1000.0):
    keff = effective_diffusivity(g, g, peclet=pe, kappa=1.0)
    omega = 1.0 / pe
    res = eval_quadratic(g, omega)
    # Pe^2 e^-t / (1 + Pe^2 t^2) = e^-t / (omega^2 + t^2)
    direct = transform_oracle(
        TransformSpec(Exponential(1.0), 1, omega, kernel="quadratic"))
    print(f"{pe:>8g} {keff:>18.12f} {1.0 + direct:>18.12f} "
          f"{2 * res.naive_sum:>14.8f} {2 * res.singular:>14.8f}")

print()
print("the two pieces of one half-line transform at Pe = 100:")
res = eval_quadratic(g, 1.0 / 100.0)
print(f"  naive sum      {res.naive_sum:+.12f}   (k_used = {res.k_used})")
print(f"  singular part  {res.singular:+.12f}")
print(f"  total          {res.total:+.12f}")
