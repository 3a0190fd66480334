"""The circular-contour oracle for finite parts at nu = 0, a test helper.

Galapon (Proc. R. Soc. A 473, 20160567, 2017) writes the finite part of
int_0^a f(x) x^{-m} dx, for entire f and finite a, as an average over the
circle |z| = a.  :func:`fpi_contour_oracle` evaluates that average by
trigonometric interpolation (numpy's FFT), independently of the series,
the epsilon oracle and the quadrature rules of the package.
"""

import math

import numpy as np

from finitepart.entire import TaylorFunction
from finitepart.errors import NonconvergenceError

_CONTOUR_N_THETA = 64  # first contour resolution, a power of two
_CONTOUR_TOL = 1e-10


def _contour_spectral(f, m, a, n):
    theta = 2.0 * math.pi * np.arange(n) / n
    z = a * np.exp(1j * theta)
    g = np.array([f.eval_complex(zz) for zz in z]) * np.exp(1j * (1 - m) * theta)
    ghat = np.fft.fft(g) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    val = ghat[0] * math.log(a)
    for idx in range(1, n):
        l = freqs[idx]
        if abs(l) == n // 2:
            continue  # ambiguous Nyquist bin; halves under doubling anyway
        val += ghat[idx] / l
    return complex(val) / a ** (m - 1)


def fpi_contour_oracle(f: TaylorFunction, m: int, a: float) -> float:
    """Finite part of int_0^a f(x) x^{-m} dx from its contour representation.

    The value equals the average over the circle |z| = a of
    f(z) (log a + i (theta - pi)) e^{i (1-m) theta} / a^{m-1}.  The periodic
    factor is replaced by its trigonometric interpolant (FFT), against
    which the linear theta term integrates exactly; the resolution doubles
    from 64 nodes until two successive values agree to 1e-10.
    """
    if m < 1:
        raise ValueError("pole strength m must be >= 1")
    if not (0.0 < a < math.inf):
        raise ValueError("contour oracle requires finite a > 0")
    n = _CONTOUR_N_THETA
    prev = _contour_spectral(f, m, a, n)
    while n < (1 << 18):
        n *= 2
        cur = _contour_spectral(f, m, a, n)
        if abs(cur - prev) < _CONTOUR_TOL:
            return float(cur.real)
        prev = cur
    raise NonconvergenceError(
        "contour oracle did not stabilize before the doubling cap",
        partial=float(prev.real),
    )
