"""Iterated integrals of the standard normal density.

The saddle-point equations of this package are written in terms of the
standard normal pdf and its first two antiderivatives:

    norm_pdf(x)      = exp(-x^2/2) / sqrt(2*pi)
    norm_cdf(x)      = integral of norm_pdf over (-inf, x]
    norm_cdf_int(x)  = integral of norm_cdf over (-inf, x]
                     = x * norm_cdf(x) + norm_pdf(x)

The next integral, ((x^2 + 1) * norm_cdf(x) + x * norm_pdf(x)) / 2, is
formed inline by `minvar.theory` from the same cdf and pdf values.

All three are evaluated through scipy's minimax erfc, so relative error is
at machine precision and the x -> -inf tails underflow cleanly to zero
(no asymptotic-series switchover is needed: every factor multiplying the
erfc tail is polynomial, and the tail itself decays like a Gaussian).

A useful identity, exercised by the test suite:

    norm_cdf_int(x) - norm_cdf_int(-x) = x

All functions accept scalars or numpy arrays and broadcast elementwise.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = ["norm_pdf", "norm_cdf", "norm_cdf_int"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def norm_cdf(x):
    """Standard normal distribution function, via erfc for full tail accuracy."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _sp.erfc(-x / _SQRT2)
    return out if out.ndim else float(out)


def norm_cdf_int(x):
    """First antiderivative of the normal cdf, zero at -inf.

    Equals x * cdf(x) + pdf(x); grows like x for large positive x and
    decays like pdf(x)/x^2 for large negative x.
    """
    x = np.asarray(x, dtype=float)
    out = x * norm_cdf(x) + norm_pdf(x)
    return out if out.ndim else float(out)

