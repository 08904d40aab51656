"""Best approximation by trigonometric polynomials and Jackson-type means.

In this coefficient model the distance from f to the degree-(n-1)
polynomials is attained at the partial sum, so it reduces to the norm of the
spectral tail.  Jackson kernels are built by exact integer convolution of the
Dirichlet-type all-ones sequence; quadrature appears only in moment checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracdiff import binom
from .orlicz import luxemburg_norm
from .spectrum import CoeffSeq, PsiWeights, psi_derivative, tail

__all__ = [
    "best_approx",
    "KernelSpec",
    "jackson_kernel",
    "kernel_values",
    "kernel_moment",
    "jackson_approximant",
    "psi_bernstein_ratio",
    "psi_direct_ratio",
]


def best_approx(f: CoeffSeq, phi, n: int, *, rtol: float = 1e-12) -> float:
    """Distance from f to the degree-(n-1) polynomials: the norm of the |k| >= n tail."""
    if n < 1:
        raise ValueError("approximation order must be >= 1")
    return luxemburg_norm(phi, tail(f, n), rtol=rtol)


@dataclass(frozen=True)
class KernelSpec:
    """Jackson kernel parameters: b_p * (sin(p t / 2) / sin(t / 2)) ** (2 k0)."""

    n: int
    k0: int
    p: int
    b_p: float

    @property
    def degree(self) -> int:
        return self.k0 * (self.p - 1)


def jackson_kernel(n: int, r: int = 0):
    """Jackson kernel of order n serving moment order r.

    Picks k0 = ceil((r + 2) / 2) and the unique integer p with
    n / (2 k0) < p <= n / (2 k0) + 1, then expands the even power of the sine
    ratio by convolving the length-p all-ones sequence with itself 2*k0 times
    (exact small-integer arithmetic) and scales so the integral over a period
    is 1, i.e. the zero coefficient equals 1 / (2 pi).

    Returns (KernelSpec, CoeffSeq).  The kernel degree k0*(p-1) never exceeds
    n / 2, and the kernel is nonnegative as an even power of a real ratio.
    """
    if n < 1:
        raise ValueError("kernel order must be >= 1")
    if r < 0:
        raise ValueError("moment order must be >= 0")
    k0 = (int(r) + 3) // 2
    p = int(n) // (2 * k0) + 1
    ones = np.ones(p)
    conv = ones
    for _ in range(2 * k0 - 1):
        conv = np.convolve(conv, ones)
    deg = k0 * (p - 1)
    center = conv[deg]
    b_p = 1.0 / (2.0 * math.pi * center)
    freqs = np.arange(-deg, deg + 1)
    coeffs = conv * b_p
    spec = KernelSpec(n=int(n), k0=k0, p=p, b_p=float(b_p))
    return spec, CoeffSeq(zip(freqs.tolist(), coeffs.tolist()))


def kernel_values(spec: KernelSpec, t) -> np.ndarray:
    """Pointwise kernel values from the closed sine-ratio form.

    Independent of the coefficient expansion, which makes it the quadrature
    oracle for moment and normalization checks.
    """
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t)
    ratio = np.where(s == 0.0, float(spec.p), np.sin(0.5 * spec.p * t) / np.where(s == 0.0, 1.0, s))
    return spec.b_p * ratio ** (2 * spec.k0)


def kernel_moment(spec: KernelSpec, r: int, nodes: int = 16384) -> float:
    """Midpoint-rule quadrature of |t|**r |K(t)| over one period."""
    step = 2.0 * math.pi / nodes
    t = -math.pi + (np.arange(nodes) + 0.5) * step
    vals = np.abs(t) ** r * np.abs(kernel_values(spec, t))
    return float(vals.sum() * step)


def _as_positive_int(alpha):
    if isinstance(alpha, (int, np.integer)) and not isinstance(alpha, bool):
        a = int(alpha)
    elif isinstance(alpha, float) and alpha.is_integer():
        a = int(alpha)
    else:
        raise ValueError(f"this construction needs an integer order, got {alpha!r}")
    if a < 1:
        raise ValueError("order must be >= 1")
    return a


def jackson_approximant(f: CoeffSeq, alpha, n: int) -> CoeffSeq:
    """Degree-(n-1) Jackson mean whose error is controlled by the alpha-modulus.

    Computed exactly in coefficient space: with q(m) = 2*pi*K(m) the kernel
    coefficient ratio at frequency m, the residual multiplier is
    m_alpha(k) = sum_{j=0..alpha} (-1)**j binom(alpha, j) q(j k) and the mean
    has coefficients f_k * (1 - m_alpha(k)).  Since q(0) = 1 exactly, every
    frequency with |k| >= n is annihilated and the result lies in the
    degree-(n-1) class.
    """
    mult = residual_multipliers(f, alpha, n)
    return CoeffSeq({k: c * (1.0 - mult[k]) for k, c in f.items()})


def residual_multipliers(f: CoeffSeq, alpha, n: int) -> dict:
    """The factors m_alpha(k) with f_k - sigma_k = m_alpha(k) * f_k, keyed by k."""
    alpha = _as_positive_int(alpha)
    if n < 2:
        raise ValueError("need n >= 2 so the kernel order n - 1 is positive")
    _, kern = jackson_kernel(n - 1, r=alpha)
    center = kern[0].real
    signs = [(-1) ** j * binom(alpha, j) for j in range(alpha + 1)]
    out = {}
    for k in f.support:
        m = 0.0
        for j, s in enumerate(signs):
            m += s * (1.0 if j == 0 else kern[j * k].real / center)
        out[k] = m
    return out


def psi_bernstein_ratio(tau: CoeffSeq, phi, psi: PsiWeights, n: int, *, rtol: float = 1e-12):
    """Bernstein-type pair (||tau^psi||, ||tau|| / eps_n), eps_n = min_{0<|k|<=n} |psi_k|.

    The caller asserts lhs <= bound; equality holds for a single harmonic at a
    frequency where |psi| attains its band minimum.
    """
    if n < 1:
        raise ValueError("band must contain at least k = 1")
    if tau.max_freq > n:
        raise ValueError(f"polynomial has support beyond |k| = {n}")
    lhs = luxemburg_norm(phi, psi_derivative(tau, psi), rtol=rtol)
    eps = psi.min_abs_band(n)
    bound = luxemburg_norm(phi, tau, rtol=rtol) / eps
    return lhs, bound


def psi_direct_ratio(f: CoeffSeq, phi, psi: PsiWeights, n: int, *, rtol: float = 1e-12):
    """Direct-type pair (E_n(f), eps_n * E_n(f^psi)), eps_n = max_{|k| >= n} |psi_k|.

    For the fractional rule the tail maximum is the closed form n**(-r); for
    explicit weights it is taken over the support of f, which is the whole
    index set that matters for a finitely supported sequence.
    """
    lhs = best_approx(f, phi, n, rtol=rtol)
    eps = psi.max_abs_from(n, f.support)
    bound = eps * best_approx(psi_derivative(f, psi), phi, n, rtol=rtol)
    return lhs, bound
