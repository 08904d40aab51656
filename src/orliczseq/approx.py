"""Best approximation by trigonometric polynomials and Jackson-type means.

In this coefficient model the distance from f to the degree-(n-1)
polynomials is attained at the partial sum, so it reduces to the norm of the
spectral tail.  Jackson kernels are built by integer convolution of the
Dirichlet-type all-ones sequence, exact up to 2**53; quadrature appears only
in moment checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fracdiff import _signed_coeffs
from .orlicz import _window_norms, luxemburg_norm
from .spectrum import CoeffSeq, PsiWeights, _as_int, _check_band, psi_derivative

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
    return float(_window_norms(f, phi, [n], np.inf, rtol)[0])


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
    and scales so the integral over a period is 1, i.e. the zero coefficient
    equals 1 / (2 pi).  The float64 convolution is exact while the centre, the
    largest coefficient, is at most 2**53 (at n = 4096, r = 5 it is 4.5e18 and
    the error about 4e-16 relative); an overflowing centre raises ValueError.

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
    # p = 1 is the constant kernel, and each convolution of [1.0] returns [1.0]: skipping them saves
    # 2 k0 - 1 ~ r calls, 17 s at r = 10**7
    for _ in range(2 * k0 - 1 if p > 1 else 0):
        conv = np.convolve(conv, ones)
    deg = k0 * (p - 1)
    center = conv[deg]
    if not math.isfinite(center):
        raise ValueError(f"jackson kernel n={n}, r={r}: coefficients must be finite, centre overflows")
    b_p = 1.0 / (2.0 * math.pi * center)
    spec = KernelSpec(n=int(n), k0=k0, p=p, b_p=float(b_p))
    return spec, CoeffSeq.from_arrays(np.arange(-deg, deg + 1), conv * b_p)


def kernel_values(spec: KernelSpec, t) -> np.ndarray:
    """Pointwise kernel values from the closed sine-ratio form.

    Independent of the coefficient expansion, which makes it the quadrature
    oracle for moment and normalization checks.
    """
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t)
    ratio = np.where(s == 0.0, float(spec.p), np.sin(0.5 * spec.p * t) / np.where(s == 0.0, 1.0, s))
    return spec.b_p * ratio ** (2 * spec.k0)


def kernel_moment(spec: KernelSpec, r: int) -> float:
    """Midpoint-rule quadrature of |t|**r |K(t)| over one period, on 16384 nodes."""
    step = 2.0 * math.pi / 16384
    t = -math.pi + (np.arange(16384) + 0.5) * step
    vals = np.abs(t) ** r * np.abs(kernel_values(spec, t))
    return float(vals.sum() * step)


def jackson_approximant(f: CoeffSeq, alpha, n: int) -> CoeffSeq:
    """Degree-(n-1) Jackson mean whose error is controlled by the alpha-modulus.

    Computed exactly in coefficient space: with q(m) = 2*pi*K(m) the kernel
    coefficient ratio at frequency m, the residual multiplier is
    m_alpha(k) = sum_{j=0..alpha} (-1)**j binom(alpha, j) q(j k) and the mean
    has coefficients f_k * (1 - m_alpha(k)).  Since q(0) = 1 exactly, every
    frequency with |k| >= n is annihilated and the result lies in the
    degree-(n-1) class.
    """
    ks, cs = f.as_arrays()
    return CoeffSeq.from_arrays(ks, cs * (1.0 - _residual(f, alpha, n)))


def residual_multipliers(f: CoeffSeq, alpha, n: int) -> dict:
    """The factors m_alpha(k) with f_k - sigma_k = m_alpha(k) * f_k, keyed by k."""
    return dict(zip(f.support, _residual(f, alpha, n).tolist()))


def _residual(f, alpha, n):
    """m_alpha(k) over the support of f, in ascending k."""
    alpha = _as_int(alpha, "this construction needs an integer order")
    if alpha < 1:
        raise ValueError("order must be >= 1")
    if n < 2:
        raise ValueError("need n >= 2 so the kernel order n - 1 is positive")
    spec, kern = jackson_kernel(n - 1, r=alpha)
    deg = spec.degree
    # q(m) for m = -deg-1..deg+1, zero at both ends and 1 at m = 0
    q = np.pad(kern.as_arrays()[1].real / kern[0].real, 1)
    # frequencies beyond the kernel band see q = 0 for every j >= 1; clipping
    # them keeps j * k inside int64
    ks = np.clip(f.as_arrays()[0], -deg - 1, deg + 1)
    m = np.zeros(ks.size)
    for j, s in enumerate(_signed_coeffs(alpha, alpha)):
        m += s * q[np.clip(j * ks + deg + 1, 0, 2 * deg + 2)]
    return m


def psi_bernstein_ratio(tau: CoeffSeq, phi, psi: PsiWeights, n: int, *, rtol: float = 1e-12):
    """Bernstein-type pair (||tau^psi||, ||tau|| / eps_n), eps_n = min_{0<|k|<=n} |psi_k|.

    The caller asserts lhs <= bound; equality holds for a single harmonic at a
    frequency where |psi| attains its band minimum.
    """
    _check_band(tau, n)
    lhs = luxemburg_norm(phi, psi_derivative(tau, psi), rtol=rtol)
    return lhs, luxemburg_norm(phi, tau, rtol=rtol) / psi.min_abs_band(n)


def psi_direct_ratio(f: CoeffSeq, phi, psi: PsiWeights, n: int, *, rtol: float = 1e-12):
    """Direct-type pair (E_n(f), eps_n * E_n(f^psi)), eps_n = max_{|k| >= n} |psi_k|.

    For the fractional rule the tail maximum is the closed form n**(-r); for
    explicit weights it is taken over the support of f, which is the whole
    index set that matters for a finitely supported sequence.
    """
    lhs = best_approx(f, phi, n, rtol=rtol)
    return lhs, psi.max_abs_from(n, f.support) * best_approx(psi_derivative(f, psi), phi, n, rtol=rtol)
