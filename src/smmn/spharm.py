"""Real spherical harmonics and truncated-SH angular filter banks.

The mesh convolutions weight their neighbourhood aggregation with a
learnable angular function

    F(theta, phi) = sum_l ( sum_{m=1..l} a_lm Y_l^m(theta,0) cos(m phi)
                          + sum_{m=1..l} b_lm Y_l^m(theta,0) sin(m phi)
                          + a_l0 Y_l^0(theta, phi) )

expressed in the real orthonormal spherical-harmonics basis truncated at
degree ``l_max``.  F is linear in the coefficients, so the basis vector
returned by :func:`filter_basis` doubles as the exact coefficient
gradient.

Conventions (fixed so tests can be exact):

* no Condon-Shortley phase in the associated Legendre functions;
* orthonormal normalisation ``N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)``
  with an extra ``sqrt(2)`` for m > 0.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, ShapeError


def num_coefficients(l_max):
    """Number of real coefficients of a degree-``l_max`` filter: (L+1)^2."""
    return (l_max + 1) ** 2


def basis_index(l, m, kind="a"):
    """Flat index of coefficient (l, m) in the canonical basis layout.

    Layout per degree l (block offset l^2): ``a_l0`` first, then
    ``a_l1 .. a_ll``, then ``b_l1 .. b_ll``.
    """
    if m < 0 or m > l:
        raise DomainError(f"invalid degree/order (l={l}, m={m})")
    if kind == "a":
        return l * l + m
    if kind == "b":
        if m == 0:
            raise DomainError("sin-branch coefficients start at m=1")
        return l * l + l + m
    raise DomainError(f"unknown coefficient kind {kind!r}")


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def assoc_legendre(l, m, x):
    """Associated Legendre function P_l^m(x) without Condon-Shortley phase.

    Uses the standard upward recurrence in the degree, seeded with the
    closed-form diagonal term; stable for the small degrees used here.

    Parameters
    ----------
    l, m : int
        Degree and order with 0 <= m <= l.
    x : float or ndarray
        Argument in [-1, 1].
    """
    if m < 0 or l < 0 or m > l:
        raise DomainError(f"invalid degree/order (l={l}, m={m})")
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise DomainError("associated Legendre argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)

    # P_m^m = (2m-1)!! (1-x^2)^(m/2)
    p_prev = np.full_like(x, float(_double_factorial(2 * m - 1)))
    if m > 0:
        p_prev = p_prev * np.sqrt((1.0 - x) * (1.0 + x)) ** m
    if l == m:
        return p_prev
    # P_{m+1}^m = x (2m+1) P_m^m
    p_cur = x * (2 * m + 1) * p_prev
    for ll in range(m + 2, l + 1):
        p_cur, p_prev = (
            (x * (2 * ll - 1) * p_cur - (ll + m - 1) * p_prev) / (ll - m),
            p_cur,
        )
    return p_cur


def _norm_const(l, m):
    n = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )
    if m > 0:
        n *= math.sqrt(2.0)
    return n


def sh_eval(l, m, theta, phi, branch="cos"):
    """Real orthonormal spherical harmonic of degree l, order m >= 0.

    ``branch`` selects the cos(m phi) or sin(m phi) family; m = 0 only
    exists in the cos family.  The value is the ``a_lm`` (cos) or
    ``b_lm`` (sin) column of :func:`filter_basis` at degree ``l``.
    """
    if m < 0 or m > l or l < 0:
        raise DomainError(f"invalid degree/order (l={l}, m={m})")
    if branch not in ("cos", "sin"):
        raise DomainError(f"unknown branch {branch!r}")
    if branch == "sin" and m == 0:
        raise DomainError("sin branch requires m >= 1")
    kind = "a" if branch == "cos" else "b"
    return np.take(filter_basis(l, theta, phi), basis_index(l, m, kind), axis=-1)


def filter_basis(l_max, theta, phi):
    """Evaluate the (L+1)^2 filter basis functions at (theta, phi).

    Returns an array of shape ``broadcast(theta, phi).shape + (K,)`` with
    K = (l_max+1)^2, laid out per :func:`basis_index`.  Because the filter
    is linear in its coefficients this vector is also dF/dcoefficients.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    theta, phi = np.broadcast_arrays(theta, phi)
    k = num_coefficients(l_max)
    out = np.empty(theta.shape + (k,), dtype=np.float64)
    cos_t = np.cos(theta)
    for l in range(l_max + 1):
        out[..., basis_index(l, 0, "a")] = _norm_const(l, 0) * assoc_legendre(
            l, 0, cos_t
        )
        for m in range(1, l + 1):
            radial = _norm_const(l, m) * assoc_legendre(l, m, cos_t)
            out[..., basis_index(l, m, "a")] = radial * np.cos(m * phi)
            out[..., basis_index(l, m, "b")] = radial * np.sin(m * phi)
    return out


@dataclass
class FilterBank:
    """Learnable truncated-SH filter coefficients for a channel-pair grid.

    ``coeffs`` has shape (out_channels, in_channels, (l_max+1)^2); entry
    [o, i, basis_index(l, m, kind)] is the a_lm / b_lm coefficient of the
    filter applied between input channel i and output channel o.
    """

    l_max: int
    in_channels: int
    out_channels: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        expected = (self.out_channels, self.in_channels, num_coefficients(self.l_max))
        if self.coeffs.shape != expected:
            raise ShapeError(
                f"filter bank coefficients have shape {self.coeffs.shape}, "
                f"expected {expected}"
            )

    @classmethod
    def zeros(cls, l_max, in_channels, out_channels):
        return cls(
            l_max,
            in_channels,
            out_channels,
            np.zeros((out_channels, in_channels, num_coefficients(l_max))),
        )

    @classmethod
    def constant(cls, value=1.0, in_channels=1, out_channels=1, l_max=0):
        """Bank whose filter is identically ``value`` at every angle."""
        bank = cls.zeros(l_max, in_channels, out_channels)
        bank.coeffs[:, :, basis_index(0, 0, "a")] = value * 2.0 * math.sqrt(math.pi)
        return bank

    @classmethod
    def random(cls, l_max, in_channels, out_channels, rng, scale=1.0):
        coeffs = scale * rng.standard_normal(
            (out_channels, in_channels, num_coefficients(l_max))
        )
        return cls(l_max, in_channels, out_channels, coeffs)


def filter_eval(bank, theta, phi):
    """Evaluate F(theta, phi) for every (out, in) channel pair.

    Scalar angles give a (out_channels, in_channels) matrix; array angles
    prepend their broadcast shape.
    """
    basis = filter_basis(bank.l_max, theta, phi)
    return np.einsum("oik,...k->...oi", bank.coeffs, basis)
