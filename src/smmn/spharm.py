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

scipy carries the numerics: the normalised radial factors
``N_lm P_l^m(cos theta)`` come from ``scipy.special.sph_legendre_p``,
which includes the Condon-Shortley phase; it is undone here by
``(-1)^m``.  One harmonic is one column of :func:`filter_basis`, at
:func:`basis_index`.
"""

from dataclasses import dataclass
import math

import numpy as np
import scipy.special

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


def filter_basis(l_max, theta, phi):
    """Evaluate the (L+1)^2 filter basis functions at (theta, phi).

    ``theta`` is the polar angle in [0, pi].  Returns an array of shape
    ``broadcast(theta, phi).shape + (K,)`` with K = (l_max+1)^2, laid out
    per :func:`basis_index`.  Because the filter is linear in its
    coefficients this vector is also dF/dcoefficients.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    theta, phi = np.broadcast_arrays(theta, phi)
    out = np.empty(theta.shape + (num_coefficients(l_max),), dtype=np.float64)
    for l in range(l_max + 1):
        out[..., basis_index(l, 0, "a")] = scipy.special.sph_legendre_p(l, 0, theta)[0]
    for m in range(1, l_max + 1):
        # (-1)^m undoes scipy's Condon-Shortley phase; sqrt(2) makes the
        # real cos/sin pair orthonormal.
        scale = (-1) ** m * math.sqrt(2.0)
        cos_m = scale * np.cos(m * phi)
        sin_m = scale * np.sin(m * phi)
        for l in range(m, l_max + 1):
            radial = scipy.special.sph_legendre_p(l, m, theta)[0]
            out[..., basis_index(l, m, "a")] = radial * cos_m
            out[..., basis_index(l, m, "b")] = radial * sin_m
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
