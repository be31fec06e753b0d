"""The hot numerical kernels, in numpy.

The certified series sums reduce to ``csum_logpolar``, and the moment
checks and the closed-form quantization entries to ``log_power_sums``.
``power_matrix`` and ``weighted_gram`` assemble the Gram matrix of the
polar-grid certificate of the resolution of the identity.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def csum_logpolar(logmag, phase):
    """Sum of exp(logmag[n]) * e^{i*phase[n]} in max-rescaled form.

    Returns ``(acc, scale)`` with the true value equal to acc * exp(scale).
    An all ``-inf`` input yields (0j, -inf).  On 2-D input each row is one
    sum, and ``acc`` and ``scale`` are arrays with one entry per row.
    """
    logmag = np.asarray(logmag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if logmag.ndim == 2:
        m = np.max(logmag, axis=1)
        mags = np.exp(logmag - np.where(m == -np.inf, 0.0, m)[:, None])
        acc = np.empty(m.shape, dtype=np.complex128)
        acc.real = np.sum(mags * np.cos(phase), axis=1)
        acc.imag = np.sum(mags * np.sin(phase), axis=1)
        return acc, m
    if logmag.size == 0:
        return 0j, -np.inf
    m = float(logmag.max())
    if m == -np.inf:
        return 0j, -np.inf
    mags = np.exp(logmag - m)
    acc = complex((mags * np.cos(phase)).sum(), (mags * np.sin(phase)).sum())
    return acc, m


def log_power_sums(log_nodes, log_masses, nmax):
    """log of S_n = sum_i mass_i * node_i**n for n = 0..nmax.

    Works entirely in the log domain so huge nodes/masses cannot overflow.
    """
    log_nodes = np.asarray(log_nodes, dtype=np.float64)
    log_masses = np.asarray(log_masses, dtype=np.float64)
    n = np.arange(nmax + 1, dtype=np.float64)
    # terms[i, n] = log(mass_i) + n*log(node_i)
    terms = log_masses[:, None] + n[None, :] * log_nodes[:, None]
    m = np.max(terms, axis=0)
    out = m + np.log(np.sum(np.exp(terms - m[None, :]), axis=0))
    out[np.isneginf(m)] = -np.inf
    return out


def power_matrix(z, nmax):
    """V[p, k] = z_p**k for k = 0..nmax, built by cumulative products."""
    z = np.asarray(z, dtype=np.complex128)
    V = np.empty((z.size, nmax + 1), dtype=np.complex128)
    V[:, 0] = 1.0
    for k in range(1, nmax + 1):
        np.multiply(V[:, k - 1], z, out=V[:, k])
    return V


def weighted_gram(V, wts):
    """G[j, k] = sum_p V[p, j] * wts_p * conj(V[p, k])."""
    V = np.asarray(V, dtype=np.complex128)
    wts = np.asarray(wts, dtype=np.complex128)
    return V.T @ (wts[:, None] * V.conj())
