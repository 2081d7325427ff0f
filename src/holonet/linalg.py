"""Dense linear algebra helpers shared across modules.

Plain numpy SVD/eigendecompositions are used throughout.  Colour and
fiber matrices are small, and so are the kernel windows of shift-class
operators: pass-through sites are peeled before the dense SVD, so a
sector's window is a few columns wide at any `w_index`, and the blocks
whose singular values decide the peel are measured once per operator.
"""

from __future__ import annotations

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm; NaN when an entry is not finite, where
    numpy's SVD would raise."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2)) if np.isfinite(a).all() else float("nan")


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, one per leading index.

    One SVD call for the whole stack, bitwise equal to
    `[opnorm(a) for a in stack]`: a slice with a non-finite entry enters
    it as zeros and gets NaN.
    """
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    masked = np.where(finite[:, None, None], stack, 0)
    return np.where(finite, np.linalg.svd(masked, compute_uv=False)[:, 0], np.nan)


def first_over(defects: np.ndarray, tol: float) -> int | None:
    """Index of the first defect that is not within tol (NaN is not)."""
    over = np.flatnonzero(~(defects <= tol))
    return int(over[0]) if over.size else None


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-like unitary from the QR decomposition of a complex Gaussian."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is Haar
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def null_space(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, singular values below tol."""
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def joint_fixed_space(mats: list[np.ndarray], tol: float) -> np.ndarray:
    """Orthonormal basis of the common fixed space of the given matrices.

    Computed as the null space of the stacked differences (M - 1).
    """
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    stacked = np.vstack([m - np.eye(d) for m in mats])
    return null_space(stacked, tol)


def eigenphase_multiset_match(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Whether two unitaries have the same eigenvalue multiset up to tol.

    Greedy nearest-point matching on the unit circle; adequate when the
    tolerance is far below the typical eigenvalue spacing.
    """
    if u.shape != v.shape:
        return False
    lu = sorted(np.linalg.eigvals(u), key=lambda z: (np.angle(z), z.real))
    lv = list(np.linalg.eigvals(v))
    for z in lu:
        dists = [abs(z - w) for w in lv]
        j = int(np.argmin(dists))
        if not dists[j] <= tol:
            return False
        lv.pop(j)
    return True


def eigenphases(u: np.ndarray) -> np.ndarray:
    """Eigenvalue angles of a unitary in turns, sorted, in [0, 1)."""
    ang = np.angle(np.linalg.eigvals(u)) / (2.0 * np.pi)
    ang = np.mod(ang, 1.0)
    return np.sort(ang)


def turn_distance(a: float, b: float) -> float:
    """Distance of two phases on the circle, in turns (at most 1/2)."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)
