"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

Portable reference implementation: fixed (p, q) sweep order, so the output
is a deterministic function of the input bytes.  It is the test oracle for
:func:`sfcalc.tracemodel.eigh`, which uses LAPACK and is checked against
this solver block by block.
"""

import numpy as np

from sfcalc.errors import NumericError, ValidationError


def jacobi_eigh(matrix, tol=1e-13, max_sweeps=60):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in ascending
    order and eigenvectors as the matching unitary columns.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValidationError("jacobi_eigh expects a square matrix")
    herm_gap = np.linalg.norm(a - a.conj().T)
    if herm_gap > tol * max(1.0, np.linalg.norm(a)) * 10:
        raise ValidationError("jacobi_eigh expects a Hermitian matrix")
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v

    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= tol * scale * 1e-3:
                    continue
                alpha = apq / r
                theta = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # Unitary acting on columns (p, q):  [[c, s], [-conj(alpha) s, conj(alpha) c]]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(alpha) * s * col_q
                a[:, q] = s * col_p + np.conj(alpha) * c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - alpha * s * row_q
                a[q, :] = s * row_p + alpha * c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - np.conj(alpha) * s * vcol_q
                v[:, q] = s * vcol_p + np.conj(alpha) * c * vcol_q
    else:
        raise NumericError("jacobi_eigh did not converge "
                           f"after {max_sweeps} sweeps")

    vals = np.diag(a).real.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]
