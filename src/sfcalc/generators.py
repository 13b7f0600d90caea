"""Seeded builders for models, operators and paths.

Every generator takes an explicit seed or numpy Generator so scenario runs
are reproducible bit for bit.
"""

import numpy as np

from .errors import ValidationError
from .path import OperatorPath, concatenate, flatten_endpoints
from .tracemodel import BlockHermitian, WeightedBlockModel, apply_function, eigh

__all__ = ["rng_from_seed", "random_block_model", "random_hermitian",
           "random_path", "single_crossing_path", "scalar_linear_path",
           "involution_path", "random_unitary_path", "dirac_path"]

WEIGHT_CHOICES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def rng_from_seed(seed):
    return np.random.default_rng(int(seed))


def random_block_model(rng, max_blocks=3, max_block_dim=4):
    n_blocks = int(rng.integers(1, max_blocks + 1))
    blocks = []
    for _ in range(n_blocks):
        dim = int(rng.integers(1, max_block_dim + 1))
        blocks.append((dim, float(rng.choice(WEIGHT_CHOICES))))
    return WeightedBlockModel(blocks)


def random_hermitian(rng, model, scale=1.0):
    n = model.dim
    mat = np.zeros((n, n), dtype=complex)
    for sl in model.block_slices:
        d = sl.stop - sl.start
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat[sl, sl] = scale * 0.5 * (x + x.conj().T) / np.sqrt(d)
    return BlockHermitian(model, mat)


def _push_away_from_zero(op, gap):
    """Shift eigenvalues off the kernel so the operator is gap-invertible."""
    return apply_function(eigh(op), lambda lam: np.where(
        np.abs(lam) < gap, np.where(lam >= 0, 1.0, -1.0) * gap, lam))


def random_path(rng, model, num_samples=9, endpoint_flat=False):
    """Random Hermitian path with invertible endpoints.

    Linear drift between two endpoints of scale 1.5, pushed 0.15 away from
    0, plus interior Hermitian wiggles of scale 0.6 that vanish at u = 0, 1.
    """
    f0 = _push_away_from_zero(random_hermitian(rng, model, 1.5), 0.15)
    f1 = _push_away_from_zero(random_hermitian(rng, model, 1.5), 0.15)
    bumps = [random_hermitian(rng, model, 0.6) for _ in range(2)]
    us = np.linspace(0.0, 1.0, num_samples)
    u = us[:, None, None]
    stack = (1.0 - u) * f0.mat + u * f1.mat + np.sin(np.pi * u) * bumps[0].mat \
        + np.sin(2.0 * np.pi * u) * bumps[1].mat
    path = OperatorPath._of_stack(model, us, stack)
    if endpoint_flat:
        path = flatten_endpoints(path, margin=0.15,
                                 num_samples=max(2 * num_samples + 1, 25))
    return path


def scalar_linear_path(start, end, num_samples=9):
    """Scalar path  u -> (1 - u) start + u end  on a single unit block."""
    model = WeightedBlockModel([(1, 1.0)])
    us = np.linspace(0.0, 1.0, num_samples)
    values = (1 - us) * start + us * end
    return OperatorPath._of_stack(model, us, values.reshape(-1, 1, 1).astype(complex))


def single_crossing_path(num_samples=9):
    """The path 2u - 1 with a single upward eigenvalue crossing."""
    return scalar_linear_path(-1.0, 1.0, num_samples=num_samples)


def involution_path(model, minus_dims, rng=None):
    """Normalization path through the identity involution.

    ``minus_dims[b]`` eigenvalues of block b start at -1 (the rest at +1);
    the first leg runs B_0 + 4 u P^- into the identity, the second leg stays
    there, each leg on 9 nodes.  The spectral flow equals the weighted trace
    of P^-.
    """
    if len(minus_dims) != len(model.blocks):
        raise ValidationError("need one minus-dimension per block")
    n = model.dim
    b0 = np.zeros((n, n), dtype=complex)
    pminus = np.zeros((n, n), dtype=complex)
    for (dim, _), sl, k in zip(model.blocks, model.block_slices, minus_dims):
        if not 0 <= k <= dim:
            raise ValidationError("minus-dimension exceeds the block size")
        diag = np.ones(dim)
        diag[:k] = -1.0
        basis = np.eye(dim, dtype=complex)
        if rng is not None:
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            basis, _ = np.linalg.qr(x)
        b0[sl, sl] = basis @ np.diag(diag) @ basis.conj().T
        pminus[sl, sl] = basis[:, :k] @ basis[:, :k].conj().T
    # the checked constructor symmetrizes the conjugated diagonals
    b0 = BlockHermitian(model, b0).mat
    pminus = BlockHermitian(model, pminus).mat

    us = np.linspace(0.0, 1.0, 9)
    legs = [b0 + 4.0 * (us[:, None, None] / 2.0) * pminus,
            np.repeat(np.eye(n, dtype=complex)[None], 9, axis=0)]
    expected = float(sum(w * k for (dim, w), k in zip(model.blocks, minus_dims)))
    return concatenate(*(OperatorPath._of_stack(model, us, leg) for leg in legs)), expected


def random_unitary_path(rng, model, num_samples):
    """Block-diagonal unitary path U_u = exp(i theta(u) H) with
    theta(u) = 0.7 sin(pi u), so theta(0) = theta(1) = 0."""
    gen = random_hermitian(rng, model, 1.0)
    dec = eigh(gen)
    v = dec.eigenvectors
    return [(v * np.exp(1j * theta * dec.eigenvalues)) @ v.conj().T
            for theta in 0.7 * np.sin(np.pi * np.linspace(0.0, 1.0, num_samples))]


def dirac_path(model, u0, u1, num_samples):
    """The frequency-model symbols xi + u for u from u0 to u1, at
    ``num_samples`` evenly spaced path parameters."""
    ts = np.linspace(0.0, 1.0, num_samples)
    offsets = u0 + ts * (u1 - u0)
    return OperatorPath._of_stack(model, ts, np.column_stack([offsets, np.ones_like(ts)]))
