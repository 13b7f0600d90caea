"""Traced operator models and their spectral calculus.

Two model families are provided:

* :class:`WeightedBlockModel` -- a finite direct sum of matrix blocks, each
  carrying a positive trace weight.  The weighted trace realizes a finite
  slice of a semifinite trace; non-integer weights produce real-valued
  spectral flow.
* :class:`FrequencyModel` -- a commutative model whose operators are real
  symbol functions of a frequency variable and whose trace integrates the
  symbol against a density.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ModelError, NumericError, ValidationError
from .quadrature import adaptive_gauss_legendre

__all__ = [
    "WeightedBlockModel", "BlockHermitian", "SpectralDecomposition",
    "Interval", "trace", "eigh", "eigh_stack",
    "spectral_projection", "apply_function",
    "FrequencyModel", "FreqSymbol", "AffineSymbol", "IndicatorSymbol",
    "freq_trace", "zero_tolerance",
    "ClusterBoundaryWarning",
]

HERMITIAN_RTOL = 1e-12
ZERO_CLUSTER_FACTOR = 1e-9


def zero_tolerance(op_norm):
    """Eigenvalue magnitude below which a mode counts as kernel, for an
    operator norm or, elementwise, an array of them."""
    return ZERO_CLUSTER_FACTOR * (1.0 + np.asarray(op_norm, dtype=float))


def _is_real(x):
    """Whether x is a Python or numpy real number, bools excluded."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


class ClusterBoundaryWarning(UserWarning):
    """An interval endpoint fell inside a near-degenerate eigenvalue cluster."""


# ---------------------------------------------------------------------------
# intervals

@dataclass(frozen=True)
class Interval:
    """Real interval with open/closed endpoint flags."""

    lo: float = -math.inf
    hi: float = math.inf
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"empty interval: lo={self.lo} > hi={self.hi}")

    def contains(self, values):
        v = np.asarray(values, dtype=float)
        lo_ok = (v >= self.lo) if self.closed_lo else (v > self.lo)
        hi_ok = (v <= self.hi) if self.closed_hi else (v < self.hi)
        return lo_ok & hi_ok

    @staticmethod
    def nonnegative():
        return Interval(0.0, math.inf, closed_lo=True, closed_hi=False)

    @staticmethod
    def negative():
        return Interval(-math.inf, 0.0, closed_lo=False, closed_hi=False)

    @staticmethod
    def symmetric(radius):
        return Interval(-float(radius), float(radius))


# ---------------------------------------------------------------------------
# weighted block model

@dataclass(frozen=True, eq=False)
class WeightedBlockModel:
    """Ordered block structure ``[(dim, weight), ...]`` with weighted trace."""

    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValidationError("model needs at least one block")
        for n, w in blocks:
            if not (isinstance(n, numbers.Integral) and _is_real(n)):
                raise ValidationError(f"block dimension {n!r} must be an integer")
            if n < 1:
                raise ValidationError(f"block dimension {n} < 1")
            if not (_is_real(w) and 0.0 < w < math.inf):
                raise ValidationError(f"block weight {w!r} must be positive finite")
        blocks = tuple((int(n), float(w)) for n, w in blocks)
        object.__setattr__(self, "blocks", blocks)
        # the common rational step q of the weights, or None: every weight
        # must be within roundoff of a fraction of denominator <= 10**4
        fracs = [Fraction(w).limit_denominator(10 ** 4) for _, w in blocks]
        q = None
        if all(abs(float(f) - w) <= 1e-12 * max(1.0, w)
               for f, (_, w) in zip(fracs, blocks)):
            q = fracs[0]
            for f in fracs[1:]:
                q = Fraction(math.gcd(q.numerator * f.denominator,
                                      f.numerator * q.denominator),
                             q.denominator * f.denominator)
        object.__setattr__(self, "_step", q)

    @property
    def dim(self):
        return sum(n for n, _ in self.blocks)

    @property
    def block_slices(self):
        slices = []
        start = 0
        for n, _ in self.blocks:
            slices.append(slice(start, start + n))
            start += n
        return slices

    @property
    def trace_identity(self):
        return float(sum(n * w for n, w in self.blocks))

    def identity(self):
        return BlockHermitian(self, np.eye(self.dim, dtype=complex))

    def zero(self):
        return BlockHermitian(self, np.zeros((self.dim, self.dim), dtype=complex))

    def direct_sum(self, other):
        return WeightedBlockModel(self.blocks + other.blocks)

    def lattice_step(self):
        """Common rational step of the weights, or None.

        Returns q such that every block weight is an integer multiple of q,
        provided all weights are (numerically) rational with small
        denominator.  Spectral flow values on this model live on the
        q-lattice.
        """
        return None if self._step is None else float(self._step)

    def weighted_sum(self, counts):
        """The correctly rounded sum of w_b * n_b over integer per-block
        counts, so every route to the same counts gives the same bits."""
        return math.fsum(w * int(n) for (_, w), n in zip(self.blocks, counts))

    def snap(self, raw):
        """Round ``raw`` to the weight lattice of :meth:`lattice_step`: the
        double nearest k * q for the exact step q and k = round(raw / step).

        Spectral flows and indices on this model are integer combinations of
        the weights, so they must land within a quarter step of the lattice;
        values are returned unchanged when the weights share no small
        rational step.  A non-finite value is a :class:`NumericError`.
        """
        if not math.isfinite(raw):
            raise NumericError(f"value {raw!r} is not finite", partial=raw)
        step = self.lattice_step()
        if step is None:
            return float(raw)
        snapped = float(round(raw / step) * self._step)
        if abs(raw - snapped) > 0.25 * step:
            raise NumericError(
                f"value {raw!r} is {abs(raw - snapped):.3e} away "
                f"from the weight lattice (step {step})", partial=raw)
        return snapped

    def __repr__(self):
        return f"WeightedBlockModel({list(self.blocks)})"


@dataclass(frozen=True, eq=False)
class BlockHermitian:
    """Hermitian block-diagonal element of a :class:`WeightedBlockModel`.

    The constructor validates its input: shape, finite entries, Hermiticity
    and vanishing off-block entries, up to roundoff, and stores the
    symmetrized matrix.
    Values the library builds exactly Hermitian and block-diagonal (path
    samples and interpolated values) skip the checks.
    """

    model: WeightedBlockModel
    mat: np.ndarray = field(repr=False)

    def __init__(self, model, mat):
        mat = np.asarray(mat, dtype=complex)
        n = model.dim
        if mat.shape != (n, n):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match model dimension {n}")
        if not np.isfinite(mat).all():
            raise ValidationError("matrix entries must be finite")
        scale = np.linalg.norm(mat)
        gap = np.linalg.norm(mat - mat.conj().T)
        if gap > HERMITIAN_RTOL * max(1.0, scale):
            raise ValidationError(
                f"matrix is not Hermitian: relative defect {gap / max(1.0, scale):.3e}")
        off = mat.copy()
        for sl in model.block_slices:
            off[sl, sl] = 0.0
        off_norm = np.linalg.norm(off)
        if off_norm > HERMITIAN_RTOL * max(1.0, scale):
            raise ValidationError(
                f"off-block entries must vanish (norm {off_norm:.3e})")
        clean = mat - off
        clean = 0.5 * (clean + clean.conj().T)
        clean.setflags(write=False)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "mat", clean)

    @classmethod
    def _trusted(cls, model, mat):
        """Wrap a matrix that is exactly Hermitian and block-diagonal by
        construction, without the constructor's checks."""
        op = object.__new__(cls)
        mat.setflags(write=False)
        object.__setattr__(op, "model", model)
        object.__setattr__(op, "mat", mat)
        return op

    def block(self, i):
        sl = self.model.block_slices[i]
        return self.mat[sl, sl]


def trace(op):
    """Weighted trace  sum_b w_b * Tr(op_b)."""
    if not isinstance(op, BlockHermitian):
        raise ValidationError("trace expects a BlockHermitian")
    total = 0.0
    for (n, w), sl in zip(op.model.blocks, op.model.block_slices):
        total += w * float(np.trace(op.mat[sl, sl]).real)
    return total


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues, unitary eigenvector columns and per-eigenvalue weights.

    Eigenvalues are ascending; each eigenvector is supported in exactly one
    block and carries that block's trace weight.
    """

    model: WeightedBlockModel
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray
    block_index: np.ndarray

    @property
    def op_norm(self):
        return float(np.max(np.abs(self.eigenvalues)))

    def reconstruct(self):
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def weighted_count(self, mask):
        return float(np.sum(self.weights[np.asarray(mask, dtype=bool)]))

    def kernel_mask(self):
        return np.abs(self.eigenvalues) <= zero_tolerance(self.op_norm)

    def nonneg_mask(self):
        """Eigenvalues on the nonnegative side, the kernel cluster included.

        This is the library's one convention for eigenvalue 0: it counts as
        nonnegative, with the kernel tolerance of :func:`zero_tolerance`.
        """
        return self.eigenvalues >= -zero_tolerance(self.op_norm)

    @classmethod
    def of_stack(cls, model, parts, i):
        """Matrix ``i`` of an :func:`eigh_stack` result, eigenvalues sorted across blocks."""
        all_vecs = np.zeros((model.dim, model.dim), dtype=complex)
        for sl, (_, vecs) in zip(model.block_slices, parts):
            all_vecs[sl, sl] = vecs[i]
        all_vals = np.concatenate([vals[i] for vals, _ in parts])
        dims = [nb for nb, _ in model.blocks]
        order = np.argsort(all_vals, kind="stable")
        return cls(
            model=model,
            eigenvalues=all_vals[order],
            eigenvectors=all_vecs[:, order],
            weights=np.repeat([w for _, w in model.blocks], dims)[order],
            block_index=np.repeat(np.arange(len(dims)), dims)[order],
        )


def eigh_stack(model, mats):
    """Blockwise LAPACK eigendecomposition of a stack of Hermitian
    block-diagonal matrices, ``mats`` of shape (n, dim, dim).

    Returns one ``(eigenvalues, eigenvectors)`` pair per block, of shapes
    (n, d_b) and (n, d_b, d_b), eigenvalues ascending within the block.
    Raises :class:`NumericError` when the reconstruction residual of a
    matrix, in the Frobenius norm summed over its blocks, exceeds
    1e-10 * max(1, ||F||_F).
    """
    parts = []
    residual = np.zeros(len(mats))
    norm = np.zeros(len(mats))
    for sl in model.block_slices:
        blk = mats[:, sl, sl]
        vals, vecs = np.linalg.eigh(blk)
        defect = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(1, 2) - blk
        residual += np.sum(defect.real ** 2 + defect.imag ** 2, axis=(1, 2))
        norm += np.sum(blk.real ** 2 + blk.imag ** 2, axis=(1, 2))
        parts.append((vals, vecs))
    residual = np.sqrt(residual)
    scale = np.maximum(1.0, np.sqrt(norm))
    bad = np.flatnonzero(~(residual <= 1e-10 * scale))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"eigendecomposition reconstruction residual {residual[i] / scale[i]:.3e} "
            f"(matrix {i} of {len(mats)})")
    return parts


def nonneg_masks(parts):
    """Per block of an :func:`eigh_stack` result, the (n, d_b) mask of
    eigenvalues on the nonnegative side: each matrix's selection of
    :meth:`SpectralDecomposition.nonneg_mask`, with the kernel tolerance of
    that matrix's largest |eigenvalue| over all its blocks."""
    tol = zero_tolerance(np.max([np.abs(lam).max(axis=1) for lam, _ in parts], axis=0))
    return [lam >= -tol[:, None] for lam, _ in parts]


def endpoint_gap(parts):
    """Smallest eigenvalue modulus of the first and last matrix of ``parts``."""
    return float(min(np.abs(lam[[0, -1]]).min() for lam, _ in parts))


def eigh(op):
    """Blockwise Hermitian eigendecomposition by LAPACK, the one-matrix case
    of :func:`eigh_stack`, with eigenvalues sorted across blocks.

    Deterministic for identical input.  Eigenvector phases are whatever
    LAPACK returns; every consumer in the library is phase-invariant
    (projections, traces, reconstructions, singular values).
    """
    if not isinstance(op, BlockHermitian):
        raise ValidationError("eigh expects a BlockHermitian")
    return SpectralDecomposition.of_stack(op.model, eigh_stack(op.model, op.mat[None]), 0)


def spectral_projection(dec, interval):
    """Orthogonal projection onto eigenvectors with eigenvalue in ``interval``.

    Warns when an interval endpoint falls strictly inside a near-degenerate
    cluster, since the selection is then tolerance-sensitive.
    """
    if not isinstance(dec, SpectralDecomposition):
        raise ValidationError("spectral_projection expects a SpectralDecomposition")
    tol = zero_tolerance(dec.op_norm)
    lam = dec.eigenvalues
    for endpoint in (interval.lo, interval.hi):
        if math.isfinite(endpoint):
            close = np.abs(lam - endpoint) <= tol
            if close.any() and (lam[close].max() - lam[close].min()) > 0:
                warnings.warn(
                    f"interval endpoint {endpoint} lies inside an eigenvalue "
                    f"cluster of width {lam[close].max() - lam[close].min():.3e}",
                    ClusterBoundaryWarning, stacklevel=2)
    mask = interval.contains(lam)
    v = dec.eigenvectors[:, mask]
    proj = v @ v.conj().T
    return BlockHermitian(dec.model, proj)


def apply_function(dec, f):
    """Functional calculus  V diag(f(lambda)) V*."""
    if not isinstance(dec, SpectralDecomposition):
        raise ValidationError("apply_function expects a SpectralDecomposition")
    fvals = np.asarray(f(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise NumericError("function value not finite on the spectrum")
    v = dec.eigenvectors
    out = (v * fvals) @ v.conj().T
    return BlockHermitian(dec.model, out)


# ---------------------------------------------------------------------------
# frequency model

class FreqSymbol:
    """Real-valued symbol d(xi); operators of the frequency model."""

    def __call__(self, xi):  # pragma: no cover - interface
        raise NotImplementedError

    def breakpoints(self):
        """Frequencies where the symbol (or its sign) is non-smooth."""
        return ()


@dataclass(frozen=True)
class AffineSymbol(FreqSymbol):
    """Symbol xi * slope + offset."""

    offset: float
    slope: float = 1.0

    def __call__(self, xi):
        return self.slope * np.asarray(xi, dtype=float) + self.offset

    def root(self):
        if self.slope == 0.0:
            return None
        return -self.offset / self.slope

    def breakpoints(self):
        r = self.root()
        return () if r is None else (r,)


@dataclass(frozen=True)
class IndicatorSymbol(FreqSymbol):
    """Indicator of [lo, hi]."""

    lo: float
    hi: float

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return ((xi >= self.lo) & (xi <= self.hi)).astype(float)

    def breakpoints(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class FrequencyModel:
    """Multiplication-operator model with trace  integral of symbol * rho.

    ``rho`` is the spectral density (callable or constant), integrable over
    the working window [-xi_max, xi_max].
    """

    rho: object = 1.0 / (2.0 * math.pi)
    xi_max: float = 50.0

    def __post_init__(self):
        if not (_is_real(self.xi_max) and 0 < self.xi_max < math.inf):
            raise ValidationError(f"xi_max must be positive and finite, got {self.xi_max!r}")
        if not (callable(self.rho) or _is_real(self.rho) and 0 <= self.rho < math.inf):
            raise ValidationError("density must be nonnegative and finite, or a "
                                  f"callable, got {self.rho!r}")

    def rho_values(self, xi):
        xi = np.asarray(xi, dtype=float)
        if callable(self.rho):
            vals = np.asarray(self.rho(xi), dtype=float)
        else:
            vals = np.full_like(xi, float(self.rho))
        if not np.all((vals >= -1e-15) & (vals < math.inf)):
            raise ValidationError("density must be nonnegative and finite")
        return np.clip(vals, 0.0, None)

    def integrate(self, fn, breakpoints, abs_tol=1e-10):
        """Integral of fn(xi) * rho(xi) over the window [-xi_max, xi_max],
        with panels split at ``breakpoints``.  The one density integral of
        the model; returns (value, error estimate)."""
        value, err, _ = adaptive_gauss_legendre(
            lambda xi: fn(xi) * self.rho_values(xi), -self.xi_max, self.xi_max,
            abs_tol=abs_tol, breakpoints=breakpoints)
        return value, err


def freq_trace(model, symbol):
    """Trace of a symbol:  integral of symbol(xi) * rho(xi) over the window.

    A :class:`FreqSymbol` declares where it is non-smooth, and the panels
    split at its breakpoints; a plain callable is integrated without cuts.
    """
    if not isinstance(model, FrequencyModel):
        raise ModelError("freq_trace expects a FrequencyModel")
    cuts = symbol.breakpoints() if isinstance(symbol, FreqSymbol) else ()
    return model.integrate(lambda xi: np.asarray(symbol(xi), dtype=float), cuts)[0]
