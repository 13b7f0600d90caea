"""One-parameter families of self-adjoint elements.

An :class:`OperatorPath` samples a family u -> F_u on [0, 1] and provides
interpolation, differentiation, concatenation and unitary conjugation.
Its samples, block matrices or affine symbols as (offset, slope) rows, are
held in one stack.  ``OperatorPath(model, samples)`` checks samples from
outside; the paths the library builds are stacks of exactly Hermitian,
block-diagonal matrices and skip those checks.  Interpolation is entrywise
with real coefficients, so interpolated values and derivatives are exact
too.  Block paths evaluate an array of parameters into a stack at once.
"""

import numpy as np

from .errors import DomainError, ModelError, ValidationError
from .tracemodel import (AffineSymbol, BlockHermitian, FrequencyModel,
                         WeightedBlockModel, eigh_stack)

__all__ = ["OperatorPath", "concatenate", "conjugate", "reverse",
           "direct_sum", "flatten_endpoints", "reparametrize",
           "smoothstep", "flat_profile", "hermite_tangents", "hermite"]


def smoothstep(t):
    """C^2 monotone ramp 0 -> 1 on [0, 1] with flat first two derivatives."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def flat_profile(t, margin=0.15):
    """Time warp [0,1] -> [0,1], constant on [0, margin] and [1-margin, 1]."""
    t = np.asarray(t, dtype=float)
    return smoothstep((t - margin) / (1.0 - 2.0 * margin))


def _segment(us, u):
    """Indices j of the node intervals [us[j], us[j+1]] holding the
    parameters u, using the right-derivative convention at interior nodes."""
    j = np.searchsorted(us, u, side="right") - 1
    return np.clip(j, 0, len(us) - 2)


def hermite_tangents(us, values):
    """Node tangents for C^1 cubic Hermite interpolation of ``values``
    (stacked along the first axis): three-point differences inside,
    second-order one-sided differences at both ends."""
    m = values
    h = np.diff(us).reshape((-1,) + (1,) * (m.ndim - 1))
    ha, hb = h[:-1], h[1:]
    tangents = np.empty_like(m)
    tangents[1:-1] = (-hb / (ha * (ha + hb)) * m[:-2] + (hb - ha) / (ha * hb) * m[1:-1]
                      + ha / (hb * (ha + hb)) * m[2:])
    h0, h1 = h[0], h[1]
    tangents[0] = (-(2 * h0 + h1) / (h0 * (h0 + h1)) * m[0] + (h0 + h1) / (h0 * h1) * m[1]
                   - h0 / (h1 * (h0 + h1)) * m[2])
    h0, h1 = h[-2], h[-1]
    tangents[-1] = (h1 / (h0 * (h0 + h1)) * m[-3] - (h0 + h1) / (h0 * h1) * m[-2]
                    + (2 * h1 + h0) / (h1 * (h0 + h1)) * m[-1])
    return tangents


def hermite(us, values, tangents, u):
    """The cubic Hermite interpolant and its u-derivative at the 1-D array
    of parameters u, stacked along the first axis."""
    j = _segment(us, u)
    shape = (-1,) + (1,) * (values.ndim - 1)
    h = (us[j + 1] - us[j]).reshape(shape)
    t = (u - us[j]).reshape(shape) / h
    t2 = t * t
    t3 = t2 * t
    p0, p1 = values[j], values[j + 1]
    m0, m1 = tangents[j] * h, tangents[j + 1] * h
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    dh00 = 6 * t2 - 6 * t
    dh10 = 3 * t2 - 4 * t + 1
    dh01 = -6 * t2 + 6 * t
    dh11 = 3 * t2 - 2 * t
    value = h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1
    slope = (dh00 * p0 + dh10 * m0 + dh01 * p1 + dh11 * m1) / h
    return value, slope


def _check_parameters(model, us, interpolation):
    """The checks of a path's parameters, its interpolation and its model."""
    if interpolation not in ("linear", "cubic"):
        raise ValidationError(f"unknown interpolation {interpolation!r}")
    least = 3 if interpolation == "cubic" else 2
    if len(us) < least:
        raise ValidationError(f"a {interpolation} path needs at least {least} samples")
    if us[0] != 0.0 or us[-1] != 1.0:
        raise ValidationError("path parameters must start at 0 and end at 1")
    if np.any(np.diff(us) <= 0):
        raise ValidationError("path parameters must be strictly increasing")
    if isinstance(model, FrequencyModel) and interpolation == "cubic":
        raise ValidationError("frequency paths support linear interpolation only")


class OperatorPath:
    """Sampled path u -> F_u with u_0 = 0 and u_last = 1.

    ``endpoint_flat`` is True when the first two and the last two samples
    agree, so the path is constant near both ends.  ``spectra`` is the
    :func:`eigh_stack` decomposition of its samples, made on first use.
    """

    def __init__(self, model, samples, interpolation="linear"):
        samples = [(float(u), F) for u, F in samples]
        us = np.array([u for u, _ in samples])
        _check_parameters(model, us, interpolation)
        if isinstance(model, FrequencyModel):
            if not all(isinstance(F, AffineSymbol) for _, F in samples):
                raise ValidationError("frequency-path samples must be affine symbols")
            stack = np.array([(F.offset, F.slope) for _, F in samples], dtype=float)
        elif isinstance(model, WeightedBlockModel):
            for _, F in samples:
                if not isinstance(F, BlockHermitian):
                    raise ValidationError("block-path samples must be BlockHermitian")
                if F.model.blocks != model.blocks:
                    raise ValidationError("all samples must live on the path's model")
            stack = np.stack([F.mat for _, F in samples])
        else:
            raise ValidationError("unsupported model type")
        self._setup(model, us, stack, interpolation)

    @classmethod
    def _of_stack(cls, model, us, stack, interpolation="linear"):
        """A path from samples the library built exactly Hermitian and
        block-diagonal (or symbol rows): only the parameters are checked."""
        _check_parameters(model, us, interpolation)
        path = cls.__new__(cls)
        path._setup(model, us, stack, interpolation)
        return path

    def _setup(self, model, us, stack, interpolation):
        self.model, self.interpolation = model, interpolation
        self.us, self._stack = us, stack
        self._spectra = self._sample_norm = None
        if interpolation == "cubic":
            self._tangents = hermite_tangents(us, stack)
        scale = max(1.0, np.abs(stack).max())
        self.endpoint_flat = all(
            np.abs(stack[i] - stack[j]).max() <= 1e-12 * scale
            for i, j in ((0, 1), (-2, -1)))

    # -- basic access -------------------------------------------------------

    @property
    def is_frequency(self):
        return isinstance(self.model, FrequencyModel)

    @property
    def nodes(self):
        return self.us.copy()

    @property
    def spectra(self):
        if self.is_frequency:
            raise ModelError("symbol paths have no sample decomposition")
        if self._spectra is None:
            self._spectra = eigh_stack(self.model, self._stack)
        return self._spectra

    def sample(self, j):
        return self._element(self._stack[j])

    def _element(self, row):
        """One stacked sample or value as an element of the model."""
        if self.is_frequency:
            return AffineSymbol(offset=float(row[0]), slope=float(row[1]))
        return BlockHermitian._trusted(self.model, row)

    # -- evaluation ---------------------------------------------------------

    def _params(self, u):
        """Parameters as a 1-D array, checked to lie in [0, 1]."""
        us = np.atleast_1d(np.asarray(u, dtype=float))
        if us.ndim != 1:
            raise ValidationError("path parameters must be a number or a 1-D array")
        outside = ~((us >= 0.0) & (us <= 1.0))
        if outside.any():
            raise DomainError(f"path parameter {us[outside][0]} outside [0, 1]")
        if self.is_frequency and np.ndim(u) != 0:
            raise ValidationError("frequency paths evaluate one parameter at a time")
        return us

    def _result(self, u, values):
        return self._element(values[0]) if np.ndim(u) == 0 else values

    def _column(self, x):
        """A per-parameter array shaped to broadcast against the stack."""
        return x.reshape((-1,) + (1,) * (self._stack.ndim - 1))

    def eval(self, u):
        """F_u: for a number u an element of the model (a symbol on frequency
        paths); for a 1-D array of parameters, block paths return the
        stacked matrices, shape (len(u), dim, dim).  A number is evaluated
        as a one-element array, so both give the same bits."""
        us = self._params(u)
        if self.interpolation == "cubic":
            values, _ = hermite(self.us, self._stack, self._tangents, us)
            return self._result(u, values)
        j = _segment(self.us, us)
        t = self._column((us - self.us[j]) / (self.us[j + 1] - self.us[j]))
        return self._result(u, (1.0 - t) * self._stack[j] + t * self._stack[j + 1])

    def derivative(self, u):
        """dF/du, right derivative at interior nodes; numbers and arrays as
        in :meth:`eval`."""
        us = self._params(u)
        if self.interpolation == "cubic":
            _, slopes = hermite(self.us, self._stack, self._tangents, us)
            return self._result(u, slopes)
        j = _segment(self.us, us)
        h = self._column(self.us[j + 1] - self.us[j])
        return self._result(u, (self._stack[j + 1] - self._stack[j]) / h)

    def max_sample_norm(self):
        """The largest spectral norm of a sample, computed on first use and
        kept for the path's life, as :attr:`spectra` is."""
        if self.is_frequency:
            raise ValidationError("sample norms are not defined for symbol paths")
        if self._sample_norm is None:
            self._sample_norm = float(np.linalg.norm(self._stack, 2, axis=(1, 2)).max())
        return self._sample_norm


# ---------------------------------------------------------------------------
# path combinators

def _same_model(ma, mb):
    if isinstance(ma, WeightedBlockModel) and isinstance(mb, WeightedBlockModel):
        return ma.blocks == mb.blocks
    return ma == mb  # FrequencyModel compares its fields, all else identity


def concatenate(a, b):
    """Glue two paths: a on [0, 1/2], b on [1/2, 1]."""
    if not _same_model(a.model, b.model):
        raise ValidationError("concatenate requires a common model")
    end_a, start_b = a._stack[-1], b._stack[0]
    mismatch = float(np.abs(end_a - start_b).max())
    if mismatch > 1e-10 * max(1.0, np.abs(end_a).max()):
        raise ValidationError(
            f"paths do not match at the splice point (gap {mismatch:.3e})")
    return OperatorPath._of_stack(
        a.model, np.concatenate([a.us / 2.0, 0.5 + b.us[1:] / 2.0]),
        np.concatenate([a._stack, b._stack[1:]]), a.interpolation)


def conjugate(path, unitaries):
    """Pointwise conjugation u -> U_u F_u U_u^*.

    ``unitaries`` is a single matrix or one matrix per sample node.
    """
    if path.is_frequency:
        raise ValidationError("conjugation is defined for block paths only")
    n = path.model.dim
    if isinstance(unitaries, np.ndarray) and unitaries.ndim == 2:
        mats = [unitaries] * len(path.us)
    else:
        mats = list(unitaries)
        if len(mats) != len(path.us):
            raise ValidationError("need one unitary per path sample")
    eye = np.eye(n)
    samples = []
    for j, u in enumerate(path.us):
        U = np.asarray(mats[j], dtype=complex)
        defect = np.linalg.norm(U.conj().T @ U - eye)
        if defect > 1e-10 * np.sqrt(n):
            raise ValidationError(f"sample {j}: matrix is not unitary "
                                  f"(defect {defect:.3e})")
        samples.append((u, BlockHermitian(path.model, U @ path._stack[j] @ U.conj().T)))
    return OperatorPath(path.model, samples, interpolation=path.interpolation)


def reverse(path):
    """The path u -> F_{1-u}."""
    return OperatorPath._of_stack(path.model, 1.0 - path.us[::-1],
                                  path._stack[::-1].copy(), path.interpolation)


def direct_sum(a, b):
    """Blockwise direct sum of two block paths, resampled on the node union."""
    if a.is_frequency or b.is_frequency:
        raise ValidationError("direct sums are defined for block paths only")
    model = a.model.direct_sum(b.model)
    us = np.union1d(a.us, b.us)
    na = a.model.dim
    stack = np.zeros((len(us), model.dim, model.dim), dtype=complex)
    stack[:, :na, :na] = a.eval(us)
    stack[:, na:, na:] = b.eval(us)
    return OperatorPath._of_stack(model, us, stack)


def reparametrize(path, phi, num_samples=None):
    """Resample the path along a monotone time change fixing 0 and 1.

    A ``phi`` that moves 0 or 1 by more than 1e-12, or whose samples
    decrease anywhere, is refused: it would traverse another path.
    """
    if num_samples is None:
        num_samples = max(2 * len(path.us) + 1, 17)
    ts = np.linspace(0.0, 1.0, num_samples)
    warped = np.array([phi(t) for t in ts], dtype=float)
    if not (abs(warped[0]) <= 1e-12 and abs(warped[-1] - 1.0) <= 1e-12):
        raise ValidationError("a time change must fix 0 and 1")
    if not np.all(np.diff(warped) >= 0.0):
        raise ValidationError("a time change must be nondecreasing")
    return OperatorPath._of_stack(path.model, ts, path.eval(np.clip(warped, 0.0, 1.0)),
                                  path.interpolation)


def flatten_endpoints(path, margin=0.15, num_samples=None):
    """Resample along a C^2 warp so the path is constant on [0, margin] and
    [1 - margin, 1], for 0 <= margin < 1/2."""
    if not 0.0 <= margin < 0.5:
        raise ValidationError(f"margin must lie in [0, 0.5), got {margin!r}")
    if num_samples is None:
        num_samples = max(2 * len(path.us) + 1, 33)
    ts = np.linspace(0.0, 1.0, num_samples)
    return OperatorPath._of_stack(path.model, ts, path.eval(flat_profile(ts, margin)),
                                  path.interpolation)
