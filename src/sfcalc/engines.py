"""Spectral flow engines and auxiliary spectral invariants.

Four independent methods compute the spectral flow of a path of self-adjoint
elements:

* ``sf_crossing``  -- weighted bookkeeping of eigenvalues through 0,
* ``sf_phillips``  -- summed relative index of positive spectral projections,
* ``sf_integral``  -- heat-kernel integral formula with truncated eta and
  kernel corrections,
* ``sf_appendix``  -- cutoff-function formula for paths of norm at most 1.

All engines share the convention that eigenvalue 0 belongs to the
nonnegative side (:meth:`SpectralDecomposition.nonneg_mask` for one matrix,
:func:`nonneg_masks` for the stacked decompositions of :func:`eigh_stack`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, ModelError, NumericError, PreconditionError,
                     ValidationError)
from .path import smoothstep
from .quadrature import adaptive_gauss_legendre
from .tracemodel import (FrequencyModel, FreqSymbol, SpectralDecomposition,
                         WeightedBlockModel, eigh, eigh_stack, endpoint_gap,
                         nonneg_masks)

__all__ = ["ChiProfile", "sine_profile", "quintic_profile", "CHI_PROFILES",
           "SpectralFlowResult", "sf_crossing", "sf_phillips",
           "eta_truncated", "sf_integral", "sf_appendix", "cg_bound"]


# ---------------------------------------------------------------------------
# cutoff profiles for the appendix formula

def _dsmoothstep(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = 30.0 * ti ** 2 * (1.0 - ti) ** 2
    return out


@dataclass(frozen=True)
class ChiProfile:
    """Admissible odd cutoff: chi(1) = 1, chi'(0) > 0, nondecreasing on
    [-1, 1], compactly supported in [-radius, radius], C^2 up to a sampled
    finite-difference check."""

    name: str
    chi: object = field(repr=False)
    dchi: object = field(repr=False)
    radius: float = 3.0

    def __post_init__(self):
        xs = np.linspace(0.0, self.radius + 0.25, 801)
        odd_gap = np.abs(self.chi(xs) + self.chi(-xs)).max()
        if odd_gap > 1e-12:
            raise ValidationError(f"profile {self.name!r} is not odd ({odd_gap:.3e})")
        if abs(float(self.chi(np.array([1.0]))[0]) - 1.0) > 1e-12:
            raise ValidationError(f"profile {self.name!r} must satisfy chi(1) = 1")
        if float(self.dchi(np.array([0.0]))[0]) <= 0.0:
            raise ValidationError(f"profile {self.name!r} needs chi'(0) > 0")
        core = np.linspace(-1.0, 1.0, 801)
        if np.any(np.diff(self.chi(core)) < -1e-12):
            raise ValidationError(f"profile {self.name!r} must be nondecreasing on [-1, 1]")
        tail = np.linspace(self.radius, 2 * self.radius, 64)
        if np.abs(self.chi(tail)).max() > 1e-12:
            raise ValidationError(f"profile {self.name!r} is not supported in "
                                  f"[-{self.radius}, {self.radius}]")
        delta = 1e-6
        probe = np.linspace(-self.radius - 0.1, self.radius + 0.1, 1201)
        fd = (self.chi(probe + delta) - self.chi(probe - delta)) / (2 * delta)
        if np.abs(fd - self.dchi(probe)).max() > 1e-6:
            raise ValidationError(f"profile {self.name!r}: chi' disagrees with "
                                  "finite differences of chi")

    def __call__(self, x):
        return self.chi(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.dchi(np.asarray(x, dtype=float))


def _with_plateau_tail(core, dcore):
    """Extend an odd core on [-1, 1] by a plateau to 1.5 and a C^2 tail to 3."""

    def chi(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        sgn = np.sign(x)
        out = np.where(ax <= 1.0, core(np.clip(x, -1.0, 1.0)), sgn)
        tail = ax > 1.5
        out = np.where(tail, sgn * (1.0 - smoothstep((ax - 1.5) / 1.5)), out)
        return np.where(ax >= 3.0, 0.0, out)

    def dchi(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.where(ax <= 1.0, dcore(np.clip(x, -1.0, 1.0)), 0.0)
        tail = (ax > 1.5) & (ax < 3.0)
        out = np.where(tail, -_dsmoothstep((ax - 1.5) / 1.5) / 1.5, out)
        return np.where(ax >= 3.0, 0.0, out)

    return chi, dchi


def sine_profile():
    chi, dchi = _with_plateau_tail(
        lambda x: np.sin(0.5 * np.pi * x),
        lambda x: 0.5 * np.pi * np.cos(0.5 * np.pi * x))
    return ChiProfile(name="sine", chi=chi, dchi=dchi, radius=3.0)


def quintic_profile():
    chi, dchi = _with_plateau_tail(
        lambda x: x * (15.0 - 10.0 * x ** 2 + 3.0 * x ** 4) / 8.0,
        lambda x: 15.0 * (1.0 - x ** 2) ** 2 / 8.0)
    return ChiProfile(name="quintic", chi=chi, dchi=dchi, radius=3.0)


CHI_PROFILES = {"sine": sine_profile, "quintic": quintic_profile}


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class SpectralFlowResult:
    """Engine output: the flow value plus solver diagnostics.

    For weighted block models whose weights share a rational step q, the raw
    value is snapped to the q-lattice (it must land within q/4 of it); the
    pre-rounding value is kept in ``diagnostics["raw"]``.
    """

    value: float
    method: str
    diagnostics: dict

    @property
    def raw(self):
        return self.diagnostics.get("raw", self.value)


def _finalize(raw, method, model, diagnostics):
    diagnostics = dict(diagnostics)
    diagnostics["raw"] = float(raw)
    value = float(raw)
    if isinstance(model, WeightedBlockModel):
        value = model.snap(raw)
        step = model.lattice_step()
        if step is not None:
            diagnostics["lattice_step"] = step
    return SpectralFlowResult(value=value, method=method, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# shared helpers

# (path, entry) of the most recent block path: F_0's and F_1's
# SpectralDecompositions, read from the path's spectra, under "ends" and, per
# node array keyed by its bytes, each block's
# (w_b, eigenvalues, Re diag(V* F' V)).  One path only: callers run the
# engines one s and one chi at a time on a path before the next, so one
# path is all they reuse.  Replacing the pair whole keeps calls on two
# paths from writing into one entry.
_memo = (None, None)


def _path_memo(path):
    global _memo
    held = _memo
    if held[0] is not path:
        held = _memo = (path, {"ends": tuple(
            SpectralDecomposition.of_stack(path.model, path.spectra, i) for i in (0, -1))})
    return held[1]


def _spectral_trace(path, us, f, scale=1.0):
    """Weighted trace of (dF/du) f(F) at each parameter in ``us`` of the
    block path F / scale: sum_b w_b sum_k f(lambda_k / scale)
    <v_k, F'(u) v_k> / scale over the eigenpairs of each block of F_u.

    The integrand of both the heat-kernel and the cutoff formula.  Each node
    array is evaluated once and each block decomposed by one stacked
    ``eigh``, into the path's memo entry; dividing by ``scale`` = 1 is exact.
    The entry's arrays are allocated before the node stacks, so the stacks'
    heap space is freed above them and can return to the system.
    """
    entry = _path_memo(path)
    key = us.tobytes()
    if key not in entry:
        model, n = path.model, len(us)
        kept = [(w, np.empty((n, nb)), np.empty((n, nb))) for nb, w in model.blocks]
        slopes = path.derivative(us)
        for (_, lam, diag), sl, (vals, v) in zip(kept, model.block_slices,
                                                 eigh_stack(model, path.eval(us))):
            lam[...] = vals
            diag[...] = np.sum(v.conj() * (slopes[:, sl, sl] @ v), axis=1).real
        entry[key] = kept
    out = np.zeros(len(us))
    for w, lam, diag in entry[key]:
        out += w * np.sum(f(lam / scale) * (diag / scale), axis=1)
    return out


# ---------------------------------------------------------------------------
# crossing engine

def sf_crossing(path):
    """Net weighted flow of eigenvalues through 0.

    Every block of a weighted block model has finite trace, so the per-step
    changes of each block's nonnegative count telescope over any partition
    of the path: the flow is each block's change of nonnegative count
    between F_0 and F_1, weighted once, as the index is.  Each endpoint
    counts with its own kernel tolerance, and eigenvalue 0 counts as
    nonnegative.
    """
    if path.is_frequency:
        raise ModelError("sf_crossing is defined on weighted block models")
    parts = path.spectra
    raw = path.model.weighted_sum(
        np.count_nonzero(mask[-1]) - np.count_nonzero(mask[0])
        for mask in nonneg_masks(parts))
    diagnostics = {
        # no partition is refined; the benchmark's tracer
        # (perfbench/tracing.py) sums this key over every traced run
        "refinement_depth": 0.0,
        "min_endpoint_gap": endpoint_gap(parts),
    }
    return _finalize(raw, "crossing", path.model, diagnostics)


# ---------------------------------------------------------------------------
# Phillips engine

def _ec_frequency(sym_p, sym_q, model):
    def summand(xi):
        p = (sym_p(xi) >= 0.0).astype(float)
        q = (sym_q(xi) >= 0.0).astype(float)
        return q * (1.0 - p) - p * (1.0 - q)

    return model.integrate(summand, sym_p.breakpoints() + sym_q.breakpoints())


def sf_phillips(path):
    """Spectral flow as a sum of relative indices of positive projections.

    On both supported models every difference of nonnegative spectral
    projections along the path has finite trace (finite total trace for
    block models, compactly supported symbols for the frequency model), so
    the sample nodes are an admissible partition as they stand;
    ec(P, Q) = tr(Q(1-P)) - tr(P(1-Q)) is summed over it.  On block models
    each block's term w_b [tr(Q(1-P)Q) - tr(P(1-Q)P)] is formed from the
    path's ``spectra``, as the projections P = V diag(mask) V* of
    :func:`nonneg_masks`.
    """
    us = list(path.us)
    diagnostics = {"num_steps": float(len(us) - 1)}
    if path.is_frequency:
        syms = [path.eval(u) for u in us]
        terms = [_ec_frequency(p, q, path.model) for p, q in zip(syms[:-1], syms[1:])]
        diagnostics["quadrature_error"] = sum(err for _, err in terms)
        return _finalize(sum(val for val, _ in terms), "phillips", path.model,
                         diagnostics)

    parts = path.spectra
    terms = []
    for (_, w), (_, v), mask in zip(path.model.blocks, parts, nonneg_masks(parts)):
        proj = (v * mask[:, None, :]) @ v.conj().swapaxes(1, 2)
        p, q = proj[:-1], proj[1:]
        eye = np.eye(v.shape[1])
        q_not_p = np.trace(q @ (eye - p) @ q, axis1=1, axis2=2).real
        p_not_q = np.trace(p @ (eye - q) @ p, axis1=1, axis2=2).real
        terms.extend(w * (q_not_p - p_not_q))
    diagnostics["min_endpoint_gap"] = endpoint_gap(parts)
    return _finalize(math.fsum(terms), "phillips", path.model, diagnostics)


# ---------------------------------------------------------------------------
# truncated eta and the integral engine

def _erfc_array(x):
    return np.array([math.erfc(v) for v in np.atleast_1d(x)])


def eta_truncated(op, s, model=None):
    """Truncated eta invariant: per eigenvalue sign(l) * erfc(sqrt(s) |l|).

    This is the closed form of (1/sqrt(pi)) * integral_s^inf of the
    weighted trace of D exp(-t D^2) dt / sqrt(t); kernel modes do not
    contribute.  Frequency-model symbols are integrated against the density.
    """
    if not 0 < s < math.inf:
        raise DomainError("eta_truncated requires s > 0 and finite")
    rs = math.sqrt(s)
    if isinstance(op, FreqSymbol):
        if not isinstance(model, FrequencyModel):
            raise ModelError("symbol eta needs the frequency model")
        def signed_erfc(xi):
            d = np.asarray(op(xi), dtype=float)
            return np.sign(d) * _erfc_array(rs * np.abs(d))
        return model.integrate(signed_erfc, op.breakpoints())[0]
    dec = op if isinstance(op, SpectralDecomposition) else eigh(op)
    lam = dec.eigenvalues
    signs = np.where(dec.kernel_mask(), 0.0, np.sign(lam))
    return float(np.sum(dec.weights * signs * _erfc_array(rs * np.abs(lam))))


def _heat_derivative_trace_frequency(path, u, s):
    sym, dsym = path.eval(u), path.derivative(u)
    return path.model.integrate(lambda xi: dsym(xi) * np.exp(-s * sym(xi) ** 2),
                                sym.breakpoints() + dsym.breakpoints(),
                                abs_tol=1e-11)[0]


def sf_integral(path, s, quad_tol=1e-8):
    """Heat-kernel integral formula for the spectral flow.

    Five terms: sqrt(s/pi) times the u-integral of the weighted trace of
    (dF/du) exp(-s F^2), half the truncated eta invariants of the endpoints,
    and half the weighted kernel traces of the endpoints.  The value is
    independent of s; the quadrature error estimate lands in diagnostics.
    """
    if not 0 < s < math.inf:
        raise DomainError("sf_integral requires s > 0 and finite")
    model = path.model
    prefactor = math.sqrt(s / math.pi)

    if path.is_frequency:
        def g(us):
            return np.array([_heat_derivative_trace_frequency(path, float(u), s)
                             for u in us])
    else:
        def g(us):
            return _spectral_trace(path, us, lambda lam: np.exp(-s * lam ** 2))
    integral, quad_err, panels = adaptive_gauss_legendre(
        g, 0.0, 1.0, abs_tol=quad_tol,
        breakpoints=[float(u) for u in path.us[1:-1]])
    integral *= prefactor
    quad_err *= prefactor
    if path.is_frequency:
        eta1 = eta_truncated(path.eval(1.0), s, model=model)
        eta0 = eta_truncated(path.eval(0.0), s, model=model)
        ker1 = ker0 = 0.0  # symbols vanish on measure-zero sets only
    else:
        dec0, dec1 = _path_memo(path)["ends"]
        eta1 = eta_truncated(dec1, s)
        eta0 = eta_truncated(dec0, s)
        ker1 = dec1.weighted_count(dec1.kernel_mask())
        ker0 = dec0.weighted_count(dec0.kernel_mask())

    raw = integral + 0.5 * (eta1 - eta0) + 0.5 * (ker1 - ker0)
    diagnostics = {
        "s": float(s),
        "integral_term": integral,
        "eta_term": 0.5 * (eta1 - eta0),
        "kernel_term": 0.5 * (ker1 - ker0),
        "eta_end": eta1, "eta_start": eta0,
        "kernel_end": ker1, "kernel_start": ker0,
        "quadrature_error": quad_err,
        "quadrature_panels": float(panels),
    }
    return _finalize(raw, "integral", model, diagnostics)


# ---------------------------------------------------------------------------
# appendix engine

def sf_appendix(path, chi, rescale=False):
    """Cutoff-function formula for paths of norm at most 1.

    Computes half the u-integral of the weighted trace of (dF/du) chi'(F)
    plus the endpoint corrections  1/2 tr(2P - 1 - chi(F))  with P the
    nonnegative spectral projection.  ``rescale`` divides the whole path by
    its maximal sample norm first (the flow is invariant under positive
    scaling).  P is taken from F itself with the library's kernel rule, so
    the value is the crossing engine's count at any endpoint, kernels
    included.
    """
    if path.is_frequency:
        raise ModelError("sf_appendix is defined on weighted block models")
    if not isinstance(chi, ChiProfile):
        raise ValidationError("sf_appendix needs a ChiProfile")
    model = path.model
    max_norm = path.max_sample_norm()
    scale = 1.0
    if max_norm > 1.0 + 1e-12:
        if not rescale:
            raise PreconditionError(
                f"path norm {max_norm:.3f} exceeds 1; pass rescale=True")
        scale = max_norm

    dec0, dec1 = _path_memo(path)["ends"]

    integral, quad_err, panels = adaptive_gauss_legendre(
        lambda us: _spectral_trace(path, us, chi.deriv, scale), 0.0, 1.0,
        abs_tol=1e-9, breakpoints=[float(u) for u in path.us[1:-1]])

    def endpoint_term(dec):
        p = dec.nonneg_mask().astype(float)
        return float(np.sum(dec.weights * (2.0 * p - 1.0 - chi(dec.eigenvalues / scale))))

    end, start = 0.5 * endpoint_term(dec1), -0.5 * endpoint_term(dec0)
    raw = 0.5 * integral + end + start
    diagnostics = {
        "chi": chi.name,
        "integral_term": 0.5 * integral,
        "endpoint_term_end": end,
        "endpoint_term_start": start,
        "rescale_factor": scale,
        "min_endpoint_gap": endpoint_gap(path.spectra),
        "quadrature_error": 0.5 * quad_err,
        "quadrature_panels": float(panels),
    }
    return _finalize(raw, "appendix", model, diagnostics)


# ---------------------------------------------------------------------------
# Cheeger-Gromov bound

def cg_bound(op, s):
    """Two-term bound for sqrt(s) * tr(|D| exp(-s D^2)) excluding the kernel.

    Splits the spectral integral of sqrt(l) exp(-s l) (l an eigenvalue of
    D^2) at mu = 1/sqrt(2(s-1)): below mu the integrand is bounded by its
    maximum e^{-1/2}/sqrt(2s) scaled by sqrt(s); above mu it is dominated by
    sqrt(mu) e^{-(s-1) mu} times the full heat trace.  Returns
    (lhs, term_I, term_II) and checks lhs <= term_I + term_II.
    """
    if not 1 < s < math.inf:
        raise DomainError("cg_bound requires s > 1 and finite")
    dec = op if isinstance(op, SpectralDecomposition) else eigh(op)
    lam = dec.eigenvalues
    w = dec.weights
    nonkernel = ~dec.kernel_mask()
    lhs = math.sqrt(s) * float(np.sum(
        w[nonkernel] * np.abs(lam[nonkernel])
        * np.exp(-s * lam[nonkernel] ** 2)))
    mu = 1.0 / math.sqrt(2.0 * (s - 1.0))
    lam2 = lam ** 2
    small = nonkernel & (lam2 <= mu)
    term_i = (math.exp(-0.5) / math.sqrt(2.0)) * float(np.sum(w[small]))
    heat = float(np.sum(w * np.exp(-lam2)))
    term_ii = math.sqrt(s) * math.sqrt(mu) * math.exp(-(s - 1.0) * mu) * heat
    if lhs > term_i + term_ii + 1e-12:
        raise NumericError(
            f"cg bound violated: lhs {lhs:.6e} > I + II {term_i + term_ii:.6e}",
            partial=(lhs, term_i, term_ii))
    return lhs, term_i, term_ii
