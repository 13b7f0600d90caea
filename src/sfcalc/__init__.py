"""Spectral flow by four independent methods, and the index of the
discretized suspension operator d/du + D_u, over trace-weighted operator
models."""

__version__ = "0.1.0"

from .engines import (CHI_PROFILES, ChiProfile, SpectralFlowResult, cg_bound,
                      eta_truncated, sf_appendix, sf_crossing, sf_integral,
                      sf_phillips)
from .errors import (DomainError, ModelError, NumericError, PreconditionError,
                     SfcalcError, ValidationError)
from .apsindex import (SuspensionProblem, aps_index,
                       halfline_aps_apply_inverse,
                       perturbation_truncation_check)
from .path import OperatorPath, concatenate, conjugate, direct_sum, reverse
from .tracemodel import (AffineSymbol, BlockHermitian, FrequencyModel,
                         IndicatorSymbol, Interval, SpectralDecomposition,
                         WeightedBlockModel, apply_function, eigh, freq_trace,
                         spectral_projection, trace)

__all__ = [name for name in dir() if not name.startswith("_")]
