"""Histogram synopses on probabilistic data (Section 3 of the paper).

The subpackage is organised around two abstractions.  A *bucket-cost oracle*
(:class:`BucketCostFunction`) answers "what is the optimal cost and
representative of a bucket spanning ``[s, e]``" — batched over arbitrary
span vectors — from precomputed prefix arrays; one oracle exists per error
metric.  A *DP kernel* (:mod:`repro.histograms.kernels`) sweeps the
bucket-boundary recurrence against that batch interface; the registry holds
interchangeable kernels (``exact``, ``vectorized``, ``divide_conquer``) that
differ only in speed, never in the optimum.  The generic dynamic program
(:func:`solve_dynamic_program`, whose one solve serves every budget up to its
largest), the ``(1+eps)`` approximate construction, the deterministic
substrate and the naive baselines all work against these interfaces.
"""

from .absolute import WeightedAbsoluteCost
from .approx import approximate_boundaries, approximate_histogram
from .baselines import expectation_histogram, sampled_world_histogram
from .cost_base import BucketCostFunction
from .deterministic import (
    deterministic_cost_function,
    equi_depth_histogram,
    equi_width_histogram,
    maxdiff_histogram,
    optimal_deterministic_histogram,
)
from .dp import (
    DynamicProgramResult,
    histogram_from_boundaries,
    optimal_histogram,
    solve_dynamic_program,
)
from .factory import make_cost_function
from .kernels import (
    CompiledDivideConquerKernel,
    CompiledVectorizedKernel,
    DivideConquerKernel,
    DPKernel,
    ExactKernel,
    VectorizedKernel,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_kernel,
)
from .max_error import MaxAbsoluteCost, MaxAbsoluteRelativeCost
from .sae import SaeCost
from .sare import SareCost
from .sse import SseCost
from .ssre import SsreCost

__all__ = [
    "BucketCostFunction",
    "DPKernel",
    "ExactKernel",
    "VectorizedKernel",
    "DivideConquerKernel",
    "CompiledVectorizedKernel",
    "CompiledDivideConquerKernel",
    "register_kernel",
    "get_kernel",
    "resolve_kernel",
    "available_kernels",
    "SseCost",
    "SsreCost",
    "SaeCost",
    "SareCost",
    "MaxAbsoluteCost",
    "MaxAbsoluteRelativeCost",
    "WeightedAbsoluteCost",
    "make_cost_function",
    "DynamicProgramResult",
    "solve_dynamic_program",
    "optimal_histogram",
    "histogram_from_boundaries",
    "approximate_boundaries",
    "approximate_histogram",
    "deterministic_cost_function",
    "optimal_deterministic_histogram",
    "equi_width_histogram",
    "equi_depth_histogram",
    "maxdiff_histogram",
    "expectation_histogram",
    "sampled_world_histogram",
]
