"""Naive wavelet baselines (Section 5.2).

For the SSE objective the optimal probabilistic synopsis is the top-``B``
thresholding of the *expected* data's Haar transform, so the "expectation"
baseline coincides with the optimum.  The remaining naive strategy — and the
one the paper compares against in Figure 4 — is to sample one possible world,
transform it, and keep the coefficients that are largest *in that sample*.
The retained values may be taken either from the sampled world itself (the
literal baseline) or from the expected coefficients (isolating the effect of
choosing the wrong coefficient *set*); both options are provided.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.wavelet import WaveletSynopsis
from ..models.base import ProbabilisticModel
from .coefficients import expected_coefficients
from .haar import haar_transform
from .sse import top_coefficient_indices

__all__ = ["sampled_world_wavelet"]


def sampled_world_wavelet(
    model: ProbabilisticModel,
    coefficients: int,
    *,
    rng: Optional[np.random.Generator] = None,
    values_from: str = "sample",
) -> WaveletSynopsis:
    """Wavelet synopsis whose coefficient *set* is chosen from one sampled world.

    Parameters
    ----------
    values_from:
        ``"sample"`` stores the sampled world's own coefficient values (the
        literal deterministic baseline); ``"expectation"`` stores the expected
        coefficient values for the sampled index set, which isolates the cost
        of picking the wrong coefficients.
    """
    world = model.sample_world(rng)
    sampled = haar_transform(world, normalised=True)
    keep = top_coefficient_indices(sampled, coefficients)
    if values_from == "expectation":
        source = expected_coefficients(model)
    else:
        source = sampled
    retained = {int(index): float(source[index]) for index in keep}
    return WaveletSynopsis(retained, domain_size=model.domain_size)
