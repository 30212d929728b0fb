"""A reverse-mode automatic differentiation engine over numpy arrays.

This package substitutes for the GPU deep-learning framework the paper's
authors used.  It provides exactly what the sixteen baselines and the
gradient cross-checks need: a :class:`Tensor` with a dynamic tape,
differentiable ops (matmul, elementwise math, reductions, embedding
gather/scatter), neural functionals, initialisers and the Adam
optimiser.
"""

from repro.autograd import functional
from repro.autograd.init import normal_, xavier_uniform
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor

__all__ = [
    "Tensor",
    "functional",
    "Adam",
    "normal_",
    "xavier_uniform",
]
