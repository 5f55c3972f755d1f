"""repro.nn — from-scratch numpy autograd + NN substrate.

Exactly what the TLP cost model trains and serves with: reverse-mode
autodiff over float32 ndarrays (:mod:`repro.nn.tensor`), a
parameter/module registry, the Fig. 7 layers (Linear, LayerNorm,
Dropout, residual blocks, masked multi-head self-attention), the
lambda-rank loss, Adam with a cosine LR schedule, the group-aware batch
order the trainer draws from, and the fused tape-free inference kernels
behind ``TLPModel.predict`` and ``MTLTLPModel.predict``
(:mod:`repro.nn.functional`) — the one inference path; the taped
layers serve training only.  They are also the oracle the fused kernels
are pinned bit-identical to, and every differentiable piece is pinned by
finite-difference gradient checks (``make gradcheck``).
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.data import GroupedBatchSampler
from repro.nn.functional import ScratchArena
from repro.nn.gradcheck import assert_gradients_match, max_relative_error, numerical_gradient
from repro.nn.layers import Dropout, LayerNorm, Linear, ResidualBlock
from repro.nn.losses import group_bounds, lambda_rank_loss, lambda_rank_loss_grouped
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, CosineLR, Optimizer
from repro.nn.tensor import Tensor, as_tensor, softmax

__all__ = [
    "Adam",
    "CosineLR",
    "Dropout",
    "GroupedBatchSampler",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "ResidualBlock",
    "ScratchArena",
    "Tensor",
    "as_tensor",
    "assert_gradients_match",
    "functional",
    "group_bounds",
    "lambda_rank_loss",
    "lambda_rank_loss_grouped",
    "max_relative_error",
    "numerical_gradient",
    "softmax",
]
