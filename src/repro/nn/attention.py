"""Multi-head self-attention with padding-mask support.

The Fig. 7 backbone's sequence mixer: scaled dot-product attention over
the primitive-sequence axis.  The padding mask is the float ``[N, L]``
array ``TLPFeaturizer.transform`` returns alongside ``X`` — 1.0 on real
primitive rows, 0.0 on padding — applied additively (−1e9 on masked
keys) before the softmax, so padded positions receive zero attention
weight from every query.

The mask → additive-bias conversion has one home,
:func:`repro.nn.functional.additive_mask_bias`, which this layer calls
once per forward and the tape-free ``TLPModel.predict`` plan calls once
per batch.  Nothing is cached between calls, so a mask buffer refilled
in place always yields the bias of its current contents.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import additive_mask_bias
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, softmax
from repro.utils.rng import stream


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention, ``n_heads`` parallel heads."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator | None = None):
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} is not divisible by n_heads {n_heads}")
        if rng is None:
            rng = stream(f"nn.init.attention.{dim}x{n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def _heads(self, x: Tensor, n: int, length: int) -> Tensor:
        """``[N, L, D] -> [N, heads, L, head_dim]``."""
        return x.reshape(n, length, self.n_heads, self.head_dim).transpose((0, 2, 1, 3))

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        n, length, _ = x.shape
        q = self._heads(self.q_proj(x), n, length)
        k = self._heads(self.k_proj(x), n, length)
        v = self._heads(self.v_proj(x), n, length)
        scores = (q @ k.transpose((0, 1, 3, 2))) * np.float32(1.0 / math.sqrt(self.head_dim))
        if mask is not None:
            scores = scores + additive_mask_bias(mask)
        attn = softmax(scores, axis=-1)
        mixed = (attn @ v).transpose((0, 2, 1, 3)).reshape(n, length, self.dim)
        return self.out_proj(mixed)


__all__ = ["MultiHeadSelfAttention"]
