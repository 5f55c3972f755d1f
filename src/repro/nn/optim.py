"""Adam and its cosine learning-rate schedule.

Optimizers mutate ``Parameter.data`` in place from accumulated ``.grad``
ndarrays; all state (Adam's moment buffers) is float32 and owned by
the optimizer, so a model plus its optimizer state is fully captured by
``Module.state_dict`` + ``Optimizer.state_dict``.  Both are flat
``name -> ndarray`` dicts, so one ``np.savez`` holds a complete,
bit-reproducible training snapshot (see ``repro.core.trainer``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    def __init__(self, params: Sequence[Parameter], lr: float):
        self.params = [p for p in params]
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        # The single place the lr > 0 invariant is enforced: LR schedules
        # assign ``optimizer.lr`` directly, so a schedule that decays to
        # zero (silent no-op steps) fails loudly here instead.
        if value <= 0.0:
            raise ValueError(f"non-positive learning rate {value}")
        self._lr = float(value)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def _state_items(self) -> dict[str, np.ndarray]:
        """Subclass hook: the optimizer-specific buffers, name -> ndarray."""
        return {}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``name -> ndarray`` snapshot of all mutable optimizer state.

        Buffers are *copies*, so a snapshot taken mid-training is immune
        to later ``step()`` calls; the scalar learning rate rides along
        so a schedule-adjusted lr survives resume even before the next
        scheduler step.
        """
        # lr is checkpoint metadata, not compute state: keep full precision
        # so restore round-trips the float exactly.
        state: dict[str, np.ndarray] = {
            "lr": np.float64(self._lr).reshape(())  # selfcheck: allow[SC103]
        }
        for name, buf in self._state_items().items():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a ``state_dict`` snapshot in place.

        Validates the exact key set and every buffer shape so loading a
        snapshot from a differently-shaped model (or the wrong optimizer
        class) fails loudly instead of silently corrupting training.
        """
        own = self._state_items()
        expected = {"lr"} | set(own)
        got = set(state)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise KeyError(
                f"optimizer state mismatch: missing {missing}, unexpected {extra}"
            )
        for name, buf in own.items():
            src = np.asarray(state[name])
            if src.shape != buf.shape:
                raise ValueError(
                    f"optimizer buffer {name!r}: shape {src.shape} != {buf.shape}"
                )
            np.copyto(buf, src)
        self.lr = float(np.asarray(state["lr"]))


class Adam(Optimizer):
    """Adam with bias correction and decoupled weight decay (AdamW-style)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        scale = np.float32(self.lr * math.sqrt(bias2) / bias1)
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= np.float32(self.beta1)
            m += np.float32(1.0 - self.beta1) * g
            v *= np.float32(self.beta2)
            v += np.float32(1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p.data -= np.float32(self.lr * self.weight_decay) * p.data
            p.data -= scale * m / (np.sqrt(v) + np.float32(self.eps))

    def _state_items(self) -> dict[str, np.ndarray]:
        items: dict[str, np.ndarray] = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            items[f"m.{i}"] = m
            items[f"v.{i}"] = v
        return items

    def state_dict(self) -> dict[str, np.ndarray]:
        state = super().state_dict()
        # Bias correction depends on the step count, so it is part of the
        # state even though it is a scalar, not a buffer.
        state["step_count"] = np.int64(self._step_count).reshape(())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        state = dict(state)
        if "step_count" not in state:
            raise KeyError("optimizer state mismatch: missing ['step_count']")
        step_count = int(np.asarray(state.pop("step_count")))
        if step_count < 0:
            raise ValueError(f"negative step_count {step_count}")
        super().load_state_dict(state)
        self._step_count = step_count


class CosineLR:
    """Cosine decay from the base LR to ``min_lr`` over ``total_epochs``.

    ``min_lr`` defaults to 1% of the base LR rather than 0.0: the
    optimizer's contract is ``lr > 0`` (it rejects a zero lr at
    construction), and a schedule that lands on exactly 0.0 at the final
    epoch would turn every last-epoch ``step()`` into a silent no-op.
    """

    def __init__(
        self, optimizer: Optimizer, total_epochs: int, min_lr: "float | None" = None
    ):
        if total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        if min_lr is None:
            min_lr = 0.01 * self.base_lr
        if not 0.0 < min_lr <= self.base_lr:
            raise ValueError(
                f"min_lr must be in (0, base_lr={self.base_lr}], got {min_lr}"
            )
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)
        self.epoch = 0

    def step(self) -> float:
        # Clamp at the horizon: past ``total_epochs`` the raw cosine comes
        # back *up*, so an over-long run would silently raise the lr again.
        self.epoch = min(self.epoch + 1, self.total_epochs)
        span = self.base_lr - self.min_lr
        cos = math.cos(math.pi * self.epoch / self.total_epochs)
        self.optimizer.lr = self.min_lr + 0.5 * span * (1.0 + cos)
        return self.optimizer.lr

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"epoch": np.int64(self.epoch).reshape(())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        epoch = int(np.asarray(state["epoch"]))
        if not 0 <= epoch <= self.total_epochs:
            raise ValueError(
                f"schedule epoch {epoch} outside [0, {self.total_epochs}]"
            )
        self.epoch = epoch


__all__ = ["Adam", "CosineLR", "Optimizer"]
