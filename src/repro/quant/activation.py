"""Per-token dynamic activation quantization (FP16 -> INT8), Section 6.

During serving, activations are quantized on the fly: each token (matrix row) gets its own
symmetric INT8 scale after being divided by the SmoothQuant smooth scale.  The operation is
cheap and is fused into the preceding kernel in the real system; here it is an explicit,
testable function.  It makes one float64 temporary, ``x / scale``: the row maximum of
``|x|`` comes from ``max`` and ``-min``, and rounding and clipping run in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["QuantizedActivation", "quantize_activation_per_token", "dequantize_activation"]


@dataclass
class QuantizedActivation:
    """Per-token INT8 activation tensor: codes ``(M, K)`` and per-row scales ``(M, 1)``."""

    q_i8: np.ndarray
    scale_tok: np.ndarray
    original_shape: Tuple[int, int]

    def __post_init__(self):
        if self.q_i8.min(initial=0) < -127 or self.q_i8.max(initial=0) > 127:
            raise ValueError("activation codes must fit in [-127, 127]")

    def memory_bytes(self) -> int:
        return self.q_i8.size + self.scale_tok.size * 2


def quantize_activation_per_token(
    x: np.ndarray, smooth_scale: Optional[np.ndarray] = None
) -> QuantizedActivation:
    """Symmetric per-token INT8 quantization, optionally after SmoothQuant division."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D activation tensor (M, K)")
    if smooth_scale is not None:
        smooth_scale = np.asarray(smooth_scale, dtype=np.float64)
        if smooth_scale.shape[0] != x.shape[1]:
            raise ValueError("smooth scale must have one entry per K column")
        x = x / smooth_scale[None, :]
    amax = np.maximum(x.max(axis=1, keepdims=True), -x.min(axis=1, keepdims=True))
    eps = np.finfo(np.float64).tiny
    scale = np.maximum(amax / 127.0, eps)
    q = x / scale
    np.rint(q, out=q)
    np.clip(q, -127, 127, out=q)
    return QuantizedActivation(q_i8=q.astype(np.int8), scale_tok=scale,
                               original_shape=tuple(x.shape))


def dequantize_activation(qa: QuantizedActivation) -> np.ndarray:
    """Reconstruct FP activations from per-token INT8 codes."""
    return qa.q_i8.astype(np.float64) * qa.scale_tok
