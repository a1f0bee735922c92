"""LiquidQuant (LQQ): the paper's hardware-efficient two-level W4A8 weight quantization.

Pipeline (Section 4):

1. **First level (offline, per output channel).**  FP16 weights are quantized symmetrically to
   INT8 with the *protective* range ``[-119, 119]`` so the second-level scale can never push a
   reconstructed value outside INT8 (same protective range as QServe).
2. **Second level (offline, per group).**  Instead of quantizing INT8 directly to UINT4 with a
   zero point (QServe), LQQ first *shifts* each group into the unsigned domain
   (``Q_u8 = Q_i8 - min(Q_i8)``) and then quantizes to UINT4 with an integer scale
   ``s_u8 = round(max(Q_u8) / 15) <= 16`` (Equation 7).
3. **Dequantization (online, per 4 packed elements).**  Equation 12:

       Q_i8_hat = (Q_u4 * s_u8 + a) XOR 0x80,     a = 128 + min(Q_i8)

   executed as a single ``IMAD`` plus a single ``XOR`` on packed 32-bit registers; the proof in
   Section 4 (reproduced as runtime invariants here) guarantees every intermediate stays inside
   UINT8, so byte-wise arithmetic inside a 32-bit register never produces cross-byte carries.

The classes below keep the offline parameters (`LqqQuantizedWeight`) and provide both a plain
NumPy reference dequantization and the register-level emulated path (in
:mod:`repro.dequant.lqq`) that counts the actual hardware instructions.

The offline path leaves floating point right after first-level rounding.  `lqq_quantize`
works in row blocks, so its one float64 temporary (``w / scale_ch``) stays near 512 KiB
whatever the weight's size.  The second level shifts in int16 and rounds ``Q_u8 / s_u8``
through :data:`SECOND_LEVEL_CODES`, a 17x256 table evaluated once by ``np.round``.  Every
code, scale and offset is bit-identical to the float64 formulas of Equation 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .base import (
    INT8_RANGE,
    UINT4_RANGE,
    UINT8_RANGE,
    group_reshape,
    group_unreshape,
    quantization_error,
)

__all__ = [
    "LqqConfig",
    "LqqQuantizedWeight",
    "first_level_quantize",
    "second_level_quantize",
    "lqq_quantize",
    "lqq_dequantize_int8",
    "lqq_dequantize_fp",
    "lqq_dequantize_int8_reference",
    "MAX_SECOND_LEVEL_SCALE",
    "SECOND_LEVEL_CODES",
]

#: Upper bound on the second-level scale proven in Section 4: round(238 / 15) = 16.
MAX_SECOND_LEVEL_SCALE = 16

#: ``SECOND_LEVEL_CODES[s_u8, q_u8] = clip(round(q_u8 / s_u8), 0, 15)`` for every scale in
#: [1, 16] and every shifted code in [0, 255]; row 0 is never read.  Equation 7's rounding
#: is evaluated once, by ``np.round`` in float64, so a lookup rounds exactly as that
#: formula does, ties to even included.
SECOND_LEVEL_CODES = np.zeros((MAX_SECOND_LEVEL_SCALE + 1, 256), dtype=np.uint8)
SECOND_LEVEL_CODES[1:] = np.clip(
    np.round(np.arange(256) / np.arange(1, MAX_SECOND_LEVEL_SCALE + 1)[:, None]),
    0, UINT4_RANGE.hi,
)
SECOND_LEVEL_CODES.flags.writeable = False

#: Weight elements quantized per row block by `lqq_quantize`: 512 KiB of float64, small
#: enough to stay in cache.  2 MiB blocks ran 1.7x slower on a 64 x 4,096 weight, their
#: temporaries page-faulting afresh on every call.
_ROW_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class LqqConfig:
    """Configuration of the LQQ two-level scheme.

    ``group_size`` is the number of contiguous elements along K sharing one second-level scale
    (the paper's default is 64).  ``protective_bound`` is the first-level clamp (119).
    """

    group_size: int = 64
    protective_bound: int = 119

    def __post_init__(self):
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not 1 <= self.protective_bound <= 127:
            raise ValueError("protective_bound must be in [1, 127]")


@dataclass
class LqqQuantizedWeight:
    """Offline-quantized weight tensor in LQQ format.

    Attributes
    ----------
    q_u4:
        ``(N, K)`` UINT4 codes (stored one code per ``uint8`` for clarity; packing into the
        dual-MMA register layout is done by :mod:`repro.layout`).
    scale_u8:
        ``(N, num_groups)`` second-level integer scales ``s_u8`` (1..16).
    offset_a:
        ``(N, num_groups)`` precomputed ``a = 128 + min(Q_i8)`` offsets, stored as ``uint8``.
    min_i8:
        ``(N, num_groups)`` first-level group minima (``int16``), kept for the reference path.
    scale_ch:
        ``(N, 1)`` first-level per-channel FP scales.
    config:
        The :class:`LqqConfig` used.
    original_shape:
        ``(N, K)`` of the source tensor.
    """

    q_u4: np.ndarray
    scale_u8: np.ndarray
    offset_a: np.ndarray
    min_i8: np.ndarray
    scale_ch: np.ndarray
    config: LqqConfig
    original_shape: Tuple[int, int]

    def __post_init__(self):
        if not UINT4_RANGE.contains(self.q_u4):
            raise ValueError("q_u4 codes out of UINT4 range")
        if np.any(self.scale_u8 < 1) or np.any(self.scale_u8 > MAX_SECOND_LEVEL_SCALE):
            raise ValueError("second-level scales must lie in [1, 16]")
        if not UINT8_RANGE.contains(self.offset_a):
            raise ValueError("offset a must fit in UINT8")

    @property
    def n(self) -> int:
        return self.original_shape[0]

    @property
    def k(self) -> int:
        return self.original_shape[1]

    @property
    def num_groups(self) -> int:
        return self.k // self.config.group_size

    def memory_bytes(self) -> int:
        """Bytes required to store this tensor in deployed form (4-bit codes + metadata)."""
        code_bytes = (self.q_u4.size + 1) // 2
        meta_bytes = self.scale_u8.size + self.offset_a.size  # one byte each
        ch_scale_bytes = self.scale_ch.size * 2  # FP16 per-channel scales
        return code_bytes + meta_bytes + ch_scale_bytes


def first_level_quantize(
    w: np.ndarray, protective_bound: int = 119
) -> Tuple[np.ndarray, np.ndarray]:
    """First-level symmetric per-channel quantization FP -> protective INT8.

    Returns ``(q_i8, scale_ch)`` with ``q_i8`` in ``[-protective_bound, protective_bound]`` and
    ``scale_ch`` of shape ``(N, 1)``.  The only float64 temporary is ``w / scale_ch``: the
    row maximum of ``|w|`` comes from ``max`` and ``-min``, and rounding and clipping run in
    place before the cast to int16.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight tensor (N, K)")
    amax = np.maximum(w.max(axis=1, keepdims=True), -w.min(axis=1, keepdims=True))
    eps = np.finfo(np.float64).tiny
    scale_ch = np.maximum(amax / protective_bound, eps)
    q = w / scale_ch
    np.rint(q, out=q)
    np.clip(q, -protective_bound, protective_bound, out=q)
    return q.astype(np.int16), scale_ch


def second_level_quantize(
    q_i8: np.ndarray, group_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Second-level LQQ quantization INT8 -> UINT4 via the unsigned shift (Equation 7).

    ``q_i8`` holds first-level codes, which must lie in INT8.  Returns
    ``(q_u4, scale_u8, offset_a, min_i8)`` where all group-level arrays have shape
    ``(N, num_groups)``.  Only group-sized arrays leave the integers: the shift runs in
    int16 and each code is looked up in :data:`SECOND_LEVEL_CODES`.
    """
    grouped = group_reshape(np.asarray(q_i8), group_size)       # (N, G, group)
    min_i8 = grouped.min(axis=2)                                # (N, G)
    max_i8 = grouped.max(axis=2)
    if min_i8.size and (min_i8.min() < INT8_RANGE.lo or max_i8.max() > INT8_RANGE.hi):
        raise ValueError("first-level codes must lie in INT8 [-128, 127]")
    min_i8 = min_i8.astype(np.int16)
    # Integer second-level scale, rounded to nearest as in the paper, clamped to [1, 16].
    scale_u8 = np.clip(
        np.round((max_i8 - min_i8) / UINT4_RANGE.hi), 1, MAX_SECOND_LEVEL_SCALE
    ).astype(np.int32)
    # round(Q_u8 / s_u8) is the table entry at the flat index 256 * s_u8 + Q_u8, which is
    # Q_i8 - (min - 256 * s_u8): the unsigned shift and the row offset in one int16
    # subtraction (INT8 codes keep the index within [256, 4,351]).
    index = grouped - (min_i8 - (scale_u8 << 8)).astype(np.int16)[:, :, None]
    q_u4 = SECOND_LEVEL_CODES.reshape(-1).take(index)
    # a = 2^7 + min(Q_i8): an INT8 minimum puts it in [0, 255] (in [9, 247] under the
    # protective range).
    offset_a = (128 + min_i8).astype(np.uint8)
    return group_unreshape(q_u4), scale_u8, offset_a, min_i8


def lqq_quantize(w: np.ndarray, config: Optional[LqqConfig] = None) -> LqqQuantizedWeight:
    """Quantize an FP weight matrix ``(N, K)`` with the full two-level LQQ scheme.

    Both levels are per row, so they run over row blocks of about
    ``_ROW_BLOCK_ELEMENTS`` elements: no temporary grows with the weight.  Only the
    outputs do, one byte per code.
    """
    config = config or LqqConfig()
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight tensor (N, K)")
    n, k = w.shape
    if k % config.group_size != 0:
        raise ValueError(f"K={k} must be divisible by group_size={config.group_size}")
    groups = k // config.group_size
    q_u4 = np.empty((n, k), dtype=np.uint8)
    scale_u8 = np.empty((n, groups), dtype=np.int32)
    offset_a = np.empty((n, groups), dtype=np.uint8)
    min_i8 = np.empty((n, groups), dtype=np.int16)
    scale_ch = np.empty((n, 1), dtype=np.float64)
    step = max(1, _ROW_BLOCK_ELEMENTS // max(k, 1))
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        q_i8, scale_ch[rows] = first_level_quantize(w[rows], config.protective_bound)
        q_u4[rows], scale_u8[rows], offset_a[rows], min_i8[rows] = second_level_quantize(
            q_i8, config.group_size
        )
    return LqqQuantizedWeight(
        q_u4=q_u4,
        scale_u8=scale_u8,
        offset_a=offset_a,
        min_i8=min_i8,
        scale_ch=scale_ch,
        config=config,
        original_shape=(n, k),
    )


def lqq_dequantize_int8_reference(qw: LqqQuantizedWeight) -> np.ndarray:
    """Reference (Equation 8) second-level dequantization: ``Q_u4 * s_u8 + min(Q_i8)``.

    Pure integer math with explicit widening; used as the ground truth against which the
    hardware-style Equation-12 path and the emulated register path are checked.
    """
    g = qw.config.group_size
    scale = np.repeat(qw.scale_u8.astype(np.int32), g, axis=1)
    minimum = np.repeat(qw.min_i8.astype(np.int32), g, axis=1)
    q_i8_hat = qw.q_u4.astype(np.int32) * scale + minimum
    if q_i8_hat.min() < -128 or q_i8_hat.max() > 127:
        raise AssertionError("reference dequantization escaped INT8 — protective range violated")
    return q_i8_hat.astype(np.int8)


def lqq_dequantize_int8(qw: LqqQuantizedWeight, check_overflow: bool = True) -> np.ndarray:
    """Hardware-form second-level dequantization (Equation 12) in the UINT8 domain.

    Computes ``(Q_u4 * s_u8 + a) XOR 0x80`` in UINT8 arithmetic, as the packed-register
    IMAD does, and reinterprets the result as INT8.  With ``check_overflow`` the Section-4
    invariants are asserted at runtime (they can be disabled for speed once trusted).
    """
    codes = group_reshape(qw.q_u4, qw.config.group_size)    # (N, G, group)
    # The group-sized operands are checked in int64, which no tampered value can wrap.
    scale = qw.scale_u8.astype(np.int64)[:, :, None]
    offset = qw.offset_a.astype(np.int64)[:, :, None]
    if check_overflow and codes.size:
        # The largest code times each group's scale bounds every product, which settles
        # valid parameters without a pass over the codes in a wider dtype.
        top = int(codes.max()) * scale
        if not (codes.min() >= 0 and scale.min() >= 0 and offset.min() >= 0
                and top.max() <= 240 and (top + offset).max() <= 255):
            product = codes.astype(np.int64) * scale
            if product.min() < 0 or product.max() > 240:
                raise AssertionError("Q_u4 * s_u8 exceeded 240 — Section 4 bound violated")
            shifted = product + offset
            if shifted.min() < 0 or shifted.max() > 255:
                raise AssertionError(
                    "Q_u4 * s_u8 + a exceeded UINT8 — Equation 11 bound violated"
                )
    # Past the checks every value fits a byte; unchecked, each wraps modulo 256, as a
    # byte lane of the packed register would.
    out = codes.astype(np.uint8, copy=False) * scale.astype(np.uint8)
    out += offset.astype(np.uint8)
    out ^= np.uint8(0x80)
    return group_unreshape(out).view(np.int8)


def lqq_dequantize_fp(qw: LqqQuantizedWeight) -> np.ndarray:
    """Full dequantization back to floating point: Equation 12 followed by the first-level
    per-channel scale (applied in the GEMM epilogue in the real kernel)."""
    q_i8 = lqq_dequantize_int8(qw).astype(np.float64)
    return q_i8 * qw.scale_ch


def lqq_roundtrip_error(w: np.ndarray, config: Optional[LqqConfig] = None) -> dict:
    """Convenience: quantize ``w`` with LQQ and report reconstruction error metrics."""
    qw = lqq_quantize(w, config)
    return quantization_error(w, lqq_dequantize_fp(qw))
