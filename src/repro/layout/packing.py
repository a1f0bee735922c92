"""Nibble/byte packing utilities for W4 weights.

Quantized UINT4 weights are stored one code per ``uint8`` by the quantizers for clarity, but
the kernels operate on *packed* 32-bit registers holding eight 4-bit codes each.  Two packing
orders matter:

* **sequential** — nibble ``i`` of the register holds element ``i``; this is what a naive
  bitstream packing produces and what ``ldmatrix`` implicitly assumes when it mis-scatters
  4-bit data (Section 5.2, Figure 7a);
* **interleaved** (QServe / LiquidGEMM) — elements are placed so that a single
  ``AND 0x0F0F0F0F`` yields the four elements of the first MMA in separate bytes and
  ``(AND 0xF0F0F0F0) >> 4`` yields the four elements of the second MMA (Figure 8):

  ======  ======  ======  ======  ======  ======  ======  ======
  bits    31-28   27-24   23-20   19-16   15-12   11-8    7-4     3-0
  elem    w7      w3      w6      w2      w5      w1      w4      w0
  ======  ======  ======  ======  ======  ======  ======  ======

Both packings are exact bijections; property tests assert ``unpack(pack(x)) == x``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "pack_u4_sequential",
    "unpack_u4_sequential",
    "pack_u4_interleaved",
    "unpack_u4_interleaved",
    "INTERLEAVED_NIBBLE_ORDER",
    "pack_u8_to_u32",
    "unpack_u32_to_u8",
]

#: ``INTERLEAVED_NIBBLE_ORDER[n]`` gives the element index stored in nibble ``n`` (nibble 0 is
#: bits 3..0).  Derived from Figure 8: low nibbles of the four bytes hold w0..w3 (first MMA),
#: high nibbles hold w4..w7 (second MMA).
INTERLEAVED_NIBBLE_ORDER: Tuple[int, ...] = (0, 4, 1, 5, 2, 6, 3, 7)


def _check_u4(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 15):
        raise ValueError("UINT4 codes must lie in [0, 15]")
    # One byte per code: each nibble's shift widens only its own slice to uint32.
    return values.astype(np.uint8, copy=False)


def pack_u4_sequential(values: np.ndarray) -> np.ndarray:
    """Pack UINT4 codes ``(..., 8)`` into ``uint32`` registers ``(...)`` in sequential order."""
    values = _check_u4(values)
    if values.shape[-1] != 8:
        raise ValueError("last dimension must be 8 (eight nibbles per 32-bit register)")
    out = np.zeros(values.shape[:-1], dtype=np.uint32)
    for nibble in range(8):
        out |= np.left_shift(values[..., nibble], 4 * nibble, dtype=np.uint32)
    return out


def unpack_u4_sequential(registers: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_u4_sequential`; returns UINT4 codes with a trailing axis of 8."""
    registers = np.asarray(registers, dtype=np.uint32)
    out = np.zeros(registers.shape + (8,), dtype=np.uint8)
    for nibble in range(8):
        out[..., nibble] = ((registers >> np.uint32(4 * nibble)) & np.uint32(0xF)).astype(np.uint8)
    return out


def pack_u4_interleaved(values: np.ndarray) -> np.ndarray:
    """Pack UINT4 codes ``(..., 8)`` into registers using the dual-MMA interleaved order."""
    values = _check_u4(values)
    if values.shape[-1] != 8:
        raise ValueError("last dimension must be 8 (eight nibbles per 32-bit register)")
    out = np.zeros(values.shape[:-1], dtype=np.uint32)
    for nibble, element in enumerate(INTERLEAVED_NIBBLE_ORDER):
        out |= np.left_shift(values[..., element], 4 * nibble, dtype=np.uint32)
    return out


def unpack_u4_interleaved(registers: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_u4_interleaved`."""
    registers = np.asarray(registers, dtype=np.uint32)
    out = np.zeros(registers.shape + (8,), dtype=np.uint8)
    for nibble, element in enumerate(INTERLEAVED_NIBBLE_ORDER):
        out[..., element] = ((registers >> np.uint32(4 * nibble)) & np.uint32(0xF)).astype(np.uint8)
    return out


def pack_u8_to_u32(values: np.ndarray) -> np.ndarray:
    """Pack bytes ``(..., 4)`` into ``uint32`` registers (byte 0 least significant)."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 255):
        raise ValueError("byte values must lie in [0, 255]")
    if values.shape[-1] != 4:
        raise ValueError("last dimension must be 4 (four bytes per register)")
    values = values.astype(np.uint32)
    out = np.zeros(values.shape[:-1], dtype=np.uint32)
    for byte in range(4):
        out |= values[..., byte] << np.uint32(8 * byte)
    return out


def unpack_u32_to_u8(registers: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_u8_to_u32`; returns bytes with a trailing axis of 4."""
    registers = np.asarray(registers, dtype=np.uint32)
    out = np.zeros(registers.shape + (4,), dtype=np.uint8)
    for byte in range(4):
        out[..., byte] = ((registers >> np.uint32(8 * byte)) & np.uint32(0xFF)).astype(np.uint8)
    return out
