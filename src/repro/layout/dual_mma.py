"""Dual-MMA packed layout (Section 5.2, Figure 7b).

The layout exploits the gap between what one ``LDS.128`` transaction moves (16 bytes = 32
UINT4 elements) and what one MMA needs per thread (16 UINT4 elements): the elements a thread
needs for **two consecutive MMAs** are reordered offline so they sit contiguously in shared
memory, in a flat 1-D order indexed by ``(warp, thread)``.  Consequences reproduced here:

* one ``LDS.128`` per thread per dual-MMA instead of eight ``LDS.32`` (8x fewer load
  instructions, no wasted bytes);
* consecutive threads read consecutive 16-byte chunks, so a warp's access covers each of the
  32 SMEM banks exactly once — bank-conflict free by construction, with no swizzling;
* the same flat order is used in global memory, so TMA / ``LDG.128`` transfers are fully
  coalesced and the reordering costs nothing at run time (it is applied offline).

The functions below implement the offline reordering (a pure permutation — verified bijective
by tests), the per-thread register view used by the emulated dequantization, and the
load-analysis counterpart to :func:`repro.layout.conventional.analyze_conventional_loads`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..gpu.memory import smem_bank_conflicts_phased
from .conventional import LoadAnalysis
from .fragment import (
    FRAGMENT_COLS,
    FRAGMENT_ROWS,
    THREADS_PER_WARP,
    WARPS_PER_WARP_GROUP,
    thread_fragment_elements,
)
from .packing import pack_u4_interleaved, unpack_u4_interleaved

__all__ = [
    "DUAL_MMA_TILE_ROWS",
    "DUAL_MMA_TILE_COLS",
    "ELEMENTS_PER_THREAD_DUAL",
    "PackedDualMmaTile",
    "dual_mma_element_order",
    "dual_mma_index_table",
    "pack_dual_mma_tile",
    "unpack_dual_mma_tile",
    "thread_registers",
    "analyze_dual_mma_loads",
    "analyze_packed_2d_lds128",
    "pack_weight_matrix",
    "PackedWeightMatrix",
]

DUAL_MMA_TILE_ROWS = FRAGMENT_ROWS            # 64 rows (N)
DUAL_MMA_TILE_COLS = 2 * FRAGMENT_COLS        # 64 columns (K) = two k32 MMAs
ELEMENTS_PER_THREAD_DUAL = 32                 # 16 per MMA x 2 MMAs
_REGISTERS_PER_THREAD = ELEMENTS_PER_THREAD_DUAL // 8
_TOTAL_THREADS = WARPS_PER_WARP_GROUP * THREADS_PER_WARP


def dual_mma_element_order(warp: int, thread: int) -> List[Tuple[int, int]]:
    """The 32 (row, col) elements of a 64x64 dual-MMA tile owned by ``(warp, thread)``.

    The first 16 belong to MMA1 (columns 0-31), the second 16 to MMA2 (columns 32-63).
    """
    first = thread_fragment_elements(warp, thread)
    second = [(row, col + FRAGMENT_COLS) for row, col in thread_fragment_elements(warp, thread)]
    return first + second


@functools.lru_cache(maxsize=1)
def dual_mma_index_table() -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(rows, cols)`` index arrays of shape ``(128, 4, 8)`` for a dual-MMA tile.

    Entry ``[lane, register, element]`` is the tile position of element ``element`` of packed
    register ``register`` of lane ``warp * 32 + thread``: the :func:`dual_mma_element_order`
    of every lane, eight elements per register.  Built on first use.
    """
    lanes = [divmod(lane, THREADS_PER_WARP) for lane in range(_TOTAL_THREADS)]
    order = np.array([dual_mma_element_order(warp, thread) for warp, thread in lanes])
    order = order.reshape(_TOTAL_THREADS, _REGISTERS_PER_THREAD, 8, 2)
    order.flags.writeable = False
    return order[..., 0], order[..., 1]


@dataclass
class PackedDualMmaTile:
    """One 64x64 UINT4 tile in the flat dual-MMA packed order.

    ``words`` is a ``(128, 4)`` uint32 array: four packed registers per thread, ordered by
    lane id — i.e. exactly the bytes as they sit in shared memory, 16 bytes per thread.
    """

    words: np.ndarray
    rows: int = DUAL_MMA_TILE_ROWS
    cols: int = DUAL_MMA_TILE_COLS

    def __post_init__(self):
        if self.words.shape != (_TOTAL_THREADS, _REGISTERS_PER_THREAD):
            raise ValueError(
                f"expected words of shape {(_TOTAL_THREADS, _REGISTERS_PER_THREAD)}, "
                f"got {self.words.shape}"
            )

    def smem_bytes(self) -> int:
        return self.words.size * 4


def pack_dual_mma_tile(tile_u4: np.ndarray) -> PackedDualMmaTile:
    """Reorder and pack a (64, 64) UINT4 tile into the flat dual-MMA layout."""
    tile_u4 = np.asarray(tile_u4)
    if tile_u4.shape != (DUAL_MMA_TILE_ROWS, DUAL_MMA_TILE_COLS):
        raise ValueError(f"expected a {(DUAL_MMA_TILE_ROWS, DUAL_MMA_TILE_COLS)} tile")
    return pack_weight_matrix(tile_u4).tiles[0][0]


def unpack_dual_mma_tile(packed: PackedDualMmaTile) -> np.ndarray:
    """Invert :func:`pack_dual_mma_tile`, reconstructing the (64, 64) UINT4 tile."""
    rows, cols = dual_mma_index_table()
    tile = np.zeros((packed.rows, packed.cols), dtype=np.uint8)
    tile[rows, cols] = unpack_u4_interleaved(packed.words)
    return tile


def thread_registers(packed: PackedDualMmaTile, warp: int, thread: int) -> np.ndarray:
    """The four packed 32-bit registers a thread receives from its single LDS.128."""
    lane = warp * THREADS_PER_WARP + thread
    return packed.words[lane].copy()


def analyze_dual_mma_loads() -> LoadAnalysis:
    """Load analysis for the flat 1-D dual-MMA layout accessed with LDS.128."""
    # Per-thread base byte addresses: lane i reads bytes [16*i, 16*i+16).  LDS.128 is executed
    # in quarter-warp phases, each covering the 32 banks exactly once -> conflict-free.
    bases = [16 * thread for thread in range(THREADS_PER_WARP)]
    conflicts = smem_bank_conflicts_phased(bases, bytes_per_access=16)
    return LoadAnalysis(
        layout="dual-mma-1d",
        instruction="LDS.128",
        loads_per_thread=1,
        bytes_loaded_per_thread=16,
        bytes_used_per_thread=16,
        address_ops_per_thread=1,
        max_bank_conflict_ways=conflicts,
    )


def analyze_packed_2d_lds128(row_pitch_bytes: int = 128) -> LoadAnalysis:
    """Load analysis for a QServe-style *2-D* packed layout accessed with LDS.128.

    Each thread still owns 16 contiguous bytes, but threads' chunks are addressed through a
    2-D (row, column) index with ``row_pitch_bytes`` between rows.  With the pitch a multiple
    of 128 bytes (the full bank width), threads in the same quarter-warp phase that touch
    different rows at the same column offset land on the same banks and conflict — the classic
    problem swizzling exists to solve, and which the paper's 1-D arrangement avoids entirely.
    """
    bases = []
    for thread in range(THREADS_PER_WARP):
        row = thread // 4
        col_chunk = thread % 4
        bases.append(row * row_pitch_bytes + col_chunk * 16)
    conflicts = smem_bank_conflicts_phased(bases, bytes_per_access=16)
    return LoadAnalysis(
        layout="packed-2d",
        instruction="LDS.128",
        loads_per_thread=1,
        bytes_loaded_per_thread=16,
        bytes_used_per_thread=16,
        address_ops_per_thread=2,  # row/column address arithmetic
        max_bank_conflict_ways=conflicts,
    )


@dataclass
class PackedWeightMatrix:
    """A full (N, K) UINT4 weight matrix packed tile-by-tile into the dual-MMA layout.

    ``tiles[i][j]`` is the packed 64x64 tile covering rows ``[64i, 64i+64)`` and columns
    ``[64j, 64j+64)``.  Ragged edges are zero-padded (zero UINT4 codes dequantize to the group
    minimum, which contributes nothing once multiplied by zero-padded activations).
    """

    tiles: List[List[PackedDualMmaTile]]
    n: int
    k: int

    @property
    def tile_grid(self) -> Tuple[int, int]:
        return len(self.tiles), len(self.tiles[0]) if self.tiles else 0

    def gmem_bytes(self) -> int:
        return sum(t.smem_bytes() for row in self.tiles for t in row)


def pack_weight_matrix(q_u4: np.ndarray) -> PackedWeightMatrix:
    """Pack an (N, K) UINT4 code matrix into dual-MMA tiles (offline weight reordering)."""
    q_u4 = np.asarray(q_u4)
    if q_u4.ndim != 2:
        raise ValueError("expected a 2-D code matrix")
    n, k = q_u4.shape
    grid_rows, grid_cols = -(-n // DUAL_MMA_TILE_ROWS), -(-k // DUAL_MMA_TILE_COLS)
    padded = np.pad(q_u4, ((0, -n % DUAL_MMA_TILE_ROWS), (0, -k % DUAL_MMA_TILE_COLS)))
    grid = padded.reshape(grid_rows, DUAL_MMA_TILE_ROWS, grid_cols, DUAL_MMA_TILE_COLS)
    rows, cols = dual_mma_index_table()
    # One gather reorders every tile of the (grid_rows, grid_cols, 64, 64) view; eight
    # elements per register, packed in the interleaved nibble order so the two-instruction
    # unpack (AND / AND+SHR) of Figure 8 separates them into bytes.
    words = pack_u4_interleaved(grid.swapaxes(1, 2)[..., rows, cols])
    tiles = [[PackedDualMmaTile(words=tile_words) for tile_words in row] for row in words]
    return PackedWeightMatrix(tiles=tiles, n=n, k=k)
