"""Shared-memory bank-conflict model (Section 5.2).

A warp's shared-memory access is serialized into as many phases as the most accesses that
land on one bank.  The weight layouts of :mod:`repro.layout` report their conflict degree
through the two functions here: the dual-MMA packed layout's ``LDS.128`` loads are
conflict-free, while a 2-D packed layout with a 128-byte row pitch conflicts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["smem_bank_conflicts", "smem_bank_conflicts_phased"]


def smem_bank_conflicts_phased(
    base_addresses: Sequence[int],
    bytes_per_access: int = 16,
    num_banks: int = 32,
    bank_width: int = 4,
    threads_per_phase: int = 8,
) -> int:
    """Bank-conflict ways for wide (e.g. 128-bit) shared-memory accesses.

    Hardware executes an ``LDS.128`` warp access in phases of ``threads_per_phase`` threads
    (8 for 16-byte accesses), each phase moving at most 128 bytes.  Conflicts only arise
    *within* a phase, so the relevant figure is the worst per-phase conflict degree.
    ``base_addresses`` are the per-thread starting byte addresses in warp lane order.
    """
    if bytes_per_access <= 0 or bytes_per_access % bank_width != 0:
        raise ValueError("bytes_per_access must be a positive multiple of bank_width")
    worst = 0
    base_addresses = list(base_addresses)
    for start in range(0, len(base_addresses), threads_per_phase):
        phase = base_addresses[start : start + threads_per_phase]
        words: List[int] = []
        for base in phase:
            words.extend(base + bank_width * i for i in range(bytes_per_access // bank_width))
        worst = max(worst, smem_bank_conflicts(words, num_banks, bank_width))
    return worst


def smem_bank_conflicts(
    addresses: Sequence[int],
    num_banks: int = 32,
    bank_width: int = 4,
) -> int:
    """Return the maximum number of accesses mapping to the same bank within one warp.

    ``addresses`` are byte addresses issued by the 32 threads of a warp in one shared-memory
    transaction.  A result of 1 means conflict-free; ``k`` means the access is serialized into
    ``k`` phases.  Accesses to the *same* address are broadcast and do not conflict, matching
    the hardware behaviour.
    """
    if num_banks <= 0 or bank_width <= 0:
        raise ValueError("num_banks and bank_width must be positive")
    per_bank: Dict[int, set] = {}
    for addr in addresses:
        if addr < 0:
            raise ValueError("addresses must be non-negative")
        bank = (addr // bank_width) % num_banks
        per_bank.setdefault(bank, set()).add(addr // bank_width)
    if not per_bank:
        return 0
    return max(len(words) for words in per_bank.values())
