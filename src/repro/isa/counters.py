"""Instruction counters for the emulated register-level dequantization routines.

The cost model's ``alpha`` (instructions per dequantized weight element, Section 3.2/3.3)
comes directly from these counters: every emulated PTX-level operation records itself with a
category and a hardware cost, so dequantization routines can be audited instead of asserted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["InstructionStats"]


@dataclass
class InstructionStats:
    """Accumulates emulated instruction issue counts."""

    events: Counter = field(default_factory=Counter)
    issue_slots_by_unit: Counter = field(default_factory=Counter)
    total_issue_slots: int = 0

    def record(self, opcode: str, issue_slots: int = 1, unit: str = "alu", count: int = 1) -> None:
        """Record ``count`` executions of ``opcode``, each taking ``issue_slots`` slots on
        ``unit`` ("alu" is the INT32 CUDA cores; an emulated pseudo-instruction such as
        Hopper's ``vadd4`` takes more than one)."""
        if issue_slots < 0 or count < 0:
            raise ValueError("issue_slots and count must be non-negative")
        self.events[opcode] += count
        self.issue_slots_by_unit[unit] += issue_slots * count
        self.total_issue_slots += issue_slots * count

    def count(self, opcode: str) -> int:
        """Number of times ``opcode`` was recorded."""
        return self.events.get(opcode, 0)

    @property
    def total_instructions(self) -> int:
        return sum(self.events.values())

    def alu_issue_slots(self) -> int:
        return self.issue_slots_by_unit.get("alu", 0)

    def per_element(self, num_elements: int) -> float:
        """Issue slots per processed element — the paper's ``alpha``."""
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        return self.alu_issue_slots() / num_elements

    def merged(self, other: "InstructionStats") -> "InstructionStats":
        out = InstructionStats()
        out.events = self.events + other.events
        out.issue_slots_by_unit = self.issue_slots_by_unit + other.issue_slots_by_unit
        out.total_issue_slots = self.total_issue_slots + other.total_issue_slots
        return out

    def reset(self) -> None:
        self.events.clear()
        self.issue_slots_by_unit.clear()
        self.total_issue_slots = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.events)

    def summary(self) -> str:
        lines = [f"total instructions: {self.total_instructions}",
                 f"total issue slots:  {self.total_issue_slots}"]
        for opcode, n in sorted(self.events.items()):
            lines.append(f"  {opcode:12s} x {n}")
        return "\n".join(lines)
