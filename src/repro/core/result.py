"""Result containers: invariants, witnesses, verdicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping

from ..smt import IntVar, LinExpr, Term, eq

__all__ = ["Invariant", "DeadlockWitness", "Verdict", "VerificationResult"]

Color = Hashable


class Invariant:
    """A linear invariant  Σ coeffᵢ·varᵢ + constant = 0  over reachable states.

    Variables are the pool's ``#q.d`` occupancies and ``A.s`` indicators.
    Pretty-printing follows the paper's convention of isolating the constant
    and negative terms on the left-hand side, e.g.::

        1 = q0.req + q1.ack + S.s0 - T.t1
    """

    def __init__(self, coeffs: Mapping[IntVar, int | Fraction], constant: int | Fraction):
        items = sorted(
            ((v, Fraction(c)) for v, c in coeffs.items() if c),
            key=lambda item: item[0].name,
        )
        self.coeffs: tuple[tuple[IntVar, Fraction], ...] = tuple(items)
        self.constant = Fraction(constant)

    def term(self) -> Term:
        """The invariant as an SMT equality, its row scaled to integers."""
        scale = lcm(self.constant.denominator, *(c.denominator for _, c in self.coeffs))
        row = LinExpr(
            {v: c.numerator * (scale // c.denominator) for v, c in self.coeffs},
            self.constant.numerator * (scale // self.constant.denominator),
        )
        return eq(row, 0)

    def evaluate(self, assignment: Mapping[IntVar, int]) -> bool:
        total = sum((c * assignment.get(v, 0) for v, c in self.coeffs), Fraction(0))
        return total + self.constant == 0

    def variables(self) -> list[IntVar]:
        return [v for v, _ in self.coeffs]

    def pretty(self) -> str:
        positives = [(v, abs(c)) for v, c in self.coeffs if c > 0]
        negatives = [(v, abs(c)) for v, c in self.coeffs if c < 0]

        def render(terms, const):
            parts = []
            if const:
                parts.append(str(const))
            parts.extend(
                v.name if c == 1 else f"{c}*{v.name}" for v, c in terms
            )
            return " + ".join(parts) if parts else "0"

        # Move negatives and the constant so both sides are nonnegative sums:
        # Σ pos + const = Σ neg      (const kept on the lighter side)
        if self.constant <= 0:
            return f"{render(positives, 0)} = {render(negatives, -self.constant)}"
        return f"{render(positives, self.constant)} = {render(negatives, 0)}"

    def __repr__(self) -> str:
        return f"Invariant({self.pretty()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Invariant):
            return NotImplemented
        return self.coeffs == other.coeffs and self.constant == other.constant

    def __hash__(self) -> int:
        return hash((self.coeffs, self.constant))


@dataclass
class DeadlockWitness:
    """A (possibly unreachable) deadlock configuration from the SMT model."""

    automaton_states: dict[str, str]
    queue_contents: dict[str, dict[Color, int]]
    blocked_channels: list[str]

    def pretty(self) -> str:
        lines = ["deadlock candidate:"]
        for automaton, state in sorted(self.automaton_states.items()):
            lines.append(f"  {automaton} in state {state}")
        for queue, contents in sorted(self.queue_contents.items()):
            if contents:
                inside = ", ".join(
                    f"{count}x {color}" for color, count in sorted(
                        contents.items(), key=lambda item: str(item[0])
                    )
                )
                lines.append(f"  {queue}: [{inside}]")
        if self.blocked_channels:
            lines.append("  permanently blocked: " + ", ".join(self.blocked_channels))
        return "\n".join(lines)


class Verdict(enum.Enum):
    DEADLOCK_FREE = "deadlock-free"
    DEADLOCK_CANDIDATE = "deadlock-candidate"
    # The run budget (wall clock or conflicts) expired before the solver
    # decided; learning up to the cutoff is retained in the session.
    TIMEOUT = "timeout"


@dataclass
class VerificationResult:
    """Outcome of a full ADVOCAT run."""

    verdict: Verdict
    witness: DeadlockWitness | None = None
    invariants: list[Invariant] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # On DEADLOCK_FREE: the labels of the assumed guards responsible for
    # UNSAT (deadlock-case labels, "cap[q==k]" capacity pins).  An empty
    # list means the encoding is infeasible regardless of the assumptions
    # (stats["formula_unsat"] is then True); None on SAT results.
    unsat_core: list[str] | None = None

    @property
    def deadlock_free(self) -> bool:
        return self.verdict is Verdict.DEADLOCK_FREE

    @property
    def timed_out(self) -> bool:
        return self.verdict is Verdict.TIMEOUT

    def pretty(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        if self.invariants:
            lines.append(f"invariants: {len(self.invariants)}")
        if self.unsat_core:
            lines.append("unsat core: " + ", ".join(self.unsat_core))
        if self.witness is not None:
            lines.append(self.witness.pretty())
        return "\n".join(lines)
