"""Metered access to hidden valuations: free rankings, counted value queries.

Algorithms receive a :class:`QueryOracle` instead of the instance itself.
The ranking is free; each (agent, good) value costs one query the first
time it is asked, and repeated queries are answered from the transcript at
no cost. An optional per-agent budget is enforced fail-fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .core import DomainError, FairDivisionError, Instance, build_ranking


class BudgetExceeded(FairDivisionError):
    """A fresh query would push an agent past her budget."""


class QueryOracle:
    """Mutable sequential resource owned by a single algorithm run.

    ``n``, ``m`` and ``rankings`` are the instance's, the rankings one tuple
    of goods per agent, best first (see :func:`build_ranking`); reading them
    costs nothing.
    """

    def __init__(self, instance: Instance, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 0:
            raise DomainError(f"budget must be >= 0, got {budget}")
        self._hidden = instance
        self.n, self.m, self.rankings = instance.n, instance.m, build_ranking(instance)
        self._budget = budget
        # In the order first asked, so the answers are also the transcript.
        self._answers: dict[tuple[int, int], Fraction] = {}
        self._counts = [0] * instance.n

    def query(self, agent: int, good: int) -> Fraction:
        """Return the hidden value, recording and charging a fresh query."""
        if not 0 <= agent < self.n:
            raise FairDivisionError(f"agent index {agent} out of range")
        if not 0 <= good < self.m:
            raise FairDivisionError(f"good index {good} out of range")
        key = (agent, good)
        if key in self._answers:
            return self._answers[key]
        if self._budget is not None and self._counts[agent] + 1 > self._budget:
            raise BudgetExceeded(
                f"agent {agent} already used {self._counts[agent]} of {self._budget} queries"
            )
        hidden = self._hidden
        value = Fraction(int(hidden.scaled_values[agent, good]), hidden.scales[agent])
        self._answers[key] = value
        self._counts[agent] += 1
        return value

    def snapshot_counts(self) -> dict[int, int]:
        return {i: c for i, c in enumerate(self._counts)}

    def transcript(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The answered queries as (agent, good, value), in the order first asked."""
        return tuple((a, g, v) for (a, g), v in self._answers.items())

    def hidden_instance(self) -> Instance:
        """The ground truth. For measurement and tests only, never for algorithms."""
        return self._hidden


def first_disagreement(instance: Instance, answers: Iterable[tuple]) -> Optional[tuple]:
    """The first (agent, good, value) answer that names no agent or good of
    the instance, or whose value is not the instance's v_agent(good); None
    when the instance agrees with every answer."""
    for agent, good, value in answers:
        if not (0 <= agent < instance.n and 0 <= good < instance.m) or (
            value.numerator * instance.scales[agent]
            != int(instance.scaled_values[agent, good]) * value.denominator
        ):
            return agent, good, value
    return None
