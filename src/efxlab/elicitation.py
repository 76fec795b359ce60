"""Metered access to hidden valuations: free rankings, counted value queries.

Algorithms receive a :class:`QueryOracle`, which holds no instance: the
ranking is free, and each (agent, good) value costs one query, answered by
one callable, the first time it is asked; repeats are answered from the
transcript at no cost. An optional per-agent budget is enforced fail-fast.
:meth:`QueryOracle.replay` rebuilds a finished run's view from its transcript.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import DomainError, FairDivisionError, Instance, build_ranking


class BudgetExceeded(FairDivisionError):
    """A fresh query would push an agent past her budget."""


class InconsistentTranscript(FairDivisionError):
    """Transcript answers disagree with the values, or a replay asks past them."""


class QueryOracle:
    """Mutable sequential resource owned by a single algorithm run.

    ``n``, ``m`` and ``rankings`` are the instance's (or the replayed run's),
    the rankings one tuple of goods per agent, best first (see
    :func:`build_ranking`); reading them costs nothing.
    """

    def __init__(self, instance: Instance, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 0:
            raise DomainError(f"budget must be >= 0, got {budget}")
        v, s = instance.scaled_values, instance.scales
        self._open(build_ranking(instance), lambda a, g: Fraction(int(v[a, g]), s[a]), budget)

    @classmethod
    def replay(cls, rankings: Sequence[Sequence[int]], transcript: Iterable[tuple]) -> QueryOracle:
        """A finished run's view: its ``rankings``, and answers only from its
        ``transcript`` of (agent, good, value), or :class:`InconsistentTranscript`."""
        answers = {(agent, good): value for agent, good, value in transcript}

        def answer(agent: int, good: int) -> Fraction:
            if (agent, good) not in answers:
                raise InconsistentTranscript(f"v_{agent}(g{good}) is not in the transcript")
            return answers[agent, good]

        return cls.__new__(cls)._open(rankings, answer)

    def _open(self, rankings, answer: Callable[[int, int], Fraction], budget=None) -> QueryOracle:
        self.n, self.m, self.rankings = len(rankings), len(rankings[0]), rankings
        self._answer, self._budget, self._counts = answer, budget, [0] * self.n
        # In the order first asked, so the answers are also the transcript.
        self._answers: dict[tuple[int, int], Fraction] = {}
        return self

    def query(self, agent: int, good: int) -> Fraction:
        """Return the hidden value, recording and charging a fresh query."""
        if type(agent) is not int or not 0 <= agent < self.n:
            raise FairDivisionError(f"agent index {agent} out of range")
        if type(good) is not int or not 0 <= good < self.m:
            raise FairDivisionError(f"good index {good} out of range")
        key = (agent, good)
        if key in self._answers:
            return self._answers[key]
        if self._budget is not None and self._counts[agent] + 1 > self._budget:
            raise BudgetExceeded(
                f"agent {agent} already used {self._counts[agent]} of {self._budget} queries"
            )
        value = self._answer(agent, good)
        self._answers[key] = value
        self._counts[agent] += 1
        return value

    def snapshot_counts(self) -> dict[int, int]:
        return {i: c for i, c in enumerate(self._counts)}

    def transcript(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The answered queries as (agent, good, value), in the order first asked."""
        return tuple((a, g, v) for (a, g), v in self._answers.items())


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
