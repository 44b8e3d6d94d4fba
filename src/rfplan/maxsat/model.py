"""Weighted partial Max-SAT instances.

An instance holds hard clauses (must be satisfied) and integer-weighted
soft clauses (each falsified one costs its weight).  Literals are DIMACS
style signed ints.  Normalization at build time: duplicate literals are
dropped, literals are sorted by variable, and tautological clauses are
removed; duplicate clauses are kept as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

OPTIMAL = "optimal"
HARD_UNSAT = "hard_unsat"
TIMEOUT = "timeout"


class WcnfError(ValueError):
    """Ill-formed clause, weight, WCNF file, or solver output."""


class BackendError(RuntimeError):
    """A solver backend is unavailable, failed, or returned a model that does not check."""


def _normalize_clause(lits: Iterable[int], nvars: int, what: str) -> tuple[int, ...] | None:
    """Sorted distinct literals, or None for a tautology."""
    seen: set[int] = set()
    for lit in lits:
        if isinstance(lit, bool) or not isinstance(lit, int):
            raise WcnfError(f"{what}: literal {lit!r} is not an int")
        if lit == 0:
            raise WcnfError(f"{what}: literal 0 is reserved")
        if abs(lit) > nvars:
            raise WcnfError(f"{what}: literal {lit} exceeds declared variable count {nvars}")
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=lambda l: (abs(l), l)))


@dataclass(frozen=True)
class WcnfInstance:
    nvars: int
    hard: tuple[tuple[int, ...], ...]
    soft: tuple[tuple[int, tuple[int, ...]], ...]  # (weight, literals)

    @classmethod
    def build(
        cls,
        nvars: int,
        hard: Iterable[Sequence[int]] = (),
        soft: Iterable[tuple[int, Sequence[int]]] = (),
    ) -> "WcnfInstance":
        if nvars < 0:
            raise WcnfError(f"variable count must be >= 0, got {nvars}")
        nhard = []
        for i, lits in enumerate(hard):
            norm = _normalize_clause(lits, nvars, f"hard clause {i}")
            if norm is not None:
                nhard.append(norm)
        nsoft = []
        for i, (weight, lits) in enumerate(soft):
            if isinstance(weight, bool) or not isinstance(weight, int):
                raise WcnfError(f"soft clause {i}: weight must be an int, got {weight!r}")
            if weight <= 0:
                raise WcnfError(f"soft clause {i}: weight must be positive, got {weight}")
            norm = _normalize_clause(lits, nvars, f"soft clause {i}")
            if norm is not None:
                nsoft.append((weight, norm))
        return cls(nvars=nvars, hard=tuple(nhard), soft=tuple(nsoft))

    @property
    def top(self) -> int:
        """Hard-clause weight for DIMACS output: one above the soft total."""
        return sum(w for w, _ in self.soft) + 1

    def check(self, assignment: Sequence[bool]) -> tuple[bool, int]:
        """(all hard clauses satisfied, total falsified soft weight).

        ``assignment`` is indexed by variable; slot 0 is ignored.
        """
        if len(assignment) != self.nvars + 1:
            raise WcnfError(
                f"assignment length {len(assignment)} != nvars + 1 = {self.nvars + 1}"
            )
        hard_ok = True
        for lits in self.hard:
            for l in lits:
                if assignment[l] if l > 0 else not assignment[-l]:
                    break
            else:
                hard_ok = False
                break
        cost = 0
        for w, lits in self.soft:
            for l in lits:
                if assignment[l] if l > 0 else not assignment[-l]:
                    break
            else:
                cost += w
        return hard_ok, cost


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``assignment`` is indexed by variable with slot 0 unused.  On timeout
    the best incumbent found so far is reported (or None when none was
    reached); ``hard_unsat`` means the hard clauses admit no model.
    """

    status: str
    cost: int | None
    assignment: tuple[bool, ...] | None
    nodes: int
    backend: str


def compile_instance(instance: WcnfInstance):
    """The instance in the shape ``_pure.solve_compiled`` searches.

    Returns (weights, clauses, order, polarity): clauses are the hard
    clauses' literal tuples followed by the soft ones', and weights[c] is
    clause c's weight, -1 for a hard clause.  The branching order tries
    variables by descending soft-weight involvement (ties by index); the
    preferred polarity is whichever sign carries the larger soft weight,
    False on ties.
    """
    weights = [-1] * len(instance.hard) + [w for w, _ in instance.soft]
    clauses = [*instance.hard, *(c for _, c in instance.soft)]

    nv = instance.nvars
    score = [0] * (nv + 1)
    pos_w = [0] * (nv + 1)
    neg_w = [0] * (nv + 1)
    in_clause = [False] * (nv + 1)
    for clause in instance.hard:
        for lit in clause:
            in_clause[abs(lit)] = True
    for w, clause in instance.soft:
        for lit in clause:
            v = abs(lit)
            in_clause[v] = True
            score[v] += w
            if lit > 0:
                pos_w[v] += w
            else:
                neg_w[v] += w
    order = sorted((v for v in range(1, nv + 1) if in_clause[v]), key=lambda v: (-score[v], v))
    polarity = [1 if pos_w[v] > neg_w[v] else 0 for v in range(nv + 1)]
    return weights, clauses, order, polarity
