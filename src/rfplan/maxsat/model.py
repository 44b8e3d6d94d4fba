"""Weighted partial Max-SAT instances.

An instance holds hard clauses (must be satisfied) and integer-weighted
soft clauses (each falsified one costs its weight).  Literals are DIMACS
style signed ints.  Normalization at build time: duplicate literals are
dropped, literals are sorted by variable, and tautological clauses are
removed; duplicate clauses are kept as given.

``WcnfInstance.extend`` puts more hard clauses ahead of an instance's own
and remembers, outside the instance's fields, the kept prefix it started
from.  ``compile_instance`` turns an instance into the lists the kernel
searches; for an extended instance it compiles the kept prefix once, keeps
that on the prefix, and per call appends only the added clauses.  Many
instances that share one large prefix, such as the encodings of many
queries against one action library at one makespan, then pay for the
prefix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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


def _normalize_hard(hard: Iterable[Sequence[int]], nvars: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for i, lits in enumerate(hard):
        norm = _normalize_clause(lits, nvars, f"hard clause {i}")
        if norm is not None:
            out.append(norm)
    return tuple(out)


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
        nhard = _normalize_hard(hard, nvars)
        nsoft = []
        for i, (weight, lits) in enumerate(soft):
            if isinstance(weight, bool) or not isinstance(weight, int):
                raise WcnfError(f"soft clause {i}: weight must be an int, got {weight!r}")
            if weight <= 0:
                raise WcnfError(f"soft clause {i}: weight must be positive, got {weight}")
            norm = _normalize_clause(lits, nvars, f"soft clause {i}")
            if norm is not None:
                nsoft.append((weight, norm))
        return cls(nvars=nvars, hard=nhard, soft=tuple(nsoft))

    def extend(self, nvars: int, hard: Iterable[Sequence[int]]) -> "WcnfInstance":
        """This instance over ``nvars`` variables with ``hard`` put ahead of
        its own hard clauses; the soft clauses are the same tuple.

        The result remembers the instance it was first extended from (its
        kept prefix), outside its fields, so that ``compile_instance``
        compiles that prefix once and adds only the new clauses per solve.
        Equality, hashing, repr and pickling see only the fields.
        """
        if nvars < self.nvars:
            raise WcnfError(f"cannot extend {self.nvars} variables to {nvars}")
        out = WcnfInstance(nvars=nvars, hard=_normalize_hard(hard, nvars) + self.hard,
                           soft=self.soft)
        object.__setattr__(out, "_kept", self.__dict__.get("_kept", self))
        return out

    def __reduce__(self):
        # the kept prefix and its compiled form are caches, not data
        return (WcnfInstance, (self.nvars, self.hard, self.soft))

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




class _Compiled(NamedTuple):
    """An instance in the kernel's shape, as ``_compile`` builds it."""

    weights: list[int]
    clauses: list[tuple[int, ...]]
    order: list[int]
    nhead: int  # order[:nhead] has soft weight; order[nhead:] is by index
    polarity: list[int]
    occ: list[list[tuple[int, int]]]
    cnt: list[list[int]]
    nfree: list[int]


def _file_clauses(occ, cnt, weights, clauses, start):
    """Append clauses[start:] to the occurrence lists, in clause order.

    occ[li] gets (c, other) for every clause c with literal li: other is
    the partner literal of a two-literal hard clause and 0 otherwise.
    cnt[li] gets the clauses with literal li that keep counters, i.e. all
    but the two-literal hard ones.
    """
    for c in range(start, len(clauses)):
        lits = clauses[c]
        if weights[c] < 0 and len(lits) == 2:
            a, b = lits
            occ[a].append((c, b))
            occ[b].append((c, a))
        else:
            entry = (c, 0)
            for li in lits:
                occ[li].append(entry)
                cnt[li].append(c)


def _compile(instance: WcnfInstance) -> _Compiled:
    weights = [-1] * len(instance.hard) + [w for w, _ in instance.soft]
    clauses = [*instance.hard, *(c for _, c in instance.soft)]

    nv = instance.nvars
    score = [0] * (nv + 1)
    pos_w = [0] * (nv + 1)
    neg_w = [0] * (nv + 1)
    used = [False] * (nv + 1)
    for clause in instance.hard:
        for lit in clause:
            used[abs(lit)] = True
    for w, clause in instance.soft:
        for lit in clause:
            v = abs(lit)
            used[v] = True
            score[v] += w
            if lit > 0:
                pos_w[v] += w
            else:
                neg_w[v] += w
    order = sorted((v for v in range(1, nv + 1) if used[v]), key=lambda v: (-score[v], v))
    nhead = sum(1 for v in order if score[v])
    polarity = [1 if pos_w[v] > neg_w[v] else 0 for v in range(nv + 1)]

    nl = 2 * nv + 1
    occ: list[list[tuple[int, int]]] = [[] for _ in range(nl)]
    cnt: list[list[int]] = [[] for _ in range(nl)]
    _file_clauses(occ, cnt, weights, clauses, 0)
    nfree = [len(lits) for lits in clauses]
    return _Compiled(weights, clauses, order, nhead, polarity, occ, cnt, nfree)


def compile_instance(instance: WcnfInstance):
    """The instance in the shape ``_pure.solve_compiled`` searches.

    Returns (weights, clauses, order, polarity, occ, cnt, nfree).  clauses
    holds literal tuples and weights[c] is clause c's weight, -1 for a hard
    clause.  The branching order tries variables by descending soft-weight
    involvement (ties by index); the preferred polarity is whichever sign
    carries the larger soft weight, 0 on ties.  occ and cnt have 2*nvars + 1
    slots indexed by literal (see ``_file_clauses``); nfree[c] is the length
    of clause c.

    An instance made by ``WcnfInstance.extend`` is compiled in two parts.
    Its kept prefix is compiled on first use and the result is kept on the
    prefix, for as long as the prefix lives.  Each call then appends only
    the clauses ``extend`` added, numbered after the prefix's.  A slot of
    occ or cnt that gains an entry is a copy; every other list is the
    prefix's own, which the kernel only reads.  The added clauses carry no
    soft weight, so a variable first named by them joins the weightless
    tail of the order by index, with polarity 0.  Any other instance is
    compiled whole and nothing is kept.
    """
    kept = instance.__dict__.get("_kept")
    if kept is None:
        c = _compile(instance)
        return c.weights, c.clauses, c.order, c.polarity, c.occ, c.cnt, c.nfree
    c = kept.__dict__.get("_compiled")
    if c is None:
        c = _compile(kept)
        object.__setattr__(kept, "_compiled", c)

    extra = instance.hard[:len(instance.hard) - len(kept.hard)]
    nv, nv0 = instance.nvars, kept.nvars
    weights = c.weights + [-1] * len(extra)
    clauses = c.clauses + list(extra)
    nfree = c.nfree + [len(lits) for lits in extra]

    # variables in no kept clause: above nv0, or with both literals unlisted
    fresh = sorted({v for lits in extra for v in map(abs, lits)
                    if v > nv0 or not (c.occ[v] or c.occ[-v])})
    order = c.order
    if fresh:
        order = order[:c.nhead] + sorted(order[c.nhead:] + fresh)
    polarity = c.polarity + [0] * (nv - nv0)

    # slots 0..nv0 are positive literals and the last nv0 slots negative
    # ones; the new variables' 2 * (nv - nv0) slots go in between
    occ = c.occ[:nv0 + 1] + [[] for _ in range(2 * (nv - nv0))] + c.occ[nv0 + 1:]
    cnt = c.cnt[:nv0 + 1] + [[] for _ in range(2 * (nv - nv0))] + c.cnt[nv0 + 1:]
    for li in {li for lits in extra for li in lits}:
        occ[li] = occ[li][:]
        cnt[li] = cnt[li][:]
    _file_clauses(occ, cnt, weights, clauses, len(c.clauses))
    return weights, clauses, order, polarity, occ, cnt, nfree
