"""Weighted partial Max-SAT instances.

An instance holds hard clauses (must be satisfied) and integer-weighted
soft clauses (each falsified one costs its weight).  Literals are DIMACS
style signed ints.  Normalization at build time: duplicate literals are
dropped, literals are sorted by variable, and tautological clauses are
removed; duplicate clauses are kept as given.

``WcnfInstance.extend`` puts more hard clauses ahead of an instance's own
and remembers, outside the instance's fields, the kept prefix it started
from (an instance not made by ``extend`` is its own).  ``compile_instance``
files an instance's clauses by width into the lists the kernel searches:
it compiles the kept prefix once, keeps that on the prefix, and per call
files only the added clauses.  Many instances that share one large prefix,
such as the encodings of many queries against one action library at one
makespan (reachability units, start and goal clauses ahead of the kept
clauses), then pay for the prefix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ..forest import check_count

_INF = float("inf")

OPTIMAL = "optimal"
HARD_UNSAT = "hard_unsat"
TIMEOUT = "timeout"


class WcnfError(ValueError):
    """Ill-formed clause, weight, or solver output."""


class BackendError(RuntimeError):
    """A solver backend is unavailable, failed, or returned a model that does not check."""


def _normalize_clause(lits: Iterable[int], nvars: int, what: str) -> tuple[int, ...] | None:
    """Sorted distinct literals, or None for a tautology."""
    if type(lits) is tuple and len(lits) == 1:
        # a one-literal tuple, such as a reachability unit, is already normal
        lit = lits[0]
        if type(lit) is int and 0 < abs(lit) <= nvars:
            return lits
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
        check_count("variable count", nvars, 0, WcnfError)
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
        if check_count("variable count", nvars, 0, WcnfError) < self.nvars:
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

    order: list[int]
    nhead: int  # order[:nhead] has soft weight; order[nhead:] is by index
    used: list[bool]  # used[v]: variable v is in some clause
    polarity: list[int]
    cost: float
    imp: list[list[int]]
    lw: list[int]
    clauses: list[tuple[int, ...]]
    weights: list[int]
    occ: list[list[int]]
    nfree: list[int]


def _file_clauses(pairs, imp, lw, clauses, weights, occ):
    """File (weight, literals) pairs, weight -1 for hard, by width (see
    ``compile_instance``); returns the cost of the empty ones."""
    cost = 0
    for w, lits in pairs:
        n = len(lits)
        if n > 2 or n == 2 and w > 0:
            for li in lits:
                occ[li].append(len(clauses))
            clauses.append(lits)
            weights.append(w)
        elif n == 2:
            a, b = lits
            imp[-a].append(b)
            imp[-b].append(a)
        elif n:
            if w < 0:
                imp[0].append(lits[0])
            else:
                lw[-lits[0]] += w
        else:
            cost += w if w > 0 else _INF
    return cost


def _compile(instance: WcnfInstance) -> _Compiled:
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
    imp: list[list[int]] = [[] for _ in range(nl)]
    occ: list[list[int]] = [[] for _ in range(nl)]
    lw = [0] * nl
    clauses: list[tuple[int, ...]] = []
    weights: list[int] = []
    cost = _file_clauses([*((-1, lits) for lits in instance.hard), *instance.soft],
                         imp, lw, clauses, weights, occ)
    nfree = [len(lits) for lits in clauses]
    return _Compiled(order, nhead, used, polarity, cost, imp, lw, clauses, weights, occ, nfree)


def compile_instance(instance: WcnfInstance):
    """The instance in the shape ``_pure.solve_compiled`` searches.

    Returns (order, polarity, cost, imp, lw, clauses, weights, occ, nfree).
    The branching order tries variables by descending soft-weight
    involvement (ties by index); the preferred polarity is whichever sign
    carries the larger soft weight, 0 on ties.  The clauses are filed by
    width; imp, lw and occ have 2*nvars + 1 slots indexed by literal:

    - a two-literal hard clause (a, b) puts b in imp[-a] and a in imp[-b],
      so imp[li] lists the literals that li being true forces;
    - a hard unit's literal goes in imp[0]: slot 0 stands for true;
    - lw[li] is the weight of the soft units that li being true falsifies;
    - cost is the weight of the empty soft clauses, infinite if a hard
      clause is empty;
    - every other clause c is a counter clause: clauses[c] holds its
      literals, weights[c] its weight (-1 for hard), and nfree[c] its
      length, the start of the one counter the kernel keeps per clause;
      occ[li] lists the counter clauses with literal li.

    Every instance is compiled as its kept prefix (itself, unless
    ``WcnfInstance.extend`` made it) plus the clauses added to it.  The
    prefix is compiled on first use and the result, its units and cost
    included, is kept on the prefix for as long as the prefix lives.  Each
    call then files only the added clauses, with counter clauses numbered
    after the prefix's, so a solve reads no other clause to find its
    units.  nfree and each slot of imp or occ that gains an entry are
    copies; every other list is the prefix's own, which the kernel only
    reads.  The added clauses carry no soft weight, so a variable first
    named by them joins the weightless tail of the order by index, with
    polarity 0.
    """
    kept = instance.__dict__.get("_kept", instance)
    c = kept.__dict__.get("_compiled")
    if c is None:
        c = _compile(kept)
        object.__setattr__(kept, "_compiled", c)

    extra = instance.hard[:len(instance.hard) - len(kept.hard)]
    nv, nv0 = instance.nvars, kept.nvars
    fresh = sorted({v for lits in extra for v in map(abs, lits) if v > nv0 or not c.used[v]})
    order = c.order
    if fresh:
        order = order[:c.nhead] + sorted(order[c.nhead:] + fresh)
    polarity = c.polarity + [0] * (nv - nv0)

    # slots 0..nv0 are positive literals and the last nv0 slots negative
    # ones; the new variables' 2 * (nv - nv0) slots go in between
    gap = 2 * (nv - nv0)
    imp = c.imp[:nv0 + 1] + [[] for _ in range(gap)] + c.imp[nv0 + 1:]
    occ = c.occ[:nv0 + 1] + [[] for _ in range(gap)] + c.occ[nv0 + 1:]
    lw = c.lw[:nv0 + 1] + [0] * gap + c.lw[nv0 + 1:]
    for li in {0, *(-li for lits in extra if len(lits) == 2 for li in lits)}:
        imp[li] = imp[li][:]
    for li in {li for lits in extra if len(lits) > 2 for li in lits}:
        occ[li] = occ[li][:]
    clauses, weights = c.clauses[:], c.weights[:]
    cost = c.cost + _file_clauses([(-1, lits) for lits in extra], imp, lw, clauses, weights, occ)
    nfree = c.nfree + [len(lits) for lits in clauses[len(c.clauses):]]
    return order, polarity, cost, imp, lw, clauses, weights, occ, nfree
