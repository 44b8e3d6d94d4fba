"""Branch-and-bound kernel for weighted partial Max-SAT.

Exact depth-first search with unit propagation over the hard clauses.
A branch is cut only when the cost of the soft clauses it has already
falsified reaches the best complete assignment's cost.

Literals are the instance's DIMACS ints and index the per-literal lists
directly: a list of 2*nv + 1 slots puts v at slot v and -v, by Python's
negative indexing, at slot 2*nv + 1 - v, so the complement of literal li
is -li.  Slot 0 is never used.  The result is plain Python: a status
string of ``model``, the cost, and the model as a tuple of bools, with
None for both when there is no model.

Two-literal hard clauses, most of an encoding's hard clauses, keep no
counters.  Each is filed under both of its literals together with the
other literal, and its state is read off the literal values: once one
literal is false, the clause is a conflict if the other is false too and
a unit if the other is unassigned.  Every other clause keeps counters of
its true and unassigned literals, from which its units and the running
cost are read.  Each literal has one occurrence list in clause order, with
binary and other clauses interleaved.

The occurrence lists, the branching order and the polarities arrive
prebuilt from ``model.compile_instance`` and are only read here: for an
extended instance most of them are the kept prefix's own lists, shared by
every solve over that prefix.  Only the counters and literal values are
this solve's.  The clause order does not change the search: unit
propagation reaches the same fixpoint, or a conflict, in any order, so
for one clause set the nodes, the cost and the model depend on the
branching order and the polarities, not on how the clauses are numbered.
"""

from __future__ import annotations

import time

from .model import HARD_UNSAT, OPTIMAL, TIMEOUT

_INF = float("inf")
_CHECK_EVERY = 2048


def solve_compiled(nv, weights, clauses, order, polarity, occ, cnt, nfree, timeout):
    """Run the search on the output of ``model.compile_instance``.

    weights[c] < 0 marks clause c as hard; ``timeout`` is seconds or None
    for no limit.  occ, cnt, order and polarity are only read: they may be
    shared with other solves.  nfree is this solve's own and is changed.
    Returns (status, cost, assignment, nodes): cost and assignment are None
    when there is no model, else the assignment is a tuple of nv + 1 bools
    indexed by variable.
    """
    nc = len(weights)
    deadline = time.perf_counter() + timeout if timeout is not None else None

    # lval[li] is literal li's value (-1 unassigned, 0 false, 1 true).
    # occ[li] holds (c, other) for every clause c with literal li: other is
    # the partner literal in a two-literal hard clause and 0 otherwise.
    # cnt[li] holds the clauses with literal li that keep counters (nsat,
    # nfree).
    nl = 2 * nv + 1
    nsat = [0] * nc
    lval = [-1] * nl
    trail: list[int] = []  # literals

    cost = 0
    nodes = 0

    def assign(li):
        """Make literal li true; returns the first emptied hard clause or -1.

        An emptied soft clause adds its weight to the running cost.
        """
        nonlocal cost
        lval[li] = 1
        lval[-li] = 0
        trail.append(li)
        conflict = -1
        for c in cnt[li]:
            nsat[c] += 1
        for c, o in occ[-li]:
            if o:
                if conflict < 0 and lval[o] == 0:
                    conflict = c
                continue
            f = nfree[c] - 1
            nfree[c] = f
            if f == 0 and nsat[c] == 0:
                if weights[c] < 0:
                    if conflict < 0:
                        conflict = c
                else:
                    cost += weights[c]
        return conflict

    def undo_to(mark):
        nonlocal cost
        while len(trail) > mark:
            li = trail.pop()
            for c in cnt[li]:
                nsat[c] -= 1
            for c in cnt[-li]:
                if nfree[c] == 0 and nsat[c] == 0 and weights[c] >= 0:
                    cost -= weights[c]
                nfree[c] += 1
            lval[li] = lval[-li] = -1

    def find_unit(c):
        for li in clauses[c]:
            if lval[li] < 0:
                return li
        return 0

    def propagate(qhead):
        """Unit propagation from trail position qhead; -1 or conflict clause."""
        while qhead < len(trail):
            li = trail[qhead]
            qhead += 1
            for c, o in occ[-li]:
                if o:
                    if lval[o] < 0:
                        conflict = assign(o)
                        if conflict >= 0:
                            return conflict
                elif weights[c] < 0 and nsat[c] == 0 and nfree[c] == 1:
                    conflict = assign(find_unit(c))
                    if conflict >= 0:
                        return conflict
        return -1

    # level 0: empty clauses and hard units.  Binary hard clauses never look
    # like units to the counters; propagate(0) assigns the ones that became
    # units here, and the fixpoint, its cost and any conflict are the same.
    for c in range(nc):
        if nfree[c] == 0:
            if weights[c] < 0:
                return HARD_UNSAT, None, None, nodes
            cost += weights[c]
    conflict = -1
    for c in range(nc):
        if weights[c] < 0 and nsat[c] == 0 and nfree[c] == 1:
            conflict = assign(find_unit(c))
            if conflict >= 0:
                break
    if conflict < 0:
        conflict = propagate(0)
    if conflict >= 0:
        return HARD_UNSAT, None, None, nodes

    best_cost = best_assign = None
    ub = _INF

    # stack frames: [var, polarity tried first, branches tried, trail mark, scan index]
    stack: list[list[int]] = []
    descend = True
    norder = len(order)
    status = OPTIMAL
    steps = 0

    while True:
        steps += 1
        if deadline is not None and steps % _CHECK_EVERY == 0:
            if time.perf_counter() > deadline:
                status = TIMEOUT
                break
        if descend:
            if cost >= ub:
                descend = False
                continue
            scan = stack[-1][4] + 1 if stack else 0
            v = 0
            while scan < norder:
                if lval[order[scan]] < 0:
                    v = order[scan]
                    break
                scan += 1
            if v == 0:
                # complete assignment over every clause variable
                if cost < ub:
                    ub = best_cost = cost
                    best_assign = tuple([x == 1 for x in lval[:nv + 1]])
                descend = False
                continue
            nodes += 1
            p = polarity[v]
            stack.append([v, p, 1, len(trail), scan])
            conflict = assign(v if p == 1 else -v)
            if conflict < 0:
                conflict = propagate(len(trail) - 1)
            descend = conflict < 0
        else:
            if not stack:
                break
            frame = stack[-1]
            undo_to(frame[3])
            if frame[2] == 1:
                frame[2] = 2
                v, p = frame[0], frame[1]
                nodes += 1
                conflict = assign(-v if p == 1 else v)
                if conflict < 0:
                    conflict = propagate(len(trail) - 1)
                descend = conflict < 0
            else:
                stack.pop()

    if status == OPTIMAL and best_assign is None:
        status = HARD_UNSAT
    return status, best_cost, best_assign, nodes
