"""Branch-and-bound kernel for weighted partial Max-SAT.

Exact depth-first search with unit propagation over the hard clauses.
A branch is cut only when the cost of the soft clauses it has already
falsified reaches the best complete assignment's cost.

Literals are the instance's DIMACS ints and index the per-literal lists
directly: a list of 2*nv + 1 slots puts v at slot v and -v, by Python's
negative indexing, at slot 2*nv + 1 - v, so the complement of literal li
is -li.  The result is plain Python: a status string of ``model``, the
cost, and the model as a tuple of bools, with None for both when there
is no model.

The clauses arrive filed by width (``model.compile_instance``).  A
two-literal hard clause, most of an encoding's hard clauses, is an entry
in two implication lists, as in MiniSat (Eén & Sörensson, SAT 2003), and
keeps no counters; a hard unit is an implication of slot 0, which stands
for true and is the first literal queued.  A soft unit, the only soft
clause the encoder makes, is a weight on the literal that falsifies it.
Every other clause keeps counters of its true and not yet false literals.

One loop assigns and propagates, with no call per literal.  A literal's
value is set when it is queued; its lists are read, and its clauses'
counters updated, when the queue reaches it.  On a conflict the queued
literals not yet reached are unassigned and dropped, so undoing the
trail undoes exactly the counter updates.  Each decision's stack frame
keeps the cost before it, which backtracking restores.

The lists are only read here: for an extended instance most of them are
the kept prefix's own, shared by every solve over that prefix.  The
layout does not change the search: unit propagation reaches the same
fixpoint, or a conflict, in any order, and the cost at the fixpoint is
the weight of the soft clauses it falsifies, so for one clause set the
nodes, the cost and the model depend only on the branching order and
the polarities.
"""

from __future__ import annotations

import time

from .model import _INF, HARD_UNSAT, OPTIMAL, TIMEOUT

_CHECK_EVERY = 2048


def solve_compiled(nv, order, polarity, cost, imp, lw, clauses, weights, occ, nfree, timeout):
    """Run the search on the output of ``model.compile_instance``.

    cost is the level-0 cost, infinite when a hard clause is empty;
    weights[c] < 0 marks counter clause c as hard; ``timeout`` is seconds
    or None for no limit.  Every list but nfree is only read and may be
    shared with other solves; nfree is this solve's own and is changed.
    Returns (status, cost, assignment, nodes): cost and assignment are None
    when there is no model, else the assignment is a tuple of nv + 1 bools
    indexed by variable.
    """
    deadline = time.perf_counter() + timeout if timeout is not None else None

    # lval[li] is literal li's value (-1 unassigned, 0 false, 1 true); the
    # lists of trail[:qhead] have been read and trail[qhead:] is the queue
    nsat = [0] * len(clauses)
    lval = [-1] * (2 * nv + 1)
    trail = [0]
    qhead = 0

    best_cost = best_assign = None
    ub = _INF
    # stack frames: [var, polarity tried first, branches tried, trail mark,
    # scan index, cost before the branch]
    stack: list[list] = []
    norder = len(order)
    status = OPTIMAL
    nodes = 0
    steps = 0

    while True:
        ok = True
        while qhead < len(trail):
            li = trail[qhead]
            for o in imp[li]:
                x = lval[o]
                if x < 0:
                    lval[o] = 1
                    lval[-o] = 0
                    trail.append(o)
                elif x == 0:
                    ok = False
                    break
            if not ok:
                break  # li's counters are untouched: it is dropped with the queue
            qhead += 1
            cost += lw[li]
            for c in occ[li]:
                nsat[c] += 1
            for c in occ[-li]:
                f = nfree[c] - 1
                nfree[c] = f
                if f > 1 or nsat[c]:
                    continue
                w = weights[c]
                if f == 0:
                    # every literal is false
                    if w < 0:
                        ok = False
                    else:
                        cost += w
                elif w < 0 and ok:
                    # one literal is not yet false: queue it unless it is
                    # already queued true or queued false
                    for u in clauses[c]:
                        if lval[u] < 0:
                            lval[u] = 1
                            lval[-u] = 0
                            trail.append(u)
                            break
            if not ok:
                break
        if not ok:
            for li in trail[qhead:]:
                lval[li] = lval[-li] = -1
            del trail[qhead:]
            if not stack:
                return HARD_UNSAT, None, None, 0

        steps += 1
        if deadline is not None and steps % _CHECK_EVERY == 0:
            if time.perf_counter() > deadline:
                status = TIMEOUT
                break

        if ok and cost < ub:
            scan = stack[-1][4] + 1 if stack else 0
            v = 0
            while scan < norder:
                if lval[order[scan]] < 0:
                    v = order[scan]
                    break
                scan += 1
            if v:
                nodes += 1
                p = polarity[v]
                stack.append([v, p, 1, len(trail), scan, cost])
                li = v if p == 1 else -v
                lval[li] = 1
                lval[-li] = 0
                trail.append(li)
                continue
            # complete assignment over every clause variable
            ub = best_cost = cost
            best_assign = tuple([x == 1 for x in lval[:nv + 1]])

        # backtrack to the deepest decision with a branch left
        while stack:
            frame = stack[-1]
            mark = frame[3]
            while len(trail) > mark:
                li = trail.pop()
                for c in occ[li]:
                    nsat[c] -= 1
                for c in occ[-li]:
                    nfree[c] += 1
                lval[li] = lval[-li] = -1
            qhead = mark
            cost = frame[5]
            if frame[2] == 1:
                frame[2] = 2
                nodes += 1
                v = frame[0]
                li = -v if frame[1] == 1 else v
                lval[li] = 1
                lval[-li] = 0
                trail.append(li)
                break
            stack.pop()
        else:
            break

    if status == OPTIMAL and best_assign is None:
        status = HARD_UNSAT
    return status, best_cost, best_assign, nodes
