"""Branch-and-bound kernel for weighted partial Max-SAT.

Exact depth-first search with unit propagation over the hard clauses.
A branch is cut only when the cost of the soft clauses it has already
falsified reaches the best complete assignment's cost.

Two-literal hard clauses, most of an encoding's hard clauses, keep no
counters.  Each is filed under both of its literals together with the
other literal, and its state is read off the literal values: once one
literal is false, the clause is a conflict if the other is false too and
a unit if the other is unassigned.  Every other clause keeps counters of
its true and unassigned literals, from which its units and the running
cost are read.  Each literal has one occurrence list in clause order, with
binary and other clauses interleaved, so conflicts and units are found in
the order the counters alone would find them.
"""

from __future__ import annotations

import time

STATUS_OPTIMAL = 0
STATUS_HARD_UNSAT = 1
STATUS_TIMEOUT = 2

_INF = float("inf")
_CHECK_EVERY = 2048


def solve_compiled(nv, weights, lits, offsets, order, polarity, timeout):
    """Run the search on flattened clause arrays.

    weights[c] < 0 marks a hard clause.  Returns
    (status, best_cost or -1, assignment bytes of length nv + 1, nodes).
    """
    nc = len(weights)
    deadline = time.perf_counter() + timeout if timeout and timeout > 0 else None

    # Literals are kept as indices: 2*v for v, 2*v + 1 for -v, so the
    # complement of index i is i ^ 1 and lval[i] is its value (-1
    # unassigned, 0 false, 1 true).  occ[i] holds (c, other) for every
    # clause c with literal i, in clause order: other is the partner's index
    # in a two-literal hard clause and 0 otherwise.  cnt[i] holds the
    # clauses with literal i that keep counters (nsat, nfree).
    nl = 2 * nv + 2
    occ: list[list[tuple[int, int]]] = [[] for _ in range(nl)]
    cnt: list[list[int]] = [[] for _ in range(nl)]
    lidx = [2 * l if l > 0 else -2 * l + 1 for l in lits]
    nfree: list[int] = []
    for c, w, lo, hi in zip(range(nc), weights, offsets, offsets[1:]):
        nfree.append(hi - lo)
        if hi - lo == 2 and w < 0:
            a, b = lidx[lo], lidx[lo + 1]
            occ[a].append((c, b))
            occ[b].append((c, a))
        else:
            entry = (c, 0)
            for li in lidx[lo:hi]:
                occ[li].append(entry)
                cnt[li].append(c)

    nsat = [0] * nc
    lval = [-1] * nl
    trail: list[int] = []  # literal indices

    cost = 0
    nodes = 0

    def assign(li):
        """Make literal index li true; returns the first emptied hard clause or -1.

        An emptied soft clause adds its weight to the running cost.
        """
        nonlocal cost
        lval[li] = 1
        lval[li ^ 1] = 0
        trail.append(li)
        conflict = -1
        for c in cnt[li]:
            nsat[c] += 1
        for c, o in occ[li ^ 1]:
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
            for c in cnt[li ^ 1]:
                if nfree[c] == 0 and nsat[c] == 0 and weights[c] >= 0:
                    cost -= weights[c]
                nfree[c] += 1
            lval[li] = lval[li ^ 1] = -1

    def find_unit(c):
        for i in range(offsets[c], offsets[c + 1]):
            if lval[lidx[i]] < 0:
                return lidx[i]
        return 0

    def propagate(qhead):
        """Unit propagation from trail position qhead; -1 or conflict clause."""
        while qhead < len(trail):
            li = trail[qhead]
            qhead += 1
            for c, o in occ[li ^ 1]:
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
                return STATUS_HARD_UNSAT, -1, bytes(nv + 1), nodes
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
        return STATUS_HARD_UNSAT, -1, bytes(nv + 1), nodes

    best_cost = -1
    best_assign = bytearray(nv + 1)
    ub = _INF

    # stack frames: [var, polarity tried first, branches tried, trail mark, scan index]
    stack: list[list[int]] = []
    descend = True
    norder = len(order)
    status = STATUS_OPTIMAL
    steps = 0

    while True:
        steps += 1
        if deadline is not None and steps % _CHECK_EVERY == 0:
            if time.perf_counter() > deadline:
                status = STATUS_TIMEOUT
                break
        if descend:
            if cost >= ub:
                descend = False
                continue
            scan = stack[-1][4] + 1 if stack else 0
            v = 0
            while scan < norder:
                if lval[2 * order[scan]] < 0:
                    v = order[scan]
                    break
                scan += 1
            if v == 0:
                # complete assignment over every clause variable
                if cost < ub:
                    ub = cost
                    best_cost = cost
                    for u in range(1, nv + 1):
                        best_assign[u] = lval[2 * u] == 1
                descend = False
                continue
            nodes += 1
            p = polarity[v]
            stack.append([v, p, 1, len(trail), scan])
            conflict = assign(2 * v if p == 1 else 2 * v + 1)
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
                conflict = assign(2 * v + 1 if p == 1 else 2 * v)
                if conflict < 0:
                    conflict = propagate(len(trail) - 1)
                descend = conflict < 0
            else:
                stack.pop()

    if status == STATUS_OPTIMAL and best_cost < 0:
        return STATUS_HARD_UNSAT, -1, bytes(nv + 1), nodes
    if status == STATUS_TIMEOUT:
        return STATUS_TIMEOUT, best_cost, bytes(best_assign), nodes
    return STATUS_OPTIMAL, best_cost, bytes(best_assign), nodes
