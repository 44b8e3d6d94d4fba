"""Reference branch-and-bound kernel for weighted partial Max-SAT.

Exact depth-first search with counter-based unit propagation over the
hard clauses and a lower bound from disjoint soft-clause cores, each
found by treating still-active soft clauses as unit-propagation sources
and harvesting the soft clauses in a conflict's reason cone.

The bound is computed only once an incumbent exists: before that the
upper bound is infinite and no finite bound can prune.  Skipping it
leaves node counts unchanged, because hard propagation is at fixpoint
whenever the bound would run, so every conflict's reason cone holds a
soft clause and the bound would return a finite value.

The compiled kernel in ``_bb.pyx`` is a line-for-line port; the two must
stay in lockstep (same decisions, same results, same node counts).
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

    # occurrence lists: literal l -> enc 2*v (positive) / 2*v + 1 (negative)
    occ: list[list[int]] = [[] for _ in range(2 * nv + 2)]
    for c in range(nc):
        for i in range(offsets[c], offsets[c + 1]):
            l = lits[i]
            occ[2 * l if l > 0 else -2 * l + 1].append(c)

    nfree = [offsets[c + 1] - offsets[c] for c in range(nc)]
    nsat = [0] * nc
    val = [-1] * (nv + 1)  # -1 unassigned, 0 false, 1 true
    reason = [-1] * (nv + 1)
    pos = [-1] * (nv + 1)  # trail position, for reason-cone collection
    trail: list[int] = []

    cost = 0
    nodes = 0

    def assign(lit, why, lb_mode, lb_active):
        """Make lit true; returns the first conflicting clause or -1.

        A conflict is an emptied hard clause, or in bound mode an emptied
        active soft clause.  Soft falsification adds to the running cost
        only in the main search.
        """
        nonlocal cost
        v = lit if lit > 0 else -lit
        val[v] = 1 if lit > 0 else 0
        reason[v] = why
        pos[v] = len(trail)
        trail.append(lit)
        conflict = -1
        for c in occ[2 * v if lit > 0 else 2 * v + 1]:
            nsat[c] += 1
        for c in occ[2 * v + 1 if lit > 0 else 2 * v]:
            nfree[c] -= 1
            if nfree[c] == 0 and nsat[c] == 0:
                if weights[c] < 0:
                    if conflict < 0:
                        conflict = c
                elif not lb_mode:
                    cost += weights[c]
                elif lb_active[c] and conflict < 0:
                    conflict = c
        return conflict

    def undo_to(mark, lb_mode):
        nonlocal cost
        while len(trail) > mark:
            lit = trail.pop()
            v = lit if lit > 0 else -lit
            for c in occ[2 * v if lit > 0 else 2 * v + 1]:
                nsat[c] -= 1
            for c in occ[2 * v + 1 if lit > 0 else 2 * v]:
                if nfree[c] == 0 and nsat[c] == 0 and weights[c] >= 0 and not lb_mode:
                    cost -= weights[c]
                nfree[c] += 1
            val[v] = -1
            reason[v] = -1
            pos[v] = -1

    def find_unit(c):
        for i in range(offsets[c], offsets[c + 1]):
            l = lits[i]
            if val[l if l > 0 else -l] < 0:
                return l
        return 0

    def propagate(qhead, lb_mode, lb_active):
        """Unit propagation from trail position qhead; -1 or conflict clause."""
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            v = lit if lit > 0 else -lit
            for c in occ[2 * v + 1 if lit > 0 else 2 * v]:
                if weights[c] < 0 or (lb_mode and lb_active[c]):
                    if nsat[c] == 0 and nfree[c] == 1:
                        u = find_unit(c)
                        conflict = assign(u, c, lb_mode, lb_active)
                        if conflict >= 0:
                            return conflict
        return -1

    def lower_bound(gap):
        """Additive bound from disjoint soft cores; stops once >= gap."""
        mark = len(trail)
        lb_active = [False] * nc
        for c in range(nc):
            if weights[c] >= 0 and nsat[c] == 0 and nfree[c] >= 1:
                lb_active[c] = True
        lb = 0
        while lb < gap:
            conflict = -1
            for c in range(nc):
                if lb_active[c] and nsat[c] == 0:
                    if nfree[c] == 1:
                        u = find_unit(c)
                        conflict = assign(u, c, True, lb_active)
                        if conflict >= 0:
                            break
            if conflict < 0:
                conflict = propagate(mark, True, lb_active)
            if conflict < 0:
                undo_to(mark, True)
                return lb
            # collect the soft clauses in the conflict's reason cone
            cone: list[int] = []
            seen = [False] * nc
            queue = [conflict]
            seen[conflict] = True
            while queue:
                c = queue.pop()
                if weights[c] >= 0:
                    cone.append(c)
                for i in range(offsets[c], offsets[c + 1]):
                    l = lits[i]
                    v = l if l > 0 else -l
                    if val[v] >= 0 and pos[v] >= mark:
                        r = reason[v]
                        if r >= 0 and not seen[r]:
                            seen[r] = True
                            queue.append(r)
            undo_to(mark, True)
            if not cone:
                # conflict independent of soft assumptions: dead branch
                return gap
            w_min = min(weights[c] for c in cone)
            lb += w_min
            for c in cone:
                lb_active[c] = False
        return lb

    # level 0: empty clauses and hard units
    for c in range(nc):
        if nfree[c] == 0:
            if weights[c] < 0:
                return STATUS_HARD_UNSAT, -1, bytes(nv + 1), nodes
            cost += weights[c]
    conflict = -1
    for c in range(nc):
        if weights[c] < 0 and nsat[c] == 0 and nfree[c] == 1:
            u = find_unit(c)
            if u != 0:
                conflict = assign(u, c, False, None)
                if conflict >= 0:
                    break
    if conflict < 0:
        conflict = propagate(0, False, None)
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
            if cost >= ub or (ub < _INF and cost + lower_bound(ub - cost) >= ub):
                descend = False
                continue
            scan = stack[-1][4] + 1 if stack else 0
            v = 0
            while scan < norder:
                if val[order[scan]] < 0:
                    v = order[scan]
                    break
                scan += 1
            if v == 0:
                # complete assignment over every clause variable
                if cost < ub:
                    ub = cost
                    best_cost = cost
                    for u in range(1, nv + 1):
                        best_assign[u] = 1 if val[u] == 1 else 0
                descend = False
                continue
            nodes += 1
            p = polarity[v]
            stack.append([v, p, 1, len(trail), scan])
            lit = v if p == 1 else -v
            conflict = assign(lit, -1, False, None)
            if conflict < 0:
                conflict = propagate(len(trail) - 1, False, None)
            descend = conflict < 0
        else:
            if not stack:
                break
            frame = stack[-1]
            undo_to(frame[3], False)
            if frame[2] == 1:
                frame[2] = 2
                v, p = frame[0], frame[1]
                nodes += 1
                lit = -v if p == 1 else v
                conflict = assign(lit, -1, False, None)
                if conflict < 0:
                    conflict = propagate(len(trail) - 1, False, None)
                descend = conflict < 0
            else:
                stack.pop()

    if status == STATUS_OPTIMAL and best_cost < 0:
        return STATUS_HARD_UNSAT, -1, bytes(nv + 1), nodes
    if status == STATUS_TIMEOUT:
        return STATUS_TIMEOUT, best_cost, bytes(best_assign), nodes
    return STATUS_OPTIMAL, best_cost, bytes(best_assign), nodes
