"""Reference branch-and-bound kernel for weighted partial Max-SAT.

Exact depth-first search with unit propagation over the hard clauses
and a lower bound from disjoint soft-clause cores, each found by treating
still-active soft clauses as unit-propagation sources and harvesting the
soft clauses in a conflict's reason cone.

The bound is computed only once an incumbent exists: before that the
upper bound is infinite and no finite bound can prune.  Skipping it
leaves node counts unchanged, because hard propagation is at fixpoint
whenever the bound would run, so every conflict's reason cone holds a
soft clause and the bound would return a finite value.

Two-literal hard clauses, most of an encoding's hard clauses, keep no
counters.  Each is filed under both of its literals together with the
other literal, and its state is read off the literal values: once one
literal is false, the clause is a conflict if the other is false too and
a unit if the other is unassigned.  Every other clause keeps counters of
its true and unassigned literals, which the lower bound reads.  Each
literal has one occurrence list in clause order, with binary and other
clauses interleaved, so conflicts and units are found in the order the
counters alone would find them.

The compiled kernel in ``_bb.pyx`` runs the same search with counters on
every clause; the two must stay in lockstep (same decisions, same
results, same node counts).
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
    reason = [-1] * (nv + 1)
    pos = [-1] * (nv + 1)  # trail position, for reason-cone collection
    trail: list[int] = []  # literal indices
    softs = [c for c in range(nc) if weights[c] >= 0]

    cost = 0
    nodes = 0

    def assign(li, why, lb_mode, lb_active):
        """Make literal index li true; returns the first conflicting clause or -1.

        A conflict is an emptied hard clause, or in bound mode an emptied
        active soft clause.  Soft falsification adds to the running cost
        only in the main search.
        """
        nonlocal cost
        v = li >> 1
        lval[li] = 1
        lval[li ^ 1] = 0
        reason[v] = why
        pos[v] = len(trail)
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
                elif not lb_mode:
                    cost += weights[c]
                elif lb_active[c] and conflict < 0:
                    conflict = c
        return conflict

    def undo_to(mark, lb_mode):
        nonlocal cost
        while len(trail) > mark:
            li = trail.pop()
            for c in cnt[li]:
                nsat[c] -= 1
            if lb_mode:
                for c in cnt[li ^ 1]:
                    nfree[c] += 1
            else:
                for c in cnt[li ^ 1]:
                    if nfree[c] == 0 and nsat[c] == 0 and weights[c] >= 0:
                        cost -= weights[c]
                    nfree[c] += 1
            lval[li] = lval[li ^ 1] = -1
            pos[li >> 1] = -1

    def find_unit(c):
        for i in range(offsets[c], offsets[c + 1]):
            if lval[lidx[i]] < 0:
                return lidx[i]
        return 0

    def propagate(qhead, lb_mode, lb_active):
        """Unit propagation from trail position qhead; -1 or conflict clause."""
        while qhead < len(trail):
            li = trail[qhead]
            qhead += 1
            for c, o in occ[li ^ 1]:
                if o:
                    if lval[o] < 0:
                        conflict = assign(o, c, lb_mode, lb_active)
                        if conflict >= 0:
                            return conflict
                elif weights[c] < 0 or (lb_mode and lb_active[c]):
                    if nsat[c] == 0 and nfree[c] == 1:
                        conflict = assign(find_unit(c), c, lb_mode, lb_active)
                        if conflict >= 0:
                            return conflict
        return -1

    def lower_bound(gap):
        """Additive bound from disjoint soft cores; stops once >= gap."""
        mark = len(trail)
        lb_active = [False] * nc
        for c in softs:
            if nsat[c] == 0 and nfree[c] >= 1:
                lb_active[c] = True
        lb = 0
        while lb < gap:
            conflict = -1
            for c in softs:
                if lb_active[c] and nsat[c] == 0:
                    if nfree[c] == 1:
                        conflict = assign(find_unit(c), c, True, lb_active)
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
                    v = lidx[i] >> 1
                    if pos[v] >= mark:
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
            conflict = assign(find_unit(c), c, False, None)
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
            conflict = assign(2 * v if p == 1 else 2 * v + 1, -1, False, None)
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
                conflict = assign(2 * v + 1 if p == 1 else 2 * v, -1, False, None)
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
