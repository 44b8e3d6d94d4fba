# cython: language_level=3
"""Compiled branch-and-bound kernel for weighted partial Max-SAT.

Line-for-line port of ``_pure.solve_compiled``; the two must stay in
lockstep (same decisions, same results, same node counts).  See _pure.py
for the algorithm commentary.
"""

import time

from libc.stdlib cimport calloc, free
from libc.string cimport memset

STATUS_OPTIMAL = 0
STATUS_HARD_UNSAT = 1
STATUS_TIMEOUT = 2

cdef long long CHECK_EVERY = 2048
cdef long long INF_COST = (<long long>1) << 60


cdef class _Engine:
    cdef int nv, nc, norder, nlits, trail_len
    cdef long long cost, nodes
    cdef long long* weights
    cdef int* lits
    cdef int* offsets
    cdef int* order
    cdef unsigned char* polarity
    cdef int* occ_off
    cdef int* occ_dat
    cdef int* occ_fill
    cdef int* nfree
    cdef int* nsat
    cdef signed char* val
    cdef int* reason
    cdef int* pos
    cdef int* trail
    cdef unsigned char* lb_active
    cdef unsigned char* seen
    cdef int* queue
    cdef int* cone
    cdef int* fr_var
    cdef int* fr_pol
    cdef int* fr_tried
    cdef int* fr_mark
    cdef int* fr_scan

    def __cinit__(self, int nv, weights, lits, offsets, order, polarity):
        cdef int i, c, l, e
        self.nv = nv
        self.nc = len(weights)
        self.norder = len(order)
        self.nlits = len(lits)
        self.trail_len = 0
        self.cost = 0
        self.nodes = 0

        self.weights = <long long*>calloc(self.nc if self.nc else 1, sizeof(long long))
        self.lits = <int*>calloc(self.nlits if self.nlits else 1, sizeof(int))
        self.offsets = <int*>calloc(self.nc + 1, sizeof(int))
        self.order = <int*>calloc(self.norder if self.norder else 1, sizeof(int))
        self.polarity = <unsigned char*>calloc(nv + 1, sizeof(unsigned char))
        self.occ_off = <int*>calloc(2 * nv + 3, sizeof(int))
        self.occ_dat = <int*>calloc(self.nlits if self.nlits else 1, sizeof(int))
        self.occ_fill = <int*>calloc(2 * nv + 2, sizeof(int))
        self.nfree = <int*>calloc(self.nc if self.nc else 1, sizeof(int))
        self.nsat = <int*>calloc(self.nc if self.nc else 1, sizeof(int))
        self.val = <signed char*>calloc(nv + 1, sizeof(signed char))
        self.reason = <int*>calloc(nv + 1, sizeof(int))
        self.pos = <int*>calloc(nv + 1, sizeof(int))
        self.trail = <int*>calloc(nv + 1, sizeof(int))
        self.lb_active = <unsigned char*>calloc(self.nc if self.nc else 1, sizeof(unsigned char))
        self.seen = <unsigned char*>calloc(self.nc if self.nc else 1, sizeof(unsigned char))
        self.queue = <int*>calloc(self.nc if self.nc else 1, sizeof(int))
        self.cone = <int*>calloc(self.nc if self.nc else 1, sizeof(int))
        self.fr_var = <int*>calloc(self.norder + 1, sizeof(int))
        self.fr_pol = <int*>calloc(self.norder + 1, sizeof(int))
        self.fr_tried = <int*>calloc(self.norder + 1, sizeof(int))
        self.fr_mark = <int*>calloc(self.norder + 1, sizeof(int))
        self.fr_scan = <int*>calloc(self.norder + 1, sizeof(int))

        for c in range(self.nc):
            self.weights[c] = weights[c]
        for i in range(self.nlits):
            self.lits[i] = lits[i]
        for c in range(self.nc + 1):
            self.offsets[c] = offsets[c]
        for i in range(self.norder):
            self.order[i] = order[i]
        for i in range(nv + 1):
            self.polarity[i] = polarity[i]
            self.val[i] = -1
            self.reason[i] = -1
            self.pos[i] = -1

        # occurrence lists as CSR over encoded literals (2v positive, 2v+1 negative)
        for i in range(self.nlits):
            l = self.lits[i]
            e = 2 * l if l > 0 else -2 * l + 1
            self.occ_off[e + 1] += 1
        for e in range(1, 2 * nv + 3):
            self.occ_off[e] += self.occ_off[e - 1]
        for c in range(self.nc):
            self.nfree[c] = self.offsets[c + 1] - self.offsets[c]
            for i in range(self.offsets[c], self.offsets[c + 1]):
                l = self.lits[i]
                e = 2 * l if l > 0 else -2 * l + 1
                self.occ_dat[self.occ_off[e] + self.occ_fill[e]] = c
                self.occ_fill[e] += 1

    def __dealloc__(self):
        free(self.weights); free(self.lits); free(self.offsets); free(self.order)
        free(self.polarity); free(self.occ_off); free(self.occ_dat); free(self.occ_fill)
        free(self.nfree); free(self.nsat); free(self.val); free(self.reason)
        free(self.pos); free(self.trail); free(self.lb_active); free(self.seen)
        free(self.queue); free(self.cone); free(self.fr_var); free(self.fr_pol)
        free(self.fr_tried); free(self.fr_mark); free(self.fr_scan)

    cdef int assign(self, int lit, int why, bint lb_mode):
        cdef int v = lit if lit > 0 else -lit
        cdef int e_sat = 2 * v if lit > 0 else 2 * v + 1
        cdef int e_fal = 2 * v + 1 if lit > 0 else 2 * v
        cdef int conflict = -1
        cdef int i, c
        self.val[v] = 1 if lit > 0 else 0
        self.reason[v] = why
        self.pos[v] = self.trail_len
        self.trail[self.trail_len] = lit
        self.trail_len += 1
        for i in range(self.occ_off[e_sat], self.occ_off[e_sat + 1]):
            self.nsat[self.occ_dat[i]] += 1
        for i in range(self.occ_off[e_fal], self.occ_off[e_fal + 1]):
            c = self.occ_dat[i]
            self.nfree[c] -= 1
            if self.nfree[c] == 0 and self.nsat[c] == 0:
                if self.weights[c] < 0:
                    if conflict < 0:
                        conflict = c
                elif not lb_mode:
                    self.cost += self.weights[c]
                elif self.lb_active[c] and conflict < 0:
                    conflict = c
        return conflict

    cdef void undo_to(self, int mark, bint lb_mode):
        cdef int lit, v, e_sat, e_fal, i, c
        while self.trail_len > mark:
            self.trail_len -= 1
            lit = self.trail[self.trail_len]
            v = lit if lit > 0 else -lit
            e_sat = 2 * v if lit > 0 else 2 * v + 1
            e_fal = 2 * v + 1 if lit > 0 else 2 * v
            for i in range(self.occ_off[e_sat], self.occ_off[e_sat + 1]):
                self.nsat[self.occ_dat[i]] -= 1
            for i in range(self.occ_off[e_fal], self.occ_off[e_fal + 1]):
                c = self.occ_dat[i]
                if self.nfree[c] == 0 and self.nsat[c] == 0 and self.weights[c] >= 0 and not lb_mode:
                    self.cost -= self.weights[c]
                self.nfree[c] += 1
            self.val[v] = -1
            self.reason[v] = -1
            self.pos[v] = -1

    cdef int find_unit(self, int c):
        cdef int i, l
        for i in range(self.offsets[c], self.offsets[c + 1]):
            l = self.lits[i]
            if self.val[l if l > 0 else -l] < 0:
                return l
        return 0

    cdef int propagate(self, int qhead, bint lb_mode):
        cdef int lit, v, e_fal, i, c, u, conflict
        while qhead < self.trail_len:
            lit = self.trail[qhead]
            qhead += 1
            v = lit if lit > 0 else -lit
            e_fal = 2 * v + 1 if lit > 0 else 2 * v
            for i in range(self.occ_off[e_fal], self.occ_off[e_fal + 1]):
                c = self.occ_dat[i]
                if self.weights[c] < 0 or (lb_mode and self.lb_active[c]):
                    if self.nsat[c] == 0 and self.nfree[c] == 1:
                        u = self.find_unit(c)
                        conflict = self.assign(u, c, lb_mode)
                        if conflict >= 0:
                            return conflict
        return -1

    cdef long long lower_bound(self, long long gap):
        cdef int mark = self.trail_len
        cdef int c, u, conflict, i, l, v, r, qtop, ncone, cur
        cdef long long lb = 0, w_min
        for c in range(self.nc):
            self.lb_active[c] = (
                self.weights[c] >= 0 and self.nsat[c] == 0 and self.nfree[c] >= 1
            )
        while lb < gap:
            conflict = -1
            for c in range(self.nc):
                if self.lb_active[c] and self.nsat[c] == 0:
                    if self.nfree[c] == 1:
                        u = self.find_unit(c)
                        conflict = self.assign(u, c, True)
                        if conflict >= 0:
                            break
            if conflict < 0:
                conflict = self.propagate(mark, True)
            if conflict < 0:
                self.undo_to(mark, True)
                return lb
            memset(self.seen, 0, self.nc)
            ncone = 0
            qtop = 0
            self.queue[qtop] = conflict
            qtop += 1
            self.seen[conflict] = 1
            while qtop > 0:
                qtop -= 1
                cur = self.queue[qtop]
                if self.weights[cur] >= 0:
                    self.cone[ncone] = cur
                    ncone += 1
                for i in range(self.offsets[cur], self.offsets[cur + 1]):
                    l = self.lits[i]
                    v = l if l > 0 else -l
                    if self.val[v] >= 0 and self.pos[v] >= mark:
                        r = self.reason[v]
                        if r >= 0 and not self.seen[r]:
                            self.seen[r] = 1
                            self.queue[qtop] = r
                            qtop += 1
            self.undo_to(mark, True)
            if ncone == 0:
                return gap
            w_min = self.weights[self.cone[0]]
            for i in range(1, ncone):
                if self.weights[self.cone[i]] < w_min:
                    w_min = self.weights[self.cone[i]]
            lb += w_min
            for i in range(ncone):
                self.lb_active[self.cone[i]] = 0
        return lb

    def run(self, double timeout):
        cdef int c, u, conflict, v, scan, p, lit, i
        cdef long long ub = INF_COST, best_cost = -1
        cdef long long steps = 0
        cdef bint descend = True
        cdef double deadline = 0.0
        cdef bint has_deadline = timeout > 0.0
        cdef int status = STATUS_OPTIMAL
        if has_deadline:
            deadline = time.perf_counter() + timeout

        best_assign = bytearray(self.nv + 1)

        # level 0: empty clauses and hard units
        for c in range(self.nc):
            if self.nfree[c] == 0:
                if self.weights[c] < 0:
                    return STATUS_HARD_UNSAT, -1, bytes(self.nv + 1), self.nodes
                self.cost += self.weights[c]
        conflict = -1
        for c in range(self.nc):
            if self.weights[c] < 0 and self.nsat[c] == 0 and self.nfree[c] == 1:
                u = self.find_unit(c)
                if u != 0:
                    conflict = self.assign(u, c, False)
                    if conflict >= 0:
                        break
        if conflict < 0:
            conflict = self.propagate(0, False)
        if conflict >= 0:
            return STATUS_HARD_UNSAT, -1, bytes(self.nv + 1), self.nodes

        # stack frames: var, first polarity, branches tried, trail mark, scan index
        cdef int depth = 0

        while True:
            steps += 1
            if has_deadline and steps % CHECK_EVERY == 0:
                if time.perf_counter() > deadline:
                    status = STATUS_TIMEOUT
                    break
            if descend:
                # The bound runs only once an incumbent exists (ub < INF_COST).
                # Hard propagation is at fixpoint here, so every conflict's
                # reason cone holds a soft clause and the bound is finite:
                # before an incumbent it cannot prune, and skipping it keeps
                # node counts unchanged.
                if self.cost >= ub or (ub < INF_COST and self.cost + self.lower_bound(ub - self.cost) >= ub):
                    descend = False
                    continue
                scan = self.fr_scan[depth - 1] + 1 if depth > 0 else 0
                v = 0
                while scan < self.norder:
                    if self.val[self.order[scan]] < 0:
                        v = self.order[scan]
                        break
                    scan += 1
                if v == 0:
                    if self.cost < ub:
                        ub = self.cost
                        best_cost = self.cost
                        for i in range(1, self.nv + 1):
                            best_assign[i] = 1 if self.val[i] == 1 else 0
                    descend = False
                    continue
                self.nodes += 1
                p = self.polarity[v]
                self.fr_var[depth] = v
                self.fr_pol[depth] = p
                self.fr_tried[depth] = 1
                self.fr_mark[depth] = self.trail_len
                self.fr_scan[depth] = scan
                depth += 1
                lit = v if p == 1 else -v
                conflict = self.assign(lit, -1, False)
                if conflict < 0:
                    conflict = self.propagate(self.trail_len - 1, False)
                descend = conflict < 0
            else:
                if depth == 0:
                    break
                self.undo_to(self.fr_mark[depth - 1], False)
                if self.fr_tried[depth - 1] == 1:
                    self.fr_tried[depth - 1] = 2
                    v = self.fr_var[depth - 1]
                    p = self.fr_pol[depth - 1]
                    self.nodes += 1
                    lit = -v if p == 1 else v
                    conflict = self.assign(lit, -1, False)
                    if conflict < 0:
                        conflict = self.propagate(self.trail_len - 1, False)
                    descend = conflict < 0
                else:
                    depth -= 1

        if status == STATUS_OPTIMAL and best_cost < 0:
            return STATUS_HARD_UNSAT, -1, bytes(self.nv + 1), self.nodes
        if status == STATUS_TIMEOUT:
            return STATUS_TIMEOUT, best_cost, bytes(best_assign), self.nodes
        return STATUS_OPTIMAL, best_cost, bytes(best_assign), self.nodes


def solve_compiled(nv, weights, lits, offsets, order, polarity, timeout):
    """Array-level entry point matching _pure.solve_compiled."""
    engine = _Engine(nv, weights, lits, offsets, order, polarity)
    return engine.run(timeout)
