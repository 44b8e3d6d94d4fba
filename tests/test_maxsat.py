from __future__ import annotations

import hashlib
import pickle
import random
import re

import pytest

from helpers import brute_force_cost, encoder_tasks, random_wcnf, without_units
from rfplan.encoder import SasProblem, encode
from rfplan.maxsat import _pure
from rfplan.maxsat import (
    HARD_UNSAT,
    OPTIMAL,
    TIMEOUT,
    BackendError,
    WcnfError,
    WcnfInstance,
    read_solver_output,
    solve,
    solve_external,
    wcnf_read,
    wcnf_write,
)

# ---------------------------------------------------------------------------
# instance construction


def test_build_normalizes_clauses():
    inst = WcnfInstance.build(
        nvars=3,
        hard=[[3, 1, 1, -2], [1, -1]],  # second clause is a tautology
        soft=[(2, [2, 2]), (5, [-3, 3])],
    )
    assert inst.hard == ((1, -2, 3),)
    assert inst.soft == ((2, (2,)),)
    assert inst.top == 3


def test_build_keeps_empty_hard_clause():
    inst = WcnfInstance.build(nvars=2, hard=[[]])
    assert inst.hard == ((),)
    assert solve(inst).status == HARD_UNSAT


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(nvars=-1), "variable count"),
        (dict(nvars=2, hard=[[0]]), "reserved"),
        (dict(nvars=2, hard=[[3]]), "exceeds"),
        (dict(nvars=2, soft=[(0, [1])]), "positive"),
        (dict(nvars=2, soft=[(-4, [1])]), "positive"),
        (dict(nvars=2, soft=[(1.5, [1])]), "int"),
        (dict(nvars=2, soft=[(True, [1])]), "int"),
        (dict(nvars=2, hard=[["x"]]), "not an int"),
    ],
)
def test_build_rejects(kwargs, needle):
    with pytest.raises(WcnfError, match=needle):
        WcnfInstance.build(**kwargs)


@pytest.mark.parametrize(
    "unit,message",
    [
        ((1.0,), "hard clause 0: literal 1.0 is not an int"),
        ((True,), "hard clause 0: literal True is not an int"),
        ((0,), "hard clause 0: literal 0 is reserved"),
        ((-4,), "hard clause 0: literal -4 exceeds declared variable count 3"),
    ],
    ids=["non-int", "bool", "zero", "out-of-range"],
)
def test_one_literal_clause_rejects(unit, message):
    base = WcnfInstance.build(nvars=3, hard=[[1, 2]])
    for make in (lambda: base.extend(3, [unit]), lambda: WcnfInstance.build(3, hard=[unit])):
        with pytest.raises(WcnfError) as exc:
            make()
        assert str(exc.value) == message


def test_check_counts_falsified_weight():
    inst = WcnfInstance.build(nvars=2, hard=[[1, 2]], soft=[(3, [1]), (4, [-2])])
    hard_ok, cost = inst.check((False, True, True))
    assert hard_ok and cost == 4
    hard_ok, cost = inst.check((False, False, False))
    assert not hard_ok and cost == 3
    with pytest.raises(WcnfError, match="length"):
        inst.check((False, True))


def _reference_check(instance, assignment):
    """The generator form ``WcnfInstance.check`` had before it became loops."""

    def sat(lits):
        return any(assignment[l] if l > 0 else not assignment[-l] for l in lits)

    hard_ok = all(sat(lits) for lits in instance.hard)
    cost = sum(w for w, lits in instance.soft if not sat(lits))
    return hard_ok, cost


def test_check_matches_reference():
    rng = random.Random(3)
    instances = [random_wcnf(rng, nv_max=10) for _ in range(60)]
    # empty clauses: an empty hard clause is never satisfied, an empty soft one always costs
    instances.append(WcnfInstance.build(nvars=2, hard=[[], [1]], soft=[(4, []), (2, [-2])]))
    instances.append(WcnfInstance.build(nvars=1, hard=[[1]], soft=[(6, [])]))
    instances.append(WcnfInstance.build(nvars=0))
    for inst in instances:
        n = inst.nvars + 1
        for assignment in (
            (False,) * n,
            (True,) * n,
            *(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(5)),
        ):
            assert inst.check(assignment) == _reference_check(inst, assignment)
        with pytest.raises(WcnfError, match="length"):
            inst.check((False,) * (n + 1))


# ---------------------------------------------------------------------------
# solving known instances


def test_solve_trivial_instances():
    empty = WcnfInstance.build(nvars=0)
    res = solve(empty)
    assert (res.status, res.cost, res.assignment) == (OPTIMAL, 0, (False,))

    sat_only = WcnfInstance.build(nvars=2, hard=[[1], [-2]])
    res = solve(sat_only)
    assert res.status == OPTIMAL and res.cost == 0
    assert res.assignment[1] is True and res.assignment[2] is False

    # variables 2 and 3 occur in no clause
    res = solve(WcnfInstance.build(nvars=3, hard=[[1]], soft=[(2, [-1])]))
    assert (res.status, res.cost, res.assignment) == (OPTIMAL, 2, (False, True, False, False))
    # the highest variable occurs negated
    res = solve(WcnfInstance.build(nvars=2, hard=[[-2, -1], [2]], soft=[(1, [1])]))
    assert (res.status, res.cost, res.assignment) == (OPTIMAL, 1, (False, False, True))
    # an empty soft clause is falsified by every model
    res = solve(WcnfInstance.build(nvars=1, soft=[(3, []), (1, [1])]))
    assert (res.status, res.cost, res.assignment) == (OPTIMAL, 3, (False, True))


def test_solve_forced_tradeoff():
    # hard x1, soft prefers -x1 (w 5) and x2 (w 2): best pays exactly 5
    inst = WcnfInstance.build(nvars=2, hard=[[1]], soft=[(5, [-1]), (2, [2])])
    res = solve(inst)
    assert res.status == OPTIMAL
    assert res.cost == 5
    assert res.assignment[1] is True and res.assignment[2] is True


def test_solve_soft_conflict_picks_heavier_side():
    inst = WcnfInstance.build(nvars=1, soft=[(7, [1]), (3, [-1])])
    res = solve(inst)
    assert res.cost == 3
    assert res.assignment[1] is True


def test_solve_hard_unsat():
    inst = WcnfInstance.build(nvars=1, hard=[[1], [-1]])
    res = solve(inst)
    assert res.status == HARD_UNSAT
    assert res.cost is None and res.assignment is None


def test_optimal_model_passes_check():
    rng = random.Random(7)
    for _ in range(10):
        inst = random_wcnf(rng, nv_max=12)
        res = solve(inst)
        if res.status != OPTIMAL:
            continue
        hard_ok, cost = inst.check(res.assignment)
        assert hard_ok and cost == res.cost


def test_timeout_reports_timeout_status():
    # pure optimization instance hard enough that the search passes the
    # deadline check interval many times over
    rng = random.Random(1)
    nv = 26
    soft = [(rng.randint(1, 50), [rng.choice((-1, 1)) * v for v in rng.sample(range(1, nv + 1), 3)])
            for _ in range(nv * 8)]
    inst = WcnfInstance.build(nvars=nv, soft=soft)
    full = solve(inst)  # same search without a deadline, so node counts compare
    assert full.nodes > 5000, "instance too easy to exercise the deadline path"
    res = solve(inst, timeout=1e-9)
    assert res.status == TIMEOUT
    assert res.nodes < full.nodes
    if res.assignment is not None:
        hard_ok, cost = inst.check(res.assignment)
        assert hard_ok and cost == res.cost and cost >= full.cost


def test_timeout_before_any_incumbent(monkeypatch):
    monkeypatch.setattr(_pure, "_CHECK_EVERY", 1)
    inst = WcnfInstance.build(nvars=3, hard=[[1, 2, 3]], soft=[(2, [-1]), (3, [-2]), (1, [-3])])
    res = solve(inst, timeout=1e-9)
    assert res.status == TIMEOUT
    assert res.cost is None and res.assignment is None and res.nodes == 0


@pytest.mark.parametrize("timeout", [0, 0.0, -1, float("nan"), float("inf"), "5", True])
def test_solvers_reject_a_timeout_that_is_not_positive(timeout, tmp_path):
    # 0 and -1 used to mean no limit
    inst = WcnfInstance.build(nvars=1, soft=[(1, [1])])
    with pytest.raises(BackendError, match="timeout must be"):
        solve(inst, timeout=timeout)
    marker = tmp_path / "ran"
    with pytest.raises(BackendError, match="timeout must be"):
        solve_external(inst, f"touch {marker}", timeout=timeout)
    assert not marker.exists()


def test_timeout_incumbent_is_rechecked(monkeypatch):
    inst = WcnfInstance.build(nvars=2, hard=[[1, 2]], soft=[(3, [-1])])
    # a kernel that times out with an incumbent falsifying the hard clause
    monkeypatch.setattr(_pure, "solve_compiled", lambda *a: (TIMEOUT, 0, (False, False, False), 1))
    with pytest.raises(BackendError, match="inconsistent model"):
        solve(inst)
    # ... or one whose reported cost is not its model's
    monkeypatch.setattr(_pure, "solve_compiled", lambda *a: (TIMEOUT, 0, (False, True, False), 1))
    with pytest.raises(BackendError, match="reported cost 0, recomputed 3"):
        solve(inst)


# ---------------------------------------------------------------------------
# brute-force optimality and pinned search


def test_matches_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        inst = random_wcnf(rng, nv_max=12)
        exists, best = brute_force_cost(inst)
        res = solve(inst)
        if not exists:
            assert res.status == HARD_UNSAT
        else:
            assert res.status == OPTIMAL
            assert res.cost == best


def _random_cnf_instances():
    rng = random.Random(42)
    return [random_wcnf(rng, nv_max=12) for _ in range(40)]


def _encoder_instances():
    """Encodings of small random SAS+ tasks at makespans 1..3, without
    their reachability units, which would leave the kernel little to search."""
    return [without_units(*encode(sas, L)) for sas in encoder_tasks() for L in (1, 2, 3)]


# (status, cost, nodes) of the kernel on the instances above.  Node counts
# pin the search itself, a branch and bound that cuts a branch only when its
# cost reaches the incumbent's (no lower bound): a speed-up that keeps the
# algorithm must reproduce every one of them, not only the statuses and costs.
O, U = OPTIMAL, HARD_UNSAT
_RANDOM_CNF_PINS = [
    (O, 0, 8), (O, 0, 20), (O, 0, 14), (O, 16, 8), (O, 30, 4), (O, 0, 6), (O, 0, 22),
    (O, 78, 6), (O, 34, 8), (O, 0, 2), (O, 31, 24), (O, 6, 2), (U, None, 0), (O, 0, 12),
    (O, 8, 8), (O, 57, 54), (O, 43, 2), (U, None, 0), (U, None, 0), (O, 30, 24),
    (U, None, 0), (O, 0, 4), (O, 4, 24), (U, None, 0), (O, 13, 4), (O, 49, 4),
    (O, 20, 0), (O, 108, 4), (O, 14, 8), (U, None, 0), (O, 31, 4), (O, 25, 12),
    (O, 58, 20), (O, 2, 12), (O, 27, 4), (O, 0, 8), (O, 144, 6), (O, 35, 36),
    (O, 76, 14), (O, 0, 6),
]
_ENCODER_PINS = [
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (O, 6, 10), (O, 6, 18), (O, 6, 28), (O, 7, 18), (O, 7, 36),
    (O, 7, 56), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0), (O, 9, 4), (O, 9, 4), (O, 9, 6), (U, None, 2), (U, None, 4),
    (U, None, 6), (O, 10, 6), (O, 10, 10), (O, 10, 26), (U, None, 0),
    (U, None, 0), (U, None, 0), (O, 8, 20), (O, 5, 22), (O, 5, 38),
    (O, 3, 10), (O, 3, 18), (O, 3, 28), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (O, 8, 16),
    (O, 8, 30), (O, 8, 46), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 2), (U, None, 4), (U, None, 6),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 8), (O, 11, 34), (O, 11, 78), (U, None, 0), (U, None, 0),
    (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0), (U, None, 0),
    (U, None, 0),
]


@pytest.mark.parametrize(
    "instances,pins",
    [(_random_cnf_instances, _RANDOM_CNF_PINS), (_encoder_instances, _ENCODER_PINS)],
    ids=["random-cnf", "encoder"],
)
def test_node_counts_pinned(instances, pins):
    got = [(r.status, r.cost, r.nodes) for r in (solve(i) for i in instances())]
    assert got == pins


# sha256 over the pure kernel's models on the instances above, one
# assignment (or "-" for none) per instance, each followed by ";".  This
# pins the model itself, not only its cost.
@pytest.mark.parametrize(
    "instances,digest",
    [
        (_random_cnf_instances,
         "a112e3a947d7d2a582a04e232e2c417c524f8542d09193092f40848f61acde59"),
        (_encoder_instances,
         "beffff1d3c593f00d5c7e8bf6d233c87cfd6ff8e6ee494b218ba485250616183"),
    ],
    ids=["random-cnf", "encoder"],
)
def test_models_pinned(instances, digest):
    h = hashlib.sha256()
    for inst in instances():
        model = solve(inst).assignment
        h.update(b"-" if model is None else bytes(model))
        h.update(b";")
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# kept prefixes: an extended instance solves like the same clauses built plain


def _outcome(result):
    return result.status, result.cost, result.assignment, result.nodes


def _plain(instance):
    return WcnfInstance.build(instance.nvars, instance.hard, instance.soft)


def test_kept_compile_equals_a_fresh_compile():
    """Two queries per library at L = 1..4, makespans interleaved, each
    also without its reachability units: the kept prefix extended with the
    start and goal clauses alone.  The first query is solved again at the
    end, so a kernel that wrote into the kept lists would change its answer."""
    rng = random.Random(7)
    for task in encoder_tasks():
        queries = [task]
        while len(queries) < 2:
            initial = tuple(rng.randrange(n) for n in task.sizes)
            goals = tuple({tuple(rng.randrange(n) for n in task.sizes) for _ in range(2)})
            if initial not in goals:
                queries.append(SasProblem(task.sizes, task.library, initial, goals))
        solves = []
        for i, L in enumerate((1, 3, 2, 4)):
            for sas in queries[i % 2:] + queries[:i % 2]:
                instance, varmap = encode(sas, L)
                kept = instance._kept
                query = instance.hard[varmap.units:len(instance.hard) - len(kept.hard)]
                solves.append(instance)
                solves.append(kept.extend(instance.nvars, query))
        solves.append(solves[0])
        for instance in solves:
            assert _outcome(solve(instance)) == _outcome(solve(_plain(instance)))


def test_kept_compile_with_variables_new_to_the_prefix():
    """Extras that name variables above the prefix's nvars and a prefix
    variable that no prefix clause uses, against plain builds and brute force."""
    rng = random.Random(11)
    for _ in range(40):
        inst = random_wcnf(rng, nv_max=10)
        nv0 = inst.nvars + 1  # variable nv0 is in no prefix clause
        prefix = WcnfInstance(nv0, inst.hard, inst.soft)
        for _ in range(3):
            nv = nv0 + rng.randint(1, 3)
            extra = [[rng.choice([-1, 1]) * nv0, rng.choice([-1, 1]) * nv]]
            for _ in range(rng.randint(0, 4)):
                width = rng.randint(1, 3)
                extra.append([rng.choice([-1, 1]) * v
                              for v in rng.sample(range(1, nv + 1), width)])
            ext = prefix.extend(nv, extra)
            res = solve(ext)
            assert _outcome(res) == _outcome(solve(_plain(ext)))
            exists, best = brute_force_cost(ext)
            assert res.status == (OPTIMAL if exists else HARD_UNSAT)
            assert res.cost == best


# (prefix, nvars, added hard clauses): each case files clauses of a kind the
# kernel keeps apart from the counter clauses
_FILING_CASES = {
    "soft-units-on-one-literal-add": (
        WcnfInstance.build(3, hard=[[1, 2]], soft=[(2, [-1]), (3, [-1]), (4, [-2])]),
        3, [[-3, 1]]),
    "empty-soft-clause": (
        WcnfInstance.build(2, hard=[[1, 2]], soft=[(3, []), (1, [-1]), (2, [-2])]),
        2, [[-1, 2]]),
    "wide-soft-beside-units": (
        WcnfInstance.build(3, hard=[[1, 2, 3]],
                           soft=[(2, [1, -2]), (3, [-1]), (1, [-2, -3, 1]), (5, [-3])]),
        4, [[4, -1], [-4, -2, 3]]),
    "prefix-unit-against-added-unit": (
        WcnfInstance.build(2, hard=[[1], [1, 2]], soft=[(1, [-2])]),
        2, [[-1]]),
    "added-binary-on-prefix-literal": (
        WcnfInstance.build(3, hard=[[1, 2], [-2, 3]], soft=[(1, [-1]), (2, [-3]), (1, [2])]),
        4, [[-1, -3], [-4, 2], [4]]),
}


@pytest.mark.parametrize("prefix,nvars,extra", _FILING_CASES.values(), ids=_FILING_CASES)
def test_filed_clauses_match_brute_force(prefix, nvars, extra):
    """The prefix, its extension, then the prefix again through its kept
    lists: an extension that wrote into them would change that last solve."""
    for inst in (prefix, prefix.extend(nvars, extra), prefix.extend(prefix.nvars, ())):
        res = solve(inst)
        assert _outcome(res) == _outcome(solve(_plain(inst)))
        exists, best = brute_force_cost(inst)
        assert res.status == (OPTIMAL if exists else HARD_UNSAT)
        assert res.cost == best


def test_extended_instance_is_the_plain_instance(tmp_path):
    base = WcnfInstance.build(nvars=3, hard=[[1, 2], [-2, 3]], soft=[(4, [-1]), (2, [-3])])
    ext = base.extend(5, [[5, 4, 4], [-4, 4], [-3]]).extend(5, [[-5]])
    plain = WcnfInstance.build(nvars=5, hard=[[-5], [4, 5], [-3], [1, 2], [-2, 3]],
                               soft=[(4, [-1]), (2, [-3])])
    assert ext == plain and hash(ext) == hash(plain) and repr(ext) == repr(plain)
    assert solve(ext) == solve(plain)
    for inst in (ext, base):  # the solve above left a compiled prefix on base
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and set(vars(copy)) == {"nvars", "hard", "soft"}
    wcnf_write(ext, tmp_path / "ext.wcnf")
    wcnf_write(plain, tmp_path / "plain.wcnf")
    assert (tmp_path / "ext.wcnf").read_bytes() == (tmp_path / "plain.wcnf").read_bytes()
    with pytest.raises(WcnfError, match="exceeds"):
        base.extend(3, [[4]])
    with pytest.raises(WcnfError, match="cannot extend 3 variables to 2"):
        base.extend(2, [])


def test_kernel_layers_keep_their_names_and_nodes():
    # perfbench's tracer rebinds these two and reads the nodes at result[3]
    from rfplan.maxsat import model

    instance = without_units(*encode(encoder_tasks()[2], 2))
    result = _pure.solve_compiled(instance.nvars, *model.compile_instance(instance), None)
    assert result[3] == solve(instance).nodes == 18


# ---------------------------------------------------------------------------
# DIMACS files


def test_wcnf_roundtrip(tmp_path):
    rng = random.Random(5)
    for i in range(10):
        inst = random_wcnf(rng, nv_max=10)
        path = tmp_path / f"case{i}.wcnf"
        wcnf_write(inst, path)
        back = wcnf_read(path)
        assert back == inst


def test_wcnf_write_format(tmp_path):
    inst = WcnfInstance.build(nvars=2, hard=[[1, -2]], soft=[(3, [2])])
    path = tmp_path / "out.wcnf"
    wcnf_write(inst, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p wcnf 2 2 4"
    assert lines[1] == "4 1 -2 0"
    assert lines[2] == "3 2 0"


def _read_text(tmp_path, text):
    path = tmp_path / "bad.wcnf"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "text,needle",
    [
        ("c only a comment\n", "missing"),
        ("1 1 0\np wcnf 1 1 2\n", "before header"),
        ("p wcnf 1 1\n", "malformed"),
        ("p cnf 1 1 2\n", "malformed"),
        ("p wcnf 1 x 2\n", "non-integer header"),
        ("p wcnf 1 1 0\n", "out of range"),
        ("p wcnf 1 1 2\np wcnf 1 1 2\n", "duplicate header"),
        ("p wcnf 1 1 2\n1 z 0\n", "non-integer token"),
        ("p wcnf 1 1 2\n0 1 0\n", "positive"),
        ("p wcnf 1 1 2\n9 1 0\n", "exceeds top"),
        ("p wcnf 1 1 2\n1 5 0\n", "exceeds declared"),
        ("p wcnf 1 1 2\n1 1\n", "not terminated"),
        ("p wcnf 1 2 2\n1 1 0\n", "declares 2 clauses, found 1"),
    ],
)
def test_wcnf_read_rejects(tmp_path, text, needle):
    with pytest.raises(WcnfError, match=needle):
        wcnf_read(_read_text(tmp_path, text))


def test_wcnf_read_errors_carry_line_numbers(tmp_path):
    path = _read_text(tmp_path, "c intro\np wcnf 1 1 2\n1 5 0\n")
    with pytest.raises(WcnfError, match=r"bad\.wcnf:3"):
        wcnf_read(path)


def test_wcnf_read_accepts_comments_and_blank_lines(tmp_path):
    text = "c header comment\n\np wcnf 2 2 4\nc between\n4 1 0\n\n3 -2 0\n"
    inst = wcnf_read(_read_text(tmp_path, text))
    assert inst.hard == ((1,),)
    assert inst.soft == ((3, (-2,)),)


def test_wcnf_read_multiline_clause(tmp_path):
    text = "p wcnf 3 1 5\n4 1\n2 -3 0\n"
    inst = wcnf_read(_read_text(tmp_path, text))
    assert inst.soft == ((4, (1, 2, -3)),)


# ---------------------------------------------------------------------------
# external solver answers


def _answer_instance():
    # x1 or x2; falsifying -x1 costs 3, -x2 costs 1: the optimum sets only x2
    return WcnfInstance.build(nvars=2, hard=[[1, 2]], soft=[(3, [-1]), (1, [-2])])


@pytest.mark.parametrize(
    "text,status,cost,assignment",
    [
        ("c log line\ns OPTIMUM FOUND\no 1\nv -1 2\n", OPTIMAL, 1, (False, False, True)),
        ("s OPTIMUM FOUND\nv 01\n", OPTIMAL, 1, (False, False, True)),
        ("o 3\ns SATISFIABLE\nv 1 -2\n", TIMEOUT, 3, (False, True, False)),
        ("s UNSATISFIABLE\n", HARD_UNSAT, None, None),
        ("s UNKNOWN\n", TIMEOUT, None, None),
    ],
    ids=["optimum", "bit-string", "satisfiable-is-not-optimal", "unsat", "unknown"],
)
def test_read_solver_output(text, status, cost, assignment):
    res = read_solver_output(text, _answer_instance())
    assert (res.status, res.cost, res.assignment) == (status, cost, assignment)


@pytest.mark.parametrize(
    "text,error,needle",
    [
        ("s OPTIMUM FOUND\nv 1 -3\n", WcnfError, "names variable 3, instance has 2"),
        ("s OPTIMUM FOUND\nv 1 -1 2\n", WcnfError, "names variable 1 with both signs"),
        ("s OPTIMUM FOUND\nv 011\n", WcnfError, "has 3 bits, instance has 2 variables"),
        ("s OPTIMUM FOUND\nv +1\n", WcnfError, r"bad literal '\+1'"),
        ("s OPTIMUM FOUND\nv \u0661\n", WcnfError, "bad literal '\u0661'"),
        ("s OPTIMUM FOUND\nv -1 -2\n", BackendError, "falsifies a hard clause"),
        ("s OPTIMUM FOUND\no 0\nv -1 2\n", BackendError, "objective 0 disagrees"),
        ("s SATISFIABLE\no 1\nv 1 2\n", BackendError, "objective 1 disagrees"),
        ("o 1\nv -1 2\n", WcnfError, "no status"),
        ("s OPTIMUM FOUND\no 1\n", WcnfError, "no `v` line"),
        ("s DONE\n", WcnfError, "unrecognised solver status"),
    ],
)
def test_read_solver_output_rejects(text, error, needle):
    with pytest.raises(error, match=needle):
        read_solver_output(text, _answer_instance())


def test_read_solver_output_rejects_non_decimal_literal():
    # int() reads each of these as 10, which passes the model check at cost 1
    inst = WcnfInstance.build(nvars=12, hard=[[10]], soft=[(1, [-10])])
    for model in ("1_0", "+10", "\u0661\u0660"):
        with pytest.raises(WcnfError, match=f"bad literal '{re.escape(model)}'"):
            read_solver_output(f"s OPTIMUM FOUND\nv {model}\n", inst)


def test_read_solver_output_rejects_short_bit_string():
    # on three variables `01` is a bit string cut short, not the literal 1:
    # read as x1 alone it passes the model check at cost 1, though the optimum is 0
    inst = WcnfInstance.build(nvars=3, hard=[[1, 2, 3]], soft=[(1, [-1])])
    for model in ("01", "-01"):
        with pytest.raises(WcnfError, match=f"bad literal '{model}'.*needs 3 bits"):
            read_solver_output(f"s OPTIMUM FOUND\nv {model}\n", inst)
