from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import time
import weakref

import pytest

from helpers import encoder_tasks, min_plan_cost, random_sas
from rfplan import maxsat
from rfplan.encoder import (
    ALREADY_GOAL,
    SOLVED,
    TIMEOUT,
    UNSOLVABLE,
    EncodingBug,
    PlanAttempt,
    PlanningError,
    SasProblem,
    _reachability_units,
    build_sas,
    check_plan,
    decode,
    encode,
    plan_actions,
)
from rfplan.forest import ModelError
from rfplan.maxsat import HARD_UNSAT, WcnfInstance, solve
from rfplan.offline import GoalDatabase, SearchError, SearchParams
from rfplan.sas_core import (
    WILDCARD,
    Action,
    ActionLibrary,
    Plan,
    Transition,
    simulate_plan,
    simulate_step,
)


def _lib(*actions):
    return ActionLibrary(actions=tuple(actions))


def _act(aid, cost, *trs):
    return Action(id=aid, transitions=tuple(Transition(*t) for t in trs), cost=cost)


def _solve_at(sas, L):
    instance, varmap = encode(sas, L)
    result = solve(instance)
    if result.status == HARD_UNSAT:
        return None
    plan = decode(result.assignment, varmap, sas)
    check_plan(plan, sas)
    return plan


# ---------------------------------------------------------------------------
# problem validation


def test_sas_problem_validation(unit_library):
    with pytest.raises(PlanningError, match="at least one goal"):
        SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=())
    with pytest.raises(PlanningError, match="state has 2 coordinates, table declares 3"):
        SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0), goals=((0, 1, 2),))
    with pytest.raises(PlanningError, match=r"coordinate 2: index 9 outside \[0, 3\)"):
        SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 9), goals=((0, 1, 2),))
    with pytest.raises(PlanningError, match="out of range"):
        SasProblem(sizes=(2,), library=unit_library, initial=(0,), goals=((1,),))
    lib = _lib(_act("a", 1.0, (0, 0, 5)))
    with pytest.raises(PlanningError, match="outside variable domain"):
        SasProblem(sizes=(2,), library=lib, initial=(0,), goals=((1,),))


@pytest.mark.parametrize("initial, goal, message", [
    ((0, 0, 0.5), (0, 1, 2), "coordinate 2: partition index must be an int, got 0.5"),
    ((0, 0, 0), (0, True, 2), "coordinate 1: partition index must be an int, got True"),
    ((0, 0, -1), (0, 1, 2), r"coordinate 2: index -1 outside \[0, 3\)"),
])
def test_sas_problem_takes_only_partition_indices(unit_library, initial, goal, message):
    # the task's states follow discretize.check_state's rule
    with pytest.raises(PlanningError, match=message):
        SasProblem(sizes=(2, 2, 3), library=unit_library, initial=initial, goals=(goal,))


def test_sas_problem_dedupes_goals(unit_library):
    sas = SasProblem(
        sizes=(2, 2, 3),
        library=unit_library,
        initial=(0, 0, 0),
        goals=((1, 1, 2), (0, 1, 2), (1, 1, 2)),
    )
    assert sas.goals == ((0, 1, 2), (1, 1, 2))


def test_encode_validation(unit_library):
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    encode(sas, 1)  # the checks also run once the library keeps clauses
    with pytest.raises(PlanningError, match="makespan"):
        encode(sas, 0)


# ---------------------------------------------------------------------------
# action weights: the catalog's costs as exact integers


def test_decimal_costs_weigh_exactly():
    tiny = SasProblem(
        sizes=(2,),
        library=_lib(_act("a", 0.0004, (0, 0, 1)), _act("b", 0.0006, (0, 1, 0))),
        initial=(0,),
        goals=((1,),),
    )
    instance, varmap = encode(tiny, 1)
    assert dict(varmap.weights) == {"a": 2, "b": 3}
    assert sorted(w for w, _ in instance.soft) == [2, 3]


def test_exact_weights_decide_between_close_costs():
    # rounded to thousandths every action weighs 1 and the direct plan looks
    # cheaper; exactly, the actions weigh 7, 3 and 3
    lib = _lib(
        _act("direct", 0.0014, (0, 0, 2)),
        _act("up1", 0.0006, (0, 0, 1)),
        _act("up2", 0.0006, (0, 1, 2)),
    )
    sas = SasProblem(sizes=(3,), library=lib, initial=(0,), goals=((2,),))
    plan = _solve_at(sas, 2)
    assert plan.action_ids() == [["up1"], ["up2"]]
    assert plan.cost == pytest.approx(0.0012, abs=1e-12)


def test_decimal_costs_match_the_step_bounded_reference():
    rng = random.Random(17)
    tasks = checked = 0
    while tasks < 200:
        task = random_sas(rng)
        if task.initial in task.goals:
            continue  # the online pipeline never encodes these
        tasks += 1
        library = _lib(*(
            dataclasses.replace(a, cost=rng.randint(1, 9999) / 10 ** rng.randint(1, 4))
            for a in task.library
        ))
        sas = SasProblem(task.sizes, library, task.initial, task.goals)
        for L in (1, 2, 3):
            plan, reference = _solve_at(sas, L), min_plan_cost(sas, L)
            assert (plan is None) == (reference is None)
            if plan is not None:
                assert abs(plan.cost - reference) <= 1e-9
                checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# golden encodings: the clauses and variable tables of fixed tasks, pinned


def _golden_tasks(unit_library):
    # fresh libraries, so that each call starts with no kept clauses
    extra = (
        _act("reset", 2.0, (2, WILDCARD, 0)),
        _act("keep", 1.5, (1, 1, 1), (2, WILDCARD, 2)),
    )
    mixed = _lib(*unit_library.actions, *extra)
    return {
        "unit": SasProblem((2, 2, 3), _lib(*unit_library.actions), (0, 0, 0), ((0, 1, 2),)),
        "mechanical": SasProblem((2, 2, 3), mixed, (1, 0, 1), ((0, 1, 2),)),
        "three_goals": SasProblem((2, 2, 3), mixed, (0, 1, 0), ((0, 0, 2), (1, 1, 2), (1, 0, 1))),
    }


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _encoding_digests(instance, varmap):
    tables = [
        [[list(k), v] for k, v in varmap.trans.items()],
        [[list(k), v] for k, v in varmap.acts.items()],
        [[list(k), v] for k, v in varmap.goals.items()],
    ]
    return _digest([instance.nvars, instance.hard, instance.soft]), _digest([varmap.nvars, tables])


# (clauses, reachability units included; variable tables) per (task, makespan)
GOLDEN_ENCODINGS = {
    ("unit", 1): ("4d1dec782fe76c5d", "a2682574defc34c3"),
    ("unit", 2): ("41df280293f3d2c0", "4d3c5c806d70d1a8"),
    ("unit", 3): ("fdf9cad3a0af1426", "478234866a57b41d"),
    ("mechanical", 1): ("56a18d72c730a43f", "c70e529d5356da75"),
    ("mechanical", 2): ("3775918aeb17a4b9", "b04bc37ebe3194ac"),
    ("mechanical", 3): ("2755ddcdef39a2d6", "0188c39683ba4294"),
    ("three_goals", 1): ("818c7f3e1d000320", "18fbae817136d01d"),
    ("three_goals", 2): ("abca3ee20a303c74", "1565fbfc6fd064df"),
    ("three_goals", 3): ("3a17a9c55bd3a41c", "7820e54ea6c15695"),
}


@pytest.mark.parametrize("name,L", sorted(GOLDEN_ENCODINGS))
def test_encoding_matches_golden_digest(unit_library, name, L):
    sas = _golden_tasks(unit_library)[name]
    # the first call builds the library's clauses, the second reuses them
    assert _encoding_digests(*encode(sas, L)) == GOLDEN_ENCODINGS[name, L]
    assert _encoding_digests(*encode(sas, L)) == GOLDEN_ENCODINGS[name, L]


def test_reused_clauses_match_a_fresh_library(unit_library):
    library = _golden_tasks(unit_library)["mechanical"].library
    queries = [
        ((0, 0, 0), ((0, 1, 2),)),
        ((1, 1, 2), ((0, 0, 0), (1, 0, 1))),
        ((0, 1, 1), ((1, 1, 0), (0, 0, 2), (1, 0, 0))),
    ]
    for L in (1, 2, 3):
        varmaps = []
        for initial, goals in queries:
            warm = encode(SasProblem((2, 2, 3), library, initial, goals), L)
            fresh = encode(SasProblem((2, 2, 3), _lib(*library.actions), initial, goals), L)
            assert warm == fresh
            varmaps.append(warm[1])
        # one library and makespan: one set of step-variable tables and weights
        assert all(vm.trans is varmaps[0].trans for vm in varmaps)
        assert all(vm.acts is varmaps[0].acts for vm in varmaps)
        assert all(vm.weights is varmaps[0].weights for vm in varmaps)
    # costs 1, 1.5, 2 and 4, in halves
    sas = SasProblem((2, 2, 3), library, (0, 0, 0), ((0, 1, 2),))
    assert {w for w, _ in encode(sas, 1)[0].soft} == {2, 3, 4, 8}


def test_dropping_a_library_frees_its_encodings():
    library = _lib(_act("a", 1.0, (0, 0, 1)))
    sas = SasProblem(sizes=(2,), library=library, initial=(0,), goals=((1,),))
    instance, varmap = encode(sas, 2)
    ref = weakref.ref(library)
    del library, sas, instance, varmap
    gc.collect()
    assert ref() is None


def test_one_compile_per_library_and_makespan(unit_library, monkeypatch):
    from rfplan.maxsat import model

    compiled = []
    real = model._compile
    monkeypatch.setattr(model, "_compile", lambda inst: compiled.append(inst) or real(inst))
    queries = [((0, 0, 0), ((0, 1, 2),)), ((1, 1, 0), ((0, 0, 2), (1, 0, 1)))]
    for _ in range(2):  # the second library, with the same actions, starts empty
        library = _lib(*unit_library.actions)
        assert library._encodings == {}
        del compiled[:]
        seen = {}
        for initial, goals in queries:
            for L in (2, 1):
                instance, _ = encode(SasProblem((2, 2, 3), library, initial, goals), L)
                solve(instance)
                kept = instance._kept
                assert kept is library._encodings[(2, 2, 3), L][1]
                assert seen.setdefault(L, kept._compiled) is kept._compiled
        kept = [library._encodings[(2, 2, 3), L][1] for L in (2, 1)]
        assert len(compiled) == 2 and all(a is b for a, b in zip(compiled, kept))
    # an instance that extend did not make is its own kept prefix, compiled once
    plain = WcnfInstance.build(instance.nvars, instance.hard, instance.soft)
    assert solve(plain) == solve(plain) == solve(instance)
    assert [c for c in compiled if c is plain] == [plain] and "_kept" not in vars(plain)


def test_varmap_step_tables_are_read_only(unit_library):
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    _, varmap = encode(sas, 1)
    with pytest.raises(TypeError):
        varmap.trans[(1, 0, 0, 0)] = 99
    with pytest.raises(TypeError):
        varmap.acts[(1, "visits:0->1")] = 99
    with pytest.raises(TypeError):
        del varmap.trans[(1, 0, 0, 0)]


# ---------------------------------------------------------------------------
# optimal cost as a function of makespan on the toy model


def test_toy_makespan_tradeoff(unit_library):
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    # one step forces the expensive balance jump next to the visits move
    plan1 = _solve_at(sas, 1)
    assert plan1.cost == 5.0 and plan1.makespan == 1
    assert plan1.action_ids() == [["balance:0->2", "visits:0->1"]]
    # two steps allow the two cheap balance moves instead
    plan2 = _solve_at(sas, 2)
    assert plan2.cost == 3.0
    plan3 = _solve_at(sas, 3)
    assert plan3.cost == 3.0
    assert plan3.goal == (0, 1, 2)


def test_varmap_descriptions(unit_library):
    # every variable id in 1..nvars has exactly one meaning, and none beyond
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    instance, varmap = encode(sas, 1)
    meanings = {}
    for kind, table in (("trans", varmap.trans), ("act", varmap.acts), ("goal", varmap.goals)):
        for key, v in table.items():
            assert v not in meanings, f"variable {v} has two meanings"
            meanings[v] = (kind, key)
    assert sorted(meanings) == list(range(1, varmap.nvars + 1))
    assert meanings[1] == ("trans", (1, 0, 0, 0))
    assert meanings[varmap.nvars] == ("goal", (0, 1, 2))
    assert instance.nvars == varmap.nvars


def test_varmap_write_map(unit_library, tmp_path):
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    instance, varmap = encode(sas, 1)
    assert instance.nvars == varmap.nvars
    path = tmp_path / "vars.map"
    varmap.write_map(path)
    lines = path.read_text().splitlines()
    assert len(lines) == varmap.nvars
    assert lines[0] == "1 t=1 transition x0:0->0"
    assert lines[-1] == f"{varmap.nvars} goal state (0, 1, 2)"


# ---------------------------------------------------------------------------
# step variables: exactly the transitions of each variable's graph


def _plus_minus_one(sizes):
    """A catalog that moves one variable to a neighbouring value per action."""
    return _lib(*(
        _act(f"x{v}:{f}->{g}", 1.0 + v, (v, f, g))
        for v, n in enumerate(sizes)
        for f in range(n)
        for g in (f - 1, f + 1)
        if 0 <= g < n
    ))


def _plus_minus_one_tasks():
    rng = random.Random(3)
    sizes = (4, 3, 2)
    library = _plus_minus_one(sizes)
    tasks = []
    while len(tasks) < 8:
        initial = tuple(rng.randrange(n) for n in sizes)
        goals = {tuple(rng.randrange(n) for n in sizes) for _ in range(rng.randint(1, 2))}
        if initial not in goals:
            tasks.append(SasProblem(sizes, library, initial, tuple(goals)))
    return tasks


@pytest.mark.parametrize("L", [1, 2, 3])
def test_step_variables_are_the_transition_graph(unit_library, L):
    # the toy catalog has no action on the hard feature gender
    assert not any(t.var == 0 for a in unit_library for t in a.transitions)
    tasks = [
        *_plus_minus_one_tasks(),
        SasProblem((2, 2, 3), unit_library, (0, 0, 0), ((0, 1, 2),)),
        _golden_tasks(unit_library)["mechanical"],
    ]
    for sas in tasks:
        _, varmap = encode(sas, L)
        for v, n in enumerate(sas.sizes):
            moves = {(t.frm, t.to) for a in sas.library for t in a.transitions if t.var == v}
            # a mechanical target is reached from every value
            graph = moves | {(f, f) for f in range(n)} | {
                (f, g) for frm, g in moves if frm is None for f in range(n)
            }
            for step in range(1, L + 1):
                assert {(f, g) for t, u, f, g in varmap.trans if (t, u) == (step, v)} == graph
        kept = sas.library._encodings[sas.sizes, L][1]
        assert all(len(c) > 1 for c in kept.hard)
    for sas in _plus_minus_one_tasks():
        plan = _solve_at(sas, L)
        assert (None if plan is None else plan.cost) == min_plan_cost(sas, L)


# ---------------------------------------------------------------------------
# parallel-step semantics inside the encoding


def test_mechanical_write_rides_along_with_explicit_mover():
    # the tagger's mechanical write makes x0's move on its own; the mover may
    # come along, but costs one more
    mover = _act("a", 1.0, (0, 0, 1))
    tagger = _act("b", 1.0, (0, WILDCARD, 1), (1, 0, 1))
    sas = SasProblem(sizes=(2, 2), library=_lib(mover, tagger), initial=(0, 0), goals=((1, 1),))
    assert min_plan_cost(sas, 1) == 1.0
    plan = _solve_at(sas, 1)
    assert plan is not None and plan.cost == 1.0
    assert plan.action_ids() == [["b"]]


def test_prevailing_condition_blocks_parallel_move():
    watcher = _act("a", 1.0, (0, 0, 0), (1, 0, 2))
    mover = _act("b", 1.0, (0, 0, 1))
    sas = SasProblem(sizes=(2, 3), library=_lib(watcher, mover), initial=(0, 0), goals=((1, 2),))
    assert _solve_at(sas, 1) is None, "the watcher pins x0 while the mover changes it"
    plan = _solve_at(sas, 2)
    assert plan.cost == 2.0
    assert plan.action_ids() == [["a"], ["b"]]


def _action_exclusions(instance, varmap):
    """Hard clauses made only of negated action variables."""
    act_vars = set(varmap.acts.values())
    return [c for c in instance.hard if all(-lit in act_vars for lit in c)]


@pytest.mark.parametrize("L", [1, 2, 3])
def test_clashing_actions_need_no_clause_of_their_own(unit_library, L):
    # single-transition actions clash only through their transitions, and the
    # transition-mutex clauses, or the units with backward chaining, already
    # exclude those pairs
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    instance, varmap = encode(sas, L)
    assert _action_exclusions(instance, varmap) == []


def _shared_write_task():
    # A and B both write x0:0->1, B and C both write x2:0->1
    lib = _lib(
        _act("A", 1.0, (0, 0, 1), (1, 0, 1)),
        _act("B", 1.0, (0, 0, 1), (2, 0, 1)),
        _act("C", 5.0, (2, 0, 1)),
    )
    return SasProblem(sizes=(2, 2, 2), library=lib, initial=(0, 0, 0), goals=((1, 1, 1),))


def test_shared_write_excludes_actions():
    sas = _shared_write_task()
    instance, varmap = encode(sas, 1)
    name = {v: aid for (_, aid), v in varmap.acts.items()}
    pairs = sorted(sorted(name[-lit] for lit in c) for c in _action_exclusions(instance, varmap))
    assert pairs == [["A", "B"], ["B", "C"]]
    plan = _solve_at(sas, 1)
    assert plan.action_ids() == [["A", "C"]] and plan.cost == 6.0, "A+B would cost 2"


def test_decode_drops_empty_steps():
    sas = _shared_write_task()
    _, varmap = encode(sas, 3)
    model = [False] * (varmap.nvars + 1)
    for key in ((2, "A"), (2, "C")):
        model[varmap.acts[key]] = True
    model[varmap.goals[(1, 1, 1)]] = True
    plan = decode(tuple(model), varmap, sas)
    assert plan.action_ids() == [["A", "C"]]
    assert (plan.cost, plan.goal) == (6.0, (1, 1, 1))
    solved = _solve_at(sas, 2)
    assert solved.action_ids() == [["A", "C"]] and solved.cost == 6.0


def test_decoded_goal_is_the_models_goal_variable():
    # A and C end in (1, 1, 1), but the model's goal variable names (1, 0, 1)
    sas = dataclasses.replace(_shared_write_task(), goals=((1, 0, 1), (1, 1, 1)))
    _, varmap = encode(sas, 1)
    model = [False] * (varmap.nvars + 1)
    for key in ((1, "A"), (1, "C")):
        model[varmap.acts[key]] = True
    model[varmap.goals[(1, 0, 1)]] = True
    plan = decode(tuple(model), varmap, sas)
    assert plan.goal == (1, 0, 1)
    with pytest.raises(EncodingBug, match=r"ends in \(1, 1, 1\), not its recorded goal"):
        check_plan(plan, sas)
    model[varmap.goals[(1, 1, 1)]] = True
    with pytest.raises(EncodingBug, match="model sets 2 goal variables, not exactly one"):
        decode(tuple(model), varmap, sas)


def test_mechanical_only_move_is_planned():
    # a value change that only a mechanical write makes: the explicit move
    # 0->2 exists because x0 has the mechanical target 2
    mech = _act("m", 3.0, (0, WILDCARD, 2))
    sas = SasProblem(sizes=(3,), library=_lib(mech), initial=(0,), goals=((2,),))
    assert simulate_plan((0,), [[mech]]) == (2,)
    for L in (1, 2, 3):
        assert min_plan_cost(sas, L) == 3.0
        plan = _solve_at(sas, L)
        assert plan.action_ids() == [["m"]] and plan.cost == 3.0


def _forward_chaining_clauses(varmap):
    """SASE's forward chaining, which the encoding leaves out: each explicit
    step-t transition goes on with a step-(t+1) one that starts where it ends."""
    for t in range(1, varmap.L):
        for v, pairs in enumerate(varmap.universe):
            for f, g in pairs:
                if f is not None:
                    yield [-varmap.trans[t, v, f, g]] + [
                        varmap.trans[t + 1, v, f2, g2] for f2, g2 in pairs if f2 == g
                    ]


def _with_mechanical(rng, sas, count=1):
    """``sas`` with ``count`` more actions, each one mechanical write."""
    taggers = []
    for j in range(count):
        v = rng.randrange(len(sas.sizes))
        taggers.append(_act(f"m{j}", 2.0, (v, WILDCARD, rng.randrange(sas.sizes[v]))))
    return SasProblem(sas.sizes, _lib(*sas.library.actions, *taggers), sas.initial, sas.goals)


def _refuted(instance, clause):
    """Whether ``instance`` with every literal of ``clause`` negated has no model."""
    hard = [*([-lit] for lit in clause), *instance.hard]
    return solve(WcnfInstance.build(instance.nvars, hard=hard)).status == HARD_UNSAT


def test_forward_chaining_is_implied():
    # encode's instance with a forward clause negated has no model, so every
    # model already chains forward; half the tasks carry a mechanical write
    rng = random.Random(5)
    checks = 0
    for i in range(60):
        sas = random_sas(rng)
        if i % 2:
            sas = _with_mechanical(rng, sas)
        for L in (2, 3):
            instance, varmap = encode(sas, L)
            for clause in _forward_chaining_clauses(varmap):
                assert _refuted(instance, clause), (sas, L, clause)
                checks += 1
    assert checks > 1000


def _left_out_mutex_pairs(varmap):
    """SASE's mutex pairs the encoding leaves out: two explicit transitions
    of one variable and step that leave different values, as a clause."""
    for t in range(1, varmap.L + 1):
        for v, pairs in enumerate(varmap.universe):
            explicit = [(f, g) for f, g in pairs if f is not None]
            for u, w in itertools.combinations(explicit, 2):
                if u[0] != w[0]:
                    yield [-varmap.trans[(t, v, *u)], -varmap.trans[(t, v, *w)]]


def test_left_out_mutex_pairs_are_implied():
    # encode's instance with both transitions of such a pair true has no
    # model: the units and backward chaining exclude them; half the tasks
    # carry a mechanical write
    rng = random.Random(29)
    checks = 0
    for i in range(60):
        sas = random_sas(rng)
        if i % 2:
            sas = _with_mechanical(rng, sas)
        for L in (1, 2, 3):
            instance, varmap = encode(sas, L)
            for clause in _left_out_mutex_pairs(varmap):
                assert _refuted(instance, clause), (sas, L, clause)
                checks += 1
    assert checks > 1000


# ---------------------------------------------------------------------------
# reachability units: encode fixes unusable step transitions false


def _units(sas, L):
    """(the instance encode returns, its units, varmap)."""
    instance, varmap = encode(sas, L)
    units = instance.hard[:varmap.units]
    assert units == _reachability_units(sas, varmap)
    return instance, units, varmap


def _assert_keeps_answers(sas, L):
    """The instance encode returns, units included, is unsatisfiable exactly
    when no plan within L steps exists, and else decodes to a checked plan
    as cheap as the cheapest one.  Ties may pick another model."""
    instance, _, varmap = _units(sas, L)
    result = solve(instance)
    reference = min_plan_cost(sas, L)
    if reference is None:
        assert result.status == HARD_UNSAT, (sas, L)
    else:
        plan = decode(result.assignment, varmap, sas)
        check_plan(plan, sas)
        assert abs(plan.cost - reference) <= 1e-9, (sas, L)


def test_reachability_units_keep_answers_on_the_kernel_pin_tasks():
    # the tasks whose encodings test_maxsat pins
    for sas in encoder_tasks():
        for L in (1, 2, 3):
            _assert_keeps_answers(sas, L)


def test_reachability_units_keep_answers_on_random_tasks():
    rng = random.Random(2024)
    tasks = 0
    while tasks < 1000:
        sas = random_sas(rng)
        if sas.initial in sas.goals:
            continue  # the online pipeline never encodes these
        tasks += 1
        for L in (1, 2, 3, 4):
            _assert_keeps_answers(sas, L)


def test_mechanical_tasks_match_the_step_bounded_reference():
    # tasks with one or two mechanical writes, some of which make value
    # changes that no explicit transition makes
    rng = random.Random(7)
    tasks = 0
    while tasks < 300:
        sas = _with_mechanical(rng, random_sas(rng), count=rng.randint(1, 2))
        if sas.initial in sas.goals:
            continue  # the online pipeline never encodes these
        tasks += 1
        for L in (1, 2, 3, 4):
            _assert_keeps_answers(sas, L)


def _mechanical_tasks(unit_library):
    golden = _golden_tasks(unit_library)
    yield golden["mechanical"]
    yield golden["three_goals"]
    rng = random.Random(11)
    for _ in range(40):
        yield _with_mechanical(rng, random_sas(rng))


def test_reachability_units_leave_mechanical_transitions_alone(unit_library):
    pruned_any = False
    for sas in _mechanical_tasks(unit_library):
        for L in (1, 2, 3):
            _, units, varmap = _units(sas, L)
            meaning = {x: key for key, x in varmap.trans.items()}
            for (lit,) in units:
                assert lit < 0 and meaning[-lit][2] is not None, meaning[-lit]
            pruned_any = pruned_any or bool(units)
            _assert_keeps_answers(sas, L)
    assert pruned_any


def _steps_to_a_goal_value(sas, v):
    """Fewest steps variable ``v`` needs from its start to some goal value,
    moving only along explicit action transitions; None if it never can."""
    targets = {g[v] for g in sas.goals}
    frontier, seen, steps = {sas.initial[v]}, {sas.initial[v]}, 0
    while frontier:
        if frontier & targets:
            return steps
        frontier = {
            t.to for a in sas.library for t in a.transitions
            if t.var == v and t.frm in frontier and t.to not in seen
        }
        seen |= frontier
        steps += 1
    return None


def test_unreachable_goal_value_is_unsat_without_search():
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        sas = random_sas(rng, nvars_max=4, domain_max=4)
        if sas.initial in sas.goals:
            continue
        need = [_steps_to_a_goal_value(sas, v) for v in range(len(sas.sizes))]
        for L in (1, 2, 3, 4):
            if all(n is not None and n <= L for n in need):
                continue
            result = solve(encode(sas, L)[0])
            assert (result.status, result.nodes) == (HARD_UNSAT, 0), (sas, L)
            hits += 1
    assert hits >= 100


# ---------------------------------------------------------------------------
# decoded-plan checking


def test_check_plan_rejects_corruptions(unit_library):
    sas = SasProblem(sizes=(2, 2, 3), library=unit_library, initial=(0, 0, 0), goals=((0, 1, 2),))
    good = _solve_at(sas, 2)
    check_plan(good, sas)

    wrong_goal = Plan(steps=good.steps, cost=good.cost, goal=(0, 0, 0))
    with pytest.raises(EncodingBug, match="not its recorded goal"):
        check_plan(wrong_goal, sas)

    wrong_cost = Plan(steps=good.steps, cost=good.cost + 1, goal=good.goal)
    with pytest.raises(EncodingBug, match="sum of action costs"):
        check_plan(wrong_cost, sas)

    short = Plan(steps=good.steps[:1], cost=1.0,
                 goal=simulate_step(sas.initial, (good.steps[0][0],)))
    with pytest.raises(EncodingBug, match="not a goal state"):
        check_plan(short, sas)

    foreign = Action(id="alien", transitions=(Transition(0, 0, 1),), cost=1.0)
    borrowed = Plan(steps=((foreign,),), cost=1.0, goal=(1, 0, 0))
    with pytest.raises(EncodingBug, match="not present in the library"):
        check_plan(borrowed, sas)

    stuck = Plan(
        steps=((unit_library.by_id("balance:1->2"),),), cost=1.0, goal=(0, 0, 2)
    )
    with pytest.raises(EncodingBug, match="does not execute"):
        check_plan(stuck, sas)


# ---------------------------------------------------------------------------
# goal selection


def test_build_sas_collects_neighbor_goals(toy_db, toy_table, unit_library, toy_forest):
    sas = build_sas((0, 0, 1), toy_db, 3, toy_forest, toy_table, unit_library)
    assert sas.initial == (0, 0, 1)
    assert sas.goals == ((0, 1, 2),), "every same-gender neighbor stores the same goal"


def _half_db(toy_db, toy_params, keep_gender):
    entries = {s: e for s, e in toy_db.entries.items() if s[0] == keep_gender}
    return GoalDatabase(fingerprint=toy_db.fingerprint, params=toy_params, entries=entries)


def test_build_sas_fallback_search(toy_db, toy_params, toy_table, unit_library, toy_forest):
    other = _half_db(toy_db, toy_params, keep_gender=1)
    # no usable neighbor: every stored state differs on the hard feature
    sas = build_sas((0, 0, 1), other, 3, toy_forest, toy_table, unit_library)
    assert sas.goals == ((0, 1, 2),)


def test_build_sas_rejects_tampered_goal(toy_db, toy_params, toy_table, unit_library, toy_forest):
    from rfplan.offline import PROVED_EXHAUSTED, PreferredGoalEntry

    entries = dict(toy_db.entries)
    entries[(0, 0, 1)] = PreferredGoalEntry(
        initial=(0, 0, 1), goal=(0, 0, 0), cost=1.0, expansions=1, status=PROVED_EXHAUSTED
    )
    bad = GoalDatabase(fingerprint=toy_db.fingerprint, params=toy_params, entries=entries)
    with pytest.raises(PlanningError, match="does not match this model"):
        build_sas((0, 0, 1), bad, 1, toy_forest, toy_table, unit_library)


def test_build_sas_rejects_an_unknown_target(toy_db, toy_table, unit_library, toy_forest):
    other = dataclasses.replace(toy_db, params=SearchParams(target="no such class"))
    with pytest.raises(ModelError, match="unknown class 'no such class'"):
        build_sas((0, 0, 1), other, 3, toy_forest, toy_table, unit_library)


# ---------------------------------------------------------------------------
# the full online pipeline


def test_plan_actions_first_sat(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 1))
    assert out.status == SOLVED and out.solved
    assert out.plan.cost == 2.0
    assert out.plan.goal == (0, 1, 2)
    assert [a.L for a in out.attempts] == [1]
    assert out.attempts[0].status == "sat" and out.attempts[0].cost == 2.0


def test_plan_actions_sweep_keeps_cheapest(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(
        toy_forest, toy_table, unit_library, toy_db,
        state=(0, 0, 0), l_max=3, sweep=True,
    )
    assert out.status == SOLVED
    assert out.plan.cost == 3.0
    assert [(a.L, a.status, a.cost) for a in out.attempts] == [
        (1, "sat", 5.0), (2, "sat", 3.0), (3, "sat", 3.0)
    ]


def test_plan_actions_first_sat_stops_early(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0), l_max=3)
    assert out.status == SOLVED and out.plan.cost == 5.0
    assert len(out.attempts) == 1


def test_plan_actions_already_goal(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 1, 2))
    assert out.status == ALREADY_GOAL and out.solved
    assert out.plan.cost == 0.0 and out.plan.steps == ()
    assert out.attempts == ()


def test_plan_actions_accepts_raw_vector(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(toy_forest, toy_table, unit_library, toy_db, x=("male", 2.0, 1200.0))
    assert out.s_init == (0, 0, 1)
    assert out.plan.cost == 2.0


def test_plan_actions_unsolvable(toy_forest, toy_table, unit_library, toy_db, toy_params):
    # no usable neighbor, and the fallback search cannot change visits
    other = _half_db(toy_db, toy_params, keep_gender=1)
    balance_only = ActionLibrary(
        actions=tuple(a for a in unit_library.actions if a.id.startswith("balance:"))
    )
    out = plan_actions(toy_forest, toy_table, balance_only, other, state=(0, 0, 1))
    assert out.status == UNSOLVABLE and not out.solved
    assert out.plan is None and out.goals == ()


def test_plan_actions_timeout(toy_forest, toy_table, unit_library, toy_db):
    out = plan_actions(
        toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0), timeout=1e-9
    )
    assert out.status == TIMEOUT
    assert out.plan is None
    assert out.attempts[-1].status == "timeout"


def test_plan_actions_reports_reachability_units(toy_forest, toy_table, unit_library, toy_db):
    args = (toy_forest, toy_table, unit_library, toy_db)
    out = plan_actions(*args, state=(0, 0, 0), l_max=3, sweep=True)
    sas = SasProblem(toy_table.sizes, unit_library, out.s_init, out.goals)
    assert [a.units for a in out.attempts] == [
        len(_reachability_units(sas, encode(sas, L)[1])) for L in (1, 2, 3)
    ]
    assert all(a.units > 0 for a in out.attempts)
    # the count is evidence, not part of the answer
    assert out.attempts[0] == dataclasses.replace(out.attempts[0], units=None)

    def outlasts_its_budget(instance, timeout=None):
        time.sleep(timeout + 0.01)
        return solve(instance)

    # no instance is built once the budget is gone: no count either
    out = plan_actions(*args, state=(0, 0, 0), l_max=3, sweep=True, timeout=0.05,
                       solver=outlasts_its_budget)
    assert [(a.status, a.units is None) for a in out.attempts] == [
        ("sat", False), ("timeout", True)
    ]


@pytest.mark.parametrize("timeout", [0, 0.0, -1, float("nan"), float("inf"), "5", True])
def test_plan_actions_rejects_a_timeout_that_is_not_positive(
    toy_forest, toy_table, unit_library, toy_db, timeout
):
    # 0 used to mean no limit while -1 timed out at once
    with pytest.raises(PlanningError, match="timeout must be"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0),
                     timeout=timeout)


def _reports_timeout(model=None, from_call=1):
    """A solver that finds the optimum but, from call ``from_call`` on,
    reports it as a timeout incumbent; ``model(instance)`` replaces the
    model, and a model of None means no incumbent was found."""
    calls = []

    def solver(instance, timeout=None):
        calls.append(instance)
        res = solve(instance)
        if len(calls) < from_call or res.status != maxsat.OPTIMAL:
            return res
        if model is not None:
            assignment = model(instance)
            res = dataclasses.replace(
                res, assignment=assignment, cost=None if assignment is None else res.cost
            )
        return dataclasses.replace(res, status=maxsat.TIMEOUT)

    return solver


def test_plan_actions_keeps_checked_incumbent_on_timeout(
    toy_forest, toy_table, unit_library, toy_db
):
    args = (toy_forest, toy_table, unit_library, toy_db)
    exact = plan_actions(*args, state=(0, 0, 0))
    out = plan_actions(*args, state=(0, 0, 0), solver=_reports_timeout())
    assert out.status == TIMEOUT and not out.solved
    assert out.plan == exact.plan
    assert out.attempts[-1].status == "timeout"
    assert out.attempts[-1].cost == exact.plan.cost
    # with sweep, an earlier makespan's optimum is kept when the next solve
    # times out without an incumbent, but it is not called solved
    swept = plan_actions(*args, state=(0, 0, 0), sweep=True, l_max=3)
    first = [a.status for a in swept.attempts].index("sat") + 1
    out = plan_actions(*args, state=(0, 0, 0), sweep=True, l_max=3,
                       solver=_reports_timeout(model=lambda inst: None, from_call=first + 1))
    assert out.status == TIMEOUT and not out.solved
    assert out.plan == exact.plan
    assert out.attempts == swept.attempts[:first] + (
        PlanAttempt(L=first + 1, status="timeout", cost=None),
    )


def test_plan_actions_rejects_corrupt_incumbent(toy_forest, toy_table, unit_library, toy_db):
    def nothing_fires(instance):
        return (False,) * (instance.nvars + 1)

    with pytest.raises(EncodingBug, match="model sets 0 goal variables"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0),
                     solver=_reports_timeout(model=nothing_fires))

    # balance:1->2 at step 1 does not apply to the start's balance 0
    sas = SasProblem(toy_table.sizes, unit_library, (0, 0, 0), ((0, 1, 2),))
    varmap = encode(sas, 1)[1]
    stuck = varmap.acts[(1, "balance:1->2")]
    goal = varmap.goals[(0, 1, 2)]  # the first goal variable, after the step variables

    def fires_stuck(instance):
        return tuple(v in (stuck, goal) for v in range(instance.nvars + 1))

    with pytest.raises(EncodingBug, match="does not execute"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0), l_max=1,
                     solver=_reports_timeout(model=fires_stuck))


def test_plan_actions_validation(toy_forest, toy_table, unit_library, toy_db):
    with pytest.raises(PlanningError, match="exactly one"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db)
    with pytest.raises(PlanningError, match="exactly one"):
        plan_actions(
            toy_forest, toy_table, unit_library, toy_db,
            x=("male", 2.0, 500.0), state=(0, 0, 0),
        )
    with pytest.raises(PlanningError, match="k must be"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0), k=0)
    with pytest.raises(PlanningError, match="l_max must be"):
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0), l_max=0)


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("k", 2.5, "k must be an int, got 2.5"),
        ("k", True, "k must be an int, got True"),
        ("k", "3", "k must be an int, got '3'"),
        ("l_max", 2.5, "l_max must be an int, got 2.5"),
        ("l_max", True, "l_max must be an int, got True"),
        ("l_max", -1, "l_max must be >= 1, got -1"),
    ],
    ids=["k-float", "k-bool", "k-str", "l_max-float", "l_max-bool", "l_max-negative"],
)
def test_plan_actions_rejects_counts_that_are_not_positive_ints(
    toy_forest, toy_table, unit_library, toy_db, field, value, needle
):
    # a float k used to fail inside k-NN and True ran as 1
    with pytest.raises(PlanningError) as err:
        plan_actions(toy_forest, toy_table, unit_library, toy_db, state=(0, 0, 0),
                     **{field: value})
    assert needle in str(err.value)


def test_plan_actions_rejects_foreign_db(toy_forest, toy_table, unit_library, toy_db, toy_params):
    stale = GoalDatabase(fingerprint="0" * 64, params=toy_params, entries=dict(toy_db.entries))
    with pytest.raises(SearchError, match="does not match"):
        plan_actions(toy_forest, toy_table, unit_library, stale, state=(0, 0, 0))
