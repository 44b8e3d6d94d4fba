from __future__ import annotations

import itertools
import json
import math
import pickle
import random

import pytest

from helpers import random_sas
from rfplan.discretize import enumerate_states
from rfplan.sas_core import (
    WILDCARD,
    Action,
    ActionError,
    ActionLibrary,
    CostModel,
    Plan,
    Transition,
    action_mutex,
    default_action_library,
    load_action_spec,
    neighbors,
    parse_action_spec,
    simulate_plan,
    simulate_step,
    transition_mutex,
)


# ---------------------------------------------------------------------------
# transitions


def test_transition_kinds():
    regular = Transition(var=0, frm=1, to=2)
    prevailing = Transition(var=0, frm=1, to=1)
    mechanical = Transition(var=0, frm=WILDCARD, to=2)
    assert not regular.is_mechanical and not regular.is_prevailing
    assert prevailing.is_prevailing and not prevailing.is_mechanical
    assert mechanical.is_mechanical and not mechanical.is_prevailing
    assert str(regular) == "x0:1->2"
    assert str(mechanical) == "x0:*->2"


@pytest.mark.parametrize(
    "t1,t2,mutex",
    [
        # identical transitions never clash
        ((0, 1, 2), (0, 1, 2), False),
        # different variables never clash
        ((0, 1, 2), (1, 1, 0), False),
        # same variable, both explicit, different: clash
        ((0, 1, 2), (0, 0, 2), True),
        ((0, 1, 2), (0, 1, 0), True),
        # hold vs move on the same variable: clash
        ((0, 1, 1), (0, 0, 1), True),
        # a mechanical write agrees with anything landing on the same value
        ((0, WILDCARD, 2), (0, 1, 2), False),
        ((0, WILDCARD, 2), (0, 2, 2), False),
        # ... but not with a different target
        ((0, WILDCARD, 2), (0, 1, 1), True),
        ((0, WILDCARD, 1), (0, WILDCARD, 2), True),
        ((0, WILDCARD, 2), (0, WILDCARD, 2), False),
    ],
)
def test_transition_mutex(t1, t2, mutex):
    a = Transition(*t1)
    b = Transition(*t2)
    assert transition_mutex(a, b) is mutex
    assert transition_mutex(b, a) is mutex


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, 0, 1), "variable index must be an int, got 1.5"),
        ((True, 0, 1), "variable index must be an int, got True"),
        ((-1, 0, 1), "variable index must be >= 0, got -1"),
        ((0, 0, 1.0), "target value must be an int, got 1.0"),
        ((0, 0, False), "target value must be an int, got False"),
        ((0, 0, -1), "target value must be >= 0, got -1"),
        ((0, 0.5, 1), "source value must be an int, got 0.5"),
        ((0, "1", 1), "source value must be an int, got '1'"),
        ((0, -1, 1), "source value must be >= 0, got -1"),
    ],
)
def test_transition_rejects(args, message):
    with pytest.raises(ActionError) as exc:
        Transition(*args)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# actions


@pytest.mark.parametrize(
    "cost, message",
    [
        ("1", "cost must be a number, got '1'"),
        (None, "cost must be a number, got None"),
        (True, "cost must be a number, got True"),
        (0.0, "cost must be finite and > 0, got 0.0"),
        (-2, "cost must be finite and > 0, got -2"),
        (math.nan, "cost must be finite and > 0, got nan"),
    ],
)
def test_action_cost_rejects(cost, message):
    with pytest.raises(ActionError) as exc:
        Action(id="a", transitions=(Transition(0, 0, 1),), cost=cost)
    assert str(exc.value) == f"action 'a': {message}"


def test_action_validation():
    t = Transition(var=0, frm=0, to=1)
    with pytest.raises(ActionError, match="cost"):
        Action(id="a", transitions=(t,), cost=0.0)
    with pytest.raises(ActionError, match="finite"):
        Action(id="a", transitions=(t,), cost=math.inf)
    with pytest.raises(ActionError, match="transition"):
        Action(id="a", transitions=(), cost=1.0)
    clash = (Transition(var=0, frm=0, to=1), Transition(var=0, frm=0, to=2))
    with pytest.raises(ActionError, match="mutually exclusive"):
        Action(id="a", transitions=clash, cost=1.0)
    # a mechanical write may sit next to a transition to the same value only
    same = (Transition(var=0, frm=0, to=1), Transition(var=0, frm=WILDCARD, to=1))
    assert len(Action(id="a", transitions=same, cost=1.0).transitions) == 2
    other = (Transition(var=0, frm=0, to=1), Transition(var=0, frm=WILDCARD, to=2))
    with pytest.raises(ActionError, match="mutually exclusive"):
        Action(id="a", transitions=other, cost=1.0)


def test_action_apply_semantics():
    a = Action(
        id="combo",
        transitions=(
            Transition(var=0, frm=0, to=1),        # regular
            Transition(var=1, frm=2, to=2),        # prevailing condition
            Transition(var=2, frm=WILDCARD, to=0),  # mechanical write
        ),
        cost=2.0,
    )
    assert a.applicable((0, 2, 5))
    assert simulate_step((0, 2, 5), (a,)) == (1, 2, 0)
    assert not a.applicable((1, 2, 5))
    assert not a.applicable((0, 1, 5))
    with pytest.raises(ActionError, match="applicable"):
        simulate_step((1, 2, 5), (a,))


def test_action_mutex_rules():
    move = Action(id="m", transitions=(Transition(var=0, frm=0, to=1),), cost=1.0)
    other_var = Action(id="o", transitions=(Transition(var=1, frm=0, to=1),), cost=1.0)
    assert not action_mutex(move, other_var)
    # sharing a non-prevailing transition is a clash even without transition mutex
    twin = Action(id="t", transitions=(Transition(var=0, frm=0, to=1),
                                       Transition(var=1, frm=0, to=1)), cost=1.0)
    assert action_mutex(move, twin)
    # sharing only a prevailing transition is fine
    watch1 = Action(id="w1", transitions=(Transition(var=0, frm=0, to=0),
                                          Transition(var=1, frm=0, to=1)), cost=1.0)
    watch2 = Action(id="w2", transitions=(Transition(var=0, frm=0, to=0),
                                          Transition(var=2, frm=0, to=1)), cost=1.0)
    assert not action_mutex(watch1, watch2)
    # mutex transition pair: hold vs move
    assert action_mutex(move, watch1)


# ---------------------------------------------------------------------------
# cost model and the default library


def test_cost_model():
    cm = CostModel(weights=(2.0, 5.0))
    assert cm.step_cost(0, 0, 3) == 18.0
    assert cm.step_cost(1, 3, 1) == 20.0
    with pytest.raises(ActionError):
        CostModel(weights=(1.0, -1.0))


def test_cost_model_random_is_integer_valued():
    import numpy as np

    cm = CostModel.random(50, np.random.default_rng(0), 1, 100)
    assert all(w == int(w) and 1 <= w <= 100 for w in cm.weights)


def test_default_library_toy(toy_table, unit_library):
    assert len(unit_library) == 8
    ids = [a.id for a in unit_library]
    assert ids == sorted(ids)
    assert "gender" not in "".join(ids), "hard features must get no actions"
    assert unit_library.by_id("balance:0->2").cost == 4.0
    assert unit_library.by_id("visits:1->0").cost == 1.0
    for a in unit_library:
        assert len(a.transitions) == 1
        t = a.transitions[0]
        assert not t.is_mechanical and not t.is_prevailing


def test_neighbors_toy(unit_library):
    out = neighbors((0, 0, 0), unit_library)
    assert [(a.id, s, c) for a, s, c in out] == [
        ("balance:0->1", (0, 0, 1), 1.0),
        ("balance:0->2", (0, 0, 2), 4.0),
        ("visits:0->1", (0, 1, 0), 1.0),
    ]


def test_library_lookup(unit_library):
    with pytest.raises(KeyError):
        unit_library.by_id("nope:0->1")
    a = unit_library.by_id("visits:0->1")
    assert a in unit_library
    assert Action(id=a.id, transitions=a.transitions, cost=2.0) not in unit_library
    assert "visits:0->1" not in unit_library
    with pytest.raises(ActionError, match="duplicate"):
        a = Action(id="a", transitions=(Transition(var=0, frm=0, to=1),), cost=1.0)
        ActionLibrary(actions=(a, a))


def _scan(s, library):
    """Reference successor generation: every action, checked one by one."""
    return [(a, simulate_step(s, (a,)), a.cost) for a in library.actions if a.applicable(s)]


# mechanical-only; mechanical plus prevailing; lowest-sorted transition
# mechanical (keyed on its second); prevailing-only on the hard feature;
# two regular transitions
_EDGE_SPEC = """[
  {"id": "reset", "cost": 2, "transitions": [{"feature": "balance", "to": 0}]},
  {"id": "reset-both", "cost": 3, "transitions": [{"feature": "visits", "to": 0},
                                                  {"feature": "balance", "to": 0}]},
  {"id": "keep-visits", "cost": 1, "transitions": [{"feature": "visits", "from": 1, "to": 1},
                                                   {"feature": "balance", "to": 2}]},
  {"id": "bump", "cost": 4, "transitions": [{"feature": "visits", "to": 1},
                                            {"feature": "balance", "from": 0, "to": 1}]},
  {"id": "female-only", "cost": 1, "transitions": [{"feature": "gender", "from": "female", "to": "female"},
                                                   {"feature": "balance", "from": 2, "to": 1}]},
  {"id": "hard-guard", "cost": 1, "transitions": [{"feature": "gender", "from": "male", "to": "male"}]},
  {"id": "swap", "cost": 5, "transitions": [{"feature": "visits", "from": 0, "to": 1},
                                            {"feature": "balance", "from": 1, "to": 0}]}
]"""


def test_neighbors_match_full_scan(toy_table, unit_library):
    spec = parse_action_spec(_EDGE_SPEC, toy_table)
    assert spec.by_id("bump").transitions[0].is_mechanical
    cases = [(unit_library, list(enumerate_states(toy_table))),
             (spec, list(enumerate_states(toy_table)))]
    for seed in range(50):
        sas = random_sas(random.Random(seed), actions_max=10)
        cases.append((sas.library, list(itertools.product(*map(range, sas.sizes)))))
    for library, states in cases:
        for s in states:
            assert neighbors(s, library) == _scan(s, library), (s, library)
    assert [(a.id, s, c) for a, s, c in neighbors((1, 0, 2), spec)] == [
        ("female-only", (1, 0, 1), 1.0),
        ("reset", (1, 0, 0), 2.0),
        ("reset-both", (1, 0, 0), 3.0),
    ]


def test_library_index_keeps_value_semantics(toy_table):
    spec = parse_action_spec(_EDGE_SPEC, toy_table)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)
    same = ActionLibrary(actions=tuple(reversed(spec.actions)))
    assert same == spec and hash(same) == hash(spec)
    assert repr(spec) == f"ActionLibrary(actions={spec.actions!r})"
    for s in enumerate_states(toy_table):
        assert neighbors(s, back) == neighbors(s, same) == neighbors(s, spec)


# ---------------------------------------------------------------------------
# plans and simulation


def test_simulate_step(unit_library):
    up = unit_library.by_id("visits:0->1")
    jump = unit_library.by_id("balance:0->2")
    assert simulate_step((0, 0, 0), [jump, up]) == (0, 1, 2)
    with pytest.raises(ActionError, match="applicable"):
        simulate_step((0, 1, 0), [up])
    move1 = unit_library.by_id("balance:0->1")
    with pytest.raises(ActionError, match="mutually exclusive"):
        simulate_step((0, 0, 0), [move1, jump])


def test_simulate_plan(unit_library):
    steps = (
        (unit_library.by_id("balance:0->1"), unit_library.by_id("visits:0->1")),
        (unit_library.by_id("balance:1->2"),),
    )
    assert simulate_plan((0, 0, 0), steps) == (0, 1, 2)


def test_plan_invariants(unit_library):
    steps = ((unit_library.by_id("visits:0->1"), unit_library.by_id("balance:0->1")),)
    plan = Plan(steps=steps, cost=2.0, goal=(0, 1, 1))
    assert plan.makespan == 1
    assert plan.n_actions == 2
    assert plan.action_ids() == [["balance:0->1", "visits:0->1"]]


# ---------------------------------------------------------------------------
# action spec files


def _write(tmp_path, text):
    path = tmp_path / "actions.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_action_spec_happy_path(toy_table, tmp_path):
    spec = """[
  {"id": "save", "cost": 3.5, "transitions": [{"feature": "balance", "from": 0, "to": 2}]},
  {"id": "visit-more", "cost": 1.0, "transitions": [{"feature": 1, "to": 1}]},
  {"id": "spend", "cost": 2.0, "transitions": [{"feature": "balance", "from": 1600.0, "to": 0}]}
]"""
    lib = load_action_spec(_write(tmp_path, spec), toy_table)
    assert [a.id for a in lib] == ["save", "spend", "visit-more"]
    save = lib.by_id("save")
    assert save.transitions == (Transition(var=2, frm=0, to=2),)
    # omitted "from" means the action works from any cell
    assert lib.by_id("visit-more").transitions[0].is_mechanical
    # raw threshold values resolve to the cell that contains them
    assert lib.by_id("spend").transitions == (Transition(var=2, frm=2, to=0),)


def _entry(body: str) -> str:
    return f'{{"id": "a", "cost": 1, "transitions": [{body}]}}'


@pytest.mark.parametrize(
    "entry,needle",
    [
        (_entry('{"feature": "gender", "from": "male", "to": "female"}'), "hard"),
        (_entry('{"feature": "nope", "to": 1}'), "nope"),
        (_entry('{"feature": "visits", "to": 9}'), "outside"),
        ('{"id": "a", "transitions": [{"feature": "visits", "to": 1}]}', "cost"),
        ('{"cost": 1, "transitions": [{"feature": "visits", "to": 1}]}', "id"),
        ('{"id": "a", "cost": -2, "transitions": [{"feature": "visits", "to": 1}]}', "cost"),
        ('{"id": "a", "cost": Infinity, "transitions": [{"feature": "visits", "to": 1}]}',
         ":2: action 'a': cost must be finite"),
        # the id keeps the case's name from before the record rule's wording
        pytest.param('{"id": "a", "cost": 1, "transitions": []}',
                     ":2: action 'a': needs at least one transition",
                     id='{"id": "a", "cost": 1, "transitions": []}-transitions'),
        (_entry('{"feature": "visits"}'), "'to'"),
        (_entry('{"feature": "visits", "to": "lots"}'),
         ":2: action 'a': 'to': feature 'visits': 'lots' is not a number"),
        (_entry('{"feature": "balance", "from": 0, "to": NaN}'),
         ":2: action 'a': 'to': feature 'balance': nan is not finite"),
        (_entry('{"feature": "balance", "from": 0, "to": Infinity}'),
         ":2: action 'a': 'to': feature 'balance': inf is not finite"),
        (_entry('{"feature": "balance", "from": 2, "to": -Infinity}'),
         ":2: action 'a': 'to': feature 'balance': -inf is not finite"),
        (_entry('{"feature": "balance", "form": 0, "to": 1}'),
         ":2: action 'a': transitions[0]: unknown keys ['form']; known: ['feature', 'to', 'from']"),
    ],
)
def test_action_spec_rejects(toy_table, tmp_path, entry, needle):
    path = _write(tmp_path, f"[\n  {entry}\n]")
    with pytest.raises(ActionError) as err:
        load_action_spec(path, toy_table)
    assert needle in str(err.value)


def test_action_spec_errors_carry_line_numbers(toy_table):
    text = (
        "[\n"
        '  {"id": "ok", "cost": 1, "transitions": [{"feature": "visits", "to": 1}]},\n'
        '  {"id": "bad", "cost": 1,\n'
        '   "transitions": [{"feature": "gender", "from": "male", "to": "female"}]}\n'
        "]"
    )
    with pytest.raises(ActionError, match="spec.json:3"):
        parse_action_spec(text, toy_table, source="spec.json")
    # an earlier element's string holds "[", "," and an escaped quote
    text = (
        "[\n"
        '  {"id": "odd [, \\"name", "cost": 1,\n'
        '   "transitions": [{"feature": "visits", "to": 1}]}, {"id": "bad", "cost": 1,\n'
        '   "transitions": [{"feature": "gender", "from": "male", "to": "female"}]}\n'
        "]"
    )
    with pytest.raises(ActionError, match="spec.json:3"):
        parse_action_spec(text, toy_table, source="spec.json")


def test_action_spec_not_json(toy_table, tmp_path):
    with pytest.raises(ActionError, match="JSON"):
        load_action_spec(_write(tmp_path, "[oops"), toy_table)
    with pytest.raises(ActionError, match="array"):
        load_action_spec(_write(tmp_path, json.dumps({"id": "a"})), toy_table)
