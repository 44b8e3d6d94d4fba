"""The preprocessing-fraction sweep: parsing ``--sweep`` and running it."""

from __future__ import annotations

import collections

import pytest

from rfplan import bench
from rfplan.bench import BenchError, BenchSettings, parse_fractions, run_bench


@pytest.mark.parametrize(
    "text,fractions",
    [
        ("10,20,...,100", (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)),
        ("r=25,50,100", (25, 50, 100)),
        ("r=10,30,…,90", (10, 30, 50, 70, 90)),
        (" 5, 10 ,...,20 ", (5, 10, 15, 20)),
        ("100", (100,)),
        ("10,20,30,...,60", (10, 20, 30, 40, 50, 60)),
    ],
)
def test_parse_fractions(text, fractions):
    assert parse_fractions(text) == fractions


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "empty fraction list"),
        ("r=", "empty fraction list"),
        ("10,...,100", "two leading values"),
        ("10,20,...", "two leading values"),
        ("20,10,...,100", "step must be positive"),
        ("10,10,...,100", "step must be positive"),
        ("10,20,...,95", "95 is not reached by step 10"),
        ("10,20,25,...,95", "leading value 25 is off the step 10"),
        ("10,20,30,45,...,100", "leading value 45 is off the step 10"),
        ("10,x,...,100", "must be integers"),
        ("10,20.5", "must be integers"),
        ("0,50", "must be in 1..100, got 0"),
        ("50,101", "must be in 1..100, got 101"),
        ("10,20,...,110", "must be in 1..100, got 110"),
        ("50,20,50", "duplicate fractions"),
        # int() reads '_' separators and non-ASCII digits; a fraction is plain ASCII decimal
        ("1_0,\u0665\u0660", "must be integers"),
        ("10,20,...,1_00", "must be integers"),
    ],
)
def test_parse_fractions_rejects(text, needle):
    with pytest.raises(BenchError) as err:
        parse_fractions(text)
    assert needle in str(err.value)


def _answers(reports):
    """Everything in the reports but wall-clock time and memory."""
    return [
        (r.fraction, r.db_states, r.goals_found, [
            (row.index, row.state, *(
                (arm.status, arm.cost, arm.length, arm.makespan)
                for arm in (row.planner, row.greedy, row.oracle)
            ))
            for row in r.instances
        ])
        for r in reports
    ]


def test_run_bench_fraction_sweep(toy_forest, toy_table, unit_library, toy_params, monkeypatch):
    calls = collections.Counter()
    for name in ("greedy_plan", "oracle_plan"):
        def counted(*args, _name=name, _run=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)
        monkeypatch.setattr(bench, name, counted)
    settings = BenchSettings(params=toy_params, l_max=2, n_instances=3, sample_seed=4)
    reports = run_bench(toy_forest, toy_table, unit_library, settings, fractions=(50, 100))
    # greedy and the oracle read no database: one run per instance serves both fractions
    assert calls == {"greedy_plan": 3, "oracle_plan": 3}
    for a, b in zip(reports[0].instances, reports[1].instances):
        assert (a.greedy, a.oracle) == (b.greedy, b.oracle)
    n = toy_table.state_count
    assert [r.fraction for r in reports] == [50, 100]
    assert [r.db_states for r in reports] == [n // 2, n]
    assert reports[0].goals_found <= reports[0].db_states
    # both databases answer the same instances
    states = [[row.state for row in r.instances] for r in reports]
    assert states[0] == states[1] and len(states[0]) == 3
    again = run_bench(toy_forest, toy_table, unit_library, settings, fractions=(50, 100))
    assert _answers(again) == _answers(reports)


@pytest.mark.parametrize(
    "fractions,needle",
    [
        ((50.5,), "fractions must be integers, got 50.5"),
        ((True,), "fractions must be integers, got True"),
        ((50, 50), "duplicate fractions: 50, 50"),
        ((0,), "fractions must be in 1..100, got 0"),
    ],
    ids=["float", "bool", "duplicate", "zero"],
)
def test_run_bench_rejects_fractions(toy_forest, toy_table, unit_library, toy_params,
                                     fractions, needle):
    # the rule parse_fractions applies to --sweep
    settings = BenchSettings(params=toy_params, l_max=2, n_instances=3)
    with pytest.raises(BenchError) as err:
        run_bench(toy_forest, toy_table, unit_library, settings, fractions=fractions)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("k", 0, "k must be >= 1, got 0"),
        ("l_max", 0, "l_max must be >= 1, got 0"),
        ("workers", 0, "workers must be >= 1, got 0"),
        ("timeout", 0.0, "timeout must be None or a finite number of seconds > 0, got 0.0"),
        ("timeout", float("inf"), "timeout must be None or a finite number of seconds > 0, got inf"),
        ("timeout", True, "timeout must be None or a finite number of seconds > 0, got True"),
        ("timeout", "5", "timeout must be None or a finite number of seconds > 0, got '5'"),
        ("k", 2.5, "k must be an int, got 2.5"),
        ("l_max", 2.0, "l_max must be an int, got 2.0"),
        ("n_instances", 2.5, "n_instances must be an int, got 2.5"),
        ("workers", True, "workers must be an int, got True"),
        ("k", "3", "k must be an int, got '3'"),
    ],
    ids=["k", "l_max", "workers", "timeout-zero", "timeout-inf", "timeout-bool", "timeout-str",
         "k-float", "l_max-float", "n_instances-float", "workers-bool", "k-str"],
)
def test_bench_settings_reject_planner_settings(toy_params, field, value, needle):
    # rejected on construction, before run_bench spends a preprocessing pass
    with pytest.raises(BenchError) as err:
        BenchSettings(params=toy_params, **{field: value})
    assert needle in str(err.value)
