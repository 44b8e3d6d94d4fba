"""Shared generators and brute-force oracles for the test suite.

Random forests are built directly in threshold-index space so every tree
satisfies the narrowing invariant by construction; Max-SAT and planning
results are cross-checked against exhaustive enumeration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from rfplan.discretize import build_partitions, check_state
from rfplan.encoder import SasProblem
from rfplan.forest import (
    CATEGORICAL,
    HARD,
    NUMERICAL,
    SOFT,
    FeatureMeta,
    Leaf,
    ModelError,
    RandomForest,
    Split,
    TrainParams,
    train_forest,
)
from rfplan.maxsat.model import WcnfInstance
from rfplan.sas_core import (
    Action,
    ActionLibrary,
    CostModel,
    Transition,
    action_mutex,
    default_action_library,
    simulate_step,
)


# ---------------------------------------------------------------------------
# random forests over small partition spaces


def _grow_random_tree(rng, features, windows, classes, depth):
    splittable = [
        i for i, w in enumerate(windows)
        if (features[i].is_numerical and w[0] < w[1]) or
           (features[i].is_categorical and len(w) >= 2)
    ]
    if depth == 0 or not splittable or rng.random() < 0.25:
        return Leaf(label=rng.choice(classes))
    i = rng.choice(splittable)
    meta = features[i]
    if meta.is_numerical:
        lo, hi = windows[i]
        t = rng.randrange(lo, hi)
        left_w = list(windows)
        left_w[i] = (lo, t)
        right_w = list(windows)
        right_w[i] = (t + 1, hi)
        return Split(
            feature=i,
            threshold=float(t + 1),
            left=_grow_random_tree(rng, features, left_w, classes, depth - 1),
            right=_grow_random_tree(rng, features, right_w, classes, depth - 1),
        )
    cats = windows[i]
    pick = rng.choice(cats)
    left_w = list(windows)
    left_w[i] = [pick]
    right_w = list(windows)
    right_w[i] = [c for c in cats if c != pick]
    return Split(
        feature=i,
        categories=(pick,),
        left=_grow_random_tree(rng, features, left_w, classes, depth - 1),
        right=_grow_random_tree(rng, features, right_w, classes, depth - 1),
    )


def random_soft_forest(seed, m_range=(3, 5), cells_max=5, state_cap=150,
                       trees_max=7, depth_max=3, hard_chance=0.3):
    """A small random forest plus its partition table.

    Numerical thresholds sit at 1.0, 2.0, ... so partition cells are the
    unit intervals; an optional hard categorical feature exercises the
    immutable-attribute paths.
    """
    rng = random.Random(seed)
    m = rng.randint(*m_range)
    features = []
    cell_plan = []
    budget = state_cap
    with_hard = rng.random() < hard_chance
    for i in range(m):
        if with_hard and i == 0:
            features.append(FeatureMeta(name="f0", kind=CATEGORICAL, mutability=HARD,
                                        categories=("a", "b")))
            cell_plan.append(2)
            budget //= 2
            continue
        room = [c for c in range(2, cells_max + 1) if c <= budget]
        cells = rng.choice(room) if room else 1
        budget = budget // max(cells, 1)
        features.append(FeatureMeta(name=f"f{i}", kind=NUMERICAL, mutability=SOFT))
        cell_plan.append(cells)
    classes = (0, 1)
    trees = []
    for _ in range(rng.randint(2, trees_max)):
        windows = [
            list(meta.categories) if meta.is_categorical else (0, cells - 1)
            for meta, cells in zip(features, cell_plan)
        ]
        trees.append(_grow_random_tree(rng, features, windows, classes, depth_max))
    forest = RandomForest(
        features=tuple(features), classes=classes, trees=tuple(trees),
        weights=(1.0,) * len(trees),
    )
    return forest, build_partitions(forest)


def random_weighted_forest(seed):
    """A three-class forest with categorical features and uneven tree weights.

    The weights are not sums of powers of two, so a share depends on the
    order its votes are added in.
    """
    rng = random.Random(seed)
    features = (
        FeatureMeta(name="colour", kind=CATEGORICAL, categories=("r", "g", "b", "w")),
        FeatureMeta(name="a", kind=NUMERICAL),
        FeatureMeta(name="kind", kind=CATEGORICAL, mutability=HARD, categories=("x", "y")),
        FeatureMeta(name="b", kind=NUMERICAL),
    )
    classes = ("lo", "mid", "hi")
    trees = []
    for _ in range(rng.randint(3, 12)):
        windows = [list(features[0].categories), (0, rng.randint(1, 5)),
                   list(features[2].categories), (0, rng.randint(0, 3))]
        trees.append(_grow_random_tree(rng, features, windows, classes, 4))
    weights = [rng.choice((0.1, 0.3, 0.7, 1.0, 2.2, 5.9)) for _ in trees]
    forest = RandomForest(features=features, classes=classes, trees=tuple(trees),
                          weights=tuple(weights))
    return forest, build_partitions(forest)


def random_state(rng, table):
    return tuple(rng.randrange(n) for n in table.sizes)


def benchmark_rows():
    """The benchmark's data set: (features, rows, labels).

    Four integer features in 0..9, 1500 rows from ``default_rng(0)``
    labelled ``x0 + x1 - x2 + N(0, 2) > 8``.
    """
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10, size=(1500, 4))
    y = x[:, 0] + x[:, 1] - x[:, 2] + rng.normal(0.0, 2.0, 1500) > 8
    features = [FeatureMeta(f"x{i}", NUMERICAL) for i in range(4)]
    return features, [tuple(float(v) for v in row) for row in x], [int(v) for v in y]


def baseline_model():
    """The benchmark's baseline model: (forest, table, library).

    20 trees of depth 3 over ``benchmark_rows``, an 8x8x7x5 grid and 174
    actions priced by ``CostModel.random`` with ``default_rng(1)`` over
    [1, 100].
    """
    forest = train_forest(*benchmark_rows(), TrainParams(n_trees=20, max_depth=3, rng_seed=0))
    table = build_partitions(forest)
    cost = CostModel.random(4, np.random.default_rng(1), 1, 100)
    return forest, table, default_action_library(table, cost)


# ---------------------------------------------------------------------------
# exact state similarity, the reference k_nearest is checked against


def feature_similarity(s1, s2, i, table):
    meta = table.features[i]
    n = table.sizes[i]
    if meta.is_categorical:
        return Fraction(1) if s1[i] == s2[i] else Fraction(0)
    if n == 1:
        return Fraction(1)
    return 1 - Fraction(abs(s1[i] - s2[i]), n - 1)


def state_similarity(s1, s2, weights, table):
    """Weighted mean of the per-feature similarities, 0 on a hard mismatch."""
    s1 = check_state(table, s1)
    s2 = check_state(table, s2)
    if len(weights) != len(table.features):
        raise ModelError(f"{len(weights)} similarity weights for {len(table.features)} features")
    for i, meta in enumerate(table.features):
        if not meta.is_soft and s1[i] != s2[i]:
            return Fraction(0)
    num = sum(w * feature_similarity(s1, s2, i, table) for i, w in enumerate(weights))
    return num / sum(weights)


# ---------------------------------------------------------------------------
# Max-SAT instances and exhaustive reference


def random_wcnf(rng, nv_max=20, nv_min=3, hard_mult=1.5, soft_mult=1.5,
                weight_max=40):
    nv = rng.randint(nv_min, nv_max)
    hard = []
    for _ in range(rng.randint(1, int(nv * hard_mult))):
        width = rng.randint(1, min(3, nv))
        hard.append([rng.choice([-1, 1]) * v
                     for v in rng.sample(range(1, nv + 1), width)])
    soft = []
    for _ in range(rng.randint(1, int(nv * soft_mult))):
        width = rng.randint(1, min(2, nv))
        clause = [rng.choice([-1, 1]) * v
                  for v in rng.sample(range(1, nv + 1), width)]
        soft.append((rng.randint(1, weight_max), clause))
    return WcnfInstance.build(nv, hard, soft)


def read_wcnf(path):
    """The instance in a WCNF file that ``wcnf_write`` wrote: a header
    ``p wcnf <nvars> <nclauses> <top>``, then one clause a line, weight
    first and 0 last, hard at weight ``top``.  The format is trusted."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    _, _, nvars, nclauses, top = header.split()
    hard, soft = [], []
    for line in lines:
        weight, *lits, _ = map(int, line.split())
        if weight == int(top):
            hard.append(lits)
        else:
            soft.append((weight, lits))
    assert len(hard) + len(soft) == int(nclauses)
    return WcnfInstance.build(int(nvars), hard, soft)


def brute_force_cost(instance):
    """(some hard assignment exists, minimal soft cost) by full enumeration."""
    n = instance.nvars
    if n > 22:
        raise ValueError(f"enumeration over {n} variables is too large")
    assignments = np.arange(1 << n, dtype=np.uint32)

    def falsified(clause):
        out = np.ones(1 << n, dtype=bool)
        for lit in clause:
            bit = (assignments >> (abs(lit) - 1)) & 1
            out &= bit != (1 if lit > 0 else 0)
        return out

    ok = np.ones(1 << n, dtype=bool)
    for clause in instance.hard:
        ok &= ~falsified(clause)
    if not ok.any():
        return False, None
    cost = np.zeros(1 << n, dtype=np.int64)
    for weight, clause in instance.soft:
        cost[falsified(clause)] += weight
    return True, int(cost[ok].min())


# ---------------------------------------------------------------------------
# SAS+ tasks and a step-bounded planning reference


def random_sas(rng, nvars_max=3, domain_max=3, actions_max=6, cost_max=9):
    """A tiny planning task with regular and prevailing transitions."""
    nvars = rng.randint(1, nvars_max)
    sizes = [rng.randint(1, domain_max) for _ in range(nvars)]
    if max(sizes) == 1:
        sizes[rng.randrange(nvars)] = rng.randint(2, domain_max)
    sizes = tuple(sizes)
    actions = []
    for j in range(rng.randint(1, actions_max)):
        n_eff = rng.randint(1, nvars)
        chosen = rng.sample(range(nvars), n_eff)
        transitions = tuple(
            Transition(var=v, frm=rng.randrange(sizes[v]), to=rng.randrange(sizes[v]))
            for v in chosen
        )
        actions.append(Action(id=f"a{j}", transitions=transitions,
                              cost=float(rng.randint(1, cost_max))))
    initial = tuple(rng.randrange(n) for n in sizes)
    n_goals = rng.randint(1, 2)
    goals = {tuple(rng.randrange(n) for n in sizes) for _ in range(n_goals)}
    return SasProblem(sizes=sizes, library=ActionLibrary(actions=tuple(actions)),
                      initial=initial, goals=tuple(sorted(goals)))


def encoder_tasks():
    """30 small random SAS+ tasks whose start is not a goal (the online
    pipeline never encodes those), from a fixed seed."""
    rng = random.Random(42)
    tasks = []
    while len(tasks) < 30:
        sas = random_sas(rng, nvars_max=4, domain_max=4, actions_max=10)
        if sas.initial not in sas.goals:
            tasks.append(sas)
    return tasks


def min_plan_cost(sas, max_steps):
    """Cheapest cost reaching any goal within ``max_steps`` parallel steps.

    Dynamic program over states; each step applies a non-empty set of
    applicable, pairwise compatible actions with simulate_step semantics.
    Returns None when no goal is reachable.
    """
    best = {sas.initial: 0.0}
    for _ in range(max_steps):
        nxt = dict(best)
        for s, g in best.items():
            apps = [a for a in sas.library if a.applicable(s)]
            for size in range(1, len(apps) + 1):
                for subset in combinations(apps, size):
                    if any(action_mutex(a, b) for a, b in combinations(subset, 2)):
                        continue
                    t = simulate_step(s, subset)
                    cost = g + sum(a.cost for a in subset)
                    if cost < nxt.get(t, math.inf):
                        nxt[t] = cost
        best = nxt
    reached = [c for s, c in best.items() if s in sas.goals]
    return min(reached) if reached else None
