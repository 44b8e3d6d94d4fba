"""Minimum-cost action planning against random forest classifiers.

Offline: anytime heuristic search maps discretized input states to their
cheapest prediction-flipping goal states.  Online: the k nearest stored
states seed a SAS+ planning task that is compiled to weighted partial
Max-SAT and solved exactly.
"""

__version__ = "0.1.0"

from .forest import (  # noqa: F401
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
