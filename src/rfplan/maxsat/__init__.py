"""Exact weighted partial Max-SAT solving.

``solve`` hands the instance, filed by ``compile_instance`` into
implication lists, literal weights and counter clauses with a branching
order (once per kept prefix), to the in-process branch-and-bound kernel
of ``_pure``, and re-checks every model it returns.  ``solve_external``
writes the instance as a WCNF file for a third-party solver process and
reads and checks its answer.  The planner hands either one
``encoder.encode``'s instance as is: the query's reachability units,
start and goal clauses ahead of the clauses its action library keeps at
that makespan.
"""

from __future__ import annotations

import math
import os

from .io import read_solver_output, wcnf_write  # noqa: F401
from .model import (  # noqa: F401
    HARD_UNSAT,
    OPTIMAL,
    TIMEOUT,
    BackendError,
    SolveResult,
    WcnfError,
    WcnfInstance,
    compile_instance,
)
from . import _pure

# SAT-competition exit codes: 10 satisfiable, 20 unsatisfiable, 30 optimum
_EXTERNAL_EXIT_CODES = (0, 10, 20, 30)


# kept only because perfbench/run.py calls both; the benchmark's next revision drops them
def available_backends() -> tuple[str, ...]:
    return ("pure",)


def default_backend() -> str:
    return "pure"


def valid_timeout(timeout) -> bool:
    """Whether ``timeout`` is a planner or solver time limit: ``None`` (no
    limit), or an int or float, not a bool, of finite seconds > 0."""
    return timeout is None or (
        not isinstance(timeout, bool) and isinstance(timeout, (int, float))
        and 0 < timeout < math.inf
    )


def _check_timeout(timeout) -> None:
    if not valid_timeout(timeout):
        raise BackendError(
            f"timeout must be None or a finite number of seconds > 0, got {timeout!r}"
        )


def solve(instance: WcnfInstance, timeout: float | None = None) -> SolveResult:
    """Minimize falsified soft weight subject to the hard clauses.

    Returns an optimal model, ``hard_unsat``, or on timeout the best
    incumbent found.  ``timeout`` is None (no limit) or finite seconds > 0.
    Every model is re-checked against the clause set before being
    returned; one that fails raises BackendError.
    """
    _check_timeout(timeout)
    status, cost, assignment, nodes = _pure.solve_compiled(
        instance.nvars, *compile_instance(instance), timeout
    )
    if assignment is not None:
        hard_ok, true_cost = instance.check(assignment)
        if not hard_ok or true_cost != cost:
            raise BackendError(
                f"solver returned an inconsistent model (hard_ok={hard_ok}, "
                f"reported cost {cost}, recomputed {true_cost})"
            )
    return SolveResult(status=status, cost=cost, assignment=assignment, nodes=nodes)


def solve_external(instance: WcnfInstance, command: str, timeout: float | None = None) -> SolveResult:
    """Solve with an external Max-SAT solver process.

    ``command`` is split shell-style and the path of a temporary WCNF file
    is appended as its last argument.  The solver runs in its own process
    group, which is killed when the call returns, so no process it started
    outlives it.  After ``timeout`` seconds (None: no limit, else finite
    and > 0) the call returns ``timeout``.  An exit code other than 0/10/20/30
    raises BackendError; the printed answer is read and checked by
    ``read_solver_output``.
    """
    import shlex
    import signal
    import subprocess
    import tempfile

    _check_timeout(timeout)
    argv = shlex.split(command)
    if not argv:
        raise BackendError("external solver command is empty")
    with tempfile.TemporaryDirectory(prefix="rfplan-wcnf-") as tmp:
        path = os.path.join(tmp, "instance.wcnf")
        wcnf_write(instance, path)
        try:
            # its own process group, so that a kill reaches the solver's children too
            proc = subprocess.Popen(argv + [path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True)
        except FileNotFoundError:
            raise BackendError(f"external solver not found: {argv[0]!r}") from None
        except OSError as exc:
            raise BackendError(f"cannot run external solver: {exc}") from None
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolveResult(status=TIMEOUT, cost=None, assignment=None, nodes=0)
        finally:
            # finished, timed out or interrupted: nothing the solver started outlives it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    if proc.returncode not in _EXTERNAL_EXIT_CODES:
        tail = stderr.strip()[-500:]
        raise BackendError(
            f"external solver exited with code {proc.returncode}"
            + (f"; stderr ends: {tail}" if tail else "")
        )
    return read_solver_output(stdout, instance)
