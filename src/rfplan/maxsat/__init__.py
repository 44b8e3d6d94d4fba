"""Exact weighted partial Max-SAT solving with two interchangeable kernels.

``solve`` dispatches to the compiled Cython kernel when it was built and
falls back to the pure-Python reference otherwise.  The environment
variable ``RFPLAN_MAXSAT`` forces a backend (``pure`` or ``compiled``).
Both kernels implement the identical algorithm and must return identical
results; the test suite checks them against each other.  ``solve_external``
runs a third-party solver process instead and checks its answer.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile

from .io import read_solver_output, wcnf_read, wcnf_write  # noqa: F401
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

try:
    from . import _bb
except ImportError:  # extension not built; pure fallback
    _bb = None

_STATUS = {0: OPTIMAL, 1: HARD_UNSAT, 2: TIMEOUT}

# SAT-competition exit codes: 10 satisfiable, 20 unsatisfiable, 30 optimum
_EXTERNAL_EXIT_CODES = (0, 10, 20, 30)


def available_backends() -> tuple[str, ...]:
    return ("pure", "compiled") if _bb is not None else ("pure",)


def default_backend() -> str:
    forced = os.environ.get("RFPLAN_MAXSAT", "").strip().lower()
    if forced in ("pure", "compiled"):
        return forced
    if forced and forced != "auto":
        raise BackendError(f"RFPLAN_MAXSAT must be 'pure', 'compiled', or 'auto', not {forced!r}")
    return "compiled" if _bb is not None else "pure"


def _check_timeout(timeout) -> None:
    """``None`` means no limit; anything else must be a finite number of seconds > 0."""
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        or not 0 < timeout < math.inf
    ):
        raise BackendError(
            f"timeout must be None or a finite number of seconds > 0, got {timeout!r}"
        )


def solve(instance: WcnfInstance, timeout: float | None = None, backend: str | None = None) -> SolveResult:
    """Minimize falsified soft weight subject to the hard clauses.

    Returns an optimal model, ``hard_unsat``, or on timeout the best
    incumbent found.  ``timeout`` is None (no limit) or finite seconds > 0.
    Every model is re-checked against the clause set before being
    returned; one that fails raises BackendError.
    """
    _check_timeout(timeout)
    name = backend or default_backend()
    if name not in available_backends():
        raise BackendError(f"solver backend {name!r} is not available")
    kernel = _pure if name == "pure" else _bb
    weights, lits, offsets, order, polarity = compile_instance(instance)
    status_code, cost, assign_bytes, nodes = kernel.solve_compiled(
        instance.nvars, weights, lits, offsets, order, polarity,
        float(timeout) if timeout is not None else 0.0,  # 0 tells the kernel: no limit
    )
    status = _STATUS[status_code]
    if status == HARD_UNSAT:
        return SolveResult(status=status, cost=None, assignment=None, nodes=nodes, backend=name)
    if cost < 0:  # timed out before any incumbent
        return SolveResult(status=status, cost=None, assignment=None, nodes=nodes, backend=name)
    assignment = tuple(bool(b) for b in assign_bytes)
    hard_ok, true_cost = instance.check(assignment)
    if not hard_ok or true_cost != cost:
        raise BackendError(
            f"solver returned an inconsistent model (hard_ok={hard_ok}, "
            f"reported cost {cost}, recomputed {true_cost})"
        )
    return SolveResult(status=status, cost=cost, assignment=assignment, nodes=nodes, backend=name)


def solve_external(instance: WcnfInstance, command: str, timeout: float | None = None) -> SolveResult:
    """Solve with an external Max-SAT solver process.

    ``command`` is split shell-style and the path of a temporary WCNF file
    is appended as its last argument.  The process is killed after
    ``timeout`` seconds (None: no limit, else finite and > 0), which reports
    ``timeout``.  An exit code other than 0/10/20/30 raises BackendError;
    the printed answer is read and checked by ``read_solver_output``.
    """
    _check_timeout(timeout)
    argv = shlex.split(command)
    if not argv:
        raise BackendError("external solver command is empty")
    with tempfile.TemporaryDirectory(prefix="rfplan-wcnf-") as tmp:
        path = os.path.join(tmp, "instance.wcnf")
        wcnf_write(instance, path)
        try:
            proc = subprocess.run(
                argv + [path], capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return SolveResult(status=TIMEOUT, cost=None, assignment=None, nodes=0,
                               backend="external")
        except FileNotFoundError:
            raise BackendError(f"external solver not found: {argv[0]!r}") from None
        except OSError as exc:
            raise BackendError(f"cannot run external solver: {exc}") from None
    if proc.returncode not in _EXTERNAL_EXIT_CODES:
        tail = proc.stderr.strip()[-500:]
        raise BackendError(
            f"external solver exited with code {proc.returncode}"
            + (f"; stderr ends: {tail}" if tail else "")
        )
    return read_solver_output(proc.stdout, instance)
