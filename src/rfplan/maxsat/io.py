"""DIMACS WCNF reading and writing, and reading a solver's answer.

Format: optional comment lines (``c ...``), one header
``p wcnf <nvars> <nclauses> <top>``, then clauses as whitespace-separated
ints terminated by 0, weight first.  A clause with weight == top is hard;
below top is soft; above top is an error, as is weight 0.
"""

from __future__ import annotations

import re

from .model import (
    HARD_UNSAT,
    OPTIMAL,
    TIMEOUT,
    BackendError,
    SolveResult,
    WcnfError,
    WcnfInstance,
)

# first word of the `s` line; only OPTIMUM proves the model cost-minimal
_SOLVER_STATUS = {
    "OPTIMUM": OPTIMAL,
    "UNSATISFIABLE": HARD_UNSAT,
    "SATISFIABLE": TIMEOUT,
    "UNKNOWN": TIMEOUT,
}


def wcnf_write(instance: WcnfInstance, path) -> None:
    top = instance.top
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p wcnf {instance.nvars} {len(instance.hard) + len(instance.soft)} {top}\n")
        for lits in instance.hard:
            fh.write(" ".join([str(top), *map(str, lits), "0"]) + "\n")
        for w, lits in instance.soft:
            fh.write(" ".join([str(w), *map(str, lits), "0"]) + "\n")


def wcnf_read(path) -> WcnfInstance:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    header = None
    tokens: list[tuple[int, int]] = []  # (line number, value)
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("c"):
            continue
        if text.startswith("p"):
            if header is not None:
                raise WcnfError(f"{path}:{lineno}: duplicate header")
            parts = text.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise WcnfError(f"{path}:{lineno}: malformed header {text!r}")
            try:
                header = (lineno, int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise WcnfError(f"{path}:{lineno}: non-integer header field in {text!r}") from None
            if header[1] < 0 or header[2] < 0 or header[3] < 1:
                raise WcnfError(f"{path}:{lineno}: header values out of range in {text!r}")
            continue
        if header is None:
            raise WcnfError(f"{path}:{lineno}: clause before header")
        for tok in text.split():
            try:
                tokens.append((lineno, int(tok)))
            except ValueError:
                raise WcnfError(f"{path}:{lineno}: non-integer token {tok!r}") from None

    if header is None:
        raise WcnfError(f"{path}: missing 'p wcnf' header")
    _, nvars, nclauses, top = header

    hard: list[list[int]] = []
    soft: list[tuple[int, list[int]]] = []
    i = 0
    while i < len(tokens):
        lineno, weight = tokens[i]
        if weight <= 0:
            raise WcnfError(f"{path}:{lineno}: clause weight must be positive, got {weight}")
        if weight > top:
            raise WcnfError(f"{path}:{lineno}: weight {weight} exceeds top {top}")
        lits: list[int] = []
        i += 1
        closed = False
        while i < len(tokens):
            lineno, lit = tokens[i]
            i += 1
            if lit == 0:
                closed = True
                break
            if abs(lit) > nvars:
                raise WcnfError(f"{path}:{lineno}: literal {lit} exceeds declared {nvars} variables")
            lits.append(lit)
        if not closed:
            raise WcnfError(f"{path}:{lineno}: clause not terminated by 0")
        if weight == top:
            hard.append(lits)
        else:
            soft.append((weight, lits))

    found = len(hard) + len(soft)
    if found != nclauses:
        raise WcnfError(f"{path}: header declares {nclauses} clauses, found {found}")
    return WcnfInstance.build(nvars=nvars, hard=hard, soft=soft)


def read_solver_output(text: str, instance: WcnfInstance) -> SolveResult:
    """Parse a Max-SAT solver's ``s``/``o``/``v`` lines and check its model.

    ``s OPTIMUM FOUND`` maps to ``optimal`` and ``s UNSATISFIABLE`` to
    ``hard_unsat``.  ``SATISFIABLE`` and ``UNKNOWN`` prove no minimum and
    map to ``timeout``, carrying the printed model, if any, as the
    incumbent.  The model may be literals (``v 1 -2 3``) or one bit string
    (``v 101``).  Malformed output raises WcnfError; a model that falsifies
    a hard clause, or whose ``o`` value differs from its recomputed cost,
    raises BackendError.
    """
    status_word = None
    cost = None
    vtokens: list[str] = []
    for raw in text.splitlines():
        tag, _, rest = raw.strip().partition(" ")
        if tag == "s":
            status_word = (rest.split() or [""])[0]
        elif tag == "o":
            tok = rest.split()
            if tok:
                try:
                    cost = int(tok[0])
                except ValueError:
                    raise WcnfError(f"bad objective line from solver: {raw!r}") from None
        elif tag == "v":
            vtokens.extend(rest.split())
    if status_word is None:
        raise WcnfError("solver printed no status (`s ...`) line")
    status = _SOLVER_STATUS.get(status_word)
    if status is None:
        raise WcnfError(f"unrecognised solver status {status_word!r}")
    if status == HARD_UNSAT or not vtokens:
        if status == OPTIMAL:
            raise WcnfError("solver reported an optimum but printed no `v` line")
        return SolveResult(status=status, cost=None, assignment=None, nodes=0)
    assignment = _read_model(vtokens, instance.nvars)
    hard_ok, true_cost = instance.check(assignment)
    if not hard_ok:
        raise BackendError("solver model falsifies a hard clause")
    if cost is not None and cost != true_cost:
        raise BackendError(f"solver objective {cost} disagrees with its model's cost {true_cost}")
    return SolveResult(status=status, cost=true_cost, assignment=assignment, nodes=0)


def _read_model(tokens: list[str], nvars: int) -> tuple[bool, ...]:
    """Literals (unnamed variables are false) or one bit string of nvars bits.

    A literal is a plain ASCII decimal: no sign but ``-``, no ``_``, no
    leading ``0``.  So ``01`` or ``-01`` (a bit string cut short), ``+1``,
    ``1_0`` and non-ASCII digits are rejected; a lone ``0`` ends the list.
    One ambiguity remains: a short bit string that starts with ``1`` reads as
    a literal, so ``v 10`` is the literal 10 whenever ``nvars >= 10``.
    """
    assignment = [False] * (nvars + 1)
    if len(tokens) == 1 and set(tokens[0]) <= {"0", "1"} and len(tokens[0]) >= nvars:
        if len(tokens[0]) > nvars:
            raise WcnfError(
                f"solver model bit string has {len(tokens[0])} bits, instance has {nvars} variables"
            )
        for v, ch in enumerate(tokens[0], start=1):
            assignment[v] = ch == "1"
        return tuple(assignment)
    named: set[int] = set()
    for tok in tokens:
        if not re.fullmatch(r"-?[1-9][0-9]*|0", tok):
            raise WcnfError(
                f"bad literal {tok!r} in solver model: a literal is a plain decimal "
                f"with no leading zero, and a bit string needs {nvars} bits"
            )
        lit = int(tok)
        if abs(lit) > nvars:
            raise WcnfError(f"solver model names variable {abs(lit)}, instance has {nvars}")
        if -lit in named:
            raise WcnfError(f"solver model names variable {abs(lit)} with both signs")
        if lit:
            named.add(lit)
            assignment[abs(lit)] = lit > 0
    return tuple(assignment)
