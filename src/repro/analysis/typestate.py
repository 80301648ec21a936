"""Lifecycle typestate extraction: the engine behind rule R11.

The job-lifecycle contract lives in two places: the ``LEGAL_TRANSITIONS``
table (which edges exist) and the controller's transition call sites
(which edges code actually takes).  This module statically cross-checks
them:

* :func:`extract_typestate` distills one file into plain data — the
  parsed transition table and every transition call site
  (``self._apply(.., LifecycleState.X, ..)``) together with its
  *from-state evidence*;
* :func:`resolve_evidence` / :func:`edge_coverage` combine the summaries:
  a call site whose evidence set shares no state with the table's legal
  sources of its target is an illegal edge, and a table edge no call
  site can exercise is dead weight that drifts silently.

From-state evidence is computed by a tiny abstract interpreter over each
function body, tracking which lifecycle states the subject job may be in
at each program point.  Facts are *symbolic* at extract time (they name
``LifecycleState`` members and terminality) and are resolved against the
parsed table at reduce time, so the per-file summaries stay cacheable
plain data.  Recognised evidence:

* ``if job.lifecycle is [not] LifecycleState.X: raise/return/continue``
  guards (``.state`` reads count too);
* ``if <expr>.lifecycle.terminal: return`` guards (terminal = no
  out-edges);
* a dominating earlier transition call in the same function — after
  ``_apply(.., PREEMPTED, ..)`` succeeds the job *is* PREEMPTED.

A comparison against a coarse ``JobState`` member is opaque: it names a
projection, not a lifecycle state.

Everything else over-approximates to "any state", which keeps the pass
sound for legality (no false illegal-edge reports) and optimistic for
coverage.  The analysis is intraprocedural by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Sequence

from .context import FileContext

STATE_ENUM = "LifecycleState"
TABLE_NAME = "LEGAL_TRANSITIONS"
#: Methods whose call sites take a lifecycle edge when passed an explicit
#: ``LifecycleState.X`` argument.
TRANSITION_METHODS = frozenset({"_apply"})
#: Attribute reads that name a job's lifecycle state.
STATE_ATTRS = frozenset({"lifecycle", "state"})

#: One symbolic evidence fact: ``{"kind": .., "value": .., "neg": ..}``.
Fact = dict[str, object]
#: One file's typestate summary (plain data, JSON-serialisable).
Summary = dict[str, object]


def _state_attr(node: ast.expr) -> str | None:
    """``LifecycleState.X`` member name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == STATE_ENUM
    ):
        return node.attr
    return None


def _is_state_read(node: ast.expr) -> bool:
    """True for ``<expr>.lifecycle`` / ``<expr>.state`` attribute reads."""
    return isinstance(node, ast.Attribute) and node.attr in STATE_ATTRS


def _parse_table(value: ast.expr) -> dict[str, list[str]] | None:
    """Parse a ``{LifecycleState.A: frozenset({...}), ...}`` literal."""
    if not isinstance(value, ast.Dict):
        return None
    table: dict[str, list[str]] = {}
    for key, val in zip(value.keys, value.values):
        source = _state_attr(key) if key is not None else None
        if source is None:
            return None
        elements: list[ast.expr]
        if isinstance(val, ast.Call) and isinstance(val.func, ast.Name) and (
            val.func.id == "frozenset"
        ):
            if not val.args:
                elements = []
            elif isinstance(val.args[0], (ast.Set, ast.Tuple, ast.List)):
                elements = list(val.args[0].elts)
            else:
                return None
        elif isinstance(val, (ast.Set, ast.Tuple, ast.List)):
            elements = list(val.elts)
        else:
            return None
        targets: list[str] = []
        for element in elements:
            target = _state_attr(element)
            if target is None:
                return None
            targets.append(target)
        table[source] = sorted(targets)
    return table


def _negate(fact: Fact) -> Fact:
    flipped = dict(fact)
    flipped["neg"] = not fact.get("neg", False)
    return flipped


def _parse_guard(test: ast.expr) -> Fact | None:
    """Symbolic fact asserted by an ``if`` test, or None when opaque."""
    neg = False
    while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        neg = not neg
        test = test.operand
    if isinstance(test, ast.Attribute) and test.attr == "terminal":
        if _is_state_read(test.value):
            return {"kind": "terminal", "neg": neg}
        return None
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        operator = test.ops[0]
        if isinstance(operator, (ast.Is, ast.Eq, ast.IsNot, ast.NotEq)):
            op_neg = isinstance(operator, (ast.IsNot, ast.NotEq))
            left, right = test.left, test.comparators[0]
            for subject, member in ((left, right), (right, left)):
                if not _is_state_read(subject):
                    continue
                lifecycle_state = _state_attr(member)
                if lifecycle_state is not None:
                    return {"kind": "state", "value": lifecycle_state, "neg": neg ^ op_neg}
    return None


def _transition_calls(stmt: ast.stmt) -> list[tuple[ast.Call, str]]:
    """Transition-method calls with an explicit LifecycleState argument."""
    sites: list[tuple[ast.Call, str]] = []
    for node in ast.walk(stmt):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TRANSITION_METHODS
        ):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            target = _state_attr(arg)
            if target is not None:
                sites.append((node, target))
                break
    return sites


class _EvidenceWalk:
    """Abstract interpretation of one function body over evidence facts.

    ``record(call, target, facts)`` fires for every transition call site
    with the conjunction of facts that dominate it.
    """

    def __init__(self, record: Callable[[ast.Call, str, list[Fact]], None]) -> None:
        self.record = record

    def walk(self, body: Sequence[ast.stmt], facts: list[Fact]) -> tuple[list[Fact], bool]:
        """Returns (facts at fall-through, whether the body terminates)."""
        current = list(facts)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are walked independently
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
                for call, target in _transition_calls(stmt):
                    self.record(call, target, current)
                return current, True
            if isinstance(stmt, ast.If):
                guard = _parse_guard(stmt.test)
                then_facts = current + [guard] if guard else list(current)
                else_facts = current + [_negate(guard)] if guard else list(current)
                then_exit, then_done = self.walk(stmt.body, then_facts)
                else_exit, else_done = self.walk(stmt.orelse, else_facts)
                if then_done and else_done and stmt.orelse:
                    return current, True
                if then_done:
                    current = else_exit
                elif else_done and stmt.orelse:
                    current = then_exit
                # both fall through: branch-local facts don't survive
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                # The loop variable is a fresh subject each iteration.
                self.walk(stmt.body, [])
                self.walk(stmt.orelse, current)
                continue
            if isinstance(stmt, ast.While):
                self.walk(stmt.body, list(current))
                self.walk(stmt.orelse, current)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                current, done = self.walk(stmt.body, current)
                if done:
                    return current, True
                continue
            if isinstance(stmt, ast.Try):
                self.walk(stmt.body, list(current))
                for handler in stmt.handlers:
                    self.walk(handler.body, list(current))
                self.walk(stmt.orelse, list(current))
                self.walk(stmt.finalbody, list(current))
                continue
            sites = _transition_calls(stmt)
            for call, target in sites:
                self.record(call, target, current)
            if sites:
                # After a successful transition the job *is* the target.
                current = [{"kind": "applied", "value": sites[-1][1]}]
        return current, False


def extract_typestate(ctx: FileContext) -> Summary | None:
    """Distill one file's typestate facts; None when it has none."""
    table: dict[str, object] | None = None
    callsites: list[dict[str, object]] = []

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
            isinstance(node.targets[0], ast.Name)
        ):
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name) and target.id == TABLE_NAME and table is None:
            assert node.value is not None
            parsed = _parse_table(node.value)
            if parsed is not None:
                table = {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "source_line": ctx.source_line(node.lineno),
                    "edges": parsed,
                }

    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        function_name = node.name

        def record(
            call: ast.Call, target: str, facts: list[Fact], _fn: str = function_name
        ) -> None:
            assert isinstance(call.func, ast.Attribute)
            callsites.append(
                {
                    "line": call.lineno,
                    "col": call.col_offset,
                    "source_line": ctx.source_line(call.lineno),
                    "function": _fn,
                    "method": call.func.attr,
                    "target": target,
                    "facts": [dict(fact) for fact in facts],
                }
            )

        _EvidenceWalk(record).walk(node.body, [])

    if table is None and not callsites:
        return None
    return {"table": table, "callsites": callsites}


def resolve_evidence(
    facts: Sequence[Fact],
    states: frozenset[str],
    edges: dict[str, list[str]],
) -> frozenset[str]:
    """Concrete from-state set implied by symbolic *facts* under a table."""
    evidence = set(states)
    terminal = {state for state in states if not edges.get(state)}
    for fact in facts:
        kind = fact.get("kind")
        value = fact.get("value")
        if kind == "applied":
            matched = {str(value)} & states
        elif kind == "state":
            matched = {str(value)} & states
        elif kind == "terminal":
            matched = set(terminal)
        else:
            continue
        if fact.get("neg"):
            matched = states - matched
        evidence &= matched
    return frozenset(evidence)


@dataclass(frozen=True)
class TypestateModel:
    """The merged project view R11 checks against."""

    table_path: str
    table_line: int
    table_col: int
    table_source_line: str
    edges: dict[str, list[str]]
    #: (path, callsite-summary) pairs, path-sorted.
    callsites: tuple[tuple[str, dict[str, object]], ...]

    @property
    def states(self) -> frozenset[str]:
        return frozenset(self.edges)

    def sources_of(self, target: str) -> frozenset[str]:
        return frozenset(
            state for state, targets in self.edges.items() if target in targets
        )

    def all_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (source, target)
            for source, targets in self.edges.items()
            for target in targets
        )


def build_model(summaries: Sequence[tuple[str, Summary]]) -> TypestateModel | None:
    """Merge path-sorted summaries; None when no table is in the set."""
    table_entry: tuple[str, dict[str, object]] | None = None
    callsites: list[tuple[str, dict[str, object]]] = []
    for path, summary in summaries:
        table = summary.get("table")
        if table is not None and table_entry is None:
            assert isinstance(table, dict)
            table_entry = (path, table)
        raw_sites = summary.get("callsites")
        assert isinstance(raw_sites, list)
        for site in raw_sites:
            assert isinstance(site, dict)
            callsites.append((path, site))
    if table_entry is None:
        return None
    table_path, table = table_entry
    edges_raw = table["edges"]
    assert isinstance(edges_raw, dict)
    return TypestateModel(
        table_path=table_path,
        table_line=int(table["line"]),  # type: ignore[call-overload]
        table_col=int(table["col"]),  # type: ignore[call-overload]
        table_source_line=str(table["source_line"]),
        edges={str(k): [str(t) for t in v] for k, v in edges_raw.items()},
        callsites=tuple(callsites),
    )


def edge_coverage(
    model: TypestateModel,
) -> tuple[frozenset[tuple[str, str]], frozenset[tuple[str, str]]]:
    """(covered, uncovered) edges of the table under the call sites."""
    covered: set[tuple[str, str]] = set()
    for _path, site in model.callsites:
        target = str(site["target"])
        facts = site.get("facts")
        assert isinstance(facts, list)
        evidence = resolve_evidence(facts, model.states, model.edges)
        for source in evidence & model.sources_of(target):
            covered.add((source, target))
    all_edges = model.all_edges()
    return frozenset(covered & all_edges), frozenset(all_edges - covered)
