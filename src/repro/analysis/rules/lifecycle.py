"""Rule R11: the lifecycle table and its call sites must agree.

The 9-state job lifecycle is enforced dynamically by
``ClusterController._apply`` — but a dynamic check only fires on the paths
a test happens to execute.  R11 cross-checks statically, project-wide:

* every transition call site's from-state evidence must intersect the
  legal sources of its target (an empty intersection means the call can
  only ever raise ``IllegalTransitionError``);
* every edge in ``LEGAL_TRANSITIONS`` must be exercisable from some call
  site — a table edge no code can take is dead weight whose semantics
  drift silently the next time the machine changes.

The heavy lifting (symbolic evidence extraction, table parsing, edge
coverage) lives in :mod:`repro.analysis.typestate`; this rule is the
map/reduce shell, so per-file summaries ride the incremental cache.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .. import scopes
from ..context import FileContext
from ..findings import Finding
from ..registry import ProjectRule, register
from ..typestate import (
    Summary,
    build_model,
    edge_coverage,
    extract_typestate,
    resolve_evidence,
)


@register
class LifecycleTypestateRule(ProjectRule):
    """R11: every transition call site takes a legal, covered edge."""

    id = "R11"
    name = "lifecycle-typestate"
    rationale = (
        "LEGAL_TRANSITIONS and the controller's transition call sites are "
        "two copies of one state machine; when they drift, illegal edges "
        "surface as runtime IllegalTransitionError on untested paths, and "
        "uncovered table edges rot. Static cross-checking pins both."
    )
    scope = scopes.SIMULATION

    def extract(self, ctx: FileContext) -> Summary | None:
        return extract_typestate(ctx)

    def reduce(self, summaries: Sequence[tuple[str, object]]) -> Iterator[Finding]:
        typed = [
            (path, summary)
            for path, summary in summaries
            if isinstance(summary, dict)
        ]
        model = build_model(typed)
        if model is None:
            return  # no table in the analyzed set: nothing to check against
        for path, site in model.callsites:
            target = str(site["target"])
            facts = site.get("facts")
            assert isinstance(facts, list)
            sources = model.sources_of(target)
            if target in model.states and not sources:
                yield self._finding(
                    path,
                    site,
                    f"transition call targets {target}, which has no legal "
                    "in-edges in LEGAL_TRANSITIONS; this call site can only "
                    "raise IllegalTransitionError",
                )
                continue
            if target not in model.states:
                yield self._finding(
                    path,
                    site,
                    f"transition call targets unknown lifecycle state {target} "
                    "(not a key of LEGAL_TRANSITIONS)",
                )
                continue
            evidence = resolve_evidence(facts, model.states, model.edges)
            if not evidence & sources:
                yield self._finding(
                    path,
                    site,
                    f"illegal lifecycle edge: {site['function']}() reaches this "
                    f"call with from-state evidence {{{', '.join(sorted(evidence))}}} "
                    f"but {target} is only reachable from "
                    f"{{{', '.join(sorted(sources))}}}",
                )
        _covered, uncovered = edge_coverage(model)
        if uncovered:
            rendered = ", ".join(
                f"{source}->{target}" for source, target in sorted(uncovered)
            )
            yield Finding(
                rule_id=self.id,
                path=model.table_path,
                line=model.table_line,
                col=model.table_col,
                message=(
                    f"LEGAL_TRANSITIONS edge(s) {rendered} are not exercisable "
                    "from any transition call site; dead table edges drift "
                    "silently — remove them or add the transition path"
                ),
                source_line=model.table_source_line,
            )

    def _finding(self, path: str, site: dict[str, object], message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            path=path,
            line=int(site["line"]),  # type: ignore[call-overload]
            col=int(site["col"]),  # type: ignore[call-overload]
            message=message,
            source_line=str(site["source_line"]),
        )
