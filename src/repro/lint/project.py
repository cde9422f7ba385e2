"""Whole-program context shared by the interprocedural rules.

A :class:`Project` bundles every parsed file of one lint invocation with
the call graph (:mod:`repro.lint.callgraph`) and the bottom-up function
summaries (:mod:`repro.lint.summaries`) built over them.  The engine
constructs exactly one per run — single-file entry points
(``check_source``) get a one-file project, so fixture tests exercise the
interprocedural rules without a tree on disk — and hands it to every
:class:`~repro.lint.model.ProjectRule` alongside the per-file context.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.lint.callgraph import (CallGraph, FunctionDecl, FunctionId,
                                  build_call_graph)
from repro.lint.model import FileContext
from repro.lint.summaries import (FunctionSummary, SummaryTable,
                                  compute_summaries)


class Project:
    """All files of one lint run, plus call graph and summaries."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: Dict[str, FileContext] = {
            ctx.logical: ctx for ctx in contexts}
        self.callgraph: CallGraph = build_call_graph(
            [(ctx.logical, ctx.tree) for ctx in contexts])
        self.summaries: SummaryTable = compute_summaries(self.callgraph)

    def functions_of(self, logical: str) -> List[FunctionDecl]:
        """Declarations of one module, in source order."""
        decls = self.callgraph.functions_of_module(logical)
        decls.sort(key=lambda d: (d.node.lineno, d.node.col_offset))
        return decls

    def summary(self, fid: FunctionId) -> FunctionSummary:
        return self.summaries.summary(fid)

    def declaration(self, fid: FunctionId) -> Optional[FunctionDecl]:
        return self.callgraph.declaration(fid)
