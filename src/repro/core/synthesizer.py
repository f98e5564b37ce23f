"""The data model of a synthesis run (Section 5, Algorithm 1 of the paper).

This module holds the plain types every driver shares: the input-output
:class:`Example`, the :class:`SynthesisConfig` knobs, and the
:class:`SynthesisStats` / :class:`SynthesisResult` a finished run reports.
The search itself is :class:`~repro.core.frontier.SearchKernel`, an
explicit priority frontier of hypothesis / sketch / partial-program states
that pops in exactly the cost order of the paper's recursive loop, so the
first synthesized program is unchanged.  One driver steps it:
:class:`repro.api.SynthesisSession`, which charges the step and time budgets,
can pause and resume the search, and keeps enumerating past the first
solution when ``top_k > 1`` (alternative generalisations of the same
example, in discovery order).  :func:`repro.synthesize` is the one-call
wrapper over a session.

Ablations used by the evaluation harness are exposed through
:class:`SynthesisConfig`: deduction on/off, Spec 1 vs Spec 2, partial
evaluation on/off, n-gram vs uniform hypothesis ranking, and
observational-equivalence merging on/off (``--no-oe``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dataframe.profiling import ExecutionStats
from ..dataframe.table import Table
from ..engine.cache import CacheStats
from .abstraction import SpecLevel
from .completion import CompletionStats
from .deduction import DeductionStats
from .hypothesis import Hypothesis, hypothesis_size, render_program


@dataclass(frozen=True)
class Example:
    """An input-output example (Definition 3 of the paper)."""

    inputs: Tuple[Table, ...]
    output: Table

    @staticmethod
    def make(inputs: Sequence[Table], output: Table) -> "Example":
        """Convenience constructor accepting any sequence of input tables."""
        return Example(tuple(inputs), output)


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the synthesis algorithm (defaults reproduce full Morpheus)."""

    #: Use SMT-based deduction to reject hypotheses / partial programs.
    deduction: bool = True
    #: Which component specification to use for deduction.
    spec_level: SpecLevel = SpecLevel.SPEC2
    #: Use partial evaluation inside deduction.
    partial_evaluation: bool = True
    #: Conflict-driven lemma learning: mine deduction unsat cores into
    #: blocking lemmas that reject families of sibling hypotheses without
    #: touching the solver.  Disable (the ``--no-cdcl`` ablation) to measure
    #: plain Algorithm 2.
    cdcl: bool = True
    #: Tier-1 interval prescreen: decide ground-heavy deduction queries with
    #: compiled attribute propagation before any formula is built.  Disable
    #: (the ``--no-prescreen`` ablation) to send every query straight to the
    #: SMT stack; verdicts (and synthesized programs) are identical either
    #: way, only the work split changes.
    prescreen: bool = True
    #: Observational-equivalence merging: collapse partial programs whose
    #: completed subtrees evaluate to fingerprint-identical tables onto the
    #: first-explored representative.  Disable (the ``--no-oe`` ablation) to
    #: explore every duplicate.  The synthesized program (the *first*
    #: solution) is identical either way, only the amount of duplicated
    #: completion work changes; with ``top_k > 1`` the merged duplicates are
    #: exactly the observationally-coincident alternatives, so later
    #: solutions may be fewer than an exhaustive ``--no-oe`` enumeration.
    oe: bool = True
    #: Use the statistical (bigram) cost model; otherwise order by size only.
    ngram_ranking: bool = True
    #: Largest number of component applications to consider.
    max_size: int = 6
    #: Wall-clock budget in seconds (None = unlimited).
    timeout: Optional[float] = 60.0
    #: Deterministic step budget (frontier states processed, None =
    #: unlimited).  Unlike ``timeout`` this is a *count*, so runs bounded by
    #: it stop at the same search position on any host and under any
    #: scheduler -- tests and CI use it where wall-clock budgets would flip
    #: solve/timeout on slow or single-core machines.
    max_steps: Optional[int] = None
    #: Weight of program size in the hypothesis score (see CostModel).  Large
    #: values approximate a strictly smallest-first search.
    size_weight: float = 1.0
    #: Maximum number of candidate hole fillings tried per sketch (None =
    #: unlimited).  Bounds the damage of a single sketch with a huge
    #: first-order argument space.
    completion_budget: Optional[int] = 6000
    #: How many distinct solutions a session collects before stopping
    #: (the frontier no longer unwinds after the first, so enumeration simply
    #: continues).  Solutions are distinct *programs* -- alternative
    #: generalisations that may coincide on the example's own output; the
    #: first solution is identical for every ``top_k``.  With ``oe`` enabled
    #: some coincident alternatives are merged away -- combine ``top_k > 1``
    #: with ``oe=False`` for exhaustive enumeration.
    top_k: int = 1

    def describe(self) -> str:
        """Short human-readable description used by the benchmark reports."""
        if not self.deduction:
            name = "no-deduction"
        else:
            name = "spec1" if self.spec_level is SpecLevel.SPEC1 else "spec2"
            if not self.partial_evaluation:
                name += "-no-pe"
            if not self.cdcl:
                name += "-no-cdcl"
            if not self.prescreen:
                name += "-no-prescreen"
            if not self.oe:
                name += "-no-oe"
        return name


@dataclass
class SynthesisStats:
    """Aggregated search statistics for one synthesis run."""

    hypotheses_expanded: int = 0
    hypotheses_enqueued: int = 0
    sketches_generated: int = 0
    sketches_rejected: int = 0
    programs_checked: int = 0
    #: Peak number of simultaneously pending frontier states.
    frontier_peak: int = 0
    deduction: DeductionStats = field(default_factory=DeductionStats)
    completion: CompletionStats = field(default_factory=CompletionStats)
    #: This run's slice of the process-wide SMT formula-cache activity.
    solver_cache: CacheStats = field(default_factory=CacheStats)
    #: This run's slice of the concrete-execution counters (tables built,
    #: cells interned, fingerprint/exec-cache hits, comparison fast paths).
    execution: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def prune_rate(self) -> float:
        """Fraction of partially-filled sketches pruned before completion."""
        if self.completion.partial_programs == 0:
            return 0.0
        return self.completion.pruned_partial / self.completion.partial_programs

    @property
    def deduction_cache_hit_rate(self) -> float:
        """Fraction of deduction queries answered by the verdict memo."""
        return self.deduction.cache_hit_rate

    @property
    def solver_cache_hit_rate(self) -> float:
        """Fraction of SMT checks answered by the formula cache during this run."""
        return self.solver_cache.hit_rate

    @property
    def lemma_prunes(self) -> int:
        """Hypotheses rejected by the lemma store without an SMT query."""
        return self.deduction.lemma_prunes

    @property
    def lemmas_learned(self) -> int:
        """Blocking lemmas mined from deduction unsat cores this run."""
        return self.deduction.lemmas_learned

    @property
    def smt_calls(self) -> int:
        """Deduction SMT ``check()`` calls issued this run."""
        return self.deduction.smt_calls

    @property
    def prescreen_decided(self) -> int:
        """Deduction queries decided by the tier-1 interval prescreen."""
        return self.deduction.prescreen_decided

    @property
    def prescreen_fallback(self) -> int:
        """Deduction queries the prescreen handed to the SMT tier."""
        return self.deduction.prescreen_fallback

    @property
    def prescreen_hit_rate(self) -> float:
        """Fraction of prescreened queries decided without the solver."""
        return self.deduction.prescreen_hit_rate

    @property
    def oe_candidates(self) -> int:
        """Completion states offered to the observational-equivalence store."""
        return self.completion.oe_candidates

    @property
    def oe_merged(self) -> int:
        """Completion states merged into an earlier OE representative."""
        return self.completion.oe_merged

    @property
    def tables_built(self) -> int:
        """Tables constructed while executing candidate programs this run."""
        return self.execution.tables_built

    @property
    def cells_interned(self) -> int:
        """Cell values deduplicated against the intern pool this run."""
        return self.execution.cells_interned

    @property
    def compare_fastpath_hits(self) -> int:
        """Output comparisons decided by the digest fast path this run."""
        return self.execution.compare_fastpath_hits

    @property
    def exec_cache_hit_rate(self) -> float:
        """Fraction of component executions answered from the execution memo."""
        return self.execution.exec_cache.hit_rate


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    solved: bool
    program: Optional[Hypothesis]
    elapsed: float
    stats: SynthesisStats
    config: SynthesisConfig
    #: Every solution found, in discovery order (``program`` is the first).
    #: Holds more than one entry only when ``top_k > 1`` was requested.
    programs: List[Hypothesis] = field(default_factory=list)

    def render(self, input_names: Optional[Sequence[str]] = None) -> str:
        """The synthesized program as R-style source text."""
        if self.program is None:
            return "<no program found>"
        return render_program(self.program, input_names)

    def render_all(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        """Every found program as R-style source text, in discovery order."""
        return [render_program(program, input_names) for program in self.programs]

    @property
    def size(self) -> Optional[int]:
        """Number of components in the synthesized program."""
        return hypothesis_size(self.program) if self.program is not None else None
