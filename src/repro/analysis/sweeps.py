"""Sharded exhaustive solvability sweeps with resumable progress (E10).

The E10 experiment asks, for *every* symmetric closed-above model
generated by a single graph on ``n`` processes (one representative per
isomorphism class), for the exact smallest solvable ``k`` — ground truth
the paper's bound interval is measured against.  At ``n = 3`` this is 16
shards and minutes of CSP search; at ``n = 4`` it is 218 shards and hours,
which is only practical because every layer below persists:

* each shard's verdict is a versioned cached kernel keyed on the
  *isomorphism class* (``iso_key``), so the verdict is computed once per
  class ever, machine-wide, when the result store is in ``rw`` mode;
* shards fan out over :func:`~repro.engine.batch.run_batch`, whose parent
  process persists each shard as it completes — a sweep killed midway
  resumes exactly where it stopped, recomputing nothing;
* a rerun over a warm store is pure table assembly (every shard hits).

**Dynamic sub-shard scheduling.**  A class's wall-clock is dominated by
its enumerated model size, and the sparse tail (few proper edges, so the
closed-above model approaches all ``2^(n(n-1))`` graphs) produces a few
giant classes that would otherwise strand one worker for hours while the
rest of the cluster idles.  :func:`plan_sweep` therefore estimates each
class's cost (:func:`estimate_class_cost`: enumerated-model count capped
by ``budget``) and, above ``split_threshold``, decomposes the monolithic
``solvability_shard`` into independently schedulable **sub-shards**: one
``solvability_bounds`` job (the paper's interval) plus one
``solvability_subshard`` job per candidate ``k`` (is ``k``-set agreement
one-round solvable on the full model?).  Each sub-shard is its own
``@cached_kernel`` with a canonical store fingerprint, so sub-verdicts
persist, resume after a kill, and network-seed to distributed workers
*independently* of their siblings.  A pure reducer
(:func:`reduce_sweep_row`, a :class:`~repro.engine.batch.Reduction`)
fires in the batch parent the moment a class's last sub-shard lands,
folds the sub-verdicts into exactly the ``(lo, hi, exact)`` row the
monolithic shard produces, and banks the merged verdict under the
monolithic kernel's identity so later runs — split or not — start warm.
Jobs are emitted heaviest-first (estimated cost descending), which the
FIFO coordinator of :mod:`repro.dist` turns into heaviest-first
scheduling across workers.

``python -m repro sweep --n 4 --jobs N`` is the CLI entry point
(``--distributed HOST:PORT`` fans the shards out to ``python -m repro
worker`` processes instead, same results; ``--split-threshold`` and
``--subshard on|off`` steer the decomposition);
:func:`repro.analysis.tables.e10_solvability_frontier_table` delegates
here so the experiment table and the sweep never diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bounds.report import bound_report
from ..engine.batch import BatchResult, Job, Reduction, run_batch
from ..engine.cache import cached_kernel
from ..engine.canonical import iso_key
from ..graphs.digraph import Digraph
from ..graphs.symmetry import symmetric_closure
from ..models.closed_above import symmetric_closed_above
from ..obs.trace import TRACER
from ..verification.backends import CSP_BACKEND_VARIANTS, resolve_backend
from ..verification.solvability import decide_one_round_solvability

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_SPLIT_THRESHOLD",
    "SweepClassReport",
    "SweepPlan",
    "SweepReport",
    "estimate_class_cost",
    "plan_sweep",
    "reduce_sweep_row",
    "solvability_sweep",
    "sweep_headers",
    "sweep_row",
]

#: Cap on the fully enumerated model a shard searches over (mirrors the
#: ``search --budget`` CLI default; every model on ``n <= 4`` fits).
DEFAULT_BUDGET = 1 << 12

#: Estimated enumerated-model size at which a class's shard is split into
#: sub-shards.  At ``n = 3`` every class estimates <= 64, so nothing
#: splits by default (the monolithic path is already seconds); at
#: ``n = 4`` only the sparse giants (<= 1 proper edge, models in the
#: thousands of graphs) decompose — exactly the tail that dominates the
#: frontier's wall-clock.
DEFAULT_SPLIT_THRESHOLD = 1 << 11

def estimate_class_cost(
    g: Digraph,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Estimated enumerated-model size of ``g``'s class, capped by budget.

    The up-set of ``g`` alone holds ``2**m`` graphs, where ``m`` counts
    the proper edges ``g`` is missing, and the symmetric closed-above
    model is a union of such up-sets over the relabelling orbit — so
    ``2**m`` is a cheap lower bound on the fully enumerated model, whose
    enumeration (and every CSP over it) is capped at ``budget`` graphs
    anyway.  No enumeration, no CSP: one popcount, which is what lets
    the planner make *identical* split decisions in every process,
    serial or distributed.
    """
    missing = n * (n - 1) - g.proper_edge_count
    return min(1 << missing, budget)


# ----------------------------------------------------------------------
# Kernels: the monolithic shard and its sub-shard decomposition
# ----------------------------------------------------------------------

@cached_kernel(
    name="solvability_shard",
    key=lambda g, n, budget, backend=None: (iso_key(g), n, budget),
    version="1",
    variant=lambda g, n, budget, backend=None: resolve_backend(backend),
    variants=CSP_BACKEND_VARIANTS,
)
def _shard_verdict(
    g: Digraph, n: int, budget: int, backend: str | None = None
) -> tuple[int, int, int | None]:
    """One isomorphism class's verdict: ``(lower k, upper k, exact k)``.

    Everything returned is invariant under relabelling of ``g`` (bounds
    and solvability of a symmetric closed-above model don't see labels),
    which is what makes ``iso_key`` a sound cache key — and what lets a
    warm store answer for any relabelled representative.  ``backend``
    selects the CSP compute backend; the verdict is backend-independent
    but memoized per backend (the version suffix), so equivalence runs
    never read each other's rows.
    """
    sym = sorted(symmetric_closure([g]))
    model = symmetric_closed_above([g])
    report = bound_report(sym)
    full = sorted(model.iter_graphs(max_graphs=budget))
    exact = None
    for k in range(1, n + 1):
        if decide_one_round_solvability(full, k, backend=backend).solvable:
            exact = k
            break
    return (report.best_lower.k, report.best_upper.k, exact)


@cached_kernel(
    name="solvability_bounds",
    key=lambda g, n: (iso_key(g), n),
    version="1",
)
def _class_bounds(g: Digraph, n: int) -> tuple[int, int]:
    """The paper's ``(lower k, upper k)`` interval for ``g``'s class.

    The cheap half of a split shard: bound computation never enumerates
    the model, so it is its own sub-shard only to keep the reducer pure —
    but it persists independently all the same.
    """
    sym = sorted(symmetric_closure([g]))
    report = bound_report(sym)
    return (report.best_lower.k, report.best_upper.k)


@cached_kernel(
    name="solvability_subshard",
    key=lambda g, n, budget, k, backend=None: (iso_key(g), n, budget, k),
    version="1",
    variant=lambda g, n, budget, k, backend=None: resolve_backend(backend),
    variants=CSP_BACKEND_VARIANTS,
)
def _subshard_solvable(
    g: Digraph, n: int, budget: int, k: int, backend: str | None = None
) -> bool:
    """One sub-shard: is ``k``-set agreement one-round solvable on the
    full model of ``g``'s class?

    ``k >= n`` is answered analytically: every graph in this universe
    carries all self-loops (a :class:`~repro.graphs.digraph.Digraph`
    invariant), so each process hears at least itself, every view is
    non-empty, and any validity-respecting map decides at most ``n``
    distinct values per execution — ``k``-set agreement with ``k >= n``
    is solvable by *every* valid map.  The CSP would confirm this at the
    cost of building and subsumption-reducing the largest execution set
    of the class (the dominant cost of the heaviest shards, measured at
    ~80% of the monolithic wall-clock on the sparsest ``n = 3`` class),
    so the analytic answer is a large part of what makes the per-``k``
    split win.  The verdict is identical either way, which is what the
    split == monolithic equivalence tests pin.
    """
    if k >= n:
        return True
    model = symmetric_closed_above([g])
    full = sorted(model.iter_graphs(max_graphs=budget))
    return bool(decide_one_round_solvability(full, k, backend=backend).solvable)


def _row_from_verdict(
    g: Digraph, verdict: tuple[int, int, int | None]
) -> list[object]:
    """Format one table row from a class verdict (shared by both paths)."""
    lo, hi, exact = verdict
    return [
        sorted(g.proper_edges()),
        f"({lo}, {hi}]",
        exact,
        exact is not None and lo < exact <= hi,
        exact == lo + 1,
    ]


def sweep_row(
    g: Digraph,
    n: int,
    budget: int = DEFAULT_BUDGET,
    backend: str | None = None,
) -> list[object]:
    """One table row of the sweep; the batch job behind an unsplit shard."""
    return _row_from_verdict(g, _shard_verdict(g, n, budget, backend=backend))


def reduce_sweep_row(
    values: tuple, g: Digraph, n: int, budget: int, backend: str | None = None
) -> list[object]:
    """Pure reducer: fold a split class's sub-verdicts into its table row.

    ``values`` is ``((lo, hi), solvable@k=1, ..., solvable@k=n)`` in the
    sub-shard job order of :func:`plan_sweep`.  ``exact`` is the smallest
    solvable ``k`` (solvability is monotone in ``k``, so the per-``k``
    verdicts are a staircase and the merge is exact, not approximate) —
    byte-identical to the row the monolithic :func:`sweep_row` produces.

    The merged verdict is also banked under the monolithic kernel's
    identity (``solvability_shard``) via the kernel ``seed`` API: a later
    run — monolithic, split, or with a different threshold — finds the
    class warm, and store-side accounting (banked-shard counts in the
    scheduled ``n = 4`` workflow) stays truthful for split classes.
    """
    (lo, hi), *flags = values
    exact = None
    for k, flag in enumerate(flags, start=1):
        if flag:
            exact = k
            break
    verdict = (lo, hi, exact)
    _shard_verdict.seed(verdict, g, n, budget, backend=backend)
    return _row_from_verdict(g, verdict)


def sweep_headers() -> list[str]:
    return [
        "generator (proper edges)",
        "lower k+1..upper (paper)",
        "exact solvable k",
        "within bounds",
        "tight@exact",
    ]


# ----------------------------------------------------------------------
# Two-phase planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ClassPlan:
    """One class's slice of the job plan (internal to assembly)."""

    index: int
    generator: Digraph
    estimate: int
    split: bool
    job_indices: tuple[int, ...]
    reduction_index: int | None


@dataclass(frozen=True)
class SweepPlan:
    """A sweep's two-phase job plan: tasks, reductions, class metadata.

    ``tasks`` are emitted heaviest-first (estimated cost descending, then
    class index for determinism): the batch drivers consume them in
    order and the distributed coordinator's FIFO queue hands the giant
    sub-shards out first, so no worker ends up alone with the heaviest
    class after the cheap ones drained.  Row order is *not* affected —
    assembly maps results back through ``classes``.
    """

    n: int
    budget: int
    split_threshold: int
    classes: tuple[_ClassPlan, ...]
    tasks: tuple[Job, ...]
    reductions: tuple[Reduction, ...]
    backend: str = "bitset"
    """The *resolved* CSP backend every job in the plan carries.

    Resolved once at plan time so serial runs, pool workers and remote
    workers (whose ``REPRO_CSP_BACKEND`` environment may differ) all
    compute — and persist — under the same backend identity.
    """

    @property
    def splits(self) -> int:
        """Classes decomposed into sub-shards."""
        return sum(1 for c in self.classes if c.split)

    @property
    def subshards(self) -> int:
        """Total phase-1 jobs belonging to split classes."""
        return sum(len(c.job_indices) for c in self.classes if c.split)


def plan_sweep(
    representatives,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
    subshard: bool = True,
    backend: str | None = None,
) -> SweepPlan:
    """Build the two-phase job plan for ``representatives``.

    Classes whose :func:`estimate_class_cost` reaches ``split_threshold``
    (and ``subshard`` is on) decompose into one bounds job plus one
    per-``k`` solvability job, tied together by a
    :class:`~repro.engine.batch.Reduction` that fires as the last
    sub-shard lands; everything else stays one monolithic
    :func:`sweep_row` job.  The decision depends only on ``(g, n,
    budget, split_threshold)``, so every process — serial reference,
    pool parent, coordinator, remote worker — plans identically.

    ``backend`` is resolved here, once, and the concrete name rides in
    every job's argument tuple: a distributed worker must run the exact
    backend the coordinator planned with, not whatever its own
    environment would resolve ``auto`` to.
    """
    backend = resolve_backend(backend)
    with TRACER.span(
        "sweep:plan", cat="sweep", n=n, backend=backend
    ) as _plan_span:
        plan = _plan_sweep(
            representatives,
            n,
            budget=budget,
            split_threshold=split_threshold,
            subshard=subshard,
            backend=backend,
        )
        _plan_span.set(
            classes=len(plan.classes),
            jobs=len(plan.tasks),
            reductions=len(plan.reductions),
        )
    return plan


def _plan_sweep(
    representatives,
    n: int,
    *,
    budget: int,
    split_threshold: int,
    subshard: bool,
    backend: str,
) -> SweepPlan:
    """The planning proper, with ``backend`` already resolved."""
    entries = [
        (index, g, estimate_class_cost(g, n, budget))
        for index, g in enumerate(representatives)
    ]
    tasks: list[Job] = []
    reductions: list[Reduction] = []
    classes: list[_ClassPlan | None] = [None] * len(entries)
    for index, g, estimate in sorted(
        entries, key=lambda entry: (-entry[2], entry[0])
    ):
        split = bool(subshard) and estimate >= split_threshold
        if not split:
            job_indices = (len(tasks),)
            tasks.append(
                Job(
                    name=f"sweep:n={n}:{index}",
                    fn=sweep_row,
                    args=(g, n, budget, backend),
                    cost=float(estimate),
                )
            )
            reduction_index = None
        else:
            job_indices = [len(tasks)]
            tasks.append(
                Job(
                    name=f"sweep:n={n}:{index}:bounds",
                    fn=_class_bounds,
                    args=(g, n),
                    # Bound computation never enumerates the model: the
                    # cheap end of the lease-sizing scale.
                    cost=1.0,
                )
            )
            for k in range(1, n + 1):
                job_indices.append(len(tasks))
                tasks.append(
                    Job(
                        name=f"sweep:n={n}:{index}:k={k}",
                        fn=_subshard_solvable,
                        args=(g, n, budget, k, backend),
                        # k >= n is answered analytically (no CSP), so
                        # only the searching sub-shards carry the class's
                        # estimated weight.
                        cost=1.0 if k >= n else float(estimate),
                    )
                )
            job_indices = tuple(job_indices)
            reduction_index = len(reductions)
            reductions.append(
                Reduction(
                    name=f"sweep:n={n}:{index}:reduce",
                    fn=reduce_sweep_row,
                    over=job_indices,
                    args=(g, n, budget, backend),
                )
            )
        classes[index] = _ClassPlan(
            index=index,
            generator=g,
            estimate=estimate,
            split=split,
            job_indices=job_indices,
            reduction_index=reduction_index,
        )
    return SweepPlan(
        n=n,
        budget=budget,
        split_threshold=split_threshold,
        classes=tuple(classes),
        tasks=tuple(tasks),
        reductions=tuple(reductions),
        backend=backend,
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

#: Kernels whose per-job hit/miss deltas decide warm-vs-computed below.
_SWEEP_KERNELS = (
    "solvability_shard",
    "solvability_subshard",
    "solvability_bounds",
)


def _job_warm(result) -> bool:
    """Did this job's (single) sweep-kernel call come back from a cache?

    Every sweep job makes exactly one top-level call into one of the
    sweep kernels, so any hit — kernel cache (same process) or store
    tier (earlier run, seeded worker) — means the CSP never ran.  A
    store-warm call still records a kernel-*cache* miss on its way to
    the store hit, which is why hits, not misses, are the signal.
    """
    for name, hits, _misses in result.stats.by_kernel:
        if name in _SWEEP_KERNELS and hits:
            return True
    if result.store_stats is not None:
        for name, hits, _misses, _writes in result.store_stats.by_kernel:
            if name in _SWEEP_KERNELS and hits:
                return True
    return False


@dataclass(frozen=True)
class SweepClassReport:
    """One class's accounting: split decision, cost estimate, timing."""

    index: int
    edges: int
    """Proper edge count of the class representative (density)."""
    estimate: int
    """:func:`estimate_class_cost` — the split heuristic's input."""
    split: bool
    subshards: int
    """Phase-1 jobs behind this class (1 when monolithic)."""
    elapsed: float
    """Compute seconds across the class's jobs (plus its reduction)."""
    resumed: bool
    """True when every lookup was warm — no CSP ran for this class."""

    def to_dict(self) -> dict:
        """JSON-ready representation (``sweep --json`` per-class rows)."""
        return {
            "index": self.index,
            "edges": self.edges,
            "estimate": self.estimate,
            "split": self.split,
            "subshards": self.subshards,
            "elapsed": self.elapsed,
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class SweepReport:
    """A sweep's table plus the shard/split/resume accounting."""

    n: int
    headers: list[str]
    rows: list[list[object]]
    total_classes: int
    sharded: int
    """Shards actually run this call (``limit`` may skip the tail)."""
    batch: BatchResult
    """Timings and merged cache/store statistics of the shard batch."""
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD
    subshard: bool = True
    classes: tuple[SweepClassReport, ...] = ()
    """Per-class split decisions, cost estimates and timings."""
    backend: str = "bitset"
    """The resolved CSP compute backend every shard ran under."""

    config_fingerprint: str = ""
    """12-hex digest of the :class:`~repro.config.SweepConfig` this run
    executed under — the identity card comparing result sets across
    invocations (also stamped into the trace and the ``--json`` output)."""

    @property
    def resumed(self) -> int:
        """Shards answered without running the CSP search this call.

        A monolithic class counts when its ``solvability_shard`` lookup
        hit the kernel cache (same process) or the persistent store
        (earlier, possibly killed, run); a split class counts when every
        one of its sub-shards came back warm.
        """
        return sum(1 for c in self.classes if c.resumed)

    @property
    def splits(self) -> int:
        """Classes whose shard was split into sub-shards this call."""
        return sum(1 for c in self.classes if c.split)

    @property
    def subshards(self) -> int:
        """Total sub-shard jobs behind the split classes."""
        return sum(c.subshards for c in self.classes if c.split)

    def describe(self) -> str:
        within = sum(1 for row in self.rows if row[3])
        text = (
            f"sweep n={self.n}: {self.sharded}/{self.total_classes} "
            f"isomorphism classes, {self.resumed} resumed (no recompute), "
            f"{within}/{len(self.rows)} within the paper's bounds"
        )
        if self.splits:
            text += (
                f"; {self.splits} class(es) split into {self.subshards} "
                f"sub-shards (threshold {self.split_threshold})"
            )
        return text


def solvability_sweep(
    n: int = 4,
    *,
    jobs: int = 1,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    executor=None,
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
    subshard: bool = True,
    backend: str | None = None,
    config=None,
) -> SweepReport:
    """Run (or resume) the exhaustive solvability sweep on ``n`` processes.

    Classes are one shard each, selected deterministically from densest
    generator to sparsest; ``limit`` takes the first ``K`` classes in
    that fixed order, so incremental runs keep their meaning across
    invocations.  Within the selection, *jobs* are scheduled
    heaviest-first, and classes whose estimated cost reaches
    ``split_threshold`` are decomposed into independently persisted
    sub-shards with a reduction that fires as the last one lands (see
    :func:`plan_sweep`) — so distributed workers share the giant classes
    instead of stranding on them.  Resume is per shard *and* per
    sub-shard: anything persisted by any earlier run, in any order and
    under either decomposition, is skipped.  ``budget`` caps each
    shard's enumerated model exactly like ``search --budget``.
    ``executor`` (:func:`repro.dist.make_executor`) overrides ``jobs``:
    a ``DistExecutor`` runs the same plan across every connected
    ``python -m repro worker``, with the coordinator persisting each
    (sub-)shard as it completes and firing the reductions itself —
    identical results, identical resumability.  ``backend`` selects the
    CSP compute backend (resolved once, at plan time, so every worker
    runs the same one); the rows are backend-independent — the
    equivalence tests and the CI ``backends-smoke`` job pin it.
    ``config`` (:class:`repro.config.SweepConfig`) supersedes every other
    argument except ``executor`` when given; either way the run's config
    fingerprint is stamped into the trace and the returned report.

    A crashed sweep is recovered by re-running the same call against
    the same store: every (sub-)shard the killed run banked comes back
    as a warm hit (``resumed`` in its class report), and only the rest
    computes.
    """
    from ..config import ExecutorConfig, SweepConfig
    from ..graphs.generators import iter_all_digraphs
    from ..graphs.symmetry import iter_isomorphism_classes

    if config is None:
        config = SweepConfig(
            n=n,
            limit=limit,
            budget=budget,
            split_threshold=split_threshold,
            subshard=subshard,
            backend=backend,
            executor=ExecutorConfig(jobs=max(jobs, 1)),
        )
    else:
        n = config.n
        limit = config.limit
        budget = config.budget
        split_threshold = config.split_threshold
        subshard = config.subshard
        backend = config.backend
        jobs = config.executor.jobs
        if executor is None and config.executor.distributed is not None:
            executor = config.executor.make()
    fingerprint = config.fingerprint()
    TRACER.instant(
        "sweep:config", cat="sweep", fingerprint=fingerprint, n=n,
        budget=budget,
    )

    representatives = sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )
    total = len(representatives)
    if limit is not None:
        representatives = representatives[:limit]
    plan = plan_sweep(
        representatives,
        n,
        budget=budget,
        split_threshold=split_threshold,
        subshard=subshard,
        backend=backend,
    )
    batch = run_batch(
        list(plan.tasks),
        jobs=jobs,
        executor=executor,
        reductions=plan.reductions,
    )
    rows: list[list[object]] = []
    class_reports: list[SweepClassReport] = []
    for cls in plan.classes:
        job_results = [batch.results[i] for i in cls.job_indices]
        if cls.split:
            reduced = batch.reduction_results[cls.reduction_index]
            rows.append(reduced.value)
            elapsed = sum(r.elapsed for r in job_results) + reduced.elapsed
            # Warm only if *every* sub-shard was served from a cache
            # tier: one recomputed sub-verdict means a CSP ran.
            warm = all(_job_warm(result) for result in job_results)
        else:
            rows.append(job_results[0].value)
            elapsed = job_results[0].elapsed
            warm = _job_warm(job_results[0])
        class_reports.append(
            SweepClassReport(
                index=cls.index,
                edges=cls.generator.proper_edge_count,
                estimate=cls.estimate,
                split=cls.split,
                subshards=len(cls.job_indices),
                elapsed=elapsed,
                resumed=warm,
            )
        )
    return SweepReport(
        n=n,
        headers=sweep_headers(),
        rows=rows,
        total_classes=total,
        sharded=len(representatives),
        batch=batch,
        split_threshold=split_threshold,
        subshard=subshard,
        classes=tuple(class_reports),
        backend=plan.backend,
        config_fingerprint=fingerprint,
    )
