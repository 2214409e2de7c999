"""End-to-end root approximation (the paper's whole algorithm).

One pipeline serves both engines.  It normalises the sign, answers the
degenerate inputs (zero, constant, linear), starts the budget, computes
the remainder sequence (Section 2.1/3.1), builds the interleaving tree
(Section 2.1/3.2) and flattens it into an interval plan: one
:class:`NodePlan` per tree node, carrying that node's PREINTERVAL and
INTERVAL work (Section 3.2).  The engines differ only in how they run
the plan.  :class:`RealRootFinder` solves it in-process in postorder;
:class:`repro.sched.executor.ParallelRootFinder` dispatches it over a
worker pool.

    >>> from repro import RealRootFinder, IntPoly
    >>> finder = RealRootFinder(mu_bits=16)
    >>> result = finder.find_roots(IntPoly.from_roots([-3, 0, 2]))
    >>> result.as_floats()
    [-3.0, 0.0, 2.0]

Inputs with repeated roots are handled by the square-free reduction
described in DESIGN.md (the paper's Section 2.3 sketch, realized through
its own gcd ``F_{n*}``): Yun's decomposition splits the input into
square-free factors, each factor runs through the same remainder / tree
/ plan pipeline, and every root inherits its factor's multiplicity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from repro.costmodel.backend import (
    ArithmeticBackend,
    counter_for,
    null_counter_for,
    resolve_backend,
)
from repro.costmodel.counter import CostCounter, NullCounter
from repro.obs.trace import NULL_TRACER, Tracer
from repro.core.interval import IntervalProblemSolver, solve_linear_scaled
from repro.core.remainder import (
    NotSquareFreeError,
    RemainderSequence,
    compute_remainder_sequence,
)
from repro.core.scaling import digits_to_bits, scaled_to_float
from repro.core.sieve import STRATEGIES, IntervalStats
from repro.core.tree import InterleavingTree
from repro.poly.dense import IntPoly
from repro.poly.gcd import square_free_decomposition
from repro.poly.roots_bounds import root_bound_bits
from repro.resilience.budget import Budget

__all__ = [
    "RealRootFinder",
    "RootResult",
    "merge_sorted",
    "NodePlan",
    "build_interval_plan",
]

PHASE_SORT = "tree.sort"


def merge_sorted(a: list[int], b: list[int]) -> list[int]:
    """Merge two ascending lists — the body of a SORT task (Section 3.2)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


@dataclass(frozen=True)
class NodePlan:
    """Plain-data description of one tree node's interval-stage work.

    Both plan runners consume a list of these: the in-process one of
    :class:`RealRootFinder`, and the pool of
    :class:`repro.sched.executor.ParallelRootFinder`, which needs plain
    data because closures do not cross process boundaries.  Same
    PREINTERVAL/INTERVAL task granularity and node-level dependencies as
    the simulator's :class:`~repro.sched.graph.TaskGraph`.

    The pool does *not* re-pickle ``coeffs`` into each of the node's
    ``2*degree + 1`` task payloads: it interns the tuple once per node
    as a pre-pickled ``(key, blob)`` reference
    (:func:`repro.sched.executor.intern_coeffs`) that each worker
    unpickles at most once.
    """

    #: the tree node's ``(i, j)`` label.
    label: tuple[int, int]
    #: coefficients of ``P_{i,j}``, low to high.
    coeffs: tuple[int, ...]
    #: number of roots ``L`` of this node (= number of INTERVAL tasks).
    degree: int
    #: ``sign(P_{i,j}(-inf))`` — the parity anchor of Section 2.2.
    sign_at_neg_inf: int
    #: labels of the non-empty children whose roots interleave ours
    #: (empty children contribute no roots and no dependency).
    children: tuple[tuple[int, int], ...]

    # -- logical task identities ----------------------------------------
    # The executor keys retries, deduplication of late/stale results,
    # and per-node degradation by *logical* task, not by submission
    # attempt: one PREINTERVAL key per interleaving point, one INTERVAL
    # key per gap.
    def sign_task(self, t: int) -> tuple[str, tuple[int, int], int]:
        """Logical key of this node's PREINTERVAL task ``t``
        (``0 <= t <= degree``)."""
        return ("sign", self.label, t)

    def gap_task(self, gap: int) -> tuple[str, tuple[int, int], int]:
        """Logical key of this node's INTERVAL task ``gap``
        (``0 <= gap < degree``)."""
        return ("gap", self.label, gap)

    @property
    def n_tasks(self) -> int:
        """Pool tasks this node contributes: ``degree + 1`` endpoint
        signs plus ``degree`` gap solves (0 for in-parent linear
        nodes)."""
        return 0 if self.degree == 1 else 2 * self.degree + 1


def build_interval_plan(tree: InterleavingTree) -> list[NodePlan]:
    """Flatten a computed :class:`~repro.core.tree.InterleavingTree`
    into postorder :class:`NodePlan` records (non-empty nodes only).

    The node polynomials must already be computed
    (:meth:`InterleavingTree.compute_polynomials`); raises
    :class:`ValueError` otherwise.  The last entry is always the root,
    and every node's children precede it — the order both plan runners
    rely on.
    """
    plan: list[NodePlan] = []
    for node in tree.nodes_postorder():
        if node.is_empty:
            continue
        poly = node.poly
        if poly is None:
            raise ValueError(
                "tree polynomials not computed; call compute_polynomials first"
            )
        children = tuple(
            child.label
            for child in (node.left, node.right)
            if child is not None and not child.is_empty
        )
        plan.append(
            NodePlan(
                label=node.label,
                coeffs=tuple(poly.coeffs),
                degree=node.degree,
                sign_at_neg_inf=poly.sign_at_neg_inf(),
                children=children,
            )
        )
    return plan


@dataclass
class RootResult:
    """All distinct real roots of the input, mu-approximated.

    ``scaled[k]`` is ``ceil(2**mu * x_k)`` for the ascending distinct
    roots ``x_k``; ``multiplicities[k]`` is the multiplicity of ``x_k``
    in the original input.
    """

    mu: int
    scaled: list[int]
    multiplicities: list[int]
    degree: int
    square_free_degree: int
    counter: CostCounter
    stats: IntervalStats
    elapsed_seconds: float
    tree: InterleavingTree | None = field(default=None, repr=False)
    sequence: RemainderSequence | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.scaled)

    def as_floats(self) -> list[float]:
        return [scaled_to_float(s, self.mu) for s in self.scaled]

    def as_fractions(self) -> list[Fraction]:
        return [Fraction(s, 1 << self.mu) for s in self.scaled]

    def error_bound(self) -> Fraction:
        """Every true root ``x_k`` satisfies
        ``approx - error_bound < x_k <= approx``."""
        return Fraction(1, 1 << self.mu)


class _RootPipeline:
    """The algorithm up to and including the interval plan, shared by
    both engines.

    Subclasses provide the attributes read on every call (``mu``,
    ``strategy``, ``counter``, ``tracer``, ``budget``, ``check_tree``)
    and choose the plan runner by overriding :meth:`_run_plan`; the one
    here solves the plan in-process.
    """

    keep_structures = False

    def _find_roots(self, p: IntPoly) -> RootResult:
        t0 = time.perf_counter()
        if p.is_zero():
            raise ValueError("the zero polynomial has every number as a root")
        if p.leading_coefficient < 0:
            p = -p
        if p.degree == 0:
            return RootResult(
                mu=self.mu, scaled=[], multiplicities=[], degree=0,
                square_free_degree=0, counter=self.counter,
                stats=IntervalStats(),
                elapsed_seconds=time.perf_counter() - t0,
            )

        stats = IntervalStats()
        budget = self.budget
        if budget is not None:
            budget.start(self.counter)
            budget.check(phase="remainder", mu=self.mu, degree=p.degree)
        with self.tracer.span(
            "find_roots", degree=p.degree, mu=self.mu, strategy=self.strategy
        ):
            try:
                seq = compute_remainder_sequence(p, self.counter, self.tracer)
            except NotSquareFreeError:
                return self._find_roots_with_multiplicity(p, stats, t0)

            scaled, tree = self._solve_square_free(p, seq, stats)
        return RootResult(
            mu=self.mu,
            scaled=scaled,
            multiplicities=[1] * len(scaled),
            degree=p.degree,
            square_free_degree=p.degree,
            counter=self.counter,
            stats=stats,
            elapsed_seconds=time.perf_counter() - t0,
            tree=tree if self.keep_structures else None,
            sequence=seq if self.keep_structures else None,
        )

    # -- square-free main path ------------------------------------------------
    def _solve_square_free(
        self,
        p: IntPoly,
        seq: RemainderSequence,
        stats: IntervalStats,
        partial_base: list[int] | None = None,
    ) -> tuple[list[int], InterleavingTree]:
        """Solve one square-free polynomial: tree, plan, plan runner.

        ``partial_base`` (multiplicity path only) is the ascending list
        of already-certified roots of the *original* input from earlier
        Yun factors; budget overruns report it merged with whatever
        this factor has completed.
        """
        counter = self.counter
        tracer = self.tracer
        budget = self.budget
        base = partial_base or []
        if p.degree == 1:
            return [solve_linear_scaled(p, self.mu)], InterleavingTree(seq)

        if budget is not None:
            budget.check(scaled=base, phase="tree", mu=self.mu,
                         degree=p.degree)
        tree = InterleavingTree(seq)
        with tracer.span("tree.compute_polynomials", phase="tree",
                         degree=p.degree):
            tree.compute_polynomials(counter, check=self.check_tree,
                                     tracer=tracer)
        plan = build_interval_plan(tree)
        if budget is not None:
            budget.check(scaled=base, phase="interval", mu=self.mu,
                         degree=p.degree)
        scaled = self._run_plan(plan, tree, root_bound_bits(p), stats, base)
        return scaled, tree

    def _run_plan(
        self,
        plan: list[NodePlan],
        tree: InterleavingTree,
        r_bits: int,
        stats: IntervalStats,
        base: list[int],
    ) -> list[int]:
        """In-process plan runner: the nodes in postorder, each with its
        PREINTERVAL signs and then one INTERVAL solve per gap; returns
        the root node's roots.  Polynomials come from ``tree`` (the
        plan's coefficient tuples are for pickling) and each node's
        roots are stored on its tree node."""
        mu = self.mu
        counter = self.counter
        tracer = self.tracer
        budget = self.budget
        root_label = plan[-1].label
        nodes = {node.label: node for node in tree.nodes_postorder()}
        for item in plan:
            node = nodes[item.label]
            poly = node.poly
            if item.degree == 1:
                node.roots_scaled = [solve_linear_scaled(poly, mu)]
                continue
            if budget is not None:
                # Intermediate nodes' gap results are roots of remainder-
                # sequence polynomials, not of p — only the root node's
                # completed gaps are reportable partial roots.
                budget.check(scaled=base, phase="interval", mu=mu,
                             degree=tree.n)
            with tracer.span("node.intervals", phase="interval",
                             i=node.i, j=node.j, level=node.level,
                             degree=item.degree):
                inter: list[int] = []
                with counter.phase(PHASE_SORT):
                    for child in item.children:
                        inter = merge_sorted(inter, nodes[child].roots_scaled)
                solver = IntervalProblemSolver(
                    poly, mu, r_bits, counter, stats,
                    strategy=self.strategy, tracer=tracer,
                    label=f"[{node.i},{node.j}]",
                )
                ys = [-solver.sentinel] + inter + [solver.sentinel]
                signs = solver.preinterval_signs(ys)
                # Each completed root-node gap is one more certified
                # root of the input: check the budget between them.
                check_gaps = budget is not None and item.label == root_label
                out: list[int] = []
                for g in range(item.degree):
                    if check_gaps:
                        budget.check(
                            scaled=merge_sorted(base, out),
                            phase="interval.gap", mu=mu, degree=tree.n,
                        )
                    out.append(solver.solve_gap(
                        g, ys[g], ys[g + 1], signs[g], signs[g + 1],
                        item.sign_at_neg_inf,
                    ))
                node.roots_scaled = out
        return nodes[root_label].roots_scaled

    # -- repeated-roots path ---------------------------------------------------
    def _find_roots_with_multiplicity(
        self, p: IntPoly, stats: IntervalStats, t0: float
    ) -> RootResult:
        budget = self.budget
        if budget is not None:
            budget.check(phase="square_free", mu=self.mu, degree=p.degree)
        with self.tracer.span("square_free_decomposition", phase="remainder",
                              degree=p.degree):
            factors = square_free_decomposition(p, self.counter)
        # Distinct roots: solve each square-free Yun factor and merge.
        # (The product of the factors *is* the square-free part; solving
        # them separately also yields the multiplicities exactly.)
        pairs: list[tuple[int, int]] = []
        sf_degree = 0
        tree = None
        seq = None
        for fac, m in factors:
            sf_degree += fac.degree
            if fac.degree == 0:
                continue
            # Roots of every Yun factor are roots of p, so the sorted
            # accumulation so far is a reportable partial result.
            base = sorted(s for s, _ in pairs)
            if budget is not None:
                budget.check(scaled=base, phase="square_free.factor",
                             mu=self.mu, degree=p.degree)
            with self.tracer.span("factor", degree=fac.degree, multiplicity=m):
                sub_seq = compute_remainder_sequence(
                    fac, self.counter, self.tracer
                )
                scaled, sub_tree = self._solve_square_free(
                    fac, sub_seq, stats, partial_base=base
                )
            pairs.extend((s, m) for s in scaled)
            if tree is None:
                tree, seq = sub_tree, sub_seq
        pairs.sort()
        return RootResult(
            mu=self.mu,
            scaled=[s for s, _ in pairs],
            multiplicities=[m for _, m in pairs],
            degree=p.degree,
            square_free_degree=sf_degree,
            counter=self.counter,
            stats=stats,
            elapsed_seconds=time.perf_counter() - t0,
            tree=tree if self.keep_structures else None,
            sequence=seq if self.keep_structures else None,
        )


class RealRootFinder(_RootPipeline):
    """Approximates all real roots of an all-real-roots integer polynomial.

    Parameters
    ----------
    mu_bits:
        Output precision: approximations are exact ceilings on the
        ``2**-mu_bits`` grid.  Use :func:`mu_digits`-style conversion via
        ``RealRootFinder.from_digits`` for the paper's decimal-digit
        parameter.
    check_tree:
        Assert Theorem 1's degree/sign conclusions at every tree node
        (cheap insurance; on by default).
    keep_structures:
        Attach the remainder sequence and tree to the result for
        inspection/benchmarks.
    strategy:
        Interval-solver strategy: ``"hybrid"`` (the paper's sieve /
        bisection / Newton method, default), ``"bisection"`` (classical
        binary search, cost linear in mu), or ``"newton"`` (guarded
        Newton without the warm-up phases).  All three are exact; see
        :class:`repro.core.sieve.HybridSolver`.
    tracer:
        Observability hook (:class:`repro.obs.trace.Tracer`): records
        hierarchical wall-time/bit-cost spans for every phase and
        structured interval-case events.  Defaults to the zero-overhead
        :data:`repro.obs.trace.NULL_TRACER`.
    budget:
        Optional :class:`repro.resilience.budget.Budget` bounding a
        :meth:`find_roots` call by wall-clock deadline and/or bit-cost
        ceiling.  Checked cooperatively at phase boundaries and between
        top-level interval problems; an overrun raises
        :class:`repro.resilience.budget.BudgetExceeded` whose
        ``partial`` carries the (certified-root-compatible, ascending)
        approximations already completed.  The bit axis reads this
        finder's ``counter``; one is created automatically if a bit
        ceiling is set without a counter.
    backend:
        Arithmetic backend name (``"python"``/``"gmpy2"``/``"mpint"``/
        ``"auto"``) or an :class:`~repro.costmodel.backend
        .ArithmeticBackend`.  When no explicit ``counter`` is given, the
        finder's counter computes on this backend (uncharged unless a
        budget needs charging); an explicit ``counter`` wins — build it
        with :func:`repro.costmodel.counter_for` to combine both.  See
        docs/BACKENDS.md.
    """

    def __init__(
        self,
        mu_bits: int = 32,
        *,
        check_tree: bool = True,
        keep_structures: bool = False,
        counter: CostCounter | None = None,
        strategy: str = "hybrid",
        tracer: Tracer | None = None,
        budget: Budget | None = None,
        backend: "str | ArithmeticBackend | None" = None,
    ):
        if mu_bits < 1:
            raise ValueError("mu_bits must be >= 1")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; known: {list(STRATEGIES)}"
            )
        self.mu = mu_bits
        self.check_tree = check_tree
        self.keep_structures = keep_structures
        resolved = resolve_backend(backend)
        self.backend = resolved.name
        if counter is not None:
            self.counter = counter
        else:
            self.counter = null_counter_for(resolved)
        self.strategy = strategy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.budget = budget
        if (budget is not None and budget.max_bit_ops is not None
                and isinstance(self.counter, NullCounter)):
            # The bit ceiling needs a real counter to read.
            self.counter = counter_for(resolved)

    @classmethod
    def from_digits(cls, mu_digits: int, **kwargs) -> "RealRootFinder":
        """Construct with precision given in decimal digits (paper's mu)."""
        return cls(mu_bits=digits_to_bits(mu_digits), **kwargs)

    # -- public API ---------------------------------------------------------
    def find_roots(self, p: IntPoly) -> RootResult:
        """Compute mu-approximations of all distinct real roots of ``p``.

        ``p`` must be a nonzero integer polynomial all of whose complex
        roots are real; a :class:`repro.core.remainder.NotRealRootedError`
        is raised otherwise (the structure checks detect it exactly).
        """
        return self._find_roots(p)
