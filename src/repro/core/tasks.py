"""Task-granular construction of the whole algorithm (paper Section 3).

:func:`build_task_graph` decomposes one root-finding run into the exact
task structure of the paper's parallel implementation:

* **Remainder phase** (Section 3.1): iteration ``i`` computes ``Q_i``
  and ``F_{i+1}`` as scalar-grain tasks — for each coefficient ``j``,
  three multiplication tasks, one addition task and one division task
  (the paper's ``5(n-i)`` tasks), plus the ``q_{i,1}/q_{i,0}/c_i^2``
  head tasks.  Dependencies are at coefficient granularity, which is
  what lets iteration ``i+1`` start on low coefficients while iteration
  ``i`` is still finishing high ones (software pipelining across the
  otherwise serial recurrence).
* **Tree phase** (Section 3.2, Fig. 3.2): RECURSE initialization tasks
  top-down, then per node: the two 2x2 matrix products split into four
  entry tasks each (COMPUTEPOLY), a scaling/division task, a SORT task
  merging children's roots, one PREINTERVAL task per interleaving
  point, and one INTERVAL task per root.

Executing the graph (``graph.run_recorded(counter)``) performs the real
computation — the produced roots are bit-identical to
:class:`repro.core.rootfinder.RealRootFinder` — while recording each
task's bit cost for the multiprocessor simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.counter import NULL_COUNTER, CostCounter
from repro.core.interval import IntervalProblemSolver, solve_linear_scaled
from repro.core.sieve import IntervalStats
from repro.core.tree import TreeNode, split_index
from repro.poly.dense import IntPoly
from repro.poly.matrix import PolyMatrix2x2
from repro.poly.roots_bounds import root_bound_bits
from repro.sched.graph import TaskGraph
from repro.sched.task import TaskKind

__all__ = ["build_task_graph", "TaskGraphResult"]


@dataclass
class _NodeState:
    node: TreeNode
    matrix: PolyMatrix2x2 | None = None
    poly: IntPoly | None = None
    m1: dict[tuple[int, int], IntPoly] = field(default_factory=dict)
    m2: dict[tuple[int, int], IntPoly] = field(default_factory=dict)
    inter: list[int] | None = None       # merged interleaving points
    signs: list[int] | None = None       # just-right-of signs incl. sentinels
    roots: list[int | None] | None = None
    solver: IntervalProblemSolver | None = None
    poly_ready: int = -1                 # task id after which .poly is set
    roots_ready: tuple[int, ...] = ()    # task ids producing all roots


@dataclass
class TaskGraphResult:
    """The graph plus handles to read the final answer after execution."""

    graph: TaskGraph
    n: int
    mu: int
    stats: IntervalStats
    _root_state: _NodeState

    def roots_scaled(self) -> list[int]:
        if not self.graph.executed:
            raise RuntimeError("execute the graph first (run_recorded)")
        roots = self._root_state.roots
        assert roots is not None and all(r is not None for r in roots)
        return [r for r in roots if r is not None]


def build_task_graph(
    p: IntPoly,
    mu: int,
    counter: CostCounter = NULL_COUNTER,
    sequential_remainder: bool = False,
) -> TaskGraphResult:
    """Build the full task DAG for one run on square-free input ``p``.

    The graph computes nothing at build time; call
    ``result.graph.run_recorded(counter)`` to execute and record costs.
    A non-square-free input surfaces as
    :class:`~repro.core.remainder.NotSquareFreeError`-style arithmetic
    failure during execution (benches only use square-free inputs, as
    did the paper's).

    ``sequential_remainder`` reproduces the paper's run-time option of
    executing the precomputation stage sequentially (Section 3): every
    remainder-phase task is chained to its predecessor, removing the
    phase's wavefront parallelism (the remainder-parallelism ablation
    bench quantifies the difference).
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if p.leading_coefficient < 0:
        p = -p
    n = p.degree
    g = TaskGraph()
    stats = IntervalStats()
    r_bits = root_bound_bits(p)

    # ---------------- remainder phase (Section 3.1) ----------------
    # State: coefficient values f[i][j] and the producing task ids.
    f: list[list[int]] = [list(p.coeffs)] + [
        [0] * (n - i + 1) for i in range(1, n + 1)
    ]
    coeff_task: list[list[int]] = []
    q0_val: list[int] = [0] * n
    q1_val: list[int] = [0] * n
    csq_val: list[int] = [0] * (n + 1)
    q0_tid: list[int] = [-1] * n
    q1_tid: list[int] = [-1] * n
    csq_tid: list[int] = [-1] * (n + 1)

    _last_rem = [-1]

    def add_rem(kind, body, deps=(), label=""):
        """Add a remainder-phase task, chaining when sequential mode is on."""
        d = list(deps)
        if sequential_remainder and _last_rem[0] >= 0:
            d.append(_last_rem[0])
        tid = g.add(kind, body, deps=d, label=label, phase="remainder")
        _last_rem[0] = tid
        return tid

    init0 = add_rem(TaskKind.RECURSE, lambda: None, label="init.F0")
    coeff_task.append([init0] * (n + 1))

    def _deriv_body() -> None:
        d = p.derivative(counter)
        f[1][:] = list(d.coeffs) + [0] * (n - len(d.coeffs))

    deriv = add_rem(TaskKind.REM_MUL, _deriv_body, deps=[init0],
                    label="init.F1")
    coeff_task.append([deriv] * n)

    def _make_q_bodies(i: int):
        # q_{i,1} = f_{i-1, n-i+1} * f_{i, n-i}      (Eq. 15/16)
        def q1_body() -> None:
            q1_val[i] = counter.mul(f[i - 1][n - i + 1], f[i][n - i])

        # q_{i,0} = f_{i,n-i} f_{i-1,n-i} - f_{i,n-i-1} f_{i-1,n-i+1} (Eq. 17)
        def q0_body() -> None:
            a = counter.mul(f[i][n - i], f[i - 1][n - i])
            b = counter.mul(
                f[i][n - i - 1] if n - i - 1 >= 0 else 0, f[i - 1][n - i + 1]
            )
            q0_val[i] = counter.sub(a, b)

        def csq_body() -> None:
            lead = f[i][n - i]
            if lead == 0:
                # F_i lost its leading coefficient: the chain is not normal,
                # i.e. the input has repeated or non-real roots.  Fail fast
                # with the same diagnosis the sequential path gives.
                raise ArithmeticError(
                    f"remainder chain not normal at i={i}: input is not a "
                    "square-free real-rooted polynomial"
                )
            csq_val[i] = counter.mul(lead, lead)

        return q1_body, q0_body, csq_body

    for i in range(1, n):
        q1_body, q0_body, csq_body = _make_q_bodies(i)
        lead_prev = coeff_task[i - 1][n - i + 1]
        lead_cur = coeff_task[i][n - i]
        sub_cur = coeff_task[i][n - i - 1] if n - i - 1 >= 0 else lead_cur
        sub_prev = coeff_task[i - 1][n - i]
        q1_tid[i] = add_rem(TaskKind.REM_Q, q1_body,
                            deps=[lead_prev, lead_cur], label=f"q1[{i}]")
        q0_tid[i] = add_rem(TaskKind.REM_Q, q0_body,
                            deps=[lead_prev, lead_cur, sub_cur, sub_prev],
                            label=f"q0[{i}]")
        csq_tid[i] = add_rem(TaskKind.REM_Q, csq_body, deps=[lead_cur],
                             label=f"csq[{i}]")

        next_tasks: list[int] = []
        for j in range(0, n - i):
            ma_val = [0]
            mb_val = [0]
            mc_val = [0]
            t_val = [0]

            def mul_a(i=i, j=j, out=ma_val) -> None:
                out[0] = counter.mul(f[i][j], q0_val[i])

            def mul_b(i=i, j=j, out=mb_val) -> None:
                out[0] = counter.mul(f[i][j - 1] if j >= 1 else 0, q1_val[i])

            def mul_c(i=i, j=j, out=mc_val) -> None:
                out[0] = counter.mul(csq_val[i], f[i - 1][j])

            def add_body(a=ma_val, b=mb_val, c=mc_val, out=t_val) -> None:
                out[0] = counter.sub(counter.add(a[0], b[0]), c[0])

            def div_body(i=i, j=j, src=t_val) -> None:
                if i == 1:
                    f[i + 1][j] = src[0]
                    return
                q, r = counter.divmod(src[0], csq_val[i - 1])
                if r != 0:
                    raise ArithmeticError(
                        f"Collins integrality violated at i={i}, j={j} "
                        "(is the input square-free and real-rooted?)"
                    )
                f[i + 1][j] = q

            ta = add_rem(TaskKind.REM_MUL, mul_a,
                         deps=[coeff_task[i][j], q0_tid[i]],
                         label=f"mulA[{i},{j}]")
            tb_deps = [q1_tid[i]] + ([coeff_task[i][j - 1]] if j >= 1 else [])
            tb = add_rem(TaskKind.REM_MUL, mul_b, deps=tb_deps,
                         label=f"mulB[{i},{j}]")
            tc = add_rem(TaskKind.REM_MUL, mul_c,
                         deps=[csq_tid[i], coeff_task[i - 1][j]],
                         label=f"mulC[{i},{j}]")
            tadd = add_rem(TaskKind.REM_ADD, add_body, deps=[ta, tb, tc],
                           label=f"add[{i},{j}]")
            div_deps = [tadd] + ([csq_tid[i - 1]] if i >= 2 else [])
            tdiv = add_rem(TaskKind.REM_DIV, div_body, deps=div_deps,
                           label=f"div[{i},{j}]")
            next_tasks.append(tdiv)
        coeff_task.append(next_tasks)

    # ---------------- tree phase (Section 3.2) ----------------
    def build_structure(i: int, j: int, level: int) -> TreeNode:
        node = TreeNode(i=i, j=j, level=level)
        if j > i:
            k = split_index(i, j)
            node.left = build_structure(i, k - 1, level + 1)
            node.right = build_structure(k + 1, j, level + 1)
        return node

    root = build_structure(1, n, 0)
    states: dict[tuple[int, int], _NodeState] = {}

    # Top-down RECURSE tasks (structure/status initialization): cheap, but
    # they occupy queue slots and processors exactly as in the paper.
    recurse_tid: dict[tuple[int, int], int] = {}

    def add_recurse(node: TreeNode, parent_tid: int | None) -> None:
        deps = [parent_tid] if parent_tid is not None else []
        tid = g.add(TaskKind.RECURSE, lambda: None, deps=deps,
                    label=f"recurse[{node.i},{node.j}]", phase="tree")
        recurse_tid[node.label] = tid
        if node.left is not None:
            add_recurse(node.left, tid)
        if node.right is not None:
            add_recurse(node.right, tid)

    add_recurse(root, None)

    def u_matrix_now(k: int) -> PolyMatrix2x2:
        ck1_sq = 1 if k == 1 else csq_val[k - 1]
        return PolyMatrix2x2(
            IntPoly.zero(),
            IntPoly.constant(ck1_sq),
            IntPoly.constant(-csq_val[k]),
            IntPoly((q0_val[k], q1_val[k])),
        )

    def u_deps(k: int) -> list[int]:
        deps = [q0_tid[k], q1_tid[k], csq_tid[k]]
        if k >= 2:
            deps.append(csq_tid[k - 1])
        return deps

    def poly_from_f(i: int) -> IntPoly:
        # F_i as currently held in the coefficient table.
        return IntPoly(f[i])

    def add_node_tasks(node: TreeNode) -> _NodeState:
        st = _NodeState(node=node)
        states[node.label] = st
        i, j = node.i, node.j

        if node.is_empty:
            def empty_body(st=st, i=i) -> None:
                cc = 1 if i == 1 else csq_val[i - 1]
                st.matrix = PolyMatrix2x2.scalar(cc)
                st.poly = IntPoly.one()
            deps = [recurse_tid[node.label]] + (
                [csq_tid[i - 1]] if i >= 2 else []
            )
            tid = g.add(TaskKind.LEAFPOLY, empty_body, deps=deps,
                        label=f"empty[{i},{j}]", phase="tree")
            st.poly_ready = tid
            st.roots_ready = (tid,)
            st.roots = []
            return st

        if node.is_leaf and j < n:
            def leaf_body(st=st, i=i) -> None:
                st.matrix = u_matrix_now(i)
                st.poly = st.matrix.entry(2, 2)
            tid = g.add(TaskKind.LEAFPOLY, leaf_body,
                        deps=[recurse_tid[node.label]] + u_deps(i),
                        label=f"leafpoly[{i}]", phase="tree")
            st.poly_ready = tid
            _add_linroot(st, tid)
            return st

        if j == n:
            # Rightmost spine: adopt F_{i-1} once its coefficients exist.
            def spine_body(st=st, i=i) -> None:
                st.poly = poly_from_f(i - 1)
            tid = g.add(TaskKind.SPINEPOLY, spine_body,
                        deps=[recurse_tid[node.label]] + coeff_task[i - 1],
                        label=f"spinepoly[{i},{j}]", phase="tree")
            st.poly_ready = tid
            if node.is_leaf:  # [n, n]: F_{n-1} is linear
                _add_linroot(st, tid)
                return st
            left_st = add_node_tasks(node.left)   # type: ignore[arg-type]
            right_st = add_node_tasks(node.right)  # type: ignore[arg-type]
            _add_interval_tasks(st, left_st, right_st)
            return st

        # Interior, non-rightmost: COMPUTEPOLY via two split matrix products.
        left_st = add_node_tasks(node.left)    # type: ignore[arg-type]
        right_st = add_node_tasks(node.right)  # type: ignore[arg-type]
        k = node.pivot

        m1_tids: dict[tuple[int, int], int] = {}
        for r in (1, 2):
            for c in (1, 2):
                def m1_body(st=st, right_st=right_st, k=k, r=r, c=c) -> None:
                    assert right_st.matrix is not None
                    st.m1[(r, c)] = right_st.matrix.entry_product(
                        u_matrix_now(k), r, c, counter
                    )
                m1_tids[(r, c)] = g.add(
                    TaskKind.MATMUL, m1_body,
                    deps=[recurse_tid[node.label], right_st.poly_ready]
                    + u_deps(k),
                    label=f"m1[{i},{j}]({r},{c})", phase="tree",
                )

        # Second product's entry tasks also apply the exact division by
        # c_{k-1}^2 c_k^2 (Eq. 9) so the scaling parallelizes with the
        # same grain as the multiplications.
        m2_tids: dict[tuple[int, int], int] = {}
        for r in (1, 2):
            for c in (1, 2):
                def m2_body(st=st, left_st=left_st, k=k, r=r, c=c) -> None:
                    assert left_st.matrix is not None
                    a1 = st.m1[(r, 1)]
                    a2 = st.m1[(r, 2)]
                    lm = left_st.matrix
                    b1 = lm.entry(1, c)
                    b2 = lm.entry(2, c)
                    raw = a1.mul(b1, counter) + a2.mul(b2, counter)
                    ck1_sq = 1 if k == 1 else csq_val[k - 1]
                    st.m2[(r, c)] = raw.exact_div_scalar(
                        ck1_sq * csq_val[k], counter
                    )
                m2_deps = [m1_tids[(r, 1)], m1_tids[(r, 2)],
                           left_st.poly_ready, csq_tid[k]]
                if k >= 2:
                    m2_deps.append(csq_tid[k - 1])
                m2_tids[(r, c)] = g.add(
                    TaskKind.MATMUL, m2_body, deps=m2_deps,
                    label=f"m2[{i},{j}]({r},{c})", phase="tree",
                )

        def assemble_body(st=st) -> None:
            st.matrix = PolyMatrix2x2(
                st.m2[(1, 1)], st.m2[(1, 2)], st.m2[(2, 1)], st.m2[(2, 2)]
            )
            st.poly = st.matrix.entry(2, 2)
            st.m1.clear()
            st.m2.clear()

        tid = g.add(TaskKind.DIVSCALE, assemble_body,
                    deps=list(m2_tids.values()),
                    label=f"assemble[{i},{j}]", phase="tree")
        st.poly_ready = tid

        if node.degree == 1:
            _add_linroot(st, tid)
        else:
            _add_interval_tasks(st, left_st, right_st)
        return st

    def _add_linroot(st: _NodeState, poly_tid: int) -> None:
        st.roots = [None]

        def lin_body(st=st) -> None:
            assert st.poly is not None
            st.roots[0] = solve_linear_scaled(st.poly, mu)

        tid = g.add(TaskKind.LINROOT, lin_body, deps=[poly_tid],
                    label=f"linroot[{st.node.i},{st.node.j}]",
                    phase="interval")
        st.roots_ready = (tid,)

    def _add_interval_tasks(
        st: _NodeState, left_st: _NodeState, right_st: _NodeState
    ) -> None:
        L = st.node.degree
        st.roots = [None] * L
        sentinel = 1 << (r_bits + mu)

        def sort_body(st=st, left_st=left_st, right_st=right_st) -> None:
            from repro.core.rootfinder import merge_sorted
            a = [r for r in (left_st.roots or []) if r is not None]
            b = [r for r in (right_st.roots or []) if r is not None]
            st.inter = merge_sorted(a, b)
            st.signs = [0] * (L + 1)

        sort_tid = g.add(
            TaskKind.SORT, sort_body,
            deps=list(left_st.roots_ready) + list(right_st.roots_ready),
            label=f"sort[{st.node.i},{st.node.j}]", phase="tree.sort",
        )

        def get_solver(st=st) -> IntervalProblemSolver:
            if st.solver is None:
                assert st.poly is not None
                st.solver = IntervalProblemSolver(
                    st.poly, mu, r_bits, counter, stats
                )
            return st.solver

        pre_tids: list[int] = []
        for t in range(L + 1):
            def pre_body(st=st, t=t, L=L, sentinel=sentinel) -> None:
                solver = get_solver(st)
                assert st.inter is not None and st.signs is not None
                ys = [-sentinel] + st.inter + [sentinel]
                st.signs[t] = solver.preinterval_sign(ys[t])
            pre_tids.append(
                g.add(TaskKind.PREINTERVAL, pre_body,
                      deps=[sort_tid, st.poly_ready],
                      label=f"pre[{st.node.i},{st.node.j}]#{t}",
                      phase="interval.preinterval")
            )

        int_tids: list[int] = []
        for gap in range(L):
            def gap_body(st=st, gap=gap, sentinel=sentinel) -> None:
                solver = get_solver(st)
                assert st.inter is not None and st.signs is not None
                assert st.poly is not None and st.roots is not None
                ys = [-sentinel] + st.inter + [sentinel]
                st.roots[gap] = solver.solve_gap(
                    gap, ys[gap], ys[gap + 1],
                    st.signs[gap], st.signs[gap + 1],
                    st.poly.sign_at_neg_inf(),
                )
            int_tids.append(
                g.add(TaskKind.INTERVAL, gap_body,
                      deps=[pre_tids[gap], pre_tids[gap + 1]],
                      label=f"interval[{st.node.i},{st.node.j}]#{gap}",
                      phase="interval")
            )
        st.roots_ready = tuple(int_tids)

    root_state = add_node_tasks(root)
    return TaskGraphResult(
        graph=g, n=n, mu=mu, stats=stats, _root_state=root_state
    )
