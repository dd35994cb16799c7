(** The optimal merge-decision algorithm (§4.2).

    Sweeps every number of subgraphs k from 1 to |V| and, for each k, every
    candidate root set (the graph root plus any k−1 other vertices); Phase 2
    ({!Closure.solve_exact_par}) finds the optimal assignment for each set.
    The best assignment over all k is optimal for the full problem
    (Appendix A shows why all k must be tried).  Exponential in |V|:
    practical for workflows of ≤ ~15 functions, which covers the benchmark
    applications. *)

val solve :
  ?max_k:int ->
  ?domains:int ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** [max_k] truncates the sweep (the full sweep uses |V|); useful in the
    decision-time benchmarks.  Returns [None] when no feasible grouping
    exists even with every vertex its own root.

    Candidate root sets are evaluated in chunks — in parallel on up to
    [domains] domains (default 1) — whose exact searches share one
    incumbent bound, so a cost found on any root set prunes all the others.
    Results are folded in enumeration order with a strict-improvement rule,
    so the returned solution is the first optimum in enumeration order at
    every [domains] value (the test suite pins it against an unbounded
    sweep over {!Closure.solve_exact}). *)
