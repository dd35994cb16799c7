(** Root-set enumeration shared by the optimal algorithm and the
    candidate-pool heuristics.

    Phase 1 of §4.2 produces candidate root sets; Phase 2 ({!Closure})
    constructs the optimal subgraphs for each.  The optimal algorithm sweeps
    every k and every (k−1)-subset of all vertices; the heuristics sweep
    subsets of a small ranked candidate pool. *)

val combinations : 'a list -> int -> 'a list list
(** All subsets of the given size, in lexicographic order of the input. *)

val solve_over_pool :
  ?k_max:int ->
  ?domains:int ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  pool:int list ->
  Types.solution option
(** Sweeps k = 1, 2, ... taking the k−1 extra roots from subsets of [pool];
    Phase 2 is {!Closure.solve}.  Stops after 2 consecutive values of k
    without improvement, or at [k_max] (default [List.length pool + 1]).
    Returns the best solution found.

    Every subset's exact search shares one incumbent bound.  [domains]
    (default 1) fans each k's subsets out over the Domain pool; results are
    folded back in enumeration order, so the returned solution — and the
    patience-based stopping point — do not depend on [domains]. *)
