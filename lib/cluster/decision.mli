(** Front door for the merge-decision phase (§4): pick an algorithm, get a
    validated grouping.

    One algorithm per call-graph size ({!auto}), as the paper does.
    [domains] only spreads the chosen algorithm's own sweep over the Domain
    pool: every solver returns the same solution at every [domains] value
    (qcheck-pinned). *)

type algorithm =
  | Optimal  (** Exhaustive k-sweep (§4.2); small graphs only. *)
  | Dih  (** Downstream-Impact candidate pool + sweep (§4.3, App. C). *)
  | Weighted_degree  (** The simple baseline heuristic of Experiment 5. *)
  | Grasp  (** Large-graph GRASP + refinement (App. C.4). *)

val algorithm_name : algorithm -> string

val auto_algorithm : Quilt_dag.Callgraph.t -> algorithm
(** The size-based dispatch {!auto} uses: [Optimal] for ≤ 12 vertices,
    [Dih] up to 60, [Grasp] beyond.  The {!Closure.exact_max_roots} /
    {!Closure.exact_max_root_edges} caps are therefore never breached by
    [auto]-driven solves: the exact search only runs in the ≤ 12-vertex
    regime or behind {!Closure.solve}'s own cap check. *)

val solve :
  ?seed:int ->
  ?domains:int ->
  algorithm ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** Runs the chosen algorithm.  [seed] (default 1) feeds GRASP's randomized
    stage.  [domains] (default 1) parallelizes the chosen algorithm's inner
    sweep with output-identical results.  Every returned solution has
    passed {!Metrics.solution_valid}; a solver bug therefore surfaces as an
    exception here rather than as a corrupt deployment downstream. *)

val auto :
  ?seed:int ->
  ?domains:int ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** What the Quilt optimizer itself uses: [solve ~seed ~domains
    (auto_algorithm g) g lim], with [domains] defaulting to
    {!Quilt_util.Pool.default_domains}.  In the ≤ 12-vertex regime this is
    the exact sweep ({!Optimal.solve}), whose answer is the optimum the
    test suite computes with an unbounded reference sweep, for every
    [domains] value. *)
