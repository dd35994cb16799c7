(** Call-graph construction from a profiling window (§3, Figure 3).

    Counts caller→callee pairs among the spans, takes N = number of
    client→entry spans, and labels vertices with resources aggregated over
    every container of the function: average CPU per invocation and peak
    memory.  An edge observed with both kinds is counted as asynchronous
    (the conservative choice for the memory constraint).

    One pass over the window's span columns counts N, numbers the vertices
    in first-seen order (entry first) and counts the edges in a dense
    function × function table; each vertex's resources then come from one
    pass over its own sample columns.  Cost: O(spans + samples in the
    window), plus O(F²) for the table over the F functions the store has
    seen. *)

val build :
  Trace.store ->
  entry:string ->
  ?window_start:float ->
  unit ->
  (Quilt_dag.Callgraph.t, string) result
(** [Error] when the window contains no invocation of [entry] or the
    observed edges do not form a connected rooted DAG (e.g. the window
    mixes workflows). *)

val known_calls :
  code_edges:(string * string * Quilt_dag.Callgraph.call_kind) list ->
  Quilt_dag.Callgraph.t ->
  Quilt_dag.Callgraph.t
(** Adds the statically-known edges missing from the profile (the dashed
    arrows of Figure 3) with weight 0 — profiling is not perfect because
    some code paths are data-dependent. *)
