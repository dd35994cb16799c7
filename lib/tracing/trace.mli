(** Distributed tracing and resource monitoring (§3).

    The paper's stack — nginx ingress with OpenTelemetry, an otel-collector,
    Grafana Tempo for traces, cAdvisor + InfluxDB for container resources —
    reduces to two stores:

    - a {b span store} (Tempo): one span per invocation observed at the
      ingress, carrying caller, callee, call kind and timestamp; and
    - a {b resource store} (InfluxDB): per-container samples of cumulative
      CPU time and peak memory, attributed to a function.

    {!Builder} turns a profiling window into the call graph of §4.1:
    vertices labelled with average CPU per invocation and peak memory
    across all containers of a function; edges weighted with observed
    caller→callee counts; α computed against the workflow invocation
    count N.

    {b Layout.}  The store is columnar and append-only.  Function names
    are interned to small ids, in first-recorded order.  Spans live in
    three columns: timestamp (unboxed float), caller id ([-1] for the
    client) and callee id × 2 + an async bit.  Each function's resource
    samples live in five columns of its own: timestamp, container,
    cumulative CPU, memory and cumulative invocations.  A column grows by
    appending fixed-size chunks of {!chunk_size} values, so a recorded
    value is never copied.  A span costs three words and a sample five.

    {b Order.}  Every read returns rows in recording order.  The engine
    and [Profiler.to_trace] record in time order, so for them recording
    order is chronological. *)

type call_kind = Sync | Async

(** {1 Writers}

    The only way to add rows.  They take the fields as arguments and
    allocate nothing per row beyond column growth. *)

type store

val create : unit -> store

val record_root : store -> ts:float -> callee:string -> unit
(** A client → workflow-entry span (a workflow invocation).  [ts] is µs
    since simulation start. *)

val record_call : store -> ts:float -> caller:string -> callee:string -> kind:call_kind -> unit
(** A caller → callee span. *)

val record_sample :
  store ->
  ts:float ->
  fn:string ->
  container:int ->
  cpu_us_cum:float ->
  mem_mb:float ->
  invocations_cum:int ->
  unit
(** One resource sample of [container], attributed to [fn]: the
    container's cumulative CPU time (µs), its instantaneous resident
    memory and the requests it has completed so far. *)

(** {1 Read views} *)

type span = {
  ts : float;
  caller : string option;  (** [None] for client → workflow-entry spans. *)
  callee : string;
  kind : call_kind;  (** Always [Sync] for client spans. *)
}

type resource_sample = {
  rs_ts : float;
  container : int;
  fn : string;
  cpu_us_cum : float;
  mem_mb : float;
  invocations_cum : int;
}

val spans : store -> ?since:float -> unit -> span list
(** The spans with [ts >= since], in recording order. *)

val resource_samples : store -> fn:string -> resource_sample list
(** [fn]'s samples, in recording order. *)

val span_count : store -> int

val count_roots : store -> since:float -> entry:string -> int
(** Client spans into [entry] with [ts >= since]: the workflow's
    invocations in the window, counted on the columns. *)

(** {1 Columnar reads}

    What {!Builder} reads in its one pass. *)

val chunk_size : int
(** Values per column chunk. *)

val fn_count : store -> int
(** Interned functions; ids are [0 .. fn_count - 1]. *)

val fn_name : store -> int -> string
val fn_id : store -> string -> int
(** [-1] for a name never recorded. *)

val iter_spans : store -> since:float -> (int -> int -> unit) -> unit
(** [iter_spans st ~since f] calls [f caller callee_code] for each span
    with [ts >= since], in recording order.  [caller] is [-1] for a client
    span; [callee_code] is the callee id × 2, plus 1 for an asynchronous
    call. *)

val container_maxima : store -> int -> since:float -> (int * float * int * float) list
(** [container_maxima st id ~since] takes function [id]'s samples with
    [ts >= since] and returns, per container in the order of its first
    such sample, [(container, max cpu_us_cum, max invocations_cum,
    max mem_mb)].  Each maximum starts from 0 and folds the samples in
    recording order. *)

(** {1 Eviction} *)

val evict_before : store -> float -> unit
(** [evict_before st t] drops every span and resource sample older than
    [t], compacting the columns in place and releasing the chunks no
    longer used, so long-lived simulations (the online control plane's
    sliding window) keep the store bounded.  Because resource samples
    carry {e cumulative} per-container counters, a call graph built over
    [\[t, now\]] after eviction equals the one built over the same window
    from the full store. *)
