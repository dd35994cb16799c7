(** In-memory span recorder for the traced run.

    Spans are recorded by the benchmark's own code around calls into a
    layer's public functions; nesting follows the dynamic call structure
    (single domain).  Nothing is written while measuring: callers export
    {!spans} once the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  layer : string;  (** A library of the repo: platform, tracing, cluster, ... *)
  name : string;
  t0 : float;  (** Seconds, [Unix.gettimeofday]. *)
  t1 : float;
}

type t

val create : unit -> t

val with_span : t -> layer:string -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span (also when it raises). *)

val spans : t -> span list
(** Every finished span, in order of start. *)

val self_by_layer : span list -> (string * float) list
(** Σ self time (seconds) per layer, sorted by layer name; a span's self
    time is its duration minus what its direct children cover
    ({!Stats.self_time}). *)
