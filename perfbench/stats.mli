(** The benchmark's own arithmetic: percentiles, interval unions for span
    self time, failure ratios and request accounting.  Pure functions, unit-tested in
    [test_perfbench.ml]. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile ([0 < p <= 100])
    of [xs]: the smallest sample such that at least [p]% of the samples are
    at or below it.  [xs] need not be sorted and is not modified.  Raises
    [Invalid_argument] on an empty array or [p] outside (0, 100]. *)

val median : float array -> float
(** [percentile xs 50.0]. *)

val beyond : n:int -> float -> int
(** Samples strictly above the nearest-rank [p]-th percentile's rank among
    [n] distinct samples: [n - ceil (p/100 * n)]. *)

val min_samples : p:float -> beyond:int -> int
(** Smallest sample count that leaves at least [beyond] samples above the
    [p]-th percentile, e.g. 100 for p90 with ten beyond, 1000 for p99. *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, each clipped to [\[lo, hi\]]. *)

val self_time : lo:float -> hi:float -> children:(float * float) list -> float
(** A span's self time: its duration [hi - lo] minus the part of that
    interval its children's intervals cover (overlaps counted once). *)

val failure_ratio : attempted:int -> failed:int -> float
(** [failed / attempted]; raises [Invalid_argument] unless
    [0 <= failed <= attempted] and [attempted >= 1]. *)

val request_failures :
  offered:int -> succeeded:int -> failed:int -> unanswered:int -> duplicates:int -> int * bool
(** Accounting for simulated requests.  [succeeded] and [failed] count
    answers as they arrive, [unanswered] the requests still pending at the
    end and [duplicates] the answers to a request already answered.
    Returns the failed requests, [failed + unanswered + duplicates], and
    whether offered = succeeded + failed + unanswered holds; a second
    answer to one request breaks that balance. *)
