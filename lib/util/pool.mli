(** Small Domain-based parallel map (OCaml 5 multicore).

    The benchmark harness has several embarrassingly parallel loops (one
    simulator run per offered-load point, one random rDAG per repetition).
    [map] fans such a loop out across domains while keeping the result list
    in input order, so callers that fix per-item RNG seeds get output that is
    bit-identical to a sequential run.

    Everything runs in the calling domain, still in order, when
    [~domains:1] is passed or the input has fewer than two elements.

    Work items must not share mutable state with each other: each item is
    evaluated exactly once, in exactly one domain. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items] is [List.map f items], computed on up to [domains]
    domains (default {!default_domains}).  Results are returned in input
    order.  If any application of [f] raises, the exception of the
    earliest-indexed failing item is re-raised in the caller after all
    domains have been joined. *)

val mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each item's index. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}. *)

val mapi_array : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Array variant of {!mapi}. *)

val map_reduce :
  ?domains:int -> map:('a -> 'b) -> reduce:('acc -> 'b -> 'acc) -> 'acc -> 'a list -> 'acc
(** [map_reduce ~map ~reduce init items] applies [map] to every item (in
    parallel, up to [domains] domains) and then folds the results with
    [reduce] sequentially {e in input order} in the calling domain, starting
    from [init].  Because the fold is an ordered left fold, [reduce] need
    not be commutative or associative: the result is identical to
    [List.fold_left reduce init (List.map map items)].

    Exception safety: if any application of [map] raises, every domain that
    was spawned is still joined (no orphaned domains) and the exception of
    the earliest-indexed failing item is re-raised in the caller; [reduce]
    is not applied in that case. *)
