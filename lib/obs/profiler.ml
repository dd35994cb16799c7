module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder

(* Per-(container, function) cumulative cell, mirroring the engine's §8
   monitor cells: Builder aggregates cumulative series by taking per-
   container maxima and summing, so feeding it the running totals here
   reproduces the ground-truth aggregation over the sampled population. *)
type cell = { mutable cum_cpu : float; mutable cum_inv : int; mutable peak : float }

let to_trace ?(since = neg_infinity) r =
  let st = Trace.create () in
  let cells : (int * string, cell) Hashtbl.t = Hashtbl.create 64 in
  (* The ring stores spans in completion order; re-sort by send time so
     the synthesized store lists spans in invocation order, like the
     ground-truth store (Builder's vertex discovery follows span order). *)
  let spans = Recorder.to_list ~since r in
  let by_send =
    List.stable_sort (fun a b -> compare a.Recorder.sp_send b.Recorder.sp_send) spans
  in
  List.iter
    (fun (s : Recorder.span) ->
      let ts = s.Recorder.sp_send and callee = s.Recorder.sp_fn in
      match s.Recorder.sp_caller with
      | None -> Trace.record_root st ~ts ~callee
      | Some caller ->
          Trace.record_call st ~ts ~caller ~callee
            ~kind:(if s.Recorder.sp_async then Trace.Async else Trace.Sync))
    by_send;
  List.iter
    (fun (s : Recorder.span) ->
      let key = (s.Recorder.sp_cid, s.Recorder.sp_fn) in
      let c =
        match Hashtbl.find_opt cells key with
        | Some c -> c
        | None ->
            let c = { cum_cpu = 0.0; cum_inv = 0; peak = 0.0 } in
            Hashtbl.add cells key c;
            c
      in
      c.cum_cpu <- c.cum_cpu +. s.Recorder.sp_cpu_us;
      c.cum_inv <- c.cum_inv + 1;
      c.peak <- Float.max c.peak s.Recorder.sp_mem_mb;
      Trace.record_sample st ~ts:s.Recorder.sp_end ~fn:s.Recorder.sp_fn ~container:s.Recorder.sp_cid
        ~cpu_us_cum:c.cum_cpu ~mem_mb:c.peak ~invocations_cum:c.cum_inv)
    spans;
  st

let callgraph ?since ?(code_edges = []) ~entry r =
  let st = to_trace ?since r in
  match Builder.build st ~entry () with
  | Error _ as e -> e
  | Ok g -> Ok (Builder.known_calls ~code_edges g)

let invocations ?since ~entry r =
  let n = ref 0 in
  Recorder.iter ?since r (fun s ->
      if s.Recorder.sp_caller = None && String.equal s.Recorder.sp_fn entry then incr n);
  !n

type fn_profile = {
  fp_fn : string;
  fp_calls : int;
  fp_cpu_ms : float;
  fp_mem_mb : float;
  fp_queue_ms : float;
  fp_fail : int;
}

type acc = {
  mutable a_calls : int;
  mutable a_cpu : float;
  mutable a_mem : float;
  mutable a_queue : float;
  mutable a_remote : int;
  mutable a_fail : int;
}

let profiles ?since r =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  Recorder.iter ?since r (fun s ->
      let a =
        match Hashtbl.find_opt tbl s.Recorder.sp_fn with
        | Some a -> a
        | None ->
            let a =
              { a_calls = 0; a_cpu = 0.0; a_mem = 0.0; a_queue = 0.0; a_remote = 0; a_fail = 0 }
            in
            Hashtbl.add tbl s.Recorder.sp_fn a;
            a
      in
      a.a_calls <- a.a_calls + 1;
      a.a_cpu <- a.a_cpu +. s.Recorder.sp_cpu_us;
      a.a_mem <- Float.max a.a_mem s.Recorder.sp_mem_mb;
      if not s.Recorder.sp_local then begin
        a.a_remote <- a.a_remote + 1;
        a.a_queue <- a.a_queue +. Recorder.queue_us s
      end;
      if not s.Recorder.sp_ok then a.a_fail <- a.a_fail + 1);
  Hashtbl.fold
    (fun fn a acc ->
      {
        fp_fn = fn;
        fp_calls = a.a_calls;
        fp_cpu_ms = (if a.a_calls = 0 then 0.0 else a.a_cpu /. float_of_int a.a_calls /. 1000.0);
        fp_mem_mb = a.a_mem;
        fp_queue_ms =
          (if a.a_remote = 0 then 0.0 else a.a_queue /. float_of_int a.a_remote /. 1000.0);
        fp_fail = a.a_fail;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.fp_fn b.fp_fn)

let edge_counts ?since r =
  let tbl : (string option * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  Recorder.iter ?since r (fun s ->
      let key = (s.Recorder.sp_caller, s.Recorder.sp_fn) in
      match Hashtbl.find_opt tbl key with
      | Some n -> incr n
      | None -> Hashtbl.add tbl key (ref 1));
  Hashtbl.fold (fun k n acc -> (k, !n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
