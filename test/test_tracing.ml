(* The columnar trace store and the one-pass builder against the list
   store and list builder they replaced, kept here verbatim as the oracle:
   same read views, same invocation counts, and call graphs equal to the
   byte under Marshal (so every float matches bit for bit) or the same
   [Error] text. *)

module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Rng = Quilt_util.Rng

(* The list store and list builder, as they were before the columnar
   store.  Spans and samples are boxed records on growing lists. *)
module Ref = struct
  type store = {
    mutable spans_rev : Trace.span list;
    mutable n_spans : int;
    resources : (string, Trace.resource_sample list ref) Hashtbl.t;
  }

  let create () = { spans_rev = []; n_spans = 0; resources = Hashtbl.create 32 }

  let record_span st s =
    st.spans_rev <- s :: st.spans_rev;
    st.n_spans <- st.n_spans + 1

  let record_resource st (r : Trace.resource_sample) =
    match Hashtbl.find_opt st.resources r.Trace.fn with
    | Some l -> l := r :: !l
    | None -> Hashtbl.replace st.resources r.Trace.fn (ref [ r ])

  let spans st ?(since = neg_infinity) () =
    List.rev (List.filter (fun (s : Trace.span) -> s.Trace.ts >= since) st.spans_rev)

  let resource_samples st ~fn =
    match Hashtbl.find_opt st.resources fn with
    | Some l -> List.rev !l
    | None -> []

  let span_count st = st.n_spans

  let evict_before st t =
    st.spans_rev <- List.filter (fun (s : Trace.span) -> s.Trace.ts >= t) st.spans_rev;
    st.n_spans <- List.length st.spans_rev;
    let empty = ref [] in
    Hashtbl.iter
      (fun fn l ->
        l := List.filter (fun (r : Trace.resource_sample) -> r.Trace.rs_ts >= t) !l;
        if !l = [] then empty := fn :: !empty)
      st.resources;
    List.iter (fun fn -> Hashtbl.remove st.resources fn) !empty

  let build st ~entry ?(window_start = neg_infinity) () =
    let spans = spans st ~since:window_start () in
    let n_invocations =
      List.length (List.filter (fun (s : Trace.span) -> s.Trace.caller = None && s.Trace.callee = entry) spans)
    in
    if n_invocations = 0 then Error (Printf.sprintf "no invocations of %s in the window" entry)
    else begin
      (* Vertex discovery: entry first, then every function seen. *)
      let names = ref [ entry ] in
      let note n = if not (List.mem n !names) then names := !names @ [ n ] in
      List.iter
        (fun (s : Trace.span) ->
          (match s.Trace.caller with Some c -> note c | None -> ());
          note s.Trace.callee)
        spans;
      let names = !names in
      let index = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace index n i) names;
      (* Edge counting. *)
      let edges = Hashtbl.create 16 in
      List.iter
        (fun (s : Trace.span) ->
          match s.Trace.caller with
          | None -> ()
          | Some c ->
              let key = (c, s.Trace.callee) in
              let count, asyncs =
                match Hashtbl.find_opt edges key with Some (n, a) -> (n, a) | None -> (0, false)
              in
              Hashtbl.replace edges key (count + 1, asyncs || s.Trace.kind = Trace.Async))
        spans;
      (* Resources per function: average CPU per invocation, peak memory,
         aggregated across that function's containers (§3). *)
      let resources fn =
        let samples = resource_samples st ~fn in
        let samples = List.filter (fun (r : Trace.resource_sample) -> r.Trace.rs_ts >= window_start) samples in
        match samples with
        | [] -> (1.0, 1.0)
        | _ ->
            (* Cumulative counters: take per-container maxima and sum. *)
            let by_container = Hashtbl.create 8 in
            List.iter
              (fun (r : Trace.resource_sample) ->
                let cpu, inv, mem =
                  match Hashtbl.find_opt by_container r.Trace.container with
                  | Some (c, i, m) -> (c, i, m)
                  | None -> (0.0, 0, 0.0)
                in
                Hashtbl.replace by_container r.Trace.container
                  (Float.max cpu r.Trace.cpu_us_cum, max inv r.Trace.invocations_cum, Float.max mem r.Trace.mem_mb))
              samples;
            let total_cpu = ref 0.0 and total_inv = ref 0 and peak_mem = ref 0.0 in
            Hashtbl.iter
              (fun _ (cpu, inv, mem) ->
                total_cpu := !total_cpu +. cpu;
                total_inv := !total_inv + inv;
                peak_mem := Float.max !peak_mem mem)
              by_container;
            let avg_cpu_ms = if !total_inv = 0 then 0.0 else !total_cpu /. float_of_int !total_inv /. 1000.0 in
            (Float.max 0.01 avg_cpu_ms, Float.max 0.5 !peak_mem)
      in
      let nodes =
        Array.of_list
          (List.mapi
             (fun i name ->
               let cpu, mem = resources name in
               { Callgraph.id = i; name; mem_mb = mem; cpu; mergeable = true })
             names)
      in
      let edge_list =
        Hashtbl.fold
          (fun (c, d) (count, asyncs) acc ->
            {
              Callgraph.src = Hashtbl.find index c;
              dst = Hashtbl.find index d;
              weight = count;
              kind = (if asyncs then Callgraph.Async else Callgraph.Sync);
            }
            :: acc)
          edges []
      in
      (* Deterministic order for reproducibility. *)
      let edge_list =
        List.sort (fun a b -> compare (a.Callgraph.src, a.Callgraph.dst) (b.Callgraph.src, b.Callgraph.dst)) edge_list
      in
      match
        Callgraph.make ~nodes ~edges:edge_list ~root:(Hashtbl.find index entry)
          ~invocations:n_invocations
      with
      | g -> Ok g
      | exception Invalid_argument msg -> Error msg
    end
end

(* ---- writing one stream into both stores ---- *)

type event =
  | Root of float * string
  | Call of float * string * string * Trace.call_kind
  | Sample of Trace.resource_sample

let write st rf = function
  | Root (ts, callee) ->
      Trace.record_root st ~ts ~callee;
      Ref.record_span rf { Trace.ts; caller = None; callee; kind = Trace.Sync }
  | Call (ts, caller, callee, kind) ->
      Trace.record_call st ~ts ~caller ~callee ~kind;
      Ref.record_span rf { Trace.ts; caller = Some caller; callee; kind }
  | Sample r ->
      Trace.record_sample st ~ts:r.Trace.rs_ts ~fn:r.Trace.fn ~container:r.Trace.container
        ~cpu_us_cum:r.Trace.cpu_us_cum ~mem_mb:r.Trace.mem_mb ~invocations_cum:r.Trace.invocations_cum;
      Ref.record_resource rf r

let stores events =
  let st = Trace.create () and rf = Ref.create () in
  List.iter (write st rf) events;
  (st, rf)

(* Marshal without sharing compares values, floats bit for bit, whatever
   strings the two stores happen to share. *)
let bits x = Marshal.to_string x [ Marshal.No_sharing ]

let same_graph a b =
  match (a, b) with
  | Ok g1, Ok g2 -> bits (g1 : Callgraph.t) = bits g2
  | Error e1, Error e2 -> String.equal e1 e2
  | _ -> false

let describe = function Ok g -> Printf.sprintf "Ok (%d vertices)" (Callgraph.n_nodes g) | Error e -> "Error " ^ e

(* Every view and derived figure of the columnar store equals the list
   store's; [None] when they agree, else what differs. *)
let difference st rf ~names ~entry ~window_start =
  let roots since =
    List.length (List.filter (fun (s : Trace.span) -> s.Trace.caller = None && s.Trace.callee = entry) (Ref.spans rf ~since ()))
  in
  if Trace.span_count st <> Ref.span_count rf then
    Some (Printf.sprintf "span_count %d, list store %d" (Trace.span_count st) (Ref.span_count rf))
  else if bits (Trace.spans st ()) <> bits (Ref.spans rf ()) then Some "spans view"
  else if bits (Trace.spans st ~since:window_start ()) <> bits (Ref.spans rf ~since:window_start ()) then
    Some "windowed spans view"
  else if
    List.exists (fun fn -> bits (Trace.resource_samples st ~fn) <> bits (Ref.resource_samples rf ~fn)) names
  then Some "resource_samples view"
  else if Trace.count_roots st ~since:window_start ~entry <> roots window_start then
    Some (Printf.sprintf "count_roots %d, list count %d" (Trace.count_roots st ~since:window_start ~entry) (roots window_start))
  else
    let got = Builder.build st ~entry ~window_start () and want = Ref.build rf ~entry ~window_start () in
    if same_graph got want then None
    else Some (Printf.sprintf "build: %s, list builder: %s" (describe got) (describe want))

(* ---- random streams ---- *)

(* 1–12 names with the entry first; sync, async and mixed edges (acyclic
   in most streams, arbitrary in the rest, so cycles and unreachable
   vertices reach the builder's error path); root spans mostly into the
   entry; up to 40 containers per function with cumulative counters;
   timestamps in recording order in most streams, shuffled in the rest. *)
let random_stream rng =
  let n = Rng.int_in rng 1 12 in
  let names = Array.init n (fun i -> if i = 0 then "entry" else Printf.sprintf "f%d" i) in
  let acyclic = Rng.chance rng 0.7 and ordered = Rng.chance rng 0.8 in
  (* Up to 40 container ids from a wide range, so the per-container table
     sees bucket collisions and resizes. *)
  let containers = Array.init (Rng.int_in rng 1 40) (fun _ -> Rng.int rng 100_000) in
  let cells = Hashtbl.create 16 in
  let ts = ref 0.0 and events = ref [] in
  for _ = 1 to Rng.int_in rng 0 600 do
    ts := if ordered then !ts +. Rng.float rng 10.0 else Rng.float rng 1500.0;
    let ev =
      match Rng.int rng 10 with
      | 0 | 1 -> Root (!ts, if Rng.chance rng 0.9 then names.(0) else names.(Rng.int rng n))
      | 2 | 3 | 4 | 5 ->
          let caller, callee =
            if acyclic && n > 1 then
              let callee = Rng.int_in rng 1 (n - 1) in
              (Rng.int rng callee, callee)
            else (Rng.int rng n, Rng.int rng n)
          in
          Call (!ts, names.(caller), names.(callee), if Rng.chance rng 0.3 then Trace.Async else Trace.Sync)
      | _ ->
          let fn = names.(Rng.int rng n) and container = containers.(Rng.int rng (Array.length containers)) in
          let cpu, inv = try Hashtbl.find cells (fn, container) with Not_found -> (0.0, 0) in
          let cpu = cpu +. Rng.float rng 700.0 and inv = inv + Rng.int rng 3 in
          Hashtbl.replace cells (fn, container) (cpu, inv);
          Sample
            { Trace.rs_ts = !ts; container; fn; cpu_us_cum = cpu; mem_mb = Rng.float rng 64.0; invocations_cum = inv }
    in
    events := ev :: !events
  done;
  (Array.to_list names, List.rev !events, !ts)

let prop_columnar_matches_list_store =
  QCheck.Test.make ~name:"columnar store + one-pass build = list store + list build" ~count:400
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let names, events, last_ts = random_stream rng in
      let st, rf = stores events in
      let entry = if Rng.chance rng 0.05 then "ghost" else "entry" in
      let window_start = if Rng.chance rng 0.3 then neg_infinity else Rng.float rng (last_ts +. 1.0) in
      if Rng.chance rng 0.5 then begin
        let cut = Rng.float rng (last_ts +. 1.0) in
        Trace.evict_before st cut;
        Ref.evict_before rf cut
      end;
      match difference st rf ~names:("ghost" :: names) ~entry ~window_start with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "seed %d: %s" seed d)

(* ---- chunk boundaries ---- *)

(* [n] spans and [n] samples in recording order, timestamps 0 .. n-1: the
   spans call down a three-function chain from a root span, and every
   sample is the entry's, so both the span columns and the entry's sample
   columns hold exactly [n] rows. *)
let chain_stream n =
  let fns = [| "entry"; "mid"; "leaf" |] in
  List.init n (fun i ->
      let ts = float_of_int i and k = i mod 3 in
      let span =
        if k = 0 then Root (ts, "entry")
        else Call (ts, fns.(k - 1), fns.(k), if i mod 2 = 0 then Trace.Async else Trace.Sync)
      in
      let sample =
        {
          Trace.rs_ts = ts;
          container = i mod 3;
          fn = "entry";
          cpu_us_cum = 0.1 *. float_of_int i;
          mem_mb = float_of_int (i mod 7);
          invocations_cum = i;
        }
      in
      [ span; Sample sample ])
  |> List.concat

let retime f = function
  | Root (ts, callee) -> Root (f ts, callee)
  | Call (ts, caller, callee, kind) -> Call (f ts, caller, callee, kind)
  | Sample r -> Sample { r with Trace.rs_ts = f r.Trace.rs_ts }

let check_same ?(window_start = neg_infinity) st rf =
  match difference st rf ~names:[ "entry"; "mid"; "leaf" ] ~entry:"entry" ~window_start with
  | None -> ()
  | Some d -> Alcotest.fail d

let test_chunk_records delta () =
  let n = Trace.chunk_size + delta in
  let st, rf = stores (chain_stream n) in
  Alcotest.(check int) "span count" n (Trace.span_count st);
  Alcotest.(check int) "entry samples" n (List.length (Trace.resource_samples st ~fn:"entry"));
  check_same st rf;
  check_same ~window_start:(float_of_int (n / 2)) st rf

let test_evict_across_chunk () =
  let c = Trace.chunk_size in
  let st, rf = stores (chain_stream ((2 * c) + 5)) in
  (* The first cut falls inside the first chunk, so kept rows move down
     across chunk boundaries; the next leaves exactly one chunk, the last
     nothing.  Each is followed by more rows. *)
  List.iteri
    (fun k cut ->
      Trace.evict_before st cut;
      Ref.evict_before rf cut;
      check_same st rf;
      check_same ~window_start:(cut +. 10.0) st rf;
      let later = 10_000.0 *. float_of_int (k + 1) in
      List.iter (write st rf) (List.map (retime (fun ts -> ts +. later)) (chain_stream (c + 1)));
      check_same st rf)
    [ float_of_int (c / 2); float_of_int (c + 5); 1e9 ];
  (* Unordered timestamps: eviction keeps every other row of each column. *)
  let alternate = List.mapi (fun i ev -> retime (fun _ -> if i mod 4 < 2 then 100.0 else 0.0) ev) in
  let st, rf = stores (alternate (chain_stream ((2 * c) + 1))) in
  Trace.evict_before st 50.0;
  Ref.evict_before rf 50.0;
  Alcotest.(check int) "every other span kept" (c + 1) (Trace.span_count st);
  check_same st rf

let suite =
  [
    ( "tracing.store",
      [
        Alcotest.test_case "chunk size - 1 records" `Quick (test_chunk_records (-1));
        Alcotest.test_case "chunk size records" `Quick (test_chunk_records 0);
        Alcotest.test_case "chunk size + 1 records" `Quick (test_chunk_records 1);
        Alcotest.test_case "eviction across a chunk" `Quick test_evict_across_chunk;
        QCheck_alcotest.to_alcotest prop_columnar_matches_list_store;
      ] );
  ]
