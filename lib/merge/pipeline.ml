open Quilt_ir
module Ast = Quilt_lang.Ast
module Frontend = Quilt_lang.Frontend

type edge_mode = Always_local | Guarded of int

type report = {
  rounds : (string * int) list;
  removed_symbols : int;
  languages : string list;
  merged_module : Ir.modul;
  entry : string;
  verify_checked : int;
  verify_reused : int;
}

let entry_handler root = Ast.handler_symbol root

let all_local ~caller:_ ~callee:_ = Always_local

(* Symbols never renamed on link: natives resolve to the host, the SDK
   runtime deduplicates per language, and service-name globals are shared
   constants. *)
let keep_symbol name =
  Intrinsics.mem name
  || List.exists
       (fun lang ->
         List.exists
           (fun suffix -> name = lang ^ suffix)
           [ "_sync_inv"; "_async_inv"; "_async_wait" ])
       Intrinsics.languages
  || String.length name >= 4 && String.sub name 0 4 = "svc."

let bfs_order ~members ~edges ~root =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let queue = Queue.create () in
  Hashtbl.replace visited root ();
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let svc = Queue.pop queue in
    order := svc :: !order;
    List.iter
      (fun (src, dst) ->
        if src = svc && not (Hashtbl.mem visited dst) then begin
          Hashtbl.replace visited dst ();
          Queue.add dst queue
        end)
      edges
  done;
  List.iter
    (fun m ->
      if not (Hashtbl.mem visited m) then
        failwith (Printf.sprintf "Pipeline.merge_group: member %s unreachable from root %s" m root))
    members;
  List.rev !order

type stage = { name : string; rewrite : Ir.modul -> Ir.modul }

(* Every stage's output is checked under the stage's name: a stage that
   breaks SSA dominance, typing or phi/CFG agreement is reported by name
   instead of surfacing as a miscompiled module three passes later. *)
let run_stages ~check m stages =
  List.fold_left
    (fun m s ->
      let m = s.rewrite m in
      check ~stage:s.name m;
      m)
    m stages

(* What the stages report besides their module, filled in as they run. *)
type tally = { mutable rounds_rev : (string * int) list; mutable removed : int }

let plan ~lookup ~members ~root ~edge_mode ~billing ~optimize =
  if not (List.mem root members) then failwith "Pipeline.merge_group: root must be a member";
  let member_set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) members;
  (* Member-internal edges from the ASTs. *)
  let edges =
    List.concat_map
      (fun svc ->
        let f = lookup svc in
        List.filter_map
          (fun (callee, _kind) -> if Hashtbl.mem member_set callee then Some (svc, callee) else None)
          (Ast.invocations f.Ast.body))
      members
  in
  let order = bfs_order ~members ~edges ~root in
  (* Map handler symbols back to services for per-edge modes. *)
  let service_of_symbol = Hashtbl.create 16 in
  List.iter
    (fun svc ->
      Hashtbl.replace service_of_symbol (Ast.handler_symbol svc) svc;
      Hashtbl.replace service_of_symbol (Ast.local_symbol svc) svc)
    members;
  let root_handler = entry_handler root in
  let tally = { rounds_rev = []; removed = 0 } in
  (* Steps ①–③ for every member in BFS order, then the callee half of
     step ④: compile unless the code is already in the module (§5.4),
     RenameFunc, llvm-link with runtime dedup, and localize the handler. *)
  let link merged svc =
    let handler = Ast.handler_symbol svc and local_name = Ast.local_symbol svc in
    (* func_index both answers the probe and warms the memo the rename
       and merge passes hit on this same module value. *)
    let merged =
      if Ir.func_index merged handler <> None then merged
      else
        Frontend.compile (lookup svc)
        |> Pass_rename.avoid_collisions ~against:merged ~keep:keep_symbol
        |> Linker.link ~dedup_identical:true merged
    in
    if Ir.func_index merged local_name <> None then merged
    else Pass_mergefunc.localize_handler merged ~handler ~local_name
  in
  let callees = List.filter (fun svc -> svc <> root) order in
  (* Step ④'s call-site half, once per callee: every member is already in
     the module, so one rewrite localizes each member-internal site exactly
     once, whichever member calls it. *)
  let mergefunc callee merged =
    let mode ~caller =
      match Hashtbl.find_opt service_of_symbol caller with
      | Some caller_svc -> (
          match edge_mode ~caller:caller_svc ~callee with
          | Always_local -> Pass_mergefunc.Unconditional
          | Guarded alpha -> Pass_mergefunc.Conditional alpha)
      | None -> Pass_mergefunc.Unconditional
    in
    let m, n =
      Pass_mergefunc.rewrite_call_sites merged ~service:callee ~local_name:(Ast.local_symbol callee)
        ~callee_lang:(lookup callee).Ast.fn_lang ~mode ~reset_in:root_handler
    in
    tally.rounds_rev <- (callee, n) :: tally.rounds_rev;
    m
  in
  (* Steps ⑧–⑩ strip everything unreachable from the entry handler. *)
  let dce m =
    let symbols m = List.length m.Ir.funcs + List.length m.Ir.globals in
    let m' = Pass_dce.run ~roots:[ root_handler ] m in
    tally.removed <- symbols m - symbols m';
    m'
  in
  let stage name rewrite = { name; rewrite } in
  let stages =
    [ stage "link" (fun m -> List.fold_left link m callees) ]
    @ List.map (fun callee -> stage ("mergefunc:" ^ callee) (mergefunc callee)) callees
    (* Step ⑦: DelayHTTP. *)
    @ [ stage "delayhttp" Pass_delayhttp.run ]
    (* The analysis-driven optimization passes (SCCP also folds the
       localization aliases). *)
    @ (if optimize then
         [
           stage "shiminline" Pass_shiminline.run;
           stage "sccp" Pass_sccp.run;
           stage "jumpthread" Pass_jumpthread.run;
           stage "livedce" Pass_livedce.run;
         ]
       else [])
    @ [ stage "dce" dce ]
    (* Optional per-function billing instrumentation (§8). *)
    @ (if billing then [ stage "billing" Pass_billing.run ] else [])
    @ [
        stage "final" (fun m ->
            { m with Ir.mname = Printf.sprintf "quilt-merged.%s" (Ast.mangle root) });
      ]
  in
  (Frontend.compile (lookup root), stages, tally)

let stages ~lookup ~members ~root ?(edge_mode = all_local)
    ?(billing = false) ?(optimize = true) () =
  let m0, stages, _ = plan ~lookup ~members ~root ~edge_mode ~billing ~optimize in
  (m0, stages)

let merge_group_uncached ~lookup ~members ~root ~edge_mode ~billing ~optimize () =
  let m0, stages, tally = plan ~lookup ~members ~root ~edge_mode ~billing ~optimize in
  (* One checker for the whole merge: each stage re-checks only the
     functions it changed. *)
  let checker = Verify.checker () in
  let merged = run_stages ~check:(Verify.check checker) m0 stages in
  let verify_checked, verify_reused = Verify.counts checker in
  {
    rounds = List.rev tally.rounds_rev;
    removed_symbols = tally.removed;
    languages = Ir.langs merged;
    merged_module = merged;
    entry = entry_handler root;
    verify_checked;
    verify_reused;
  }

(* --- Content-addressed merge cache ---

   The Controller's drift-triggered re-merges and the bench fan-outs keep
   recompiling the same groups: between two re-merge decisions the member
   sources rarely change, and independent seeds of one scenario share every
   group.  The cache keys a compiled [report] by the {e content} of its
   inputs — the members' AST digests, the root, the edge-mode decisions
   evaluated over every ordered member pair, and the billing flag — so a
   re-merge with unchanged inputs is a table lookup, while any source or
   guard change misses by construction (no explicit invalidation).  Reports
   are immutable (every pass returns a fresh module), so sharing the cached
   value is safe.  A mutex guards the table because bench fan-outs call
   [merge_group] from a Domain pool; computation happens outside the lock
   (two domains may race to compute one key — last insert wins). *)

let cache : (string, report) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()
let cache_enabled = Atomic.make true
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

let set_cache_enabled b = Atomic.set cache_enabled b

let cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let reset_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0

let fn_digest (f : Ast.fn) = Digest.to_hex (Digest.string (Marshal.to_string f []))

let cache_key ~lookup ~members ~root ~edge_mode ~billing ~optimize =
  let sorted = List.sort String.compare members in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "root=";
  Buffer.add_string buf root;
  Buffer.add_string buf ";billing=";
  Buffer.add_string buf (if billing then "1" else "0");
  Buffer.add_string buf ";optimize=";
  Buffer.add_string buf (if optimize then "1" else "0");
  List.iter
    (fun m ->
      Buffer.add_string buf ";fn:";
      Buffer.add_string buf m;
      Buffer.add_char buf '=';
      Buffer.add_string buf (fn_digest (lookup m)))
    sorted;
  (* The edge-mode closure is opaque (it captures profiled α values);
     fingerprint its decisions over every ordered member pair instead. *)
  List.iter
    (fun caller ->
      List.iter
        (fun callee ->
          if caller <> callee then begin
            Buffer.add_string buf ";e:";
            Buffer.add_string buf caller;
            Buffer.add_char buf '>';
            Buffer.add_string buf callee;
            Buffer.add_char buf '=';
            match edge_mode ~caller ~callee with
            | Always_local -> Buffer.add_char buf 'L'
            | Guarded alpha ->
                Buffer.add_char buf 'G';
                Buffer.add_string buf (string_of_int alpha)
          end)
        sorted)
    sorted;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let merge_group ~lookup ~members ~root ?(edge_mode = all_local)
    ?(billing = false) ?(optimize = true) () =
  if not (Atomic.get cache_enabled) then
    merge_group_uncached ~lookup ~members ~root ~edge_mode ~billing ~optimize ()
  else begin
    let key = cache_key ~lookup ~members ~root ~edge_mode ~billing ~optimize in
    Mutex.lock cache_lock;
    let cached = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    match cached with
    | Some report ->
        ignore (Atomic.fetch_and_add cache_hits 1);
        report
    | None ->
        ignore (Atomic.fetch_and_add cache_misses 1);
        let report = merge_group_uncached ~lookup ~members ~root ~edge_mode ~billing ~optimize () in
        Mutex.lock cache_lock;
        Hashtbl.replace cache key report;
        Mutex.unlock cache_lock;
        report
  end

let validate ?fuel ~host report ~req =
  Vm.run_handler ?fuel ~host report.merged_module ~fname:report.entry ~req
