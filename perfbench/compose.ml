(* Quilt.optimize recomposed from its public parts, with one span around
   each call into a layer and that layer's counters added to the pass.
   The traced runs check that the recomposed plan equals Quilt.optimize's. *)

open Suite
module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Decision = Quilt_cluster.Decision
module Verify = Quilt_ir.Verify
module Spans = Perfbench_lib.Spans

let ms s = s *. 1000.0

let span sp layer name f = timed (fun () -> Spans.with_span sp ~layer name f)

(* A span when the run is traced, a plain call otherwise. *)
let in_span sp layer name f = match sp with Some sp -> Spans.with_span sp ~layer name f | None -> f ()

(* The profiling pass of Quilt.profile: baseline platform, profiler token
   on, closed-loop load over the configured window, call-graph build. *)
let profile sp pass (cfg : Config.t) (wf : Workflow.t) =
  let engine, _ =
    span sp "core" "fresh_platform" (fun () ->
        Quilt.fresh_platform ~seed:cfg.Config.seed ~config:cfg ~workflows:[ wf ] ())
  in
  let (), _ = span sp "platform" "set_profiling" (fun () -> Engine.set_profiling engine true) in
  let words0 = Gc.minor_words () in
  let r, dt =
    span sp "platform" "run_closed_loop" (fun () ->
        Loadgen.run_closed_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
          ~connections:cfg.Config.profile_connections ~duration_us:cfg.Config.profile_duration_us
          ~warmup_us:(cfg.Config.profile_duration_us *. 0.15)
          ())
  in
  let words = Gc.minor_words () -. words0 in
  let c = r.Loadgen.counters in
  Run.add pass "platform.run_ms" (ms dt);
  Run.add pass "platform.events" (float_of_int (Engine.events_processed engine));
  Run.peak pass "platform.peak_queue_depth" (float_of_int (Engine.peak_queue_depth engine));
  Run.add pass "platform.remote_invocations" (float_of_int c.Engine.remote_invocations);
  Run.add pass "platform.local_invocations" (float_of_int c.Engine.local_invocations);
  Run.add pass "platform.cold_starts" (float_of_int c.Engine.cold_starts);
  Run.add pass "_minor_words" words;
  Run.add pass "_requests" (float_of_int (c.Engine.completed + c.Engine.failed));
  Run.add pass "tracing.spans" (float_of_int (Trace.span_count (Engine.tracing engine)));
  let built, dt_build =
    span sp "tracing" "build" (fun () -> Builder.build (Engine.tracing engine) ~entry:wf.Workflow.entry ())
  in
  match built with
  | Error e -> Error (Printf.sprintf "profiling failed: %s" e)
  | Ok g ->
      let g, dt_known =
        span sp "tracing" "known_calls" (fun () -> Builder.known_calls ~code_edges:wf.Workflow.code_edges g)
      in
      Run.add pass "tracing.build_ms" (ms (dt_build +. dt_known));
      let g, _ = span sp "core" "with_optin" (fun () -> Quilt.with_optin wf g) in
      Ok g

(* Deploy.merged_spec's members, root and per-edge modes, restated so the
   cold merge runs as its own span: merged_spec's own merge call then hits
   the content-addressed merge cache under the same key.  Should the two
   ever disagree, merged_spec merges a second time; decide_and_merge
   counts the cache misses and fails the composition then. *)
let group (cfg : Config.t) (graph : Callgraph.t) (sg : Types.subgraph) =
  let name i = (Callgraph.node graph i).Callgraph.name in
  let members = ref [] in
  Array.iteri (fun i b -> if b then members := name i :: !members) sg.Types.members;
  let alpha_of caller callee =
    match (Callgraph.find_node graph caller, Callgraph.find_node graph callee) with
    | Some a, Some b ->
        List.find_map
          (fun (e : Callgraph.edge) ->
            if e.Callgraph.src = a.Callgraph.id && e.Callgraph.dst = b.Callgraph.id then
              Some (Callgraph.alpha graph e)
            else None)
          graph.Callgraph.edges
    | _ -> None
  in
  let edge_mode ~caller ~callee =
    match (cfg.Config.guard_policy, alpha_of caller callee) with
    | Config.Never, _ -> Pipeline.Always_local
    | Config.Always, Some a -> Pipeline.Guarded a
    | Config.Always, None -> Pipeline.Guarded 1
    | Config.Data_dependent, Some a when a > 1 -> Pipeline.Guarded a
    | Config.Data_dependent, (Some _ | None) -> Pipeline.Always_local
  in
  (name sg.Types.root, List.rev !members, edge_mode)

(* Quilt.optimize ~graph: decide, then one merged deployment per
   multi-member group, each final module re-checked by the strict
   verifier. *)
let decide_and_merge sp pass (cfg : Config.t) (wf : Workflow.t) (graph : Callgraph.t) =
  let _, misses0 = Pipeline.cache_stats () in
  let solution, dt =
    span sp "cluster" "auto" (fun () ->
        Decision.auto ~seed:cfg.Config.seed ~domains:cfg.Config.domains graph (Config.limits cfg))
  in
  Run.add pass "cluster.decide_ms" (ms dt);
  Run.add pass "cluster.vertices" (float_of_int (Callgraph.n_nodes graph));
  match solution with
  | None -> Error "no feasible grouping under the resource constraints"
  | Some solution ->
      Run.add pass "cluster.groups" (float_of_int (List.length solution.Types.subgraphs));
      let problems = ref [] in
      let deployments =
        List.filter_map
          (fun (sg : Types.subgraph) ->
            if Array.fold_left (fun n b -> if b then n + 1 else n) 0 sg.Types.members < 2 then None
            else begin
              let root, members, edge_mode = group cfg graph sg in
              let report, dt =
                span sp "merge" "merge_group" (fun () ->
                    Pipeline.merge_group ~lookup:(Workflow.lookup wf) ~members ~root ~edge_mode ())
              in
              Run.add pass "merge.merge_ms" (ms dt);
              Run.add pass "merge.rounds" (float_of_int (List.length report.Pipeline.rounds));
              Run.add pass "merge.removed_symbols" (float_of_int report.Pipeline.removed_symbols);
              let d, _ =
                span sp "core" "merged_spec" (fun () -> Deploy.merged_spec cfg wf ~graph ~subgraph:sg)
              in
              let m = d.Deploy.report.Pipeline.merged_module in
              let diags, dt = span sp "ir" "verify_strict" (fun () -> Verify.run ~strict:true m) in
              Run.add pass "ir.verify_strict_ms" (ms dt);
              Run.add pass "ir.instrs" (float_of_int (Ir.instr_count m));
              List.iter
                (fun (dg : Verify.diagnostic) ->
                  if dg.Verify.severity = Verify.Error then
                    problems := ("strict verifier rejects a merged module: " ^ Verify.to_string dg) :: !problems)
                diags;
              Some d
            end)
          solution.Types.subgraphs
      in
      let _, misses1 = Pipeline.cache_stats () in
      let misses = misses1 - misses0 and groups = List.length deployments in
      Run.add pass "merge.cache_misses" (float_of_int misses);
      if misses <> groups then
        problems :=
          Printf.sprintf "%d merge cache misses for %d merged groups: the merge span timed another key" misses
            groups
          :: !problems;
      match !problems with
      | [] -> Ok { Quilt.workflow = wf; callgraph = graph; solution; deployments }
      | p :: _ -> Error p
