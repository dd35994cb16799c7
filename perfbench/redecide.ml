(* redecide-validate: the controller's re-decision on a drift tick.  Each
   operation re-decides one of the 19 profiled call graphs with a cold
   merge (Quilt.optimize ~graph), then deploy-checks the plan: every merged
   module is compiled once and runs sampled requests on the QVM, each
   response compared with Eval of the distributed workflow.  The operation
   is the re-decision plus compile and the QVM runs; the reference is
   evaluated just before it, outside its timing. *)

open Suite
module Rng = Quilt_util.Rng
module Eval = Quilt_lang.Eval
module Interp = Quilt_ir.Interp
module Compile = Quilt_ir.Compile
module Vm = Quilt_ir.Vm
module Spans = Perfbench_lib.Spans

(* Workflow requests sampled per workflow; a merged group rooted below the
   entry runs the first this-many requests its root receives. *)
let requests_per_workflow = 16

type item = { e : entry; graph : Quilt_dag.Callgraph.t; reqs : string list }

let redecide cfg it =
  Pipeline.reset_cache ();
  Quilt.optimize ~graph:it.graph cfg ~workflows:[ it.e.wf ] it.e.wf

(* Eval of the distributed workflow, memoised per (service, request);
   [received] lists, per service, the distinct requests it was sent. *)
type reference = {
  eval : string -> string -> string;
  memo : (string * string, string) Hashtbl.t;
  received : (string, string list) Hashtbl.t;
}

(* The item's reference: its sampled requests evaluated on the distributed
   workflow.  Timed into the pass as the lang layer. *)
let reference ?sp pass it =
  let wf = it.e.wf in
  let memo = Hashtbl.create 64 and received = Hashtbl.create 16 in
  let rec eval name req =
    match Hashtbl.find_opt memo (name, req) with
    | Some res -> res
    | None ->
        let invoke ~kind:_ ~name ~req = eval name req in
        let res, _ = Eval.run ~invoke (Workflow.lookup wf name) ~req in
        Hashtbl.replace memo (name, req) res;
        Hashtbl.replace received name (req :: Option.value ~default:[] (Hashtbl.find_opt received name));
        res
  in
  match
    timed (fun () ->
        Compose.in_span sp "lang" "reference" (fun () ->
            List.iter (fun req -> ignore (eval wf.Workflow.entry req)) it.reqs))
  with
  | exception Eval.Eval_error msg -> Error (it.e.label ^ ": reference evaluation failed: " ^ msg)
  | (), dt ->
      Run.add pass "_eval_us" (dt *. 1e6);
      Run.add pass "_eval_reqs" (float_of_int (List.length it.reqs));
      Ok { eval; memo; received }

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* The deploy check.  Handler time covers Vm.run_handler_prog alone;
   compile is timed separately. *)
let check ?sp pass tally ~handler_us it rf (plan : Quilt.t) =
  let wf = it.e.wf in
  let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> rf.eval name req) } in
  List.iter
    (fun (d : Deploy.merged_deployment) ->
      let m = d.Deploy.report.Pipeline.merged_module in
      let prog, dt = timed (fun () -> Compose.in_span sp "ir" "compile" (fun () -> Compile.compile m)) in
      Run.add pass "ir.compile_us" (dt *. 1e6);
      let inputs =
        if d.Deploy.root = wf.Workflow.entry then it.reqs
        else
          Option.value ~default:[] (Hashtbl.find_opt rf.received d.Deploy.root)
          |> List.rev |> take requests_per_workflow
      in
      List.iter
        (fun req ->
          let expected = Hashtbl.find rf.memo (d.Deploy.root, req) in
          let r, dt =
            timed (fun () ->
                Compose.in_span sp "ir" "vm" (fun () ->
                    Vm.run_handler_prog ~host prog ~fname:d.Deploy.report.Pipeline.entry ~req))
          in
          handler_us := (dt *. 1e6) :: !handler_us;
          Run.add pass "_vm_us" (dt *. 1e6);
          Run.add pass "_vm_reqs" 1.0;
          Run.record tally
            (match r with
            | Ok (res, stats) ->
                Run.add pass "_vm_steps" (float_of_int stats.Interp.steps);
                if res = expected then None
                else
                  Some
                    (Printf.sprintf "%s: merged %s answers %S, reference %S" it.e.label d.Deploy.root res
                       expected)
            | Error trap -> Some (Printf.sprintf "%s: merged %s traps: %s" it.e.label d.Deploy.root trap)))
        inputs)
    plan.Quilt.deployments

let run ~seed ~seconds ~cap_s ~trace tally =
  let cfg = config ~seed in
  let setup { Run.step } =
    let suite = workflows () in
    let items =
      List.filter_map
        (fun e ->
          match step (fun () -> Quilt.profile cfg ~workflows:[ e.wf ] e.wf) with
          | Error msg ->
              Run.fail tally (e.label ^ ": profiling failed: " ^ msg);
              None
          | Ok graph ->
              let rng = Rng.create (Hashtbl.hash (seed, e.label)) in
              Some { e; graph; reqs = List.init requests_per_workflow (fun _ -> e.wf.Workflow.gen_req rng) })
        suite
    in
    (* Warm-up: one unmeasured operation. *)
    (match List.find_opt (fun it -> it.e.label = "compose-post") items with
    | Some it -> (
        let scratch = Run.new_pass () in
        match step (fun () -> (reference scratch it, redecide cfg it)) with
        | Ok rf, Ok plan -> step (fun () -> check scratch (Run.tally ()) ~handler_us:(ref []) it rf plan)
        | Error msg, _ | _, Error msg -> Run.fail tally ("warm-up: " ^ msg))
    | None -> ());
    items
  in
  let graphs items = List.map (fun it -> Marshal.to_string it.graph [ Marshal.No_sharing ]) items in
  let items, agree, setup = Run.repeat_setup ~summary:graphs setup in
  if not agree then
    Run.fail tally "redecide-validate: repeated set-up profiled different call graphs";
  let reference_plans = Hashtbl.create 32 in
  let ops = Run.ops () and redecide_ms = ref [] and handler_us = ref [] and passes = ref [] in
  let all_spans = ref [] and first = ref None and first_layers = ref None in
  let pass _ =
    let p = Run.new_pass () and sp = Spans.create () in
    let cost = ref 0 and saved = ref 0 and instrs = ref 0 and rounds = ref 0 in
    let plain_s = ref 0.0 and traced_s = ref 0.0 in
    List.iter
      (fun it ->
        match reference ?sp:(if trace then Some sp else None) p it with
        | Error msg -> Run.fail tally msg
        | Ok rf -> (
            (* The timed operation: re-decision, then the deploy check.  In a
               traced run the pass's layer figures come from the traced
               composition's check, so this one goes to a pass of its own. *)
            let plain_pass = if trace then Run.new_pass () else p in
            let r, dt_redecide = timed (fun () -> redecide cfg it) in
            let (), dt_check =
              timed (fun () ->
                  match r with Ok plan -> check plain_pass tally ~handler_us it rf plan | Error _ -> ())
            in
            let dt = dt_redecide +. dt_check in
            Run.record_op ops dt;
            redecide_ms := (dt_redecide *. 1000.0) :: !redecide_ms;
            plain_s := !plain_s +. dt;
            match r with
            | Error msg -> Run.fail tally (it.e.label ^ ": " ^ msg)
            | Ok plan ->
                cost := !cost + plan.Quilt.solution.Types.cost;
                saved := !saved + remote_calls_saved plan;
                instrs := !instrs + merged_instrs plan;
                rounds := !rounds + merge_rounds plan;
                let d = plan_digest plan in
                let problem =
                  match Hashtbl.find_opt reference_plans it.e.label with
                  | None ->
                      Hashtbl.add reference_plans it.e.label d;
                      None
                  | Some d0 ->
                      Option.map
                        (fun m -> it.e.label ^ ": " ^ m ^ " from the first pass")
                        (compare_plans ~renamed:tally.Run.renamed d0 d)
                in
                Run.record tally problem;
                if trace then begin
                  let (), dt' =
                    timed (fun () ->
                        Pipeline.reset_cache ();
                        match
                          Spans.with_span sp ~layer:"core" it.e.label (fun () ->
                              Compose.decide_and_merge sp p cfg it.e.wf it.graph)
                        with
                        | Ok plan' when compare_plans ~renamed:tally.Run.renamed d (plan_digest plan') = None ->
                            Run.record tally None;
                            check ~sp p tally ~handler_us:(ref []) it rf plan'
                        | Ok _ ->
                            Run.record tally
                              (Some (it.e.label ^ ": traced composition differs from Quilt.optimize ~graph"))
                        | Error msg -> Run.record tally (Some (it.e.label ^ ": traced composition: " ^ msg)))
                  in
                  traced_s := !traced_s +. dt'
                end))
      items;
    Run.finish_pass p;
    let steps = Option.value ~default:0.0 (Hashtbl.find_opt p "_vm_steps") in
    let reqs = Option.value ~default:0.0 (Hashtbl.find_opt p "_vm_reqs") in
    Run.same_as_first tally ~what:"redecide-validate pass" ~first
      (!cost, !saved, !instrs, !rounds, steps, reqs);
    if trace then begin
      let spans = Spans.spans sp in
      Run.add_self_times p spans;
      Run.add p "trace.overhead_ms" ((!traced_s -. !plain_s) *. 1000.0);
      Run.same_as_first tally ~what:"redecide-validate traced pass" ~first:first_layers (Run.pass_counters p);
      passes := p :: !passes;
      all_spans := List.rev_append spans !all_spans
    end
  in
  (* p90 of the re-decisions and p99 of the handler requests each need ten
     samples beyond them: 100 operations and 1000 requests. *)
  Run.measure ~seconds ~cap_s
    ~min_ops:(Perfbench_lib.Stats.min_samples ~p:90.0 ~beyond:10)
    ~ops:(fun () ->
      min (Run.op_count ops)
        (List.length !handler_us * 100 / Perfbench_lib.Stats.min_samples ~p:99.0 ~beyond:10))
    pass;
  let cost, saved, instrs, rounds, steps, reqs = Option.value ~default:(0, 0, 0, 0, 0.0, 0.0) !first in
  let redecide_ms = Array.of_list !redecide_ms and handler_us = Array.of_list !handler_us in
  let pct xs p = if Array.length xs = 0 then 0.0 else Perfbench_lib.Stats.percentile xs p in
  {
    Run.setup;
    ops;
    plan_cost = cost;
    calls_saved = saved;
    merged_instrs = instrs;
    workload_metrics =
      [
        ("redecide_p50_ms", pct redecide_ms 50.0, "ms");
        ("redecide_p90_ms", pct redecide_ms 90.0, "ms");
        ("handler_p50_us", pct handler_us 50.0, "us");
        ("handler_p99_us", pct handler_us 99.0, "us");
        ("merged_instrs", float_of_int instrs, "count");
        ("plan_cost", float_of_int cost, "count");
      ];
    layers = (if trace then Run.layer_medians !passes else []);
    fingerprint =
      [
        ("plan_cost", string_of_int cost);
        ("ir.instrs", string_of_int instrs);
        ("merge.rounds", string_of_int rounds);
        ("ir.vm_steps", Printf.sprintf "%.0f" steps);
        ("validated_requests", Printf.sprintf "%.0f" reqs);
      ]
      @ List.map (fun (k, v) -> ("traced/" ^ k, v)) (Option.value ~default:[] !first_layers);
    spans = List.rev !all_spans;
  }
