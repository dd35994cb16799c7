(* optimize-cold: Quilt.optimize (profile -> call graph -> decide -> merge)
   on each of the 19 workflows, merge cache dropped before every call —
   what a provider pays for a new or updated workflow. *)

open Suite
module Engine = Quilt_platform.Engine
module Spans = Perfbench_lib.Spans

let optimize cfg e =
  Pipeline.reset_cache ();
  Quilt.optimize cfg ~workflows:[ e.wf ] e.wf

let traced_optimize sp pass cfg e =
  Pipeline.reset_cache ();
  Spans.with_span sp ~layer:"core" e.label (fun () ->
      match Compose.profile sp pass cfg e.wf with
      | Error msg -> Error msg
      | Ok graph -> Compose.decide_and_merge sp pass cfg e.wf graph)

let same_outcome ~renamed a b =
  match (a, b) with
  | Ok a, Ok b -> compare_plans ~renamed (plan_digest a) (plan_digest b) = None
  | Error a, Error b -> a = b
  | _ -> false

let run ~seed ~seconds ~cap_s ~trace tally =
  let cfg = config ~seed in
  (* Set-up builds the workflows and warms up on each of them, one step
     per workflow. *)
  let suite, _, setup =
    Run.repeat_setup ~summary:ignore (fun { Run.step } ->
        let suite = workflows () in
        List.iter
          (fun e ->
            match step (fun () -> optimize cfg e) with
            | Ok _ -> ()
            | Error msg -> Run.fail tally ("warm-up: " ^ msg))
          suite;
        suite)
  in
  let reference = Hashtbl.create 32 in
  let ops = Run.ops () and passes = ref [] and all_spans = ref [] in
  let first = ref None and first_layers = ref None in
  let pass _ =
    let p = Run.new_pass () and sp = Spans.create () in
    let cost = ref 0 and saved = ref 0 and instrs = ref 0 and rounds = ref 0 and events = ref 0 in
    let plain_s = ref 0.0 and traced_s = ref 0.0 in
    List.iter
      (fun e ->
        let ev0 = fst (Engine.global_stats ()) in
        let r, dt = timed (fun () -> optimize cfg e) in
        events := !events + (fst (Engine.global_stats ()) - ev0);
        Run.record_op ops dt;
        plain_s := !plain_s +. dt;
        let problem =
          match r with
          | Error msg -> Some (e.label ^ ": " ^ msg)
          | Ok plan -> (
              cost := !cost + plan.Quilt.solution.Types.cost;
              saved := !saved + remote_calls_saved plan;
              instrs := !instrs + merged_instrs plan;
              rounds := !rounds + merge_rounds plan;
              let d = plan_digest plan in
              match Hashtbl.find_opt reference e.label with
              | None ->
                  Hashtbl.add reference e.label d;
                  None
              | Some d0 ->
                  Option.map
                    (fun m -> e.label ^ ": " ^ m ^ " from the first pass")
                    (compare_plans ~renamed:tally.Run.renamed d0 d))
        in
        let problem =
          if not trace then problem
          else begin
            let r', dt' = timed (fun () -> traced_optimize sp p cfg e) in
            traced_s := !traced_s +. dt';
            match problem with
            | Some _ -> problem
            | None when same_outcome ~renamed:tally.Run.renamed r r' -> None
            | None -> (
                match r' with
                | Error msg -> Some (e.label ^ ": traced composition: " ^ msg)
                | Ok _ -> Some (e.label ^ ": traced composition differs from Quilt.optimize"))
          end
        in
        Run.record tally problem)
      suite;
    Run.same_as_first tally ~what:"optimize-cold pass" ~first (!cost, !saved, !instrs, !rounds, !events);
    if trace then begin
      let spans = Spans.spans sp in
      Run.add_self_times p spans;
      Run.add p "trace.overhead_ms" ((!traced_s -. !plain_s) *. 1000.0);
      Run.finish_pass p;
      Run.same_as_first tally ~what:"optimize-cold traced pass" ~first:first_layers (Run.pass_counters p);
      passes := p :: !passes;
      all_spans := List.rev_append spans !all_spans
    end
  in
  Run.measure ~seconds ~cap_s
    ~min_ops:(Perfbench_lib.Stats.min_samples ~p:90.0 ~beyond:10)
    ~ops:(fun () -> Run.op_count ops)
    pass;
  let cost, saved, instrs, rounds, events = Option.value ~default:(0, 0, 0, 0, 0) !first in
  let op_ms = Array.of_list ops.Run.raw_ms in
  {
    Run.setup;
    ops;
    plan_cost = cost;
    calls_saved = saved;
    merged_instrs = instrs;
    workload_metrics =
      [
        ("optimize_p50_ms", Perfbench_lib.Stats.percentile op_ms 50.0, "ms");
        ("optimize_p90_ms", Perfbench_lib.Stats.percentile op_ms 90.0, "ms");
        ("plan_cost", float_of_int cost, "count");
      ];
    layers = (if trace then Run.layer_medians !passes else []);
    fingerprint =
      [
        ("plan_cost", string_of_int cost);
        ("ir.instrs", string_of_int instrs);
        ("merge.rounds", string_of_int rounds);
        ("platform.events", string_of_int events);
      ]
      @ List.map (fun (k, v) -> ("traced/" ^ k, v)) (Option.value ~default:[] !first_layers);
    spans = List.rev !all_spans;
  }
