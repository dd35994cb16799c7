(* The online control plane (§1.1's reconsideration loop, run live): each
   adaptive scenario is driven twice through the phased workload — once
   with the controller in the loop and once with the initial plan frozen —
   and the post-shift phase compares the two arms.  Writes every outcome
   to BENCH_adaptive.json.  QUILT_BENCH_FAST=1 switches to the smoke-sized
   phases. *)

open Common
module Scenario = Quilt_control.Scenario
module Controller = Quilt_control.Controller
module Loadgen = Quilt_platform.Loadgen

let json_file = "BENCH_adaptive.json"

(* `bench/main.exe adaptive --smoke` — seconds, not minutes — without
   having to set QUILT_BENCH_FAST for the whole harness. *)
let smoke_flag = ref false

let post_shift_p99 (o : Scenario.outcome) =
  match List.assoc_opt (Scenario.post_shift_phase o.Scenario.o_scenario)
          o.Scenario.o_phased.Loadgen.per_phase with
  | Some r -> Loadgen.p99_ms r
  | None -> nan

let run_pair ~smoke name =
  match
    ( Scenario.run ~smoke ~domains:(domains ()) ~with_controller:true name,
      Scenario.run ~smoke ~domains:(domains ()) ~with_controller:false name )
  with
  | Ok adaptive, Ok stale -> (adaptive, stale)
  | Error e, _ | _, Error e -> failwith (Printf.sprintf "scenario %s: %s" name e)

let run () =
  section "Adaptive: online re-merge under workload drift";
  paper_note
    [
      "\"Quilt profiles the merged functions and reconsiders the merge\" (S8),";
      "run as a closed loop: sliding-window profiling, drift detection with";
      "hysteresis, re-decision, rolling redeploy, canary + SLO watchdog.";
    ];
  let smoke = fast || !smoke_flag in
  let outcomes =
    List.map
      (fun name ->
        subsection name;
        let adaptive, stale = run_pair ~smoke name in
        Scenario.print_outcome adaptive;
        let p_a = post_shift_p99 adaptive and p_s = post_shift_p99 stale in
        Printf.printf "  post-shift (%s) p99: %.2f ms adapted vs %.2f ms stale\n%!"
          (Scenario.post_shift_phase name) p_a p_s;
        (name, adaptive, stale))
      Scenario.names
  in
  let keeps, remerges, rollbacks, watchdogs =
    List.fold_left
      (fun (k, r, rb, w) (_, (a : Scenario.outcome), _) ->
        match a.Scenario.o_summary with
        | None -> (k, r, rb, w)
        | Some s ->
            ( k + s.Controller.s_keeps,
              r + s.Controller.s_remerges,
              rb + s.Controller.s_rollbacks,
              w + s.Controller.s_watchdogs ))
      (0, 0, 0, 0) outcomes
  in
  Printf.printf
    "\n  across scenarios: %d keeps, %d remerges, %d canary rollbacks, %d watchdog rollbacks\n%!"
    keeps remerges rollbacks watchdogs;
  let module Json = Quilt_util.Json in
  let json =
    Json.Obj
      [
        ( "adaptive",
          Json.Obj
            [
              ("smoke", Json.Bool smoke);
              ( "scenarios",
                Json.List
                  (List.concat_map
                     (fun (_, a, s) -> [ Scenario.outcome_json a; Scenario.outcome_json s ])
                     outcomes) );
              ( "summary",
                Json.Obj
                  [
                    ("keeps", Json.int keeps);
                    ("remerges", Json.int remerges);
                    ("canary_rollbacks", Json.int rollbacks);
                    ("watchdog_rollbacks", Json.int watchdogs);
                  ] );
            ] );
      ]
  in
  let oc = open_out_bin json_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [outcomes recorded in %s]\n%!" json_file
