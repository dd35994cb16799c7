(* Observability bench: what does watching cost, and is what we see enough
   to decide from?

   Scenario A replays the engine bench's million-request dial workload
   through two identical wheel-scheduler engines, one bare and one with a
   span recorder attached at 1/16 head sampling.  The recorder's sink
   never schedules events, mutates engine state or draws randomness, so
   both arms must produce bit-identical load-generator results — the bench
   aborts on divergence, which makes the overhead number trustworthy: it
   can only be recorder bookkeeping, never a behaviour change.  The
   acceptance bar is < 5% wall-clock overhead at full scale.

   Scenario B closes the profile->merge loop offline: for compose-post and
   routed, across seeds and sampling periods, a baseline (unmerged) run is
   observed through the recorder, the live profiler reconstructs the call
   graph from sampled spans alone, and Quilt re-decides from it.  The
   reconstructed decision must fingerprint-identically match the decision
   taken from ground-truth profiling.  Writes BENCH_obs.json. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Sched = Quilt_platform.Sched
module Workflow = Quilt_apps.Workflow
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Controller = Quilt_control.Controller
module Recorder = Quilt_obs.Recorder
module Profiler = Quilt_obs.Profiler
module Json = Quilt_util.Json

let smoke_flag = ref false

(* --- Scenario A: recorder overhead on the engine bench workload --- *)

let run_overhead () =
  let smoke = !smoke_flag || Common.fast in
  let rate_rps = if smoke then 20_000.0 else 30_000.0 in
  let duration_us = if smoke then 2.5e6 else 34.0e6 in
  let period = 16 in
  Common.subsection
    (Printf.sprintf "recorder overhead: %.0f req/s for %.0fs virtual, 1/%d sampling (%s)"
       rate_rps (duration_us /. 1e6) period
       (if smoke then "smoke" else "full"));
  let recorder = ref None in
  let setup engine =
    let r = Recorder.create ~sample_period:period ~seed:0 () in
    Recorder.attach r engine;
    recorder := Some r
  in
  (* Wall times at this granularity jitter a few percent run-to-run
     (allocator and cache state), so alternate the arms twice and keep the
     per-arm minimum — the number we want bounds the recorder's own work,
     not the machine's mood. *)
  let faster a b =
    if a.Engine_bench.a_wall_s <= b.Engine_bench.a_wall_s then a else b
  in
  let bare1 = Engine_bench.run_arm ~kind:Sched.Wheel ~rate_rps ~duration_us () in
  let traced1 = Engine_bench.run_arm ~setup ~kind:Sched.Wheel ~rate_rps ~duration_us () in
  let bare = faster bare1 (Engine_bench.run_arm ~kind:Sched.Wheel ~rate_rps ~duration_us ()) in
  let traced =
    faster traced1 (Engine_bench.run_arm ~setup ~kind:Sched.Wheel ~rate_rps ~duration_us ())
  in
  if Engine_bench.fingerprint bare.Engine_bench.a_result
     <> Engine_bench.fingerprint traced.Engine_bench.a_result
  then begin
    Printf.printf "  DIVERGENCE: recorder perturbed the simulation!\n";
    failwith "obs bench: traced and bare arms are not bit-identical"
  end;
  let r = Option.get !recorder in
  let overhead_pct =
    100.0 *. (traced.Engine_bench.a_wall_s -. bare.Engine_bench.a_wall_s)
    /. bare.Engine_bench.a_wall_s
  in
  List.iter
    (fun (label, a) ->
      Printf.printf "  %-9s %7.2fs wall  %9.0f events/s  %7.1f minor words/req\n" label
        a.Engine_bench.a_wall_s a.Engine_bench.a_events_per_s a.Engine_bench.a_words_per_req)
    [ ("bare", bare); ("recording", traced) ];
  Printf.printf
    "  %d/%d roots sampled, %d spans recorded (%d dropped); overhead %+.2f%% (budget 5%%)%s\n"
    (Recorder.sampled_roots r) (Recorder.seen_roots r) (Recorder.recorded r)
    (Recorder.dropped r) overhead_pct
    (if overhead_pct < 5.0 then "" else "  ** OVER BUDGET **");
  (bare, traced, r, overhead_pct)

(* --- Scenario B: decision agreement from sampled spans --- *)

(* One observed baseline run: drive the unmerged deployment, reconstruct
   the call graph from the recorder alone, re-decide, and compare the
   grouping fingerprint with the decision taken from ground truth. *)
let agreement_run ~wf ~seed ~period ~rate_rps ~duration_us =
  let cfg = { (Common.config ()) with Config.seed = Config.default.Config.seed + seed } in
  let truth = Common.optimize_or_fail cfg wf in
  let engine = Quilt.fresh_platform ~seed:(7 + seed) ~workflows:[ wf ] () in
  let r = Recorder.create ~sample_period:period ~seed () in
  Recorder.attach r engine;
  let _ =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps ~duration_us
      ~warmup_us:(Float.min (duration_us /. 4.0) 10_000_000.0)
      ~seed ()
  in
  match Profiler.callgraph ~code_edges:wf.Workflow.code_edges ~entry:wf.Workflow.entry r with
  | Error e -> failwith (Printf.sprintf "obs bench: %s live profile: %s" wf.Workflow.wf_name e)
  | Ok g -> (
      let g = Quilt.with_optin wf g in
      match Quilt.optimize ~graph:g cfg ~workflows:[ wf ] wf with
      | Error e ->
          failwith (Printf.sprintf "obs bench: %s live re-decision: %s" wf.Workflow.wf_name e)
      | Ok live ->
          let agree =
            String.equal (Controller.fingerprint live) (Controller.fingerprint truth)
          in
          (agree, Recorder.sampled_roots r, Recorder.seen_roots r))

let run_agreement () =
  let smoke = !smoke_flag || Common.fast in
  let seeds = if smoke then [ 0 ] else [ 0; 1; 2 ] in
  let periods = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let duration_us = if smoke then 6.0e6 else 20.0e6 in
  let workflows =
    [
      List.find
        (fun w -> w.Workflow.wf_name = "compose-post")
        (Quilt_apps.Deathstar.social_network ~async:false ());
      Quilt_apps.Special.routed ();
    ]
  in
  Common.subsection
    (Printf.sprintf "decision agreement: %d workflows x %d seeds x %d sampling periods"
       (List.length workflows) (List.length seeds) (List.length periods));
  let runs = ref [] in
  List.iter
    (fun wf ->
      List.iter
        (fun seed ->
          List.iter
            (fun period ->
              let agree, sampled, seen =
                agreement_run ~wf ~seed ~period ~rate_rps:50.0 ~duration_us
              in
              Printf.printf "  %-14s seed %d  1/%-2d  %4d/%4d roots  %s\n" wf.Workflow.wf_name
                seed period sampled seen
                (if agree then "agrees" else "DIVERGES");
              runs :=
                Json.Obj
                  [
                    ("workflow", Json.String wf.Workflow.wf_name);
                    ("seed", Json.Int seed);
                    ("sample_period", Json.Int period);
                    ("sampled_roots", Json.Int sampled);
                    ("seen_roots", Json.Int seen);
                    ("agrees", Json.Bool agree);
                  ]
                :: !runs)
            periods)
        seeds)
    workflows;
  let runs = List.rev !runs in
  let agree_n =
    List.length
      (List.filter (function Json.Obj kvs -> List.assoc "agrees" kvs = Json.Bool true | _ -> false) runs)
  in
  let total = List.length runs in
  Printf.printf "  %d/%d reconstructed decisions match ground truth\n" agree_n total;
  (runs, agree_n, total)

let run () =
  Common.section "obs: span recorder overhead + live-profiler decision fidelity";
  let bare, traced, r, overhead_pct = run_overhead () in
  let runs, agree_n, total = run_agreement () in
  Common.paper_note
    [
      "the recorder's sink cannot perturb the simulation (enforced above), so";
      "the overhead is pure span bookkeeping; head sampling keeps whole chains,";
      "so per-invocation rates and resource profiles are sampling-invariant and";
      "the re-decision from 1/16 of the traffic lands on the same grouping.";
    ];
  Common.record_timings ~file:"BENCH_obs.json" ~key:"obs"
    [
      ("scale", Json.String (if !smoke_flag || Common.fast then "smoke" else "full"));
      ( "overhead",
        Json.Obj
          [
            ("bare", Engine_bench.arm_json bare);
            ("recording", Engine_bench.arm_json traced);
            ("sample_period", Json.Int 16);
            ("roots_seen", Json.Int (Recorder.seen_roots r));
            ("roots_sampled", Json.Int (Recorder.sampled_roots r));
            ("spans_recorded", Json.Int (Recorder.recorded r));
            ("spans_dropped", Json.Int (Recorder.dropped r));
            ("overhead_pct", Json.Float overhead_pct);
            ("under_5pct", Json.Bool (overhead_pct < 5.0));
            ("traces_identical", Json.Bool true);
          ] );
      ( "agreement",
        Json.Obj
          [
            ("runs", Json.List runs);
            ("agree", Json.Int agree_n);
            ("total", Json.Int total);
            ("all_agree", Json.Bool (agree_n = total));
          ] );
    ]
