(* platform-load: open-loop Poisson load on sync compose-post, profiling
   off, in two arms — the baseline deployments and the Quilt plan computed
   during set-up.  Only the simulator runs: no tracing writes, no
   optimizer work.

   Set-up builds both platforms and pre-warms them under the load.  Each
   operation then advances both arms by one slice of virtual time.  The
   load is driven through Engine.submit directly: Loadgen.run_open_loop
   ends every call with a 30-virtual-second drain, so its calls cannot be
   cut into short timed slices of a warm platform. *)

open Suite
module Engine = Quilt_platform.Engine
module Rng = Quilt_util.Rng
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans

(* Below baseline saturation. *)
let rate_rps = 800.0
let prewarm_us = 5_000_000.0
let slice_us = 1_000_000.0

(* The simulated figures cover requests sent in this window after the
   pre-warm, whatever the run's length. *)
let window_us = 20_000_000.0
let window_slices = int_of_float (window_us /. slice_us)

type arm = {
  engine : Engine.t;
  mutable sending : bool;
  mutable recording : bool;
  mutable offered : int;
  mutable succeeded : int;  (** Successful answers, counted as they come. *)
  mutable failed : int;  (** Failed answers, counted as they come. *)
  pending : (int, unit) Hashtbl.t;  (** Requests sent and not yet answered, by number. *)
  mutable duplicates : int;  (** Answers to a request already answered. *)
  mutable latencies_us : float list;  (** Successful requests sent in the window. *)
}

let start_arm ~seed cfg (wf : Workflow.t) plan =
  let engine = Quilt.fresh_platform ~seed:cfg.Config.seed ~config:cfg ~workflows:[ wf ] () in
  Option.iter (Quilt.apply engine) plan;
  let a =
    {
      engine;
      sending = true;
      recording = false;
      offered = 0;
      succeeded = 0;
      failed = 0;
      pending = Hashtbl.create 1024;
      duplicates = 0;
      latencies_us = [];
    }
  in
  let reqs = Rng.create (777 + seed) and gaps = Rng.create (778 + seed) in
  let mean_gap_us = 1e6 /. rate_rps in
  let rec arrival () =
    if a.sending then begin
      let req = wf.Workflow.gen_req reqs in
      let recorded = a.recording and id = a.offered in
      a.offered <- a.offered + 1;
      Hashtbl.replace a.pending id ();
      Engine.submit engine ~entry:wf.Workflow.entry ~req ~on_done:(fun ~latency_us ~ok ->
          if Hashtbl.mem a.pending id then Hashtbl.remove a.pending id else a.duplicates <- a.duplicates + 1;
          if ok then begin
            a.succeeded <- a.succeeded + 1;
            if recorded then a.latencies_us <- latency_us :: a.latencies_us
          end
          else a.failed <- a.failed + 1);
      Engine.schedule engine (Rng.exponential gaps mean_gap_us) arrival
    end
  in
  arrival ();
  a

let advance a dt_us = Engine.run_until a.engine (Engine.now a.engine +. dt_us)

(* Stops the arrivals and gives stragglers 30 virtual seconds, as
   Loadgen does; a request still pending then has failed. *)
let close a =
  a.sending <- false;
  advance a 30_000_000.0

(* The arm's failed requests, how many of them went unanswered, and a
   message when the counts do not balance (see Stats.request_failures). *)
let failures a =
  let unanswered = Hashtbl.length a.pending in
  let failed, balanced =
    Stats.request_failures ~offered:a.offered ~succeeded:a.succeeded ~failed:a.failed ~unanswered
      ~duplicates:a.duplicates
  in
  let balance =
    if balanced then None
    else
      Some
        (Printf.sprintf "offered %d <> successes %d + failures %d + unanswered %d" a.offered a.succeeded
           a.failed unanswered)
  in
  (failed, unanswered, balance)

(* What an arm simulated up to the end of the window; equal seeds must
   reproduce it exactly. *)
type window = {
  w_offered : int;
  w_succeeded : int;
  w_failed : int;
  p50_ms : float;
  p99_ms : float;
  base_mem_mb : float;
  events : int;
  peak_queue : int;
  counters : Engine.counters;
}

let latency_ms a p =
  match a.latencies_us with [] -> 0.0 | l -> Stats.percentile (Array.of_list l) p /. 1000.0

let window_of a =
  {
    w_offered = a.offered;
    w_succeeded = a.succeeded;
    w_failed = a.failed;
    p50_ms = latency_ms a 50.0;
    p99_ms = latency_ms a 99.0;
    base_mem_mb = Engine.total_base_mem_mb a.engine;
    events = Engine.events_processed a.engine;
    peak_queue = Engine.peak_queue_depth a.engine;
    counters = Engine.counters a.engine;
  }

let window_fields w =
  [
    ("offered", string_of_int w.w_offered);
    ("succeeded", string_of_int w.w_succeeded);
    ("failed", string_of_int w.w_failed);
    ("p50_ms", Printf.sprintf "%h" w.p50_ms);
    ("p99_ms", Printf.sprintf "%h" w.p99_ms);
    ("base_mem_mb", Printf.sprintf "%h" w.base_mem_mb);
    ("events", string_of_int w.events);
    ("peak_queue_depth", string_of_int w.peak_queue);
    ("remote_invocations", string_of_int w.counters.Engine.remote_invocations);
    ("local_invocations", string_of_int w.counters.Engine.local_invocations);
    ("cold_starts", string_of_int w.counters.Engine.cold_starts);
  ]

let run ~seed ~seconds ~cap_s ~trace tally =
  let cfg = config ~seed in
  let setup { Run.step } =
    let wf = compose_post () in
    match step (fun () -> Quilt.optimize cfg ~workflows:[ wf ] wf) with
    | Error msg -> failwith ("platform-load set-up: " ^ msg)
    | Ok plan ->
        let base, quilt = step (fun () -> (start_arm ~seed cfg wf None, start_arm ~seed cfg wf (Some plan))) in
        (* The pre-warm in slices, one step each. *)
        for _ = 1 to int_of_float (prewarm_us /. slice_us) do
          step (fun () -> advance base slice_us);
          step (fun () -> advance quilt slice_us)
        done;
        (plan, base, quilt)
  in
  let summary (p, b, q) = ((plan_digest p).canonical, window_of b, window_of q) in
  let (plan, base, quilt), agree, setup = Run.repeat_setup ~summary setup in
  if not agree then
    Run.fail tally "platform-load: repeated set-up planned or simulated differently";
  base.recording <- true;
  quilt.recording <- true;
  let ops = Run.ops () and rps = ref [] and passes = ref [] and all_spans = ref [] and window = ref None in
  let plain_ms = ref [] and traced_ms = ref [] in
  let words = ref 0.0 and completions = ref 0 and run_s = ref 0.0 and events = ref 0 in
  let pass i =
    let traced_op = trace && i mod 2 = 1 in
    let sp = Spans.create () in
    let done0 = base.succeeded + base.failed + quilt.succeeded + quilt.failed in
    let events0 = Engine.events_processed base.engine + Engine.events_processed quilt.engine in
    let words0 = Gc.minor_words () in
    let (), dt =
      timed (fun () ->
          List.iter
            (fun (name, a) ->
              if traced_op then Spans.with_span sp ~layer:"platform" name (fun () -> advance a slice_us)
              else advance a slice_us)
            [ ("baseline", base); ("quilt", quilt) ])
    in
    let done_ = base.succeeded + base.failed + quilt.succeeded + quilt.failed - done0 in
    Run.record_op ops dt;
    rps := (float_of_int done_ /. dt) :: !rps;
    if i + 1 = window_slices then begin
      base.recording <- false;
      quilt.recording <- false;
      window := Some (window_of base, window_of quilt)
    end;
    if trace then begin
      words := !words +. (Gc.minor_words () -. words0);
      completions := !completions + done_;
      run_s := !run_s +. dt;
      events :=
        !events + (Engine.events_processed base.engine + Engine.events_processed quilt.engine - events0);
      if traced_op then begin
        let p = Run.new_pass () and spans = Spans.spans sp in
        Run.add p "platform.run_ms" (dt *. 1000.0);
        Run.add_self_times p spans;
        all_spans := List.rev_append spans !all_spans;
        passes := p :: !passes;
        traced_ms := dt :: !traced_ms
      end
      else plain_ms := dt :: !plain_ms
    end
  in
  Run.measure ~seconds ~cap_s
    ~min_ops:(max window_slices (Stats.min_samples ~p:90.0 ~beyond:10))
    ~ops:(fun () -> Run.op_count ops)
    pass;
  close base;
  close quilt;
  List.iter
    (fun (label, a) ->
      let failed, unanswered, balance = failures a in
      Run.record_many tally ~attempted:a.offered ~failed
        (Printf.sprintf "%s arm: %d simulated requests failed (%d unanswered, %d answered twice)" label
           failed unanswered a.duplicates);
      Option.iter (fun msg -> Run.fail tally (label ^ " arm: " ^ msg)) balance)
    [ ("baseline", base); ("quilt", quilt) ];
  (* Counters are taken at the window's end; latencies once every request
     sent in the window has been answered. *)
  let with_latencies a w = { w with p50_ms = latency_ms a 50.0; p99_ms = latency_ms a 99.0 } in
  let wb, wq =
    match !window with
    | Some (wb, wq) -> (with_latencies base wb, with_latencies quilt wq)
    | None ->
        Run.fail tally "platform-load: the run ended before the simulated window";
        (window_of base, window_of quilt)
  in
  let median l = if l = [] then 0.0 else Stats.median (Array.of_list l) in
  let layers =
    if not trace then []
    else
      let counts =
        [
          ("platform.events", float_of_int (wb.events + wq.events));
          ("platform.events_per_s", float_of_int !events /. !run_s);
          ("platform.minor_words_per_request", !words /. float_of_int (max 1 !completions));
          ("platform.peak_queue_depth", float_of_int (max wb.peak_queue wq.peak_queue));
          ("platform.remote_invocations", float_of_int wq.counters.Engine.remote_invocations);
          ("platform.local_invocations", float_of_int wq.counters.Engine.local_invocations);
          ("platform.cold_starts", float_of_int wq.counters.Engine.cold_starts);
          ("trace.overhead_ms", (median !traced_ms -. median !plain_ms) *. 1000.0);
        ]
      in
      List.map
        (fun (name, v) -> (name, Option.value ~default:v (List.assoc_opt name counts)))
        (Run.layer_medians !passes)
  in
  {
    Run.setup;
    ops;
    plan_cost = plan.Quilt.solution.Types.cost;
    calls_saved = remote_calls_saved plan;
    merged_instrs = merged_instrs plan;
    workload_metrics =
      [
        ("sim_requests_per_s", median !rps, "1/s");
        ("sim_quilt_p50_ms", wq.p50_ms, "ms");
        ("sim_quilt_p99_ms", wq.p99_ms, "ms");
        ("sim_base_mem_mb", wq.base_mem_mb, "MB");
        ("sim_baseline_p50_ms", wb.p50_ms, "ms");
        ("sim_baseline_p99_ms", wb.p99_ms, "ms");
      ];
    layers;
    fingerprint =
      [
        ("plan_cost", string_of_int plan.Quilt.solution.Types.cost);
        ("ir.instrs", string_of_int (merged_instrs plan));
      ]
      @ List.map (fun (k, v) -> ("baseline." ^ k, v)) (window_fields wb)
      @ List.map (fun (k, v) -> ("quilt." ^ k, v)) (window_fields wq);
    spans = List.rev !all_spans;
  }
