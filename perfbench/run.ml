(* Per-run bookkeeping shared by the workloads: the operation tally behind
   attempted/failed, per-pass layer samples, and what a workload returns. *)

module Stats = Perfbench_lib.Stats

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** The first few failure messages. *)
  renamed : int ref;  (** Plan comparisons that differed in local names only. *)
}

let tally () = { attempted = 0; failed = 0; notes = []; renamed = ref 0 }

(* One checked operation; [problem] names what went wrong, if anything. *)
let record t problem =
  t.attempted <- t.attempted + 1;
  match problem with
  | None -> ()
  | Some msg ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 8 then t.notes <- msg :: t.notes

(* [attempted] operations checked together, [failed] of them failing for
   the reason [msg]. *)
let record_many t ~attempted ~failed msg =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 && List.length t.notes < 8 then t.notes <- msg :: t.notes

(* A failed check that is not an operation of its own (set-up, pass-level
   determinism): counted as one more attempted-and-failed operation. *)
let fail t msg = record t (Some msg)

(* Machine-speed calibration.  On a shared machine the host's speed
   switches between fast and slow phases lasting seconds, and every host
   time moves with it.  Right after each operation a fixed allocation-free
   kernel (random read-modify-write over a 4 MB int array) is timed; an
   operation's calibrated time is its host time scaled by
   [calibration_ref_ms] / the mean of the kernel times measured just
   before and just after it.  The kernel runs twice back to back and only
   the second run is timed, so its buffer is warm whatever the workload
   left in the caches. *)
let calibration_ref_ms = 1.0

let calibration_buf = Array.make (1 lsl 19) 0

let calibration_kernel () =
  let a = calibration_buf and x = ref 12345 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (Array.length a - 1) in
    a.(i) <- a.(i) + 1
  done

let kernel_ms () =
  calibration_kernel ();
  let t0 = Suite.now () in
  calibration_kernel ();
  (Suite.now () -. t0) *. 1000.0

(* The timed operations of a run, raw and calibrated, and the kernel times. *)
type ops = {
  mutable raw_ms : float list;
  mutable cal_ms : float list;
  mutable kernels_ms : float list;  (** Latest first. *)
}

let ops () = { raw_ms = []; cal_ms = []; kernels_ms = [] }

let record_op o dt_s =
  let k = kernel_ms () in
  let before = match o.kernels_ms with b :: _ -> b | [] -> k in
  let ms = dt_s *. 1000.0 in
  o.raw_ms <- ms :: o.raw_ms;
  o.cal_ms <- (ms *. calibration_ref_ms /. ((before +. k) /. 2.0)) :: o.cal_ms;
  o.kernels_ms <- k :: o.kernels_ms

let op_count o = List.length o.raw_ms

(* Set-up runs this many times per run; only the first repeat's result
   is kept, and [summary] of every repeat must agree with the first's.
   A repeat is calibrated step by step: the workload wraps each step of
   its set-up (one optimize, one profile, one virtual second of pre-warm)
   in [step], which times and calibrates it like an operation.  A
   repeat's time is the sum of its steps' times, and setup_s is the
   median calibrated repeat.  Whole repeats timed raw, or calibrated
   from kernel readings at their two ends, varied far more from run to
   run. *)
let setup_repeats = 3

type step = { step : 'a. (unit -> 'a) -> 'a }

type setup = {
  setup_s : float;
  setup_raw_s : float;  (** Median raw repeat. *)
  repeat_ms : float list;  (** Raw, per repeat. *)
  repeat_cal_ms : float list;
}

let repeat_setup ~summary f =
  let o = ops () in
  let once () =
    let n0 = op_count o in
    let r = f { step = (fun g -> let r, dt = Suite.timed g in record_op o dt; r) } in
    let sum l = List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < op_count o - n0) l) in
    ((r, summary r), (sum o.raw_ms, sum o.cal_ms))
  in
  let (first, s0), t0 = once () in
  (* The later repeats' results are dropped at once, so they do not add
     to the process's peak memory. *)
  let rest = List.init (setup_repeats - 1) (fun _ -> let (_, s), t = once () in (s = s0, t)) in
  let times = t0 :: List.map snd rest in
  let median l = Stats.median (Array.of_list l) /. 1000.0 in
  ( first,
    List.for_all fst rest,
    {
      setup_s = median (List.map snd times);
      setup_raw_s = median (List.map fst times);
      repeat_ms = List.map fst times;
      repeat_cal_ms = List.map snd times;
    } )

(* Every per-layer metric, with its unit.  A traced run reports all of
   them on every workload; a layer that does no work there reads 0. *)
let layer_catalogue =
  [
    ("platform.run_ms", "ms");
    ("platform.events", "count");
    ("platform.events_per_s", "1/s");
    ("platform.minor_words_per_request", "words");
    ("platform.peak_queue_depth", "count");
    ("platform.remote_invocations", "count");
    ("platform.local_invocations", "count");
    ("platform.cold_starts", "count");
    ("tracing.spans", "count");
    ("tracing.build_ms", "ms");
    ("cluster.decide_ms", "ms");
    ("cluster.vertices", "count");
    ("cluster.groups", "count");
    ("merge.merge_ms", "ms");
    ("merge.rounds", "count");
    ("merge.removed_symbols", "count");
    ("merge.cache_misses", "count");
    ("ir.verify_strict_ms", "ms");
    ("ir.instrs", "count");
    ("ir.compile_us", "us");
    ("ir.vm_steps_per_req", "count");
    ("ir.vm_us_per_req", "us");
    ("lang.eval_us_per_req", "us");
    ("platform.self_ms", "ms");
    ("tracing.self_ms", "ms");
    ("cluster.self_ms", "ms");
    ("merge.self_ms", "ms");
    ("ir.self_ms", "ms");
    ("lang.self_ms", "ms");
    ("core.self_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

(* Layer values of one pass (one sweep over the workload's inputs). *)
type pass = (string, float) Hashtbl.t

let new_pass () : pass = Hashtbl.create 32

let add (p : pass) name v =
  Hashtbl.replace p name (v +. Option.value ~default:0.0 (Hashtbl.find_opt p name))

let peak (p : pass) name v =
  Hashtbl.replace p name (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt p name)))

(* Adds each layer's self time (ms) from the pass's spans. *)
let add_self_times (p : pass) spans =
  List.iter
    (fun (layer, s) -> add p (layer ^ ".self_ms") (s *. 1000.0))
    (Perfbench_lib.Spans.self_by_layer spans)

(* Per-layer result: the median over passes of each metric's per-pass value. *)
let layer_medians (passes : pass list) =
  List.map
    (fun (name, _) ->
      let vs = List.map (fun p -> Option.value ~default:0.0 (Hashtbl.find_opt p name)) passes in
      (name, if vs = [] then 0.0 else Stats.median (Array.of_list vs)))
    layer_catalogue

type result = {
  setup : setup;
  ops : ops;  (** Every measured operation's host time. *)
  plan_cost : int;  (** Σ chosen-solution cost over the workload's plans. *)
  calls_saved : int;  (** Σ {!Suite.remote_calls_saved} over the workload's plans. *)
  merged_instrs : int;  (** Σ instructions over the plans' merged modules. *)
  workload_metrics : (string * float * string) list;
      (** This workload's own end-to-end figures, by the names the
          README's table uses: name, value, unit. *)
  layers : (string * float) list;  (** Traced runs only; [] otherwise. *)
  fingerprint : (string * string) list;  (** Deterministic counters. *)
  spans : Perfbench_lib.Spans.span list;
}

(* Measure passes until [seconds] have elapsed and at least [min_ops]
   operations were timed; [cap_s] bounds a run whatever happens. *)
let measure ~seconds ~min_ops ~cap_s ~ops pass =
  let t0 = Suite.now () in
  let rec loop i =
    let elapsed = Suite.now () -. t0 in
    if elapsed < cap_s && (elapsed < float_of_int seconds || ops () < min_ops) then begin
      pass i;
      loop (i + 1)
    end
  in
  loop 0

(* Count-type layer metrics are deterministic: every pass must repeat the
   first pass's values exactly, and they join the fingerprint. *)
let counter_names = List.filter_map (fun (n, u) -> if u = "count" then Some n else None) layer_catalogue

let pass_counters (p : pass) =
  List.map
    (fun n -> (n, Printf.sprintf "%.0f" (Option.value ~default:0.0 (Hashtbl.find_opt p n))))
    counter_names

(* Compares a pass's deterministic counters with the first pass's. *)
let same_as_first t ~first ~what current =
  match !first with
  | None -> first := Some current
  | Some f when f = current -> ()
  | Some _ -> fail t (what ^ ": deterministic counters differ from the first pass")

(* Turns the pass's hidden sums into the per-request and per-second layer
   metrics. *)
let finish_pass (p : pass) =
  let get n = Option.value ~default:0.0 (Hashtbl.find_opt p n) in
  if get "_requests" > 0.0 then
    Hashtbl.replace p "platform.minor_words_per_request" (get "_minor_words" /. get "_requests");
  if get "platform.run_ms" > 0.0 then
    Hashtbl.replace p "platform.events_per_s" (get "platform.events" /. (get "platform.run_ms" /. 1000.0));
  if get "_vm_reqs" > 0.0 then begin
    Hashtbl.replace p "ir.vm_steps_per_req" (get "_vm_steps" /. get "_vm_reqs");
    Hashtbl.replace p "ir.vm_us_per_req" (get "_vm_us" /. get "_vm_reqs")
  end;
  if get "_eval_reqs" > 0.0 then Hashtbl.replace p "lang.eval_us_per_req" (get "_eval_us" /. get "_eval_reqs")
