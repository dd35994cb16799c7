(* The repo's benchmark: one workload per run, end-to-end metrics with
   tracing off (--trace 0) or per-layer metrics from a traced run
   (--trace 1).  See README.md in this directory.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the JSON result; the full record
   (provenance, the workload's own figures, the deterministic-counter
   fingerprint, spans) goes to perfbench/results/. *)

module Json = Quilt_util.Json
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans

let workloads =
  [
    ("optimize-cold", Optimize_cold.run);
    ("redecide-validate", Redecide.run);
    ("platform-load", Platform_load.run);
  ]

let results_dir = Filename.concat "perfbench" "results"

(* A whole run, set-up included, stays well inside three minutes. *)
let run_cap_s = 150.0

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The commit of the checkout, read from .git without running git; a
   checkout that is not a git repository says so. *)
let git_sha () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none (not a git checkout)"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" ref_)) with Sys_error _ -> "unknown (" ^ ref_ ^ ")")
  | sha -> sha

(* The process's memory peak as the runtime sees it: the major heap's
   high-water mark plus this domain's minor heap. *)
let peak_mem_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words + (Gc.get ()).Gc.minor_heap_size in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let num v = Json.Float v

let metric v unit_ = Json.Obj [ ("value", num v); ("unit", Json.String unit_) ]

(* The same-seed gate: the first run of a build stores its fingerprint;
   every later run of that build with the same workload, seed and trace
   flag must reproduce it exactly. *)
let check_fingerprint ~key ~build counters =
  let digest = Digest.to_hex (Digest.string (Json.to_string (Json.Obj counters))) in
  let path = Filename.concat results_dir ("fingerprint-" ^ key ^ ".json") in
  let stored =
    match Json.of_string (read_file path) with
    | j when Json.member "build" j = Json.String build -> Some (Json.member "digest" j)
    | _ -> None
    | exception (Sys_error _ | Json.Parse_error _) -> None
  in
  match stored with
  | Some (Json.String d) when d = digest -> (digest, "match")
  | Some _ -> (digest, "MISMATCH")
  | None ->
      write_file path
        (Json.to_string
           (Json.Obj
              [
                ("build", Json.String build);
                ("digest", Json.String digest);
                ("counters", Json.Obj counters);
              ]));
      (digest, "recorded")

let spans_json spans =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun (s : Spans.span) ->
               Json.Obj
                 [
                   ("name", Json.String s.Spans.name);
                   ("cat", Json.String s.Spans.layer);
                   ("ph", Json.String "X");
                   ("ts", num (s.Spans.t0 *. 1e6));
                   ("dur", num ((s.Spans.t1 -. s.Spans.t0) *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("args", Json.Obj [ ("id", Json.Int s.Spans.id); ("parent", Json.Int s.Spans.parent) ]);
                 ])
             spans) );
    ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let started = Suite.now () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " measuring time (>= 1)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let tally = Run.tally () in
  let r = run ~seed ~seconds ~cap_s:(run_cap_s -. (Suite.now () -. started)) ~trace tally in
  let raw = Array.of_list r.Run.ops.Run.raw_ms and cal = Array.of_list r.Run.ops.Run.cal_ms in
  let op_p50 = Stats.percentile raw 50.0 and op_p90 = Stats.percentile raw 90.0 in
  let peak = peak_mem_mb () in
  let key = Printf.sprintf "%s-s%d-t%d" !workload seed (if trace then 1 else 0) in
  mkdir_p results_dir;
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let fp_counters = List.map (fun (k, v) -> (k, Json.String v)) r.Run.fingerprint in
  let fp_digest, fp_status = check_fingerprint ~key ~build fp_counters in
  if fp_status = "MISMATCH" then
    Run.fail tally "deterministic-counter fingerprint differs from an earlier run";
  let correct = tally.Run.failed = 0 in
  let failure_ratio = Stats.failure_ratio ~attempted:(max 1 tally.Run.attempted) ~failed:tally.Run.failed in
  let calibration_ms = Stats.median (Array.of_list r.Run.ops.Run.kernels_ms) in
  let end_to_end =
    [
      ("setup_s", r.Run.setup.Run.setup_s, "s");
      ("op_p50_cal_ms", Stats.percentile cal 50.0, "ms");
      ("op_p90_cal_ms", Stats.percentile cal 90.0, "ms");
      ("peak_mem_mb", peak, "MB");
      ("remote_calls_saved", float_of_int r.Run.calls_saved, "count");
      ("merged_instrs", float_of_int r.Run.merged_instrs, "count");
    ]
  in
  let reported =
    if trace then List.map (fun (n, u) -> (n, List.assoc n r.Run.layers, u)) Run.layer_catalogue
    else end_to_end
  in
  let provenance =
    [
      ("git_sha", Json.String (git_sha ()));
      ("build_digest", Json.String build);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("workload", Json.String !workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("domains", Json.Int Suite.domains);
      ( "scale",
        Json.Obj
          [
            ("workflows", Json.Int (List.length (Suite.workflows ())));
            ("setup_repeats", Json.Int Run.setup_repeats);
            ("requests_per_workflow", Json.Int Redecide.requests_per_workflow);
            ("load_rate_rps", num Platform_load.rate_rps);
            ("load_prewarm_us", num Platform_load.prewarm_us);
            ("load_slice_us", num Platform_load.slice_us);
            ("load_window_us", num Platform_load.window_us);
            ("operations", Json.Int (Array.length raw));
          ] );
    ]
  in
  let workload_metrics =
    r.Run.workload_metrics
    @ [
        ("setup_raw_s", r.Run.setup.Run.setup_raw_s, "s");
        ("op_p50_ms", op_p50, "ms");
        ("op_p90_ms", op_p90, "ms");
        ("calibration_ms", calibration_ms, "ms");
        ("failure_ratio", failure_ratio, "ratio");
      ]
  in
  let triples l = Json.Obj (List.map (fun (n, v, u) -> (n, metric v u)) l) in
  let record =
    Json.Obj
      [
        ("provenance", Json.Obj provenance);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int tally.Run.attempted);
        ("failed", Json.Int tally.Run.failed);
        ("failure_ratio", num failure_ratio);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) tally.Run.notes));
        ("renamed_only_plan_comparisons", Json.Int !(tally.Run.renamed));
        ("metrics", triples reported);
        ("workload_metrics", triples workload_metrics);
        ("setup_ms", Json.List (List.map num r.Run.setup.Run.repeat_ms));
        ("setup_cal_ms", Json.List (List.map num r.Run.setup.Run.repeat_cal_ms));
        ("op_ms", Json.List (List.rev_map num r.Run.ops.Run.raw_ms));
        ("op_cal_ms", Json.List (List.rev_map num r.Run.ops.Run.cal_ms));
        ("kernel_ms", Json.List (List.rev_map num r.Run.ops.Run.kernels_ms));
        ( "fingerprint",
          Json.Obj
            [
              ("digest", Json.String fp_digest);
              ("status", Json.String fp_status);
              ("counters", Json.Obj fp_counters);
            ] );
      ]
  in
  write_file (Filename.concat results_dir (key ^ ".json")) (Json.to_string record);
  if trace then
    write_file (Filename.concat results_dir (key ^ "-spans.json")) (Json.to_string (spans_json r.Run.spans));
  Printf.printf "perfbench %s  seed %d  %ds  trace %d\n" !workload seed seconds (if trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k (Json.to_string v)) provenance;
  let show (n, v, u) = Printf.printf "  %-34s %14.4f %s\n" n v u in
  print_endline "workload metrics:";
  List.iter show workload_metrics;
  Printf.printf "%s metrics:\n" (if trace then "per-layer" else "end-to-end");
  List.iter show reported;
  Printf.printf "fingerprint %s (%s)\n" fp_digest fp_status;
  Printf.printf "plan comparisons differing in local names only: %d\n" !(tally.Run.renamed);
  List.iter (fun n -> Printf.printf "failure: %s\n" n) (List.rev tally.Run.notes);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.Run.attempted);
            ("failed", Json.Int tally.Run.failed);
            ("metrics", triples reported);
          ]));
  exit (if correct then 0 else 1)
