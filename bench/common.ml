(* Shared helpers for the benchmark harness. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Pool = Quilt_util.Pool
module Json = Quilt_util.Json

(* `bench/main.exe --smoke` sets this: shorter runs and sparser sweeps, so
   any section finishes in well under a minute, with its artifacts written
   under [smoke_dir] instead of over the committed full-scale files.
   Default runs use the full parameters recorded in EXPERIMENTS.md. *)
let fast = ref false

let scale x = if !fast then x /. 4.0 else x

(* `bench/main.exe --domains N` sets this; [None] means the machine's
   recommended domain count. *)
let domains_override : int option ref = ref None

let domains () = match !domains_override with Some d -> d | None -> Pool.default_domains ()

(* [Config.default] with the harness's decision domains. *)
let config () = { Config.default with Config.domains = domains () }

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n%!" title

let paper_note lines =
  List.iter (fun l -> Printf.printf "  paper: %s\n" l) lines;
  flush stdout

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median_time ?(reps = 3) f =
  let times = List.init reps (fun _ -> snd (time_it f)) in
  Quilt_util.Stats.median times

(* Latency run of one deployment setup: a single connection at low load,
   as Figure 6 — requests arrive with gaps, so idle containers pay
   Fission's re-specialization, which is part of what merging removes. *)
let latency_run engine ~entry ~gen_req ~duration_us =
  Loadgen.run_open_loop engine ~entry ~gen_req ~rate_rps:2.0 ~duration_us
    ~warmup_us:(Float.min (duration_us *. 0.25) 20_000_000.0)
    ()

(* --- BENCH_*.json artifacts ---

   Every artifact write goes through [write_json]: full-scale runs write
   the repo-root file, smoke runs the same name under [smoke_dir]. *)
let smoke_dir = Filename.concat "_build" "bench-smoke"

let artifact_path file = if !fast then Filename.concat smoke_dir file else file

let read_json path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (Json.of_string s)
    with _ -> None

let write_json file json =
  let path = artifact_path file in
  if !fast then
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ Filename.dirname smoke_dir; smoke_dir ];
  let oc = open_out_bin path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  path

(* Machine-readable timing log.  Each bench section that measures decision
   times dumps them here, keyed by section, as one top-level JSON object;
   re-running a section replaces only its own key. *)
let record_timings ?(file = "BENCH_decision.json") ~key entries =
  let existing =
    match read_json (artifact_path file) with Some (Json.Obj kvs) -> kvs | Some _ | None -> []
  in
  let merged = List.filter (fun (k, _) -> k <> key) existing @ [ (key, Json.Obj entries) ] in
  let path = write_json file (Json.Obj merged) in
  Printf.printf "  [timings recorded under %S in %s]\n%!" key path

let optimize_or_fail cfg wf =
  match Quilt.optimize cfg ~workflows:[ wf ] wf with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "optimize %s: %s" wf.Workflow.wf_name e)

let pct_improvement ~baseline ~better = 100.0 *. (baseline -. better) /. baseline
