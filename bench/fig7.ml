(* Figures 7a/7b: median latency and throughput with varying offered load,
   for the compose-post workflow (sync and async): baseline, container
   merge (CM) at 128 MB, CM at 256 MB, and Quilt.  Figure 7c: the modified
   nearby-cinema workflow (1.6 vCPU / 320 MB): baseline, Quilt merging
   everything, and Quilt's optimal split. *)

open Common
module Deathstar = Quilt_apps.Deathstar
module Special = Quilt_apps.Special
module Deploy = Quilt_core.Deploy
module Loadgen = Quilt_platform.Loadgen
module Engine = Quilt_platform.Engine
module Types = Quilt_cluster.Types
module Callgraph = Quilt_dag.Callgraph

let rates = if fast then [ 100.0; 1600.0; 12800.0 ] else [ 50.0; 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0; 6400.0; 12800.0; 25600.0 ]

(* Warm every function's containers with a gentle closed loop before the
   measured open loop, as the paper does ("we warm up the system prior to
   collecting results"). *)
let prewarm engine ~entry ~gen_req =
  ignore
    (Loadgen.run_closed_loop engine ~entry ~gen_req ~connections:32 ~duration_us:(scale 6_000_000.0)
       ~warmup_us:0.0 ())

(* Each offered-load point runs on a fresh engine, and the simulator is
   fully deterministic per engine — so the points fan out across domains
   (Pool.map, input order preserved) with byte-identical results to a
   sequential sweep. *)
let sweep ~make_engine ~entry ~gen_req =
  Pool.map ~domains:(domains ())
    (fun rate ->
      let engine = make_engine () in
      prewarm engine ~entry ~gen_req;
      let r =
        Loadgen.run_open_loop engine ~entry ~gen_req ~rate_rps:rate
          ~duration_us:(scale 8_000_000.0) ~warmup_us:(scale 8_000_000.0) ()
      in
      (rate, Loadgen.median_ms r, r.Loadgen.throughput_rps, (Engine.counters engine).Engine.oom_kills))
    rates

let print_sweep name rows =
  Printf.printf "  %-16s" name;
  List.iter (fun (rate, _, _, _) -> Printf.printf " %9.0f" rate) rows;
  Printf.printf "  (offered rps)\n";
  Printf.printf "  %-16s" "";
  List.iter (fun (_, med, _, _) -> Printf.printf " %8.2fm" med) rows;
  Printf.printf "  (median ms)\n";
  Printf.printf "  %-16s" "";
  List.iter (fun (_, _, tput, _) -> Printf.printf " %9.0f" tput) rows;
  Printf.printf "  (achieved rps)\n";
  let ooms = List.fold_left (fun a (_, _, _, o) -> a + o) 0 rows in
  if ooms > 0 then Printf.printf "  %-16s %d containers OOM-killed across the sweep\n" "" ooms

let peak rows = Quilt_util.Stats.maximum (List.map (fun (_, _, t, _) -> t) rows)

let run_mode ~async =
  let mode_name = if async then "async" else "sync" in
  subsection (Printf.sprintf "Figure 7 (%s): compose-post latency/throughput vs load" mode_name);
  let cfg = config () in
  let wfs = Deathstar.social_network ~async () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = optimize_or_fail cfg compose in
  let entry = compose.Workflow.entry and gen_req = compose.Workflow.gen_req in
  let baseline () = Quilt.fresh_platform ~workflows:[ compose ] () in
  let cm limit () =
    let e = Quilt.fresh_platform ~workflows:[ compose ] () in
    Deploy.deploy_cm ~mem_limit_mb:limit e cfg compose;
    e
  in
  let quilt () =
    let e = Quilt.fresh_platform ~workflows:[ compose ] () in
    Quilt.apply e t;
    e
  in
  let b = sweep ~make_engine:baseline ~entry ~gen_req in
  let c128 = sweep ~make_engine:(cm 128.0) ~entry ~gen_req in
  let c256 = sweep ~make_engine:(cm 256.0) ~entry ~gen_req in
  let q = sweep ~make_engine:quilt ~entry ~gen_req in
  print_sweep "baseline" b;
  print_sweep "CM (128MB)" c128;
  print_sweep "CM (256MB)" c256;
  print_sweep "quilt" q;
  Printf.printf "\n  peak throughput: baseline %.0f, CM-128 %.0f, CM-256 %.0f, quilt %.0f rps\n" (peak b)
    (peak c128) (peak c256) (peak q);
  Printf.printf "  quilt/baseline peak-throughput ratio: %.2fx\n" (peak q /. peak b);
  paper_note
    (if async then
       [ "async: Quilt achieves 51.0%% lower latency and 12.87x higher throughput than baseline;" ]
     else
       [
         "sync: Quilt achieves 65.74%% lower latency and 11.24x higher throughput than baseline;";
         "CM reduces latency 25-32%% but not throughput at 128 MB (OOM kills); 256 MB completes the curve.";
       ])

(* --- Figure 7c --- *)

let whole_graph_subgraph graph =
  let n = Callgraph.n_nodes graph in
  let members = Array.make n true in
  let cpu, mem = Quilt_cluster.Closure.resources graph ~members ~root:graph.Callgraph.root in
  { Types.root = graph.Callgraph.root; absorbed = [ graph.Callgraph.root ]; members; cpu; mem_mb = mem }

let run_7c () =
  subsection "Figure 7c: modified nearby-cinema (CPU-heavy), merge-all vs optimal split";
  (* Containers have 1.6 vCPU / 320 MB (§7.4.1); the per-request CPU budget
     is raised so the decision splits on CPU, not memory. *)
  let cfg =
    {
      (config ()) with
      Config.vcpus = 1.6;
      mem_limit_mb = 320.0;
      cpu_budget_ms = 45.0;
      mem_overhead_mb = 20.0;
    }
  in
  let wf = Special.modified_nearby_cinema () in
  let graph =
    match Quilt.profile cfg ~workflows:[ wf ] wf with
    | Ok g -> g
    | Error e -> failwith e
  in
  let split = match Quilt.optimize ~graph cfg ~workflows:[ wf ] wf with Ok t -> t | Error e -> failwith e in
  Printf.printf "  optimal split uses %d groups (cut cost %d)\n"
    (List.length split.Quilt.solution.Types.subgraphs)
    split.Quilt.solution.Types.cost;
  let merge_all_dep = Deploy.merged_spec cfg wf ~graph ~subgraph:(whole_graph_subgraph graph) in
  let entry = wf.Workflow.entry and gen_req = wf.Workflow.gen_req in
  let baseline () = Quilt.fresh_platform ~config:cfg ~workflows:[ wf ] () in
  let merge_all () =
    let e = Quilt.fresh_platform ~config:cfg ~workflows:[ wf ] () in
    Engine.deploy e { merge_all_dep.Deploy.spec with Engine.max_scale = 9 * cfg.Config.max_scale };
    e
  in
  let optimal () =
    let e = Quilt.fresh_platform ~config:cfg ~workflows:[ wf ] () in
    Quilt.apply e split;
    e
  in
  let rates7c = if fast then [ 10.0; 200.0; 1600.0 ] else [ 10.0; 25.0; 50.0; 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 ] in
  let sweep7c make =
    Pool.map ~domains:(domains ())
      (fun rate ->
        let engine = make () in
        prewarm engine ~entry ~gen_req;
        let r =
          Loadgen.run_open_loop engine ~entry ~gen_req ~rate_rps:rate ~duration_us:(scale 8_000_000.0)
            ~warmup_us:(scale 8_000_000.0) ()
        in
        (rate, Loadgen.median_ms r, r.Loadgen.throughput_rps, (Engine.counters engine).Engine.oom_kills))
      rates7c
  in
  let b = sweep7c baseline and m = sweep7c merge_all and o = sweep7c optimal in
  print_sweep "baseline" b;
  print_sweep "merge-all" m;
  print_sweep "optimal-split" o;
  Printf.printf "\n  peak throughput: baseline %.0f, merge-all %.0f, optimal-split %.0f rps\n" (peak b)
    (peak m) (peak o);
  let low_lat rows = match rows with (_, med, _, _) :: _ -> med | [] -> 0.0 in
  Printf.printf "  low-load median: baseline %.1fms, merge-all %.1fms, optimal-split %.1fms\n" (low_lat b)
    (low_lat m) (low_lat o);
  paper_note
    [
      "merge-all improves latency 42.13%% over baseline but loses 11.64%% throughput (CPU throttling);";
      "the optimal 2-binary split gains 50.75%% throughput over baseline;";
      "merging all is best for latency because partial merges pay cross-container invocations.";
    ]

let run () =
  section "Figure 7: latency and throughput under load";
  run_mode ~async:false;
  run_mode ~async:true;
  run_7c ()
