(* Benchmark harness: one section per table/figure of the paper's
   evaluation.  Run everything with `dune exec bench/main.exe`, or a single
   experiment with e.g. `dune exec bench/main.exe -- fig7`.  Set
   QUILT_BENCH_FAST=1 for a quick pass. *)

let experiments =
  [
    ("fig6", Fig6.run, "workflow latency, baseline vs Quilt (Figure 6)");
    ("fig7", Fig7.run, "latency/throughput vs load, incl. CM and 7c (Figure 7)");
    ("fig8", Fig8.run, "profiling, decision and merging costs (Figure 8)");
    ("fig8b", Fig8.run_8b, "decision-time sweep only (alias for the decision bench's sweep)");
    ( "decision",
      Decision_bench.run,
      "decision time: sweep, parallel exact, incremental (writes BENCH_decision.json)" );
    ("fig9", Fig9.run, "decision quality on random rDAGs (Figure 9)");
    ("fig10", Fig10.run, "conditional invocations under fan-out (Figure 10)");
    ("table_e", Table_e.run, "binary sizes (Appendix E)");
    ("figA", Fig_a.run, "more subgraphs can cost less (Appendix A)");
    ("adaptive", Adaptive.run, "online control plane: drift, re-merge, canary (writes BENCH_adaptive.json)");
    ("fault", Fault.run, "fault injection: availability/goodput under chaos (writes BENCH_fault.json)");
    ("micro", Micro.run, "bechamel micro-benchmarks of the core algorithms");
    ("ir", Ir_bench.run, "tree-walker vs QVM compiled engine (writes BENCH_ir.json)");
    ("engine", Engine_bench.run, "timer-wheel vs seed-heap simulator throughput + merge cache (writes BENCH_engine.json)");
    ("place", Place.run, "flat vs topology-aware placement + joint merge decision (writes BENCH_place.json)");
    ("obs", Obs_bench.run, "span-recorder overhead + live-profiler decision fidelity (writes BENCH_obs.json)");
  ]

let usage () =
  print_endline "usage: bench/main.exe [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, _, descr) -> Printf.printf "  %-8s %s\n" name descr) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    (* --smoke shrinks the adaptive and fault scenarios without flipping
       the whole harness into QUILT_BENCH_FAST mode. *)
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          Adaptive.smoke_flag := true;
          Fault.smoke_flag := true;
          Ir_bench.smoke_flag := true;
          Engine_bench.smoke_flag := true;
          Place.smoke_flag := true;
          Obs_bench.smoke_flag := true;
          Decision_bench.smoke_flag := true;
          false
        end
        else true)
      args
  in
  (* --seed N: reproducible-but-different fault/chaos runs. *)
  let rec strip_seed = function
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> Fault.seed_ref := s
        | None ->
            Printf.eprintf "--seed expects an integer, got %S\n" n;
            exit 1);
        strip_seed rest
    | a :: rest -> a :: strip_seed rest
    | [] -> []
  in
  let args = strip_seed args in
  (* --domains N: the domain count for every fan-out and decision in the
     harness; also caps the decision bench's domain sweep at {1, N}. *)
  let rec strip_domains = function
    | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> Common.domains_override := Some d
        | Some _ | None ->
            Printf.eprintf "--domains expects an integer >= 1, got %S\n" n;
            exit 1);
        strip_domains rest
    | a :: rest -> a :: strip_domains rest
    | [] -> []
  in
  let args = strip_domains args in
  match args with
  | [ "--help" ] | [ "help" ] -> usage ()
  | [] ->
      Printf.printf "Quilt benchmark harness (all experiments%s)\n"
        (if Common.fast then ", fast mode" else "");
      List.iter (fun (_, run, _) -> run ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some (_, run, _) -> run ()
          | None ->
              Printf.printf "unknown experiment %s\n" name;
              usage ();
              exit 1)
        names
