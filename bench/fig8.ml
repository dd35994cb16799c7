(* Figure 8: the cost of Quilt's own machinery.
   (a) profiling overhead on a no-op function across loads;
   (b) time to find a good grouping vs graph size (optimal, simple
       weighted-degree heuristic, Downstream Impact);
   (c) time to compile, link, and merge the DeathStarBench workflows. *)

open Common
module Special = Quilt_apps.Special
module Deathstar = Quilt_apps.Deathstar
module Loadgen = Quilt_platform.Loadgen
module Engine = Quilt_platform.Engine
module Gen = Quilt_dag.Gen
module Types = Quilt_cluster.Types
module Decision = Quilt_cluster.Decision
module Frontend = Quilt_lang.Frontend
module Pipeline = Quilt_merge.Pipeline
module Rng = Quilt_util.Rng

(* --- 8a --- *)

let run_8a () =
  subsection "Figure 8a: cost of profiling (no-op function)";
  let wf = Special.noop () in
  let rates = if fast then [ 1.0; 10.0; 400.0 ] else [ 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 200.0; 400.0; 800.0 ] in
  (* One independent engine per load point: the simulator is deterministic
     per engine, so fanning the points out across domains (Pool.map keeps
     input order) returns exactly the sequential results. *)
  let run ~profiled =
    Pool.map ~domains:(domains ())
      (fun rate ->
        let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
        Engine.set_profiling engine profiled;
        let r =
          Loadgen.run_open_loop engine ~entry:"noop" ~gen_req:wf.Workflow.gen_req ~rate_rps:rate
            ~duration_us:12_000_000.0 ~warmup_us:2_000_000.0 ()
        in
        (rate, Loadgen.median_ms r, r.Loadgen.throughput_rps))
      rates
  in
  let off = run ~profiled:false and on = run ~profiled:true in
  Printf.printf "  %-10s %12s %12s %12s\n" "rate(rps)" "median(off)" "median(on)" "overhead";
  List.iter2
    (fun (rate, m_off, _) (_, m_on, _) ->
      Printf.printf "  %-10.0f %10.2fms %10.2fms %+11.1f%%\n" rate m_off m_on
        (100.0 *. (m_on -. m_off) /. m_off))
    off on;
  (match off with
  | (_, first, _) :: _ ->
      let last = List.nth off (List.length off - 1) in
      let _, lm, _ = last in
      Printf.printf "\n  Fission quirk reproduced: median %.2fms at %.0f rps vs %.2fms at %.0f rps\n" first
        (match List.hd off with r, _, _ -> r)
        lm
        (match last with r, _, _ -> r)
  | [] -> ());
  paper_note
    [
      "median latency of the no-op function decreases as load increases (container reuse);";
      "tracing/profiling has minimal impact (the nginx hop is collocated with the gateway).";
    ]

(* --- 8b --- *)

(* The decision-time sweep lives in the decision bench now (alongside the
   parallel-decision rows); this keeps `fig8`/`fig8b` producing the same
   table and JSON key as before. *)
let run_8b () = Decision_bench.sweep ()

(* --- 8c --- *)

(* The paper's absolute numbers are dominated by rustc compiling each
   function's dependencies (~1.5 minutes regardless of workflow size); our
   frontends take microseconds, so we report measured QIR pipeline times
   alongside a calibrated toolchain model. *)
let toolchain_model ~n_functions =
  let compile_and_link_s = 88.0 in
  let merge_s = 3.4 *. float_of_int n_functions in
  (compile_and_link_s, merge_s)

let run_8c () =
  subsection "Figure 8 (compile/link/merge time per workflow)";
  Printf.printf "  %-22s %4s %14s %12s %18s %15s\n" "workflow" "#fn" "qir-compile" "qir-merge"
    "modeled-compile" "modeled-merge";
  let wfs = Deathstar.all ~async:false () in
  List.iter
    (fun wf ->
      let fns = wf.Workflow.functions in
      let compile_t =
        median_time ~reps:(if fast then 1 else 3) (fun () ->
            List.iter (fun f -> ignore (Frontend.compile f)) fns)
      in
      let members = Workflow.fn_names wf in
      let merge_t =
        median_time ~reps:(if fast then 1 else 3) (fun () ->
            ignore
              (Pipeline.merge_group
                 ~lookup:(fun svc -> Workflow.lookup wf svc)
                 ~members ~root:wf.Workflow.entry ()))
      in
      let mc, mm = toolchain_model ~n_functions:(List.length fns) in
      Printf.printf "  %-22s %4d %12.2fms %10.2fms %16.0fs %13.0fs\n" wf.Workflow.wf_name
        (List.length fns) (compile_t *. 1000.0) (merge_t *. 1000.0) mc mm)
    wfs;
  paper_note
    [
      "compiling+linking takes ~1.5 min regardless of workflow size (dependencies dominate);";
      "merging time scales linearly with the number of functions.";
    ]

let run () =
  section "Figure 8: profiling, decision, and merging costs";
  run_8a ();
  run_8b ();
  run_8c ()
