(* Figure 9: quality of the merging decisions on random rDAGs.
   (a) optimality gap of Downstream Impact vs the simple weighted-degree
       heuristic (gap = (Cost_H - Cost_O) / (Cost_B - Cost_O));
   (b) ratio of non-local calls, weighted-degree / Downstream Impact.

   The paper runs the exact algorithm on graphs up to 25 vertices with
   Gurobi; our exact sweep is practical to ~12 vertices, so the gap columns
   stop there and the heuristic-vs-heuristic ratio continues to 25
   (documented substitution, see EXPERIMENTS.md). *)

open Common
module Gen = Quilt_dag.Gen
module Types = Quilt_cluster.Types
module Decision = Quilt_cluster.Decision
module Metrics = Quilt_cluster.Metrics
module Stats = Quilt_util.Stats
module Rng = Quilt_util.Rng

let cost_of = function Some (s : Types.solution) -> Some s.Types.cost | None -> None

let run () =
  section "Figure 9: quality of merging decisions (random rDAGs, |E| = 1.2|V|, 10% async, skewed weights)";
  let sizes_reps = if fast then [ (5, 10); (8, 10); (12, 5); (20, 5) ] else [ (5, 100); (8, 100); (10, 60); (12, 30); (15, 30); (20, 30); (25, 30) ] in
  Printf.printf "  %-5s %6s %16s %16s %20s\n" "|V|" "reps" "gap(DIH)" "gap(w-degree)" "non-local ratio wd/dih";
  List.iter
    (fun (n, reps) ->
      (* Each repetition is seeded independently, so the inner loop fans out
         across domains; the per-rep results come back in rep order and are
         folded exactly like the old sequential accumulation, keeping the
         aggregate statistics bit-identical. *)
      let per_rep =
        Pool.map ~domains:(domains ())
          (fun rep ->
            let rng = Rng.create ((n * 7919) + rep) in
            let g, lims = Gen.random_rdag rng ~n ~heavy_fraction:0.15 () in
            let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
            (* Both heuristics run under the practical ILP-size cap the paper
               faced: root sets of at most 6; a heuristic that finds nothing
               feasible there scores as "no merge" (baseline cost). *)
            let cost_b = Metrics.baseline_cost g in
            let with_default o = Some (match o with Some c -> c | None -> cost_b) in
            let dih =
              with_default (cost_of (Quilt_cluster.Dih.solve ~k_max:6 ~fallback:false g lim))
            in
            let wd =
              with_default
                (cost_of (Quilt_cluster.Heur.solve_weighted_degree ~k_max:6 ~fallback:false g lim))
            in
            let opt = if n <= 12 then cost_of (Decision.solve Decision.Optimal g lim) else None in
            let gaps =
              match dih, wd, opt with
              | Some h, Some w, Some o ->
                  Some
                    ( Metrics.optimality_gap ~cost_h:h ~cost_o:o ~cost_b,
                      Metrics.optimality_gap ~cost_h:w ~cost_o:o ~cost_b )
              | _ -> None
            in
            let ratio =
              match dih, wd with
              | Some h, Some w ->
                  (* Non-local calls; +1 avoids 0/0 when both are perfect. *)
                  Some (float_of_int (w + 1) /. float_of_int (h + 1))
              | _ -> None
            in
            (gaps, ratio))
          (List.init reps (fun i -> i + 1))
      in
      let gaps_dih = ref [] and gaps_wd = ref [] and ratios = ref [] in
      List.iter
        (fun (gaps, ratio) ->
          (match gaps with
          | Some (gd, gw) ->
              gaps_dih := gd :: !gaps_dih;
              gaps_wd := gw :: !gaps_wd
          | None -> ());
          match ratio with Some r -> ratios := r :: !ratios | None -> ())
        per_rep;
      let show_gap l =
        if l = [] then "        -   "
        else Printf.sprintf "%6.4f±%5.3f" (Stats.median l) (Stats.stdev l)
      in
      Printf.printf "  %-5d %6d %16s %16s %17.2fx\n" n reps (show_gap !gaps_dih) (show_gap !gaps_wd)
        (Stats.median !ratios))
    sizes_reps;
  paper_note
    [
      "DIH solutions are optimal or near-optimal (gap 0.0394 at 25 nodes);";
      "the simple weighted-degree heuristic is far worse — up to hundreds of times more";
      "non-local calls than DIH on random graphs.";
    ]
