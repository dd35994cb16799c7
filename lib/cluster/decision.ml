module Callgraph = Quilt_dag.Callgraph
module Rng = Quilt_util.Rng
module Pool = Quilt_util.Pool

type algorithm = Optimal | Dih | Weighted_degree | Grasp

let algorithm_name = function
  | Optimal -> "optimal"
  | Dih -> "downstream-impact"
  | Weighted_degree -> "weighted-degree"
  | Grasp -> "grasp"

let validated g lim sol =
  match sol with
  | None -> None
  | Some s -> (
      match Metrics.solution_valid g lim s with
      | Ok () -> Some s
      | Error msg -> failwith (Printf.sprintf "Decision.solve: invalid solution produced: %s" msg))

let solve ?(seed = 1) ?(domains = 1) algorithm (g : Callgraph.t) (lim : Types.limits) =
  let domains = max 1 domains in
  let sol =
    match algorithm with
    | Optimal -> Optimal.solve ~domains g lim
    | Dih -> Dih.solve ~domains g lim
    | Weighted_degree -> Heur.solve_weighted_degree ~domains g lim
    | Grasp -> Grasp.solve ~domains (Rng.create seed) g lim
  in
  validated g lim sol

let auto_algorithm (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  if n <= 12 then Optimal else if n <= 60 then Dih else Grasp

let auto ?(seed = 1) ?domains (g : Callgraph.t) (lim : Types.limits) =
  let domains = match domains with Some d -> d | None -> Pool.default_domains () in
  solve ~seed ~domains (auto_algorithm g) g lim
