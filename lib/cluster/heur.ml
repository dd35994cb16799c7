module Callgraph = Quilt_dag.Callgraph

let weighted_in_degree_scores (g : Callgraph.t) =
  Array.init (Callgraph.n_nodes g) (fun j -> Callgraph.weighted_in_degree g j)

let weighted_out_degree_scores (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let out = Array.make n 0.0 in
  List.iter
    (fun e -> out.(e.Callgraph.src) <- out.(e.Callgraph.src) +. float_of_int e.Callgraph.weight)
    g.Callgraph.edges;
  out

(* Brandes' betweenness centrality for unweighted directed graphs; the BFS
   runs over the precomputed adjacency index. *)
let betweenness_scores (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let bc = Array.make n 0.0 in
  for s = 0 to n - 1 do
    let stack = ref [] in
    let pred = Array.make n [] in
    let sigma = Array.make n 0.0 in
    let dist = Array.make n (-1) in
    sigma.(s) <- 1.0;
    dist.(s) <- 0;
    let queue = Queue.create () in
    Queue.add s queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      stack := v :: !stack;
      Callgraph.iter_succs g v (fun e ->
          let w = e.Callgraph.dst in
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w queue
          end;
          if dist.(w) = dist.(v) + 1 then begin
            sigma.(w) <- sigma.(w) +. sigma.(v);
            pred.(w) <- v :: pred.(w)
          end)
    done;
    let delta = Array.make n 0.0 in
    List.iter
      (fun w ->
        List.iter
          (fun v -> delta.(v) <- delta.(v) +. (sigma.(v) /. sigma.(w) *. (1.0 +. delta.(w))))
          pred.(w);
        if w <> s then bc.(w) <- bc.(w) +. delta.(w))
      !stack
  done;
  bc

(* The paper's simple baselines look only at a local property: for each k
   they take the k−1 highest-scoring vertices as THE candidate root set —
   no combinatorial exploration, no downstream-resource awareness.  This is
   what Experiment 5 compares DIH against, and why they "produce poor
   approximations" (Appendix C): neither a high in-degree nor centrality
   says anything about the resource pressure behind a vertex. *)
let solve_by_score ~scores:s ?pool_size ?k_max ?(domains = 1) ?(fallback = true)
    (g : Callgraph.t) (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  (* Root sets beyond ~12 defeat the point of a ranking heuristic (and the
     exact Phase-2 search); the default mirrors the practical ILP-size cap
     the paper worked under. *)
  let k_max =
    match k_max, pool_size with
    | Some k, _ -> k
    | None, Some p -> p + 1
    | None, None -> min n 12
  in
  let candidates = List.filter (fun j -> j <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let ranked = List.sort (fun a b -> compare s.(b) s.(a)) candidates in
  (* One root set per k, so the k values themselves are the parallel axis;
     the ordered fold below reproduces the sequential strict-improvement
     evolution exactly. *)
  let eval k =
    let roots = g.Callgraph.root :: List.filteri (fun i _ -> i < k - 1) ranked in
    if Closure.root_set_feasible g lim ~roots then Closure.solve g lim ~roots else None
  in
  let ks = List.init (min k_max n) (fun i -> i + 1) in
  let results = Quilt_util.Pool.map ~domains eval ks in
  let best = ref None in
  List.iter
    (fun sol ->
      match sol with
      | Some sol -> (
          match !best with
          | Some (b : Types.solution) when sol.Types.cost >= b.Types.cost -> ()
          | _ -> best := Some sol)
      | None -> ())
    results;
  match !best with
  | Some sol -> Some sol
  | None when not fallback -> None
  | None ->
      let all = List.init n (fun i -> i) in
      if Closure.root_set_feasible g lim ~roots:all then Closure.solve_greedy g lim ~roots:all
      else None

let solve_weighted_degree ?pool_size ?k_max ?domains ?fallback (g : Callgraph.t)
    (lim : Types.limits) =
  solve_by_score ~scores:(weighted_in_degree_scores g) ?pool_size ?k_max ?domains ?fallback g lim

let solve_betweenness ?pool_size ?k_max ?domains ?fallback (g : Callgraph.t) (lim : Types.limits) =
  solve_by_score ~scores:(betweenness_scores g) ?pool_size ?k_max ?domains ?fallback g lim
