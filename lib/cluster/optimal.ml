module Callgraph = Quilt_dag.Callgraph
module Pool = Quilt_util.Pool

(* Root-set sweep: subsets are evaluated in chunks fanned over the Domain
   pool (in the calling domain when [domains = 1]), every per-subset exact
   search shares one incumbent (costs found on any root set prune all the
   others), and the chunk results are folded in enumeration order with a
   strict-improvement rule.  The incumbent never drops below the global
   optimum C*, each pruned-to-[None] subset is one whose own optimum could
   not have improved the final best, and the first subset achieving C* in
   enumeration order always survives the inclusive bound — so the returned
   solution is the first optimum in enumeration order, the same one an
   unbounded sweep over {!Closure.solve_exact} finds. *)
let solve ?(domains = 1) (g : Callgraph.t) (lim : Types.limits) =
  let domains = max 1 domains in
  let n = Callgraph.n_nodes g in
  let non_roots = List.filter (fun v -> v <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let incumbent = Atomic.make max_int in
  let best = ref None in
  let cost_zero () = match !best with Some b -> b.Types.cost = 0 | None -> false in
  let chunk_size = max 8 (32 * domains) in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take i acc = function
          | x :: rest when i < chunk_size -> take (i + 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let c, rest = take 0 [] l in
        c :: chunks rest
  in
  (try
     for k = 1 to n do
       List.iter
         (fun chunk ->
           let results =
             Pool.map ~domains
               (fun extra ->
                 let roots = g.Callgraph.root :: extra in
                 if Closure.root_set_feasible g lim ~roots then
                   Closure.solve_exact_par ~domains:1 ~incumbent g lim ~roots
                 else None)
               chunk
           in
           List.iter
             (fun sol ->
               match sol with
               | None -> ()
               | Some sol -> (
                   match !best with
                   | Some b when sol.Types.cost >= b.Types.cost -> ()
                   | _ -> best := Some sol))
             results;
           (* A zero-cost grouping cannot be improved. *)
           if cost_zero () then raise Exit)
         (chunks (Sweep.combinations non_roots (k - 1)))
     done
   with Exit -> ());
  !best
