let rec combinations items size =
  if size = 0 then [ [] ]
  else
    match items with
    | [] -> []
    | x :: rest ->
        let with_x = List.map (fun c -> x :: c) (combinations rest (size - 1)) in
        let without_x = combinations rest size in
        with_x @ without_x

(* Consecutive values of k without improvement before the sweep stops. *)
let patience = 2

let solve_over_pool ?k_max ?(domains = 1) (g : Quilt_dag.Callgraph.t) (lim : Types.limits) ~pool =
  let k_max =
    match k_max with Some k -> k | None -> List.length pool + 1
  in
  (* Each k's subsets are evaluated on up to [domains] domains and their
     in-cap exact searches share one incumbent bound.  The results are
     folded in enumeration order with a strict-improvement rule, so the
     best solution, the per-k improvement flag, and hence the
     patience-based stopping point do not depend on [domains]: a subset
     the bound prunes to [None] could not have improved the best
     (greedy-dispatched subsets ignore the bound entirely). *)
  let incumbent = Atomic.make max_int in
  let best = ref None in
  let stale = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k <= k_max do
    let improved = ref false in
    let subsets = combinations pool (!k - 1) in
    let eval extra =
      let roots = g.Quilt_dag.Callgraph.root :: extra in
      if Closure.root_set_feasible g lim ~roots then Closure.solve ~incumbent g lim ~roots
      else None
    in
    let results = Quilt_util.Pool.map ~domains eval subsets in
    List.iter
      (fun sol ->
        match sol with
        | None -> ()
        | Some sol -> (
            match !best with
            | Some b when sol.Types.cost >= b.Types.cost -> ()
            | _ ->
                best := Some sol;
                improved := true))
      results;
    if !improved then stale := 0
    else begin
      incr stale;
      (* Only give up early once a feasible grouping exists. *)
      if !best <> None && !stale >= patience then continue := false
    end;
    incr k
  done;
  !best
