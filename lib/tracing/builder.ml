module Callgraph = Quilt_dag.Callgraph

let build (st : Trace.store) ~entry ?(window_start = neg_infinity) () =
  (* One pass over the windowed spans: count the root invocations, number
     the vertices in first-seen order (entry first, then caller before
     callee), and count edges in a dense id × id table whose cells hold
     count × 2 + an async bit.  An edge observed with both kinds is
     asynchronous. *)
  let n = Trace.fn_count st and entry_id = Trace.fn_id st entry in
  let vertex = Array.make n (-1) and fn_of_vertex = Array.make n 0 and n_vertices = ref 0 in
  let note f =
    if vertex.(f) < 0 then begin
      vertex.(f) <- !n_vertices;
      fn_of_vertex.(!n_vertices) <- f;
      incr n_vertices
    end
  in
  if entry_id >= 0 then note entry_id;
  let cells = Array.make (n * n) 0 and n_invocations = ref 0 in
  Trace.iter_spans st ~since:window_start (fun caller code ->
      let callee = code lsr 1 in
      if caller < 0 then (if callee = entry_id then incr n_invocations)
      else begin
        note caller;
        let i = (caller * n) + callee in
        cells.(i) <- (cells.(i) + 2) lor (code land 1)
      end;
      note callee);
  if !n_invocations = 0 then Error (Printf.sprintf "no invocations of %s in the window" entry)
  else begin
    (* Resources per function: average CPU per invocation, peak memory,
       aggregated across that function's containers (§3).  Cumulative
       counters: take per-container maxima and sum.  The sum runs in
       [Hashtbl.iter] order over a table filled once per container in
       first-seen order, which fixes the float summation order. *)
    let resources f =
      match Trace.container_maxima st f ~since:window_start with
      | [] -> (1.0, 1.0)
      | maxima ->
          let by_container = Hashtbl.create 8 in
          List.iter (fun (cid, cpu, inv, mem) -> Hashtbl.replace by_container cid (cpu, inv, mem)) maxima;
          let total_cpu = ref 0.0 and total_inv = ref 0 and peak_mem = ref 0.0 in
          Hashtbl.iter
            (fun _ (cpu, inv, mem) ->
              total_cpu := !total_cpu +. cpu;
              total_inv := !total_inv + inv;
              peak_mem := Float.max !peak_mem mem)
            by_container;
          let avg_cpu_ms = if !total_inv = 0 then 0.0 else !total_cpu /. float_of_int !total_inv /. 1000.0 in
          (Float.max 0.01 avg_cpu_ms, Float.max 0.5 !peak_mem)
    in
    let nodes =
      Array.init !n_vertices (fun i ->
          let f = fn_of_vertex.(i) in
          let cpu, mem = resources f in
          { Callgraph.id = i; name = Trace.fn_name st f; mem_mb = mem; cpu; mergeable = true })
    in
    (* Edges sorted by (src, dst), for reproducibility. *)
    let edges = ref [] in
    for src = !n_vertices - 1 downto 0 do
      for dst = !n_vertices - 1 downto 0 do
        let cell = cells.((fn_of_vertex.(src) * n) + fn_of_vertex.(dst)) in
        if cell > 1 then
          edges :=
            {
              Callgraph.src;
              dst;
              weight = cell lsr 1;
              kind = (if cell land 1 = 1 then Callgraph.Async else Callgraph.Sync);
            }
            :: !edges
      done
    done;
    match Callgraph.make ~nodes ~edges:!edges ~root:0 ~invocations:!n_invocations with
    | g -> Ok g
    | exception Invalid_argument msg -> Error msg
  end

let known_calls ~code_edges (g : Callgraph.t) =
  let missing =
    List.filter_map
      (fun (c, d, kind) ->
        match Callgraph.find_node g c, Callgraph.find_node g d with
        | Some nc, Some nd ->
            let exists =
              List.exists
                (fun (e : Callgraph.edge) -> e.Callgraph.src = nc.Callgraph.id && e.Callgraph.dst = nd.Callgraph.id)
                g.Callgraph.edges
            in
            if exists then None
            else Some { Callgraph.src = nc.Callgraph.id; dst = nd.Callgraph.id; weight = 0; kind }
        | _ -> None)
      code_edges
  in
  if missing = [] then g
  else
    Callgraph.make ~nodes:g.Callgraph.nodes ~edges:(g.Callgraph.edges @ missing) ~root:g.Callgraph.root
      ~invocations:g.Callgraph.invocations
