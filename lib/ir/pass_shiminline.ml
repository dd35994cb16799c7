(* ABI-shim inlining.  MergeFunc's caller2c_* / c2callee_* forwarders are
   single-block call chains; inlining them splices the exact same
   instructions into the caller, so only the call/return dispatch (one VM
   step and one frame per level) disappears.  The orphaned shim bodies are
   left for the symbol-level DCE.  Conservative on purpose: a site is only
   expanded when the target is a known shim shape, and anything surprising
   (phi, alloca, arity mismatch, ret/dst disagreement) leaves the call
   untouched. *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_shim name = has_prefix "caller2c_" name || has_prefix "c2callee_" name

(* Generous against the generated 3-instruction bodies; bounds growth when
   a shim has itself absorbed its inner shim in an earlier round. *)
let inline_limit = 8

(* Shims eligible for inlining this round: a single straight-line block of
   non-phi, non-alloca instructions ending in [ret]. *)
let inlinable_table (m : Ir.modul) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      if is_shim f.Ir.fname && not (Ir.is_declaration f) then
        match f.Ir.blocks with
        | [ b ]
          when List.length b.Ir.instrs <= inline_limit
               && List.for_all
                    (function Ir.Phi _ | Ir.Alloca _ -> false | _ -> true)
                    b.Ir.instrs -> (
            match b.Ir.term with Ir.Ret _ -> Hashtbl.replace tbl f.Ir.fname (f, b) | _ -> ())
        | _ -> ())
    m.Ir.funcs;
  tbl

let map_instr ~dst ~v (i : Ir.instr) =
  match i with
  | Ir.Binop b -> Ir.Binop { b with dst = dst b.dst; lhs = v b.lhs; rhs = v b.rhs }
  | Ir.Icmp c -> Ir.Icmp { c with dst = dst c.dst; lhs = v c.lhs; rhs = v c.rhs }
  | Ir.Call c ->
      Ir.Call { c with dst = Option.map dst c.dst; args = List.map (fun (ty, a) -> (ty, v a)) c.args }
  | Ir.Alloca a -> Ir.Alloca { dst = dst a.dst; bytes = v a.bytes }
  | Ir.Load l -> Ir.Load { l with dst = dst l.dst; ptr = v l.ptr }
  | Ir.Store s -> Ir.Store { s with src = v s.src; ptr = v s.ptr }
  | Ir.Gep g -> Ir.Gep { dst = dst g.dst; base = v g.base; offset = v g.offset }
  | Ir.Phi p ->
      Ir.Phi { p with dst = dst p.dst; incoming = List.map (fun (x, l) -> (v x, l)) p.incoming }
  | Ir.Select s ->
      Ir.Select { s with dst = dst s.dst; cond = v s.cond; if_true = v s.if_true; if_false = v s.if_false }

(* Instantiate a shim body at one call site: parameters become the argument
   values, body locals get site-unique [inl.<k>.] names.  Returns the
   renamed instructions and the renamed return value (None for [ret void]). *)
let splice ~site ~(shim : Ir.func) ~(body : Ir.block) ~args =
  let env = Hashtbl.create 8 in
  List.iter2 (fun (p, _) (_, a) -> Hashtbl.replace env p a) shim.Ir.params args;
  List.iter
    (fun i ->
      match Analysis.instr_dst i with
      | Some d -> Hashtbl.replace env d (Ir.Local (Printf.sprintf "inl.%d.%s" site d))
      | None -> ())
    body.Ir.instrs;
  let v = function
    | Ir.Local x as orig -> ( match Hashtbl.find_opt env x with Some v' -> v' | None -> orig)
    | Ir.Const _ as c -> c
  in
  let dst d = match Hashtbl.find_opt env d with Some (Ir.Local d') -> d' | _ -> d in
  let instrs = List.map (map_instr ~dst ~v) body.Ir.instrs in
  let ret = match body.Ir.term with Ir.Ret (Some (_, rv)) -> Some (v rv) | _ -> None in
  (instrs, ret)

(* Call destinations of inlined sites are renamed away; all their uses are
   redirected through this substitution, chains resolved transitively. *)
let resolver subst =
  let rec resolve ?(seen = []) v =
    match v with
    | Ir.Const _ -> v
    | Ir.Local l when List.mem l seen -> v
    | Ir.Local l -> (
        match Hashtbl.find_opt subst l with
        | Some v' -> resolve ~seen:(l :: seen) v'
        | None -> v)
  in
  resolve ?seen:None

let inline_into tbl (f : Ir.func) =
  (* Site counter starts past any [inl.<k>.] names already present, so the
     pass stays collision-free if ever run twice. *)
  let site = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match Analysis.instr_dst i with
          | Some d when has_prefix "inl." d -> (
              match String.split_on_char '.' d with
              | _ :: k :: _ -> (
                  match int_of_string_opt k with
                  | Some k -> site := max !site (k + 1)
                  | None -> ())
              | _ -> ())
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  let subst = Hashtbl.create 8 in
  let expanded = ref false in
  let expand (i : Ir.instr) =
    match i with
    | Ir.Call { dst; ret = _; callee; args } when callee <> f.Ir.fname -> (
        match Hashtbl.find_opt tbl callee with
        | Some ((shim : Ir.func), body) when List.length shim.Ir.params = List.length args -> (
            let k = !site in
            incr site;
            let instrs, rv = splice ~site:k ~shim ~body ~args in
            match (dst, rv) with
            | Some d, Some rv ->
                Hashtbl.replace subst d rv;
                expanded := true;
                instrs
            | None, _ ->
                expanded := true;
                instrs
            | Some _, None ->
                (* Value expected from a void shim: leave the site alone and
                   let the verifier complain. *)
                decr site;
                [ i ])
        | _ -> [ i ])
    | _ -> [ i ]
  in
  let blocks = List.map (fun b -> { b with Ir.instrs = List.concat_map expand b.Ir.instrs }) f.Ir.blocks in
  if not !expanded then f
  else if Hashtbl.length subst = 0 then { f with Ir.blocks }
  else begin
    let resolve = resolver subst in
    let rw_instr = map_instr ~dst:(fun d -> d) ~v:resolve in
    let rw_term = function
      | Ir.Ret (Some (ty, v)) -> Ir.Ret (Some (ty, resolve v))
      | Ir.Cbr c -> Ir.Cbr { c with cond = resolve c.cond }
      | (Ir.Ret None | Ir.Br _ | Ir.Unreachable) as t -> t
    in
    let blocks =
      List.map
        (fun (b : Ir.block) ->
          { b with Ir.instrs = List.map rw_instr b.Ir.instrs; term = rw_term b.Ir.term })
        blocks
    in
    { f with Ir.blocks }
  end

let run (m : Ir.modul) =
  (* A caller2c body itself calls c2callee, so flattening a whole chain
     takes one extra round; the budget is slack over the generated depth. *)
  let rec go m round =
    if round >= 5 then m
    else begin
      let tbl = inlinable_table m in
      if Hashtbl.length tbl = 0 then m
      else begin
        (* Functions without a site come back physically, so an
           unchanged module is the input itself. *)
        let m' = Ir.map_funcs (fun f -> if Ir.is_declaration f then f else inline_into tbl f) m in
        if m' != m then go m' (round + 1) else m'
      end
    end
  in
  go m 0
