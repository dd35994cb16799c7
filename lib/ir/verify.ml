type severity = Error | Warning

type diagnostic = {
  code : string;
  severity : severity;
  where : string;
  block : string option;
  message : string;
}

let diag ~code ?(severity = Error) ?block where fmt =
  Printf.ksprintf (fun message -> { code; severity; where; block; message }) fmt

let to_string d =
  Printf.sprintf "%s %s [%s%s] %s" d.code
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.where
    (match d.block with Some b -> ":" ^ b | None -> "")
    d.message

let ty_name = function
  | Ir.I1 -> "i1"
  | Ir.I8 -> "i8"
  | Ir.I32 -> "i32"
  | Ir.I64 -> "i64"
  | Ir.F64 -> "f64"
  | Ir.Ptr -> "ptr"
  | Ir.Void -> "void"

let is_int_ty = function
  | Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64 -> true
  | Ir.F64 | Ir.Ptr | Ir.Void -> false

(* --- Base tier: name resolution, arity, return consistency --- *)

type signature = Ir.ty list * Ir.ty

(* All the base tier asks of the rest of the module: a callee's signature
   and whether an [@name] reference resolves.  The checker records the
   answers a function's findings were computed from. *)
type resolver = {
  callee_sig : string -> signature option;
  global_defined : string -> bool;
}

let resolver (m : Ir.modul) =
  (* Memoized per-module indexes: O(1) per name probe across the many
     call-sites and global references a merged module accumulates. *)
  let fidx = Ir.func_index m in
  let gidx = Ir.global_index m in
  {
    callee_sig =
      (fun callee ->
        match fidx callee with
        | Some target -> Some (List.map snd target.Ir.params, target.Ir.ret_ty)
        | None -> Intrinsics.signature callee);
    global_defined = (fun g -> gidx g <> None || fidx g <> None);
  }

let check_func (r : resolver) (f : Ir.func) =
  let out = ref [] in
  let add d = out := d :: !out in
  let where = f.Ir.fname in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem labels b.Ir.label then
        add (diag ~code:"V001" ~block:b.Ir.label where "duplicate label %%%s" b.Ir.label);
      Hashtbl.replace labels b.Ir.label ())
    f.Ir.blocks;
  let locals = Hashtbl.create 32 in
  List.iter (fun (p, _) -> Hashtbl.replace locals p ()) f.Ir.params;
  (* First pass: collect all defined locals (QIR is unordered-SSA: a local
     may be used by a phi in an earlier block). *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match Analysis.instr_dst i with
          | Some d ->
              if Hashtbl.mem locals d then
                add (diag ~code:"V002" ~block:b.Ir.label where "local %%%s defined twice" d);
              Hashtbl.replace locals d ()
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  List.iter
    (fun (b : Ir.block) ->
      let block = b.Ir.label in
      let check_value v =
        match v with
        | Ir.Local l ->
            if not (Hashtbl.mem locals l) then
              add (diag ~code:"V003" ~block where "use of undefined local %%%s" l)
        | Ir.Const (Ir.Cglobal g) ->
            if not (r.global_defined g) then
              add (diag ~code:"V004" ~block where "reference to undefined global @%s" g)
        | Ir.Const (Ir.Cint _ | Ir.Cfloat _ | Ir.Cnull) -> ()
      in
      let check_label l =
        if not (Hashtbl.mem labels l) then
          add (diag ~code:"V009" ~block where "branch to undefined label %%%s" l)
      in
      List.iter
        (fun (i : Ir.instr) ->
          (match i with
          | Ir.Call { callee; args; ret; dst } -> (
              List.iter (fun (_, v) -> check_value v) args;
              (match r.callee_sig callee with
              | None -> add (diag ~code:"V005" ~block where "call to unknown function @%s" callee)
              | Some (ptys, rty) ->
                  if List.length ptys <> List.length args then
                    add
                      (diag ~code:"V006" ~block where "call to @%s with %d args, expected %d" callee
                         (List.length args) (List.length ptys))
                  else
                    List.iter2
                      (fun expected (got, _) ->
                        if expected <> got then
                          add
                            (diag ~code:"V007" ~block where "call to @%s argument type mismatch"
                               callee))
                      ptys args;
                  if rty <> ret then
                    add (diag ~code:"V008" ~block where "call to @%s return type mismatch" callee));
              match dst with
              | Some d when ret = Ir.Void ->
                  add
                    (diag ~code:"V013" ~block where
                       "void call to @%s must not bind a destination (%%%s)" callee d)
              | Some _ | None -> ())
          | Ir.Phi { incoming; _ } -> List.iter (fun (_, l) -> check_label l) incoming
          | Ir.Binop _ | Ir.Icmp _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _ | Ir.Gep _ | Ir.Select _
            ->
              ());
          match i with
          | Ir.Call _ -> () (* args checked above *)
          | _ -> List.iter check_value (Analysis.instr_operands i))
        b.Ir.instrs;
      (match b.Ir.term with
      | Ir.Ret None ->
          if f.Ir.ret_ty <> Ir.Void then
            add (diag ~code:"V010" ~block where "ret void in %s function" (ty_name f.Ir.ret_ty))
      | Ir.Ret (Some (ty, v)) ->
          check_value v;
          if f.Ir.ret_ty = Ir.Void then
            add (diag ~code:"V010" ~block where "ret with a value in void function")
          else if ty <> f.Ir.ret_ty then
            add
              (diag ~code:"V010" ~block where "ret type %s, function returns %s" (ty_name ty)
                 (ty_name f.Ir.ret_ty))
      | Ir.Br l -> check_label l
      | Ir.Cbr { cond; if_true; if_false } ->
          check_value cond;
          check_label if_true;
          check_label if_false
      | Ir.Unreachable -> ());
      ())
    f.Ir.blocks;
  (match f.Ir.blocks with
  | { Ir.label = "entry"; _ } :: _ | [] -> ()
  | { Ir.label = l; _ } :: _ ->
      add (diag ~code:"V011" ~block:l where "first block must be entry, found %%%s" l));
  List.rev !out

(* --- Strict tier: dominance, typing, CFG/phi agreement, lints --- *)

let check_func_strict (f : Ir.func) =
  if Ir.is_declaration f then []
  else begin
    let cfg = Analysis.cfg_of_func f in
    let idom = Analysis.dominators cfg in
    let defs = Analysis.def_sites cfg in
    let types = Analysis.local_types f in
    let out = ref [] in
    let add d = out := d :: !out in
    let where = f.Ir.fname in
    let ty_of v = Analysis.type_of_value types v in
    (* [expect ~code ~block what ty v]: operand [v] must type as [ty] when
       its type is known at all (undefined locals are the base tier's
       V003, not re-reported here).  [mistyped] is the test alone, for
       callers whose [what] is built per operand: they format it only for
       a finding. *)
    let mistyped ty v =
      match ty_of v with Some got when got <> ty -> Some got | Some _ | None -> None
    in
    let report_mistyped ~code ~block what ty got =
      add (diag ~code ~block where "%s must be %s, got %s" what (ty_name ty) (ty_name got))
    in
    let expect ~code ~block what ty v =
      match mistyped ty v with
      | Some got -> report_mistyped ~code ~block what ty got
      | None -> ()
    in
    let expect_int ~code ~block what v =
      match ty_of v with
      | Some got when not (is_int_ty got) ->
          add (diag ~code ~block where "%s must be an integer, got %s" what (ty_name got))
      | Some _ | None -> ()
    in
    (* A definition dominates a use at instruction [ii] of block [bi]
       (ii = max_int for the terminator).  Phis define at the top of their
       block (index -1) and bind before the instruction loop runs. *)
    let def_dominates_point l ~bi ~ii =
      match Hashtbl.find_opt defs l with
      | Some Analysis.Def_param | None -> true
      | Some (Analysis.Def_instr { block = db; index = di }) ->
          if db = bi then di < ii else Analysis.dominates ~idom db bi
    in
    let def_dominates_block_end l ~bi =
      match Hashtbl.find_opt defs l with
      | Some Analysis.Def_param | None -> true
      | Some (Analysis.Def_instr { block = db; _ }) ->
          db = bi || Analysis.dominates ~idom db bi
    in
    Array.iteri
      (fun bi (b : Ir.block) ->
        let block = b.Ir.label in
        if not cfg.Analysis.reachable.(bi) then
          add
            (diag ~code:"W001" ~severity:Warning ~block where "block %%%s is unreachable" block)
        else begin
          (* S001: every use dominated by its definition. *)
          let check_use ~ii v =
            match v with
            | Ir.Local l ->
                if not (def_dominates_point l ~bi ~ii) then
                  add
                    (diag ~code:"S001" ~block where "use of %%%s is not dominated by its definition"
                       l)
            | Ir.Const _ -> ()
          in
          List.iteri
            (fun ii (i : Ir.instr) ->
              match i with
              | Ir.Phi { incoming; _ } ->
                  List.iter
                    (fun (v, l) ->
                      match v with
                      | Ir.Local x -> (
                          match Analysis.block_index cfg l with
                          | Some p when List.mem p cfg.Analysis.preds.(bi) ->
                              if not (def_dominates_block_end x ~bi:p) then
                                add
                                  (diag ~code:"S001" ~block where
                                     "phi source %%%s does not dominate the end of %%%s" x l)
                          | Some _ | None -> () (* stray incoming: S007 below *))
                      | Ir.Const _ -> ())
                    incoming
              | _ -> List.iter (check_use ~ii) (Analysis.instr_operands i))
            b.Ir.instrs;
          List.iter (check_use ~ii:max_int) (Analysis.term_operands b.Ir.term)
        end;
        List.iter
          (fun (i : Ir.instr) ->
            match i with
            | Ir.Binop { op; ty; lhs; rhs; _ } -> (
                match ty with
                | Ir.F64 ->
                    (match op with
                    | Ir.Add | Ir.Sub | Ir.Mul | Ir.Sdiv -> ()
                    | Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr ->
                        add (diag ~code:"S002" ~block where "bitwise/rem binop on f64"));
                    expect ~code:"S002" ~block "binop lhs" Ir.F64 lhs;
                    expect ~code:"S002" ~block "binop rhs" Ir.F64 rhs
                | Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64 ->
                    expect ~code:"S002" ~block "binop lhs" ty lhs;
                    expect ~code:"S002" ~block "binop rhs" ty rhs
                | Ir.Ptr | Ir.Void ->
                    add (diag ~code:"S002" ~block where "binop at type %s" (ty_name ty)))
            | Ir.Icmp { ty; lhs; rhs; _ } ->
                if ty = Ir.Void then add (diag ~code:"S003" ~block where "icmp at type void");
                expect ~code:"S003" ~block "icmp lhs" ty lhs;
                expect ~code:"S003" ~block "icmp rhs" ty rhs
            | Ir.Select { ty; cond; if_true; if_false; _ } ->
                if ty = Ir.Void then add (diag ~code:"S004" ~block where "select at type void");
                expect ~code:"S004" ~block "select condition" Ir.I1 cond;
                expect ~code:"S004" ~block "select true arm" ty if_true;
                expect ~code:"S004" ~block "select false arm" ty if_false
            | Ir.Phi { ty; incoming; _ } ->
                if ty = Ir.Void then add (diag ~code:"S005" ~block where "phi at type void");
                List.iter
                  (fun (v, l) ->
                    match mistyped ty v with
                    | Some got ->
                        report_mistyped ~code:"S005" ~block
                          (Printf.sprintf "phi incoming from %%%s" l)
                          ty got
                    | None -> ())
                  incoming
            | Ir.Load { ty; ptr; _ } ->
                if ty = Ir.Void then add (diag ~code:"S006" ~block where "load at type void");
                expect ~code:"S006" ~block "load pointer" Ir.Ptr ptr
            | Ir.Store { ty; src; ptr } ->
                if ty = Ir.Void then add (diag ~code:"S006" ~block where "store at type void");
                expect ~code:"S006" ~block "store source" ty src;
                expect ~code:"S006" ~block "store pointer" Ir.Ptr ptr
            | Ir.Alloca { bytes; _ } -> expect_int ~code:"S006" ~block "alloca size" bytes
            | Ir.Gep { base; offset; _ } ->
                expect ~code:"S006" ~block "gep base" Ir.Ptr base;
                expect_int ~code:"S006" ~block "gep offset" offset
            | Ir.Call { callee; args; _ } ->
                List.iter
                  (fun (ty, v) ->
                    match mistyped ty v with
                    | Some got ->
                        report_mistyped ~code:"S009" ~block
                          (Printf.sprintf "argument to @%s declared %s" callee (ty_name ty))
                          ty got
                    | None -> ())
                  args)
          b.Ir.instrs;
        (match b.Ir.term with
        | Ir.Ret (Some (ty, v)) when ty <> Ir.Void -> expect ~code:"S009" ~block "ret operand" ty v
        | Ir.Ret _ | Ir.Br _ | Ir.Unreachable -> ()
        | Ir.Cbr { cond; _ } -> expect ~code:"S009" ~block "cbr condition" Ir.I1 cond);
        (* S007 / S008: phi placement agrees with the CFG. *)
        let phis =
          List.filter_map
            (fun i -> match i with Ir.Phi { dst; incoming; _ } -> Some (dst, incoming) | _ -> None)
            b.Ir.instrs
        in
        if bi = 0 then begin
          match phis with
          | (dst, _) :: _ ->
              add (diag ~code:"S008" ~block where "phi %%%s in entry block" dst)
          | [] -> ()
        end
        else if cfg.Analysis.reachable.(bi) && phis <> [] then begin
          let pred_labels =
            List.sort_uniq String.compare
              (List.map (fun p -> cfg.Analysis.blocks.(p).Ir.label) cfg.Analysis.preds.(bi))
          in
          List.iter
            (fun (dst, incoming) ->
              let inc_labels = List.sort_uniq String.compare (List.map snd incoming) in
              if inc_labels <> pred_labels then
                add
                  (diag ~code:"S007" ~block where
                     "phi %%%s incomings {%s} disagree with predecessors {%s}" dst
                     (String.concat ", " inc_labels)
                     (String.concat ", " pred_labels)))
            phis
        end)
      cfg.Analysis.blocks;
    (* W002: stores into slots that are never read. *)
    let dead_slots = Analysis.write_only_slots f in
    if not (Analysis.SS.is_empty dead_slots) then
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              match i with
              | Ir.Store { ptr = Ir.Local p; _ } when Analysis.SS.mem p dead_slots ->
                  add
                    (diag ~code:"W002" ~severity:Warning ~block:b.Ir.label where
                       "store to %%%s, a slot that is never read" p)
              | _ -> ())
            b.Ir.instrs)
        cfg.Analysis.blocks;
    List.rev !out
  end

(* --- Merge-interference analyzer --- *)

let member_of fname =
  let try_suffix suf =
    let n = String.length fname and k = String.length suf in
    if n > k && String.sub fname (n - k) k = suf then Some (String.sub fname 0 (n - k)) else None
  in
  match try_suffix "__handler" with Some m -> Some m | None -> try_suffix "__local"

let interference (m : Ir.modul) =
  let out = ref [] in
  let add d = out := d :: !out in
  (* M001: a name bound in both namespaces makes @name ambiguous. *)
  let fnames = Hashtbl.create 64 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace fnames f.Ir.fname ()) m.Ir.funcs;
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem fnames g.Ir.gname then
        add (diag ~code:"M001" "module" "@%s is both a function and a global" g.Ir.gname))
    m.Ir.globals;
  (* M002: a mutable global written by two or more members. *)
  let gidx = Ir.global_index m in
  let writers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      match member_of f.Ir.fname with
      | None -> ()
      | Some member ->
          List.iter
            (fun (b : Ir.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Ir.Store { ptr = Ir.Const (Ir.Cglobal g); _ } -> (
                      match gidx g with
                      | Some gl when not gl.Ir.gconst ->
                          let seen = Option.value ~default:[] (Hashtbl.find_opt writers g) in
                          if not (List.mem member seen) then
                            Hashtbl.replace writers g (member :: seen)
                      | Some _ | None -> ())
                  | _ -> ())
                b.Ir.instrs)
            f.Ir.blocks)
    m.Ir.funcs;
  Hashtbl.iter
    (fun g members ->
      if List.length members > 1 then
        add
          (diag ~code:"M002" ~severity:Warning "module" "global @%s is written by members %s" g
             (String.concat ", " (List.sort String.compare members))))
    writers;
  (* M003: cross-language call sites whose declared types disagree with
     the callee — a broken ABI shim. *)
  let fidx = Ir.func_index m in
  List.iter
    (fun (f : Ir.func) ->
      match f.Ir.lang with
      | None -> ()
      | Some caller_lang ->
          List.iter
            (fun (b : Ir.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Ir.Call { callee; args; ret; _ } -> (
                      match fidx callee with
                      | Some target -> (
                          match target.Ir.lang with
                          | Some callee_lang when callee_lang <> caller_lang ->
                              let ptys = List.map snd target.Ir.params in
                              if
                                List.length ptys <> List.length args
                                || List.exists2 (fun p (a, _) -> p <> a) ptys args
                                || ret <> target.Ir.ret_ty
                              then
                                add
                                  (diag ~code:"M003" ~block:b.Ir.label f.Ir.fname
                                     "%s -> %s call to @%s crosses an ABI boundary with \
                                      mismatched types"
                                     caller_lang callee_lang callee)
                          | Some _ | None -> ())
                      | None -> ())
                  | _ -> ())
                b.Ir.instrs)
            f.Ir.blocks)
    m.Ir.funcs;
  List.rev !out

(* --- Entry points --- *)

(* V012: module-level, so it runs in full on every call. *)
let module_diags (m : Ir.modul) =
  let out = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      if Hashtbl.mem seen f.Ir.fname then
        out := diag ~code:"V012" "module" "duplicate symbol @%s" f.Ir.fname :: !out;
      Hashtbl.replace seen f.Ir.fname ())
    m.Ir.funcs;
  let gseen = Hashtbl.create 64 in
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem gseen g.Ir.gname then
        out := diag ~code:"V012" "module" "duplicate global @%s" g.Ir.gname :: !out;
      Hashtbl.replace gseen g.Ir.gname ())
    m.Ir.globals;
  List.rev !out

let run ?(strict = false) (m : Ir.modul) =
  let r = resolver m in
  module_diags m
  @ List.concat_map (fun f -> check_func r f @ if strict then check_func_strict f else []) m.Ir.funcs

let errors diags = List.filter (fun d -> d.severity = Error) diags

let fail_on ?stage = function
  | [] -> ()
  | diags ->
      let msgs = List.map to_string diags in
      let prefix = match stage with None -> "Verify" | Some s -> "Verify[" ^ s ^ "]" in
      failwith (prefix ^ ": " ^ String.concat "; " msgs)

let check_exn ?strict ?stage m = fail_on ?stage (errors (run ?strict m))

(* --- Incremental strict checking ---

   One memo entry per function name, valid for one physical function
   value.  The strict tier reads nothing but the function, so its errors
   are reused as they are.  The base tier also reads the module through
   the resolver; an entry keeps every answer it got, and is reused only
   while the current module gives the same answers. *)

type entry = {
  func : Ir.func;
  strict_errors : diagnostic list;
  base_errors : diagnostic list;
  sigs : (string * signature option) list;  (** Each callee, as resolved. *)
  globals : (string * bool) list;  (** Each [@name] reference, resolved or not. *)
}

type checker = {
  memo : (string, entry) Hashtbl.t;
  mutable checked : int;
  mutable reused : int;
}

let checker () = { memo = Hashtbl.create 64; checked = 0; reused = 0 }

let counts c = (c.checked, c.reused)

(* The base tier run through [r], returning its errors with the answers
   [r] gave, each name once. *)
let check_func_recorded (r : resolver) f =
  let sigs = Hashtbl.create 8 and globals = Hashtbl.create 8 in
  let record tbl lookup name =
    let v = lookup name in
    if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name v;
    v
  in
  let base =
    check_func
      {
        callee_sig = record sigs r.callee_sig;
        global_defined = record globals r.global_defined;
      }
      f
  in
  let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (errors base, bindings sigs, bindings globals)

let resolves_as (r : resolver) e =
  List.for_all (fun (c, s) -> r.callee_sig c = s) e.sigs
  && List.for_all (fun (g, b) -> r.global_defined g = b) e.globals

let check c ~stage m =
  let r = resolver m in
  let func_errors (f : Ir.func) =
    match Hashtbl.find_opt c.memo f.Ir.fname with
    | Some e when e.func == f && resolves_as r e ->
        c.reused <- c.reused + 1;
        e.base_errors @ e.strict_errors
    | cached ->
        c.checked <- c.checked + 1;
        let base_errors, sigs, globals = check_func_recorded r f in
        let strict_errors =
          match cached with
          | Some e when e.func == f -> e.strict_errors
          | Some _ | None -> errors (check_func_strict f)
        in
        Hashtbl.replace c.memo f.Ir.fname { func = f; strict_errors; base_errors; sigs; globals };
        base_errors @ strict_errors
  in
  let module_errors = errors (module_diags m) in
  fail_on ~stage (module_errors @ List.concat_map func_errors m.Ir.funcs)
