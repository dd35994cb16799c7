(* Tests for the static-analysis framework (lib/ir/analysis.ml) and its
   three consumers: the strict verifier tier (one minimal ill-formed
   module per diagnostic code), the analysis-driven optimization passes,
   and the merge-interference analyzer. *)

open Quilt_ir
module Rng = Quilt_util.Rng

let parse = Parser.parse_module

let func m name =
  match Ir.find_func m name with
  | Some f -> f
  | None -> Alcotest.failf "function @%s missing" name

let diag_codes ?(strict = true) src =
  List.map (fun d -> d.Verify.code) (Verify.run ~strict (parse src))

let check_code ~code src =
  let got = diag_codes src in
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got: %s)" code (String.concat "," got))
    true (List.mem code got)

(* --- CFG and dominators --- *)

let loop_func_text =
  {|
module "loopy"
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  cbr i1 %c, label %body, label %exit
body:
  %i2 = add i64 %i, 1
  br label %head
exit:
  ret i64 %i
}
|}

let test_dominators () =
  let cfg = Analysis.cfg_of_func (func (parse loop_func_text) "f") in
  let idx l = Option.get (Analysis.block_index cfg l) in
  let idom = Analysis.dominators cfg in
  let entry, head, body, exit_ = (idx "entry", idx "head", idx "body", idx "exit") in
  Alcotest.(check int) "idom entry = entry" entry idom.(entry);
  Alcotest.(check int) "idom head = entry" entry idom.(head);
  Alcotest.(check int) "idom body = head" head idom.(body);
  Alcotest.(check int) "idom exit = head" head idom.(exit_);
  Alcotest.(check bool) "head dominates body" true (Analysis.dominates ~idom head body);
  Alcotest.(check bool) "head dominates exit" true (Analysis.dominates ~idom head exit_);
  Alcotest.(check bool) "body does not dominate exit" false (Analysis.dominates ~idom body exit_);
  Alcotest.(check bool) "dominates is reflexive" true (Analysis.dominates ~idom body body)

let test_cfg_edges () =
  let cfg = Analysis.cfg_of_func (func (parse loop_func_text) "f") in
  let idx l = Option.get (Analysis.block_index cfg l) in
  Alcotest.(check (list int)) "head preds" [ idx "entry"; idx "body" ]
    (List.sort compare cfg.Analysis.preds.(idx "head"));
  Alcotest.(check (list int)) "head succs" [ idx "body"; idx "exit" ]
    (List.sort compare cfg.Analysis.succs.(idx "head"));
  Alcotest.(check bool) "all reachable" true (Array.for_all Fun.id cfg.Analysis.reachable)

let diamond_text =
  {|
module "diamond"
define i64 @f(i64 %x) {
entry:
  %s = add i64 %x, 1
  %c = icmp sgt i64 %s, 10
  cbr i1 %c, label %big, label %small
big:
  %m = mul i64 %s, 2
  br label %done
small:
  %m2 = mul i64 %s, 3
  br label %done
done:
  %r = phi i64 [ %m, %big ], [ %m2, %small ]
  ret i64 %r
}
|}

let test_liveness () =
  let cfg = Analysis.cfg_of_func (func (parse diamond_text) "f") in
  let idx l = Option.get (Analysis.block_index cfg l) in
  let lv = Analysis.liveness cfg in
  let mem name set = Analysis.SS.mem name set in
  (* %s is defined in entry and used in both arms. *)
  Alcotest.(check bool) "s live out of entry" true (mem "s" lv.Analysis.live_out.(idx "entry"));
  Alcotest.(check bool) "s live into big" true (mem "s" lv.Analysis.live_in.(idx "big"));
  (* Phi sources are uses at the end of the matching predecessor, not in
     the phi's own block. *)
  Alcotest.(check bool) "m live out of big" true (mem "m" lv.Analysis.live_out.(idx "big"));
  Alcotest.(check bool) "m not live into done" false (mem "m" lv.Analysis.live_in.(idx "done"));
  Alcotest.(check bool) "m2 not live out of big" false (mem "m2" lv.Analysis.live_out.(idx "big"));
  (* %x is consumed by the first instruction of entry. *)
  Alcotest.(check bool) "x dead past entry" false (mem "x" lv.Analysis.live_out.(idx "entry"))

let test_write_only_slots () =
  let src =
    {|
module "slots"
define i64 @f() {
entry:
  %dead = alloca i64 8
  %live = alloca i64 8
  store i64 1, ptr %dead
  store i64 2, ptr %live
  %v = load i64, ptr %live
  ret i64 %v
}
|}
  in
  let slots = Analysis.write_only_slots (func (parse src) "f") in
  Alcotest.(check bool) "never-loaded slot found" true (Analysis.SS.mem "dead" slots);
  Alcotest.(check bool) "loaded slot kept" false (Analysis.SS.mem "live" slots)

(* --- Strict verifier: one minimal ill-formed module per code --- *)

let test_s001_dominance () =
  check_code ~code:"S001"
    {|
module "s001"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %b
b:
  %y = add i64 %x, 1
  ret i64 %y
}
|}

let test_s002_binop_types () =
  check_code ~code:"S002"
    {|
module "s002"
define i64 @f(ptr %p) {
entry:
  %x = add i64 %p, 1
  ret i64 %x
}
|}

let test_s003_icmp_types () =
  check_code ~code:"S003"
    {|
module "s003"
define i1 @f(ptr %p) {
entry:
  %c = icmp sgt i64 %p, 0
  ret i1 %c
}
|}

let test_s004_select_cond () =
  check_code ~code:"S004"
    {|
module "s004"
define i64 @f(i64 %n) {
entry:
  %x = select i1 %n, i64 1, 2
  ret i64 %x
}
|}

let test_s005_phi_incoming_type () =
  check_code ~code:"S005"
    {|
module "s005"
define i64 @f(ptr %p) {
entry:
  br label %b
b:
  %x = phi i64 [ %p, %entry ]
  ret i64 %x
}
|}

let test_s006_memory_types () =
  check_code ~code:"S006"
    {|
module "s006"
define i64 @f(i64 %n) {
entry:
  %v = load i64, ptr %n
  ret i64 %v
}
|}

let test_s007_phi_pred_mismatch () =
  check_code ~code:"S007"
    {|
module "s007"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  br label %done
b:
  br label %done
done:
  %r = phi i64 [ 1, %a ]
  ret i64 %r
}
|}

let test_s008_entry_phi () =
  check_code ~code:"S008"
    {|
module "s008"
define i64 @f() {
entry:
  %x = phi i64 [ 0, %entry ]
  ret i64 %x
}
|}

let test_s009_operand_types () =
  check_code ~code:"S009"
    {|
module "s009"
define i64 @f(i64 %n) {
entry:
  cbr i1 %n, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}
|}

let test_w001_unreachable_block () =
  let src =
    {|
module "w001"
define i64 @f() {
entry:
  ret i64 1
dead:
  ret i64 2
}
|}
  in
  let diags = Verify.run ~strict:true (parse src) in
  let w = List.find_opt (fun d -> d.Verify.code = "W001") diags in
  (match w with
  | Some d -> Alcotest.(check bool) "W001 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "W001 not reported");
  (* Warnings never appear without ~strict. *)
  Alcotest.(check (list string)) "base tier silent" []
    (List.map (fun d -> d.Verify.code) (Verify.run (parse src)))

let test_w002_dead_store () =
  let src =
    {|
module "w002"
define i64 @f() {
entry:
  %p = alloca i64 8
  store i64 1, ptr %p
  ret i64 0
}
|}
  in
  let diags = Verify.run ~strict:true (parse src) in
  match List.find_opt (fun d -> d.Verify.code = "W002") diags with
  | Some d -> Alcotest.(check bool) "W002 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "W002 not reported"

let test_v010_ret_mismatch () =
  check_code ~code:"V010"
    {|
module "v010a"
define void @f() {
entry:
  ret i64 1
}
|};
  check_code ~code:"V010"
    {|
module "v010b"
define i64 @f() {
entry:
  ret void
}
|}

let test_v013_void_call_dst () =
  check_code ~code:"V013"
    {|
module "v013"
declare void @g()
define i64 @f() {
entry:
  %x = call void @g()
  ret i64 0
}
|}

let test_diagnostics_carry_block () =
  let diags =
    Verify.run ~strict:true
      (parse
         {|
module "loc"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %b
b:
  %y = add i64 %x, 1
  ret i64 %y
}
|})
  in
  match List.find_opt (fun d -> d.Verify.code = "S001") diags with
  | Some d ->
      Alcotest.(check string) "function" "f" d.Verify.where;
      Alcotest.(check (option string)) "block" (Some "b") d.Verify.block
  | None -> Alcotest.fail "S001 not reported"

(* --- Merge-interference analyzer --- *)

let interference_codes src = List.map (fun d -> d.Verify.code) (Verify.interference (parse src))

let test_m001_symbol_collision () =
  let codes =
    interference_codes
      {|
module "m001"
@clash = global i64 0
define i64 @clash() {
entry:
  ret i64 0
}
|}
  in
  Alcotest.(check bool) "M001 reported" true (List.mem "M001" codes)

let test_m002_shared_global_writes () =
  let src =
    {|
module "m002"
@state = global i64 0
define i64 @a__handler(ptr %req) {
entry:
  store i64 1, ptr @state
  ret i64 0
}
define i64 @b__local(ptr %req) {
entry:
  store i64 2, ptr @state
  ret i64 0
}
|}
  in
  let diags = Verify.interference (parse src) in
  match List.find_opt (fun d -> d.Verify.code = "M002") diags with
  | Some d -> Alcotest.(check bool) "M002 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "M002 not reported"

let test_m003_abi_mismatch () =
  let codes =
    interference_codes
      {|
module "m003"
define i64 @callee(i64 %x) lang "rust" {
entry:
  ret i64 %x
}
define i64 @caller(ptr %p) lang "c" {
entry:
  %r = call i64 @callee(ptr %p)
  ret i64 %r
}
|}
  in
  Alcotest.(check bool) "M003 reported" true (List.mem "M003" codes)

(* --- Optimization passes (unit; fuzz pins them end to end) --- *)

let test_sccp_folds_branch () =
  let m =
    parse
      {|
module "sccp"
define i64 @f() {
entry:
  %a = add i64 2, 3
  %c = icmp sgt i64 %a, 4
  cbr i1 %c, label %t, label %e
t:
  ret i64 %a
e:
  ret i64 0
}
|}
  in
  let f = func (Pass_sccp.run m) "f" in
  Alcotest.(check int) "dead arm dropped" 2 (List.length f.Ir.blocks);
  let printed = Pp.to_string { m with Ir.funcs = [ f ] } in
  Alcotest.(check bool) "constant propagated into ret" true
    (let has_sub s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has_sub printed "ret i64 5")

let test_livedce_drops_phi_cycle () =
  let m =
    parse
      {|
module "livedce"
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %b ]
  %dead = phi i64 [ 1, %entry ], [ %d2, %b ]
  %c = icmp slt i64 %i, %n
  cbr i1 %c, label %b, label %x
b:
  %d2 = mul i64 %dead, 3
  %i2 = add i64 %i, 1
  br label %h
x:
  ret i64 %i
}
|}
  in
  let before = Ir.instr_count m in
  let m' = Pass_livedce.run m in
  Alcotest.(check int) "dead phi cycle retired" (before - 2) (Ir.instr_count m');
  Alcotest.(check (list string)) "still strict-clean" []
    (List.map (fun d -> d.Verify.code)
       (List.filter (fun d -> d.Verify.severity = Verify.Error) (Verify.run ~strict:true m')))

let test_jumpthread_coalesces () =
  let m =
    parse
      {|
module "jt"
define i64 @f() {
entry:
  br label %a
a:
  %x = add i64 1, 2
  br label %b
b:
  ret i64 %x
}
|}
  in
  let f = func (Pass_jumpthread.run m) "f" in
  Alcotest.(check int) "straight-line chain coalesced" 1 (List.length f.Ir.blocks)

let test_shiminline_flattens () =
  let m =
    parse
      {|
module "inline"
define i64 @c2callee_inner(i64 %x) {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}
define i64 @caller2c_c_outer(i64 %x) {
entry:
  %y = call i64 @c2callee_inner(i64 %x)
  ret i64 %y
}
define i64 @main(i64 %n) {
entry:
  %r = call i64 @caller2c_c_outer(i64 %n)
  %r2 = call i64 @caller2c_c_outer(i64 %r)
  ret i64 %r2
}
|}
  in
  let m' = Pass_shiminline.run m in
  let calls_in f =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (function Ir.Call { callee; _ } -> Some callee | _ -> None)
          b.Ir.instrs)
      f.Ir.blocks
  in
  Alcotest.(check (list string)) "all shim calls flattened" [] (calls_in (func m' "main"));
  Alcotest.(check (list string)) "no errors after inlining" []
    (List.map (fun d -> d.Verify.code)
       (List.filter (fun d -> d.Verify.severity = Verify.Error) (Verify.run ~strict:true m')));
  (* The exact arithmetic survives: two increments chained onto %n. *)
  let f = func m' "main" in
  Alcotest.(check int) "two spliced adds" 2 (List.length (List.hd f.Ir.blocks).Ir.instrs)

let test_dce_fixed_point () =
  let m =
    parse
      {|
module "dce"
@gused = global i64 0
@gdead = global i64 0
define i64 @main() {
entry:
  %r = call i64 @a()
  ret i64 %r
}
define i64 @a() {
entry:
  %r = call i64 @b()
  ret i64 %r
}
define i64 @b() {
entry:
  %v = load i64, ptr @gused
  ret i64 %v
}
define i64 @cyc1() {
entry:
  %r = call i64 @cyc2()
  ret i64 %r
}
define i64 @cyc2() {
entry:
  %r = call i64 @cyc1()
  ret i64 %r
}
|}
  in
  let m' = Pass_dce.run ~roots:[ "main" ] m in
  let names = List.sort compare (List.map (fun (f : Ir.func) -> f.Ir.fname) m'.Ir.funcs) in
  (* Transitive liveness is a fixed point: the whole root chain survives,
     the mutually-recursive island (live only through itself) does not. *)
  Alcotest.(check (list string)) "root chain kept, dead cycle dropped" [ "a"; "b"; "main" ] names;
  Alcotest.(check (list string)) "dead global dropped" [ "gused" ]
    (List.map (fun (g : Ir.global) -> g.Ir.gname) m'.Ir.globals)

(* --- Incremental checking: Verify.checker = fresh strict verification ---

   A checker reuses findings for functions it has seen (physically), so
   the edits below leave most functions untouched on purpose: a callee's
   new signature or a removed symbol must still reach the callers that
   did not change. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* [None] when the module passes, else the failure message. *)
let outcome f = match f () with () -> None | exception Failure msg -> Some msg

let full_outcome ~stage m = outcome (fun () -> Verify.check_exn ~strict:true ~stage m)

let check_agrees c ~stage m =
  let full = full_outcome ~stage m in
  let incremental = outcome (fun () -> Verify.check c ~stage m) in
  Alcotest.(check (option string)) (stage ^ ": checker = full verification") full incremental;
  full

let resig_text =
  {|
module "resig"
@msg = global i64 7
define i64 @callee(i64 %x) {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}
define i64 @caller(i64 %n) {
entry:
  %v = load i64, ptr @msg
  %r = call i64 @callee(i64 %n)
  ret i64 %r
}
|}

let test_checker_rechecks_untouched_callers () =
  let m = parse resig_text in
  let c = Verify.checker () in
  Alcotest.(check (option string)) "clean module" None (check_agrees c ~stage:"clean" m);
  let callee = func m "callee" in
  (* Same body, one more parameter: @caller is physically untouched. *)
  let wider = { callee with Ir.params = callee.Ir.params @ [ ("extra", Ir.I64) ] } in
  let m' = Ir.replace_func m wider in
  (match check_agrees c ~stage:"resig" m' with
  | Some msg ->
      Alcotest.(check bool) "V006 on the untouched caller" true
        (contains msg "V006 error [caller")
  | None -> Alcotest.fail "a callee's new arity went unnoticed");
  let ret_changed = { callee with Ir.ret_ty = Ir.Ptr } in
  ignore (check_agrees c ~stage:"ret" (Ir.replace_func m ret_changed));
  (* Back to the original callee value: the caller's entry is re-resolved again. *)
  Alcotest.(check (option string)) "restored" None (check_agrees c ~stage:"restored" m);
  let no_global = { m with Ir.globals = [] } in
  (match check_agrees c ~stage:"global" no_global with
  | Some msg ->
      Alcotest.(check bool) "V004 on the untouched caller" true
        (contains msg "V004 error [caller")
  | None -> Alcotest.fail "a removed global went unnoticed");
  let dup = { m with Ir.funcs = m.Ir.funcs @ [ callee ] } in
  (match check_agrees c ~stage:"dup" dup with
  | Some msg -> Alcotest.(check bool) "V012" true (contains msg "V012")
  | None -> Alcotest.fail "a duplicate symbol went unnoticed");
  let checked, reused = Verify.counts c in
  Alcotest.(check bool) "some findings were reused" true (reused > 0);
  Alcotest.(check bool) "some functions were re-checked" true (checked > 2)

(* Merged modules to edit: compose-post with every edge local, and with
   every edge guarded (phis, split blocks, counters). *)
module Pipeline = Quilt_merge.Pipeline
module Workflow = Quilt_apps.Workflow

let merged_bases =
  lazy
    (let wf =
       List.find
         (fun w -> w.Workflow.wf_name = "compose-post")
         (Quilt_apps.Deathstar.all ~async:false ())
     in
     let merge mode =
       (Pipeline.merge_group ~lookup:(Workflow.lookup wf) ~members:(Workflow.fn_names wf)
          ~root:wf.Workflow.entry
          ~edge_mode:(fun ~caller:_ ~callee:_ -> mode)
          ())
         .Pipeline.merged_module
     in
     [| merge Pipeline.Always_local; merge (Pipeline.Guarded 2) |])

let called_names (m : Ir.modul) =
  let out = ref [] in
  Ir.iter_calls m (fun ~caller:_ i ->
      match i with Ir.Call { callee; _ } -> out := callee :: !out | _ -> ());
  List.sort_uniq compare !out

let referenced_globals (m : Ir.modul) =
  List.filter
    (fun (g : Ir.global) ->
      List.exists
        (fun (f : Ir.func) ->
          List.exists
            (fun (b : Ir.block) ->
              List.exists
                (fun i ->
                  List.mem (Ir.Const (Ir.Cglobal g.Ir.gname)) (Analysis.instr_operands i))
                b.Ir.instrs)
            f.Ir.blocks)
        m.Ir.funcs)
    m.Ir.globals

(* One mutated copy of a definition: an identical copy (a new value with
   the same findings), a dropped instruction, an operand naming an
   undefined local, a branch to a missing label, or an f64 binop. *)
let mutate rng (f : Ir.func) =
  let map_block k fn =
    { f with Ir.blocks = List.mapi (fun j b -> if j = k then fn b else b) f.Ir.blocks }
  in
  let k = Rng.int rng (List.length f.Ir.blocks) in
  match Rng.int rng 5 with
  | 0 -> { f with Ir.fname = f.Ir.fname }
  | 1 ->
      map_block k (fun b ->
          match b.Ir.instrs with [] -> b | _ :: tl -> { b with Ir.instrs = tl })
  | 2 ->
      let use_undefined =
        Ir.Gep { dst = "mut.g"; base = Ir.Local "mut.none"; offset = Ir.Const (Ir.Cint (Ir.I64, 0L)) }
      in
      map_block k (fun b -> { b with Ir.instrs = b.Ir.instrs @ [ use_undefined ] })
  | 3 -> map_block k (fun b -> { b with Ir.term = Ir.Br "mut.nowhere" })
  | _ ->
      map_block k (fun b ->
          {
            b with
            Ir.instrs =
              Ir.Binop
                {
                  dst = "mut.f";
                  op = Ir.Add;
                  ty = Ir.F64;
                  lhs = Ir.Const (Ir.Cint (Ir.I64, 1L));
                  rhs = Ir.Const (Ir.Cfloat 2.0);
                }
              :: b.Ir.instrs;
          })

let pick_opt rng = function [] -> None | l -> Some (Rng.pick rng l)

(* One random edit; the module is returned unchanged when the edit has
   nothing to act on. *)
let edit rng (m : Ir.modul) =
  let defs = List.filter (fun f -> not (Ir.is_declaration f)) m.Ir.funcs in
  let called = List.filter (fun (f : Ir.func) -> List.mem f.Ir.fname (called_names m)) m.Ir.funcs in
  match Rng.int rng 6 with
  | 0 -> (
      match pick_opt rng defs with Some f -> Ir.replace_func m (mutate rng f) | None -> m)
  | 1 -> (
      (* A callee's signature changes; its callers stay physically. *)
      match pick_opt rng called with
      | Some f ->
          let f' =
            match Rng.int rng 3 with
            | 0 -> { f with Ir.params = f.Ir.params @ [ ("mut.extra", Ir.I64) ] }
            | 1 -> { f with Ir.params = List.map (fun (p, _) -> (p, Ir.F64)) f.Ir.params }
            | _ -> { f with Ir.ret_ty = (if f.Ir.ret_ty = Ir.I64 then Ir.Ptr else Ir.I64) }
          in
          Ir.replace_func m f'
      | None -> m)
  | 2 -> (
      match pick_opt rng called with Some f -> Ir.remove_func m f.Ir.fname | None -> m)
  | 3 -> (
      match pick_opt rng (referenced_globals m) with
      | Some g -> { m with Ir.globals = List.filter (fun g' -> g' != g) m.Ir.globals }
      | None -> m)
  | 4 -> (
      match pick_opt rng m.Ir.funcs with
      | Some f -> { m with Ir.funcs = m.Ir.funcs @ [ f ] }
      | None -> m)
  | _ -> (
      match m.Ir.globals with
      | g :: _ -> { m with Ir.globals = m.Ir.globals @ [ g ] }
      | [] -> m)

let prop_checker_matches_full =
  QCheck.Test.make ~name:"checker = fresh strict verify under random edits" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let bases = Lazy.force merged_bases in
      let m = ref bases.(Rng.int rng (Array.length bases)) in
      let c = Verify.checker () in
      let show = Option.value ~default:"passes" in
      for step = 0 to 8 do
        (* Now and then go back to the unedited module: old values return. *)
        if step > 0 then m := if Rng.chance rng 0.15 then bases.(0) else edit rng !m;
        let stage = Printf.sprintf "edit%d" step in
        let full = full_outcome ~stage !m in
        let incremental = outcome (fun () -> Verify.check c ~stage !m) in
        if incremental <> full then
          QCheck.Test.fail_reportf "step %d: checker %s, full verification %s" step
            (show incremental) (show full)
      done;
      true)

let suite =
  [
    ( "analysis.cfg",
      [
        Alcotest.test_case "dominator tree (CHK)" `Quick test_dominators;
        Alcotest.test_case "pred/succ/reachability" `Quick test_cfg_edges;
        Alcotest.test_case "backward liveness with phi edges" `Quick test_liveness;
        Alcotest.test_case "write-only slots" `Quick test_write_only_slots;
      ] );
    ( "analysis.strict",
      [
        Alcotest.test_case "S001 dominance" `Quick test_s001_dominance;
        Alcotest.test_case "S002 binop typing" `Quick test_s002_binop_types;
        Alcotest.test_case "S003 icmp typing" `Quick test_s003_icmp_types;
        Alcotest.test_case "S004 select condition" `Quick test_s004_select_cond;
        Alcotest.test_case "S005 phi incoming typing" `Quick test_s005_phi_incoming_type;
        Alcotest.test_case "S006 memory typing" `Quick test_s006_memory_types;
        Alcotest.test_case "S007 phi/CFG agreement" `Quick test_s007_phi_pred_mismatch;
        Alcotest.test_case "S008 entry-block phi" `Quick test_s008_entry_phi;
        Alcotest.test_case "S009 terminator operand typing" `Quick test_s009_operand_types;
        Alcotest.test_case "W001 unreachable block" `Quick test_w001_unreachable_block;
        Alcotest.test_case "W002 dead store" `Quick test_w002_dead_store;
        Alcotest.test_case "V010 ret/return-type disagreement" `Quick test_v010_ret_mismatch;
        Alcotest.test_case "V013 void call binds a value" `Quick test_v013_void_call_dst;
        Alcotest.test_case "diagnostics carry fn+block" `Quick test_diagnostics_carry_block;
      ] );
    ( "analysis.incremental",
      [
        Alcotest.test_case "checker re-resolves untouched callers" `Quick
          test_checker_rechecks_untouched_callers;
        QCheck_alcotest.to_alcotest prop_checker_matches_full;
      ] );
    ( "analysis.interference",
      [
        Alcotest.test_case "M001 symbol collision" `Quick test_m001_symbol_collision;
        Alcotest.test_case "M002 cross-member global writes" `Quick test_m002_shared_global_writes;
        Alcotest.test_case "M003 ABI type mismatch" `Quick test_m003_abi_mismatch;
      ] );
    ( "analysis.passes",
      [
        Alcotest.test_case "sccp folds constant branches" `Quick test_sccp_folds_branch;
        Alcotest.test_case "livedce retires dead phi cycles" `Quick test_livedce_drops_phi_cycle;
        Alcotest.test_case "jumpthread coalesces chains" `Quick test_jumpthread_coalesces;
        Alcotest.test_case "shim inlining flattens wrappers" `Quick test_shiminline_flattens;
        Alcotest.test_case "symbol DCE is a fixed point" `Quick test_dce_fixed_point;
      ] );
  ]
