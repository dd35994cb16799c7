(* Trap and stats parity between the two execution engines.

   Each case runs the same module on the tree-walker (Interp) and the QVM
   (Compile + Vm) and checks byte-identical outcomes: the exact Error
   message the seed interpreter produced, and — via a full stats
   fingerprint — identical accounting on success.  The fuzz suite covers
   these paths statistically; these cases pin each documented trap. *)

open Quilt_ir
module Json = Quilt_util.Json

let fingerprint (s : Interp.stats) =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  ( s.Interp.steps,
    s.Interp.cpu_us,
    s.Interp.io_us,
    s.Interp.peak_mem_mb,
    s.Interp.remote_sync,
    s.Interp.remote_async,
    s.Interp.curl_loaded,
    s.Interp.curl_loaded_eagerly,
    sorted s.Interp.calls,
    sorted s.Interp.billing )

let show_outcome = function
  | Ok (res, (steps, _, _, _, _, _, _, _, _, _)) -> Printf.sprintf "Ok %s (%d steps)" res steps
  | Error e -> Printf.sprintf "Error %S" e

(* Runs [src] on both engines and returns the tree-walker's outcome after
   asserting the QVM's is identical (response, trap message, stats). *)
let run_both ?fuel ?(host = Interp.echo_host) ?(fname = "h") ?(req = "{}") src =
  let m = Parser.parse_module src in
  let norm = function
    | Ok (res, stats) -> Ok (res, fingerprint stats)
    | Error e -> Error e
  in
  let tw = norm (Interp.run_handler ?fuel ~host m ~fname ~req) in
  let vm = norm (Vm.run_handler ?fuel ~host m ~fname ~req) in
  Alcotest.(check string) "engines agree" (show_outcome tw) (show_outcome vm);
  if tw <> vm then Alcotest.fail "engines disagree on stats fingerprint";
  tw

let check_trap ?fuel ?fname src expected =
  match run_both ?fuel ?fname src with
  | Error e -> Alcotest.(check string) "trap message" expected e
  | Ok (res, _) -> Alcotest.fail (Printf.sprintf "expected trap %S, got response %s" expected res)

let test_out_of_fuel () =
  check_trap ~fuel:10
    {|
module "t"
define void @h() {
entry:
  br label %loop
loop:
  %x = add i64 1, 1
  br label %loop
}
|}
    "out of fuel"

let test_division_by_zero () =
  check_trap
    {|
module "t"
define void @h() {
entry:
  %z = sub i64 0, 0
  %d = sdiv i64 1, %z
  ret void
}
|}
    "division by zero";
  check_trap
    {|
module "t"
define void @h() {
entry:
  %z = sub i64 0, 0
  %d = srem i64 7, %z
  ret void
}
|}
    "division by zero"

let test_null_pointer () =
  check_trap
    {|
module "t"
define void @h() {
entry:
  %v = load i64, ptr null
  ret void
}
|}
    "memory fault: null pointer dereference"

let test_wild_pointer () =
  (* Block 99 was never allocated; forge its address (99 << 32). *)
  check_trap
    {|
module "t"
define void @h() {
entry:
  %p = add i64 425201762304, 0
  %v = load i64, ptr %p
  ret void
}
|}
    "memory fault: wild pointer (block 99)"

let test_load_out_of_bounds () =
  check_trap
    {|
module "t"
define void @h() {
entry:
  %p = call ptr @quilt_malloc(i64 4)
  %q = gep ptr %p, i64 3
  %v = load i64, ptr %q
  ret void
}
|}
    "memory fault: load i64 out of bounds"

let test_unterminated_string () =
  (* A 2-byte block filled with non-NUL bytes; send_res scans past its end.
     (Gstr globals can't reproduce this: materialization NUL-terminates.) *)
  check_trap
    {|
module "t"
define void @h() {
entry:
  %p = call ptr @quilt_malloc(i64 2)
  store i8 65, ptr %p
  %q = gep ptr %p, i64 1
  store i8 66, ptr %q
  call void @quilt_send_res(ptr %p)
  ret void
}
|}
    "memory fault: unterminated string"

let test_arity_mismatch () =
  check_trap
    {|
module "t"
define i64 @callee(i64 %a, i64 %b) {
entry:
  %s = add i64 %a, %b
  ret i64 %s
}
define void @h() {
entry:
  %r = call i64 @callee(i64 1)
  ret void
}
|}
    "arity mismatch calling @callee"

let test_missing_send_res () =
  match
    run_both {|
module "t"
define void @h() {
entry:
  ret void
}
|}
  with
  | Error e ->
      Alcotest.(check string) "message" "handler returned without calling quilt_send_res" e
  | Ok _ -> Alcotest.fail "expected missing-response error"

let test_unbound_local () =
  check_trap
    {|
module "t"
define void @h() {
entry:
  %y = add i64 %ghost, 1
  ret void
}
|}
    "use of unbound local %ghost"

let test_unresolved_symbol () =
  check_trap
    {|
module "t"
declare ptr @mystery(ptr)
define void @h() {
entry:
  %r = call ptr @mystery(ptr null)
  ret void
}
|}
    "call to unresolved symbol @mystery"

let test_phi_missing_incoming () =
  check_trap
    {|
module "t"
define void @h() {
entry:
  br label %a
a:
  %p = phi i64 [ 1, %zzz ]
  ret void
}
|}
    "phi in %a has no incoming for %entry"

let test_branch_missing_label () =
  check_trap {|
module "t"
define void @h() {
entry:
  br label %nope
}
|}
    "branch to missing label %nope in @h"

let test_no_function () =
  check_trap ~fname:"absent" {|
module "t"
define void @h() {
entry:
  ret void
}
|}
    "no function @absent"

(* A run that touches every stats channel: cpu, io, mem, billing, direct
   calls, and sync+async remote invocations through the echo host. *)
let test_stats_parity_on_success () =
  let src =
    {|
module "t"
@svc = constant str "downstream\00" lang "c"
define i64 @helper(i64 %n) {
entry:
  %m = mul i64 %n, 3
  ret i64 %m
}
define void @h() {
entry:
  call void @quilt_curl_init_once()
  call void @quilt_burn_cpu(i64 120)
  call void @quilt_sleep_io(i64 450)
  call void @quilt_use_mem(i64 33)
  call void @quilt_bill(ptr @svc)
  %a = call i64 @helper(i64 5)
  %b = call i64 @helper(i64 7)
  %req = call ptr @quilt_get_req()
  %sync = call ptr @quilt_sync_inv(ptr @svc, ptr %req)
  %fut = call ptr @quilt_async_inv(ptr @svc, ptr %sync)
  %res = call ptr @quilt_async_wait(ptr %fut)
  call void @quilt_send_res(ptr %res)
  ret void
}
|}
  in
  match run_both ~req:{|{"q":1}|} src with
  | Ok (res, (steps, cpu, io, mem, sync, async, curl, eager, calls, billing)) ->
      Alcotest.(check bool) "response non-empty" true (String.length res > 0);
      Alcotest.(check int) "steps" 14 steps;
      Alcotest.(check (float 0.0)) "cpu" 120.0 cpu;
      Alcotest.(check (float 0.0)) "io" 450.0 io;
      Alcotest.(check (float 0.0)) "mem" 33.0 mem;
      Alcotest.(check int) "one sync call" 1 (List.length sync);
      Alcotest.(check int) "one async call" 1 (List.length async);
      Alcotest.(check (pair bool bool)) "curl lazily loaded" (true, false) (curl, eager);
      Alcotest.(check (list (pair string int))) "direct calls" [ ("helper", 2) ] calls;
      Alcotest.(check (list (pair string int))) "billing" [ ("downstream", 1) ] billing
  | Error e -> Alcotest.fail ("unexpected trap: " ^ e)

let test_run_local_parity () =
  (* run_local convention: ptr f(ptr) over C strings. *)
  let src =
    {|
module "t"
define ptr @local(ptr %req) {
entry:
  %n = call i64 @quilt_strlen(ptr %req)
  %s = call ptr @c_itoa(i64 %n)
  ret ptr %s
}
|}
  in
  let m = Parser.parse_module src in
  let tw = Interp.run_local ~host:Interp.null_host m ~fname:"local" ~req:"hello" in
  let vm = Vm.run_local ~host:Interp.null_host m ~fname:"local" ~req:"hello" in
  (match tw with
  | Ok (res, _) -> Alcotest.(check string) "length as string" "5" res
  | Error e -> Alcotest.fail e);
  match (tw, vm) with
  | Ok (a, sa), Ok (b, sb) ->
      Alcotest.(check string) "same response" a b;
      if fingerprint sa <> fingerprint sb then Alcotest.fail "stats diverge"
  | _ -> Alcotest.fail "engines disagree on run_local"

let suite =
  [
    ( "vm.parity",
      [
        Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
        Alcotest.test_case "division by zero" `Quick test_division_by_zero;
        Alcotest.test_case "null pointer" `Quick test_null_pointer;
        Alcotest.test_case "wild pointer" `Quick test_wild_pointer;
        Alcotest.test_case "load out of bounds" `Quick test_load_out_of_bounds;
        Alcotest.test_case "unterminated string" `Quick test_unterminated_string;
        Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
        Alcotest.test_case "missing send_res" `Quick test_missing_send_res;
        Alcotest.test_case "unbound local" `Quick test_unbound_local;
        Alcotest.test_case "unresolved symbol" `Quick test_unresolved_symbol;
        Alcotest.test_case "phi missing incoming" `Quick test_phi_missing_incoming;
        Alcotest.test_case "branch to missing label" `Quick test_branch_missing_label;
        Alcotest.test_case "no such function" `Quick test_no_function;
        Alcotest.test_case "stats parity on success" `Quick test_stats_parity_on_success;
        Alcotest.test_case "run_local parity" `Quick test_run_local_parity;
      ] );
  ]
