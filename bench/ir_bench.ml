(* Tree-walking interpreter vs the QVM compiled engine (writes BENCH_ir.json).

   Two series per workload, minimum over several timed batches:
   - the merged compose-post handler end to end.  Both engines share the
     native runtime (JSON natives, string-ABI shims), so this ratio is
     floored by work the compiled engine cannot remove;
   - a native-free hot loop of the same handler-convention shape, which
     isolates engine dispatch — the component the slot-resolved bytecode
     actually replaces — and is where the >= 5x separation shows. *)

module Workflow = Quilt_apps.Workflow
module Deathstar = Quilt_apps.Deathstar
module Pipeline = Quilt_merge.Pipeline
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Compile = Quilt_ir.Compile
module Qir = Quilt_ir.Ir
module Verify = Quilt_ir.Verify
module Json = Quilt_util.Json

let smoke_flag = ref false

(* Minimum over [samples] batch timings: the standard uncontended-cost
   estimator for microbenchmarks — external load only ever adds time, so
   the fastest batch is the best estimate of the code's own cost.  Applied
   symmetrically to both engines. *)
let time_us_per_run ~iters ~samples f =
  for _ = 1 to max 1 (iters / 10) do
    ignore (f ())
  done;
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6
  in
  List.fold_left Float.min Float.infinity (List.init samples (fun _ -> batch ()))

(* A handler whose body is pure interpreted work: [n] iterations of a
   phi-carried integer recurrence, with the only natives being the
   handler-convention pair (get_req / send_res). *)
let dispatch_loop_module n =
  let i64 c = Qir.Const (Qir.Cint (Qir.I64, Int64.of_int c)) in
  let l x = Qir.Local x in
  let entry =
    {
      Qir.label = "entry";
      instrs =
        [ Qir.Call { dst = Some "req"; ret = Qir.Ptr; callee = "quilt_get_req"; args = [] } ];
      term = Qir.Br "head";
    }
  in
  let head =
    {
      Qir.label = "head";
      instrs =
        [
          Qir.Phi { dst = "i"; ty = Qir.I64; incoming = [ (i64 0, "entry"); (l "i2", "body") ] };
          Qir.Phi
            { dst = "acc"; ty = Qir.I64; incoming = [ (i64 1, "entry"); (l "acc2", "body") ] };
          Qir.Icmp { dst = "c"; cmp = Qir.Cslt; ty = Qir.I64; lhs = l "i"; rhs = i64 n };
        ];
      term = Qir.Cbr { cond = l "c"; if_true = "body"; if_false = "done" };
    }
  in
  let body =
    {
      Qir.label = "body";
      instrs =
        [
          Qir.Binop { dst = "t0"; op = Qir.Mul; ty = Qir.I64; lhs = l "acc"; rhs = i64 3 };
          Qir.Binop { dst = "t1"; op = Qir.Add; ty = Qir.I64; lhs = l "t0"; rhs = l "i" };
          Qir.Binop { dst = "t2"; op = Qir.Xor; ty = Qir.I64; lhs = l "t1"; rhs = i64 0x55 };
          Qir.Binop { dst = "acc2"; op = Qir.And; ty = Qir.I64; lhs = l "t2"; rhs = i64 0xffffff };
          Qir.Binop { dst = "i2"; op = Qir.Add; ty = Qir.I64; lhs = l "i"; rhs = i64 1 };
        ];
      term = Qir.Br "head";
    }
  in
  let done_b =
    {
      Qir.label = "done";
      instrs =
        [ Qir.Call { dst = None; ret = Qir.Void; callee = "quilt_send_res"; args = [ (Qir.Ptr, l "req") ] } ];
      term = Qir.Ret None;
    }
  in
  {
    Qir.mname = "dispatch_loop";
    globals = [];
    funcs =
      [
        {
          Qir.fname = "dispatch-loop";
          params = [];
          ret_ty = Qir.Void;
          blocks = [ entry; head; body; done_b ];
          linkage = Qir.Internal;
          lang = Some "c";
        };
      ];
  }

let steps_of ~host m ~fname ~req =
  match Interp.run_handler ~host m ~fname ~req with
  | Ok (_, s) -> s.Interp.steps
  | Error e -> failwith (Printf.sprintf "ir bench workload traps: %s" e)

(* Times one workload on both engines after checking they agree. *)
let series ~iters ~samples ~host m ~fname ~req =
  let prog = Compile.compile m in
  let tw = Interp.run_handler ~host m ~fname ~req in
  let vm = Vm.run_handler_prog ~host prog ~fname ~req in
  (match (tw, vm) with
  | Ok (a, _), Ok (b, _) when a = b -> ()
  | Ok _, Ok _ -> failwith "ir bench: engines disagree on the response"
  | Error e, _ | _, Error e -> failwith (Printf.sprintf "ir bench workload traps: %s" e));
  let tw_us = time_us_per_run ~iters ~samples (fun () -> Interp.run_handler ~host m ~fname ~req) in
  let vm_us =
    time_us_per_run ~iters ~samples (fun () -> Vm.run_handler_prog ~host prog ~fname ~req)
  in
  (tw_us, vm_us)

let run () =
  Common.section "ir: tree-walker vs QVM compiled engine";
  let iters, samples = if !smoke_flag || Common.fast then (150, 3) else (2000, 7) in
  let host = Interp.echo_host in

  (* Workload 1: the merged compose-post handler, end to end. *)
  let wfs = Deathstar.all ~async:false () in
  let wf = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let report =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup wf svc)
      ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ()
  in
  let m = report.Pipeline.merged_module in
  let fname = report.Pipeline.entry in
  let req = {|{"user":"alice","text":"hello world","media":"img.png"}|} in
  let cp_steps = steps_of ~host m ~fname ~req in
  let cp_tw, cp_vm = series ~iters ~samples ~host m ~fname ~req in

  (* Workload 2: the native-free dispatch loop. *)
  let dl = dispatch_loop_module 1200 in
  let dl_req = "{}" in
  let dl_steps = steps_of ~host dl ~fname:"dispatch-loop" ~req:dl_req in
  let dl_tw, dl_vm = series ~iters ~samples ~host dl ~fname:"dispatch-loop" ~req:dl_req in

  let row name steps tw vm note =
    Printf.printf "  %-24s %6d steps  treewalk %8.2f us/run  compiled %8.2f us/run  (%.2fx)\n%!"
      name steps tw vm (tw /. vm);
    Json.Obj
      [
        ("name", Json.String name);
        ("steps", Json.Int steps);
        ("treewalk_us_per_run", Json.Float tw);
        ("compiled_us_per_run", Json.Float vm);
        ("speedup", Json.Float (tw /. vm));
        ("note", Json.String note);
      ]
  in
  let cp_row =
    row "compose-post-merged" cp_steps cp_tw cp_vm
      "end to end; both engines share the native runtime (json + string shims), which floors \
       the ratio"
  in
  let dl_row =
    row "dispatch-loop" dl_steps dl_tw dl_vm
      "native-free hot loop isolating engine dispatch, the component the bytecode engine \
       replaces"
  in
  let rows = [ cp_row; dl_row ] in

  (* --- Static-analysis section: what the new framework buys --- *)

  (* Lint throughput: the full strict verifier plus the merge-interference
     analyzer over the merged compose-post module. *)
  let lint () = ignore (Verify.run ~strict:true m); ignore (Verify.interference m) in
  let lint_us = time_us_per_run ~iters:(max 1 (iters / 10)) ~samples lint in
  let m_instrs = Qir.instr_count m in
  let lint_kinstr_per_s = float_of_int m_instrs /. lint_us *. 1e3 in

  (* Optimization deltas: the same merge with the analysis-driven passes
     (SCCP, jump threading, liveness DCE) switched off vs on.  [m] above is
     the optimized module; the baseline arm recompiles without them. *)
  let base_report =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup wf svc)
      ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ~optimize:false ()
  in
  let m0 = base_report.Pipeline.merged_module in
  let delta name m0 m1 fname req =
    let s0 = steps_of ~host m0 ~fname ~req and s1 = steps_of ~host m1 ~fname ~req in
    let i0 = Qir.instr_count m0 and i1 = Qir.instr_count m1 in
    let p0 = Compile.compile m0 and p1 = Compile.compile m1 in
    let us0 =
      time_us_per_run ~iters ~samples (fun () -> Vm.run_handler_prog ~host p0 ~fname ~req)
    in
    let us1 =
      time_us_per_run ~iters ~samples (fun () -> Vm.run_handler_prog ~host p1 ~fname ~req)
    in
    Printf.printf
      "  %-24s instrs %4d -> %4d  steps %5d -> %5d  compiled %8.2f -> %8.2f us/run\n%!" name i0
      i1 s0 s1 us0 us1;
    Json.Obj
      [
        ("name", Json.String name);
        ("instrs_before", Json.Int i0);
        ("instrs_after", Json.Int i1);
        ("steps_before", Json.Int s0);
        ("steps_after", Json.Int s1);
        ("compiled_us_before", Json.Float us0);
        ("compiled_us_after", Json.Float us1);
      ]
  in
  let cp_delta = delta "compose-post-merged" m0 m fname req in
  (* The native-free loop, optimized standalone: its accumulator chain is a
     phi-carried cycle only the liveness DCE can retire. *)
  let dl_opt =
    Quilt_ir.Pass_livedce.run (Quilt_ir.Pass_jumpthread.run (Quilt_ir.Pass_sccp.run dl))
  in
  let dl_delta = delta "dispatch-loop" dl dl_opt "dispatch-loop" dl_req in
  Printf.printf "  %-24s %6d instrs  strict lint %8.2f us/run  (%.0f kinstr/s)\n%!"
    "lint:compose-post" m_instrs lint_us lint_kinstr_per_s;

  Common.record_timings ~file:"BENCH_ir.json" ~key:"ir"
    [
      ("iters_per_batch", Json.Int iters);
      ("batches", Json.Int samples);
      ("workloads", Json.List rows);
      ( "analysis",
        Json.Obj
          [
            ( "lint",
              Json.Obj
                [
                  ("module", Json.String "compose-post-merged");
                  ("module_instrs", Json.Int m_instrs);
                  ("strict_lint_us_per_run", Json.Float lint_us);
                  ("kinstr_per_s", Json.Float lint_kinstr_per_s);
                ] );
            ("pass_deltas", Json.List [ cp_delta; dl_delta ]);
          ] );
    ]
