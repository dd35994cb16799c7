(* Inputs and helpers shared by the three workloads: the fixed workflow
   set, the explicit optimizer configuration, timing, and plan digests. *)

module Workflow = Quilt_apps.Workflow
module Deathstar = Quilt_apps.Deathstar
module Special = Quilt_apps.Special
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Deploy = Quilt_core.Deploy
module Pipeline = Quilt_merge.Pipeline
module Types = Quilt_cluster.Types
module Ir = Quilt_ir.Ir
module Pp = Quilt_ir.Pp

type entry = { label : string; wf : Workflow.t }

(* Figure 10's callee size: eight instances fit the merged container, nine
   do not, so the profiled fan-out edge is guarded. *)
let fan_out_callee_mem_mb = 14

(* The 19 workflows: the 9 sync DeathStar workflows, the 6 async
   social-network and media-review variants, and 4 special workflows. *)
let workflows () =
  let tag suffix wfs = List.map (fun wf -> { label = wf.Workflow.wf_name ^ suffix; wf }) wfs in
  tag "" (Deathstar.all ~async:false ())
  @ tag "/async" (Deathstar.social_network ~async:true () @ Deathstar.media ~async:true ())
  @ tag ""
      [
        Special.fan_out ~callee_mem_mb:fan_out_callee_mem_mb ();
        Special.cross_language ();
        Special.modified_nearby_cinema ();
        Special.routed ();
      ]

let compose_post () =
  List.find (fun wf -> wf.Workflow.wf_name = "compose-post") (Deathstar.social_network ~async:false ())

(* Decision domains: at most two, and never more than the machine has. *)
let domains = min 2 (Domain.recommended_domain_count ())

let config ~seed = { Config.default with Config.seed; domains }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let merged_instrs (p : Quilt.t) =
  List.fold_left
    (fun acc (d : Deploy.merged_deployment) -> acc + Ir.instr_count d.Deploy.report.Pipeline.merged_module)
    0 p.Quilt.deployments

(* Remote calls per profiling window the plan keeps in-process: the
   unmerged cost minus the chosen solution's cut cost. *)
let remote_calls_saved (p : Quilt.t) =
  Quilt_cluster.Metrics.baseline_cost p.Quilt.callgraph - p.Quilt.solution.Types.cost

let merge_rounds (p : Quilt.t) =
  List.fold_left
    (fun acc (d : Deploy.merged_deployment) -> acc + List.length d.Deploy.report.Pipeline.rounds)
    0 p.Quilt.deployments

(* A module's text with every local value and block label renamed in order
   of first appearance within its function.  The merge pipeline draws
   conditional-invocation labels (qc<N>.local, ...) from a process-wide
   counter, so repeated merges of the same group in one process differ in
   these names only; plans are compared up to that renaming, and a
   renaming-only difference is counted apart. *)
let canonical_text (m : Ir.modul) =
  let names = Hashtbl.create 64 in
  let canon id =
    match Hashtbl.find_opt names id with
    | Some c -> c
    | None ->
        let c = "v" ^ string_of_int (Hashtbl.length names) in
        Hashtbl.add names id c;
        c
  in
  let is_id = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '$' -> true | _ -> false in
  let line l =
    let n = String.length l in
    if String.starts_with ~prefix:"define" l then Hashtbl.reset names;
    if n > 1 && l.[n - 1] = ':' && String.for_all is_id (String.sub l 0 (n - 1)) then
      canon (String.sub l 0 (n - 1)) ^ ":"
    else begin
      let b = Buffer.create n in
      let i = ref 0 in
      while !i < n do
        if l.[!i] = '%' then begin
          let j = ref (!i + 1) in
          while !j < n && is_id l.[!j] do incr j done;
          Buffer.add_char b '%';
          Buffer.add_string b (canon (String.sub l (!i + 1) (!j - !i - 1)));
          i := !j
        end
        else begin
          Buffer.add_char b l.[!i];
          incr i
        end
      done;
      Buffer.contents b
    end
  in
  String.concat "\n" (List.map line (String.split_on_char '\n' (Pp.to_string m)))

(* Everything a plan decides, rendered: the call graph, the solution, and
   per deployment its spec numbers and merged module ([module_text]). *)
let plan_text ~module_text (p : Quilt.t) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  Buffer.add_string b (Marshal.to_string p.Quilt.callgraph [ Marshal.No_sharing ]);
  let s = p.Quilt.solution in
  add "cost %d roots %s\n" s.Types.cost (String.concat "," (List.map string_of_int s.Types.roots));
  List.iter
    (fun (sg : Types.subgraph) ->
      add "sg %d [%s] %s %h %h\n" sg.Types.root
        (String.concat "," (List.map string_of_int sg.Types.absorbed))
        (String.concat "" (Array.to_list (Array.map (fun m -> if m then "1" else "0") sg.Types.members)))
        sg.Types.cpu sg.Types.mem_mb)
    s.Types.subgraphs;
  List.iter
    (fun (d : Deploy.merged_deployment) ->
      let sp = d.Deploy.spec and r = d.Deploy.report in
      add "dep %s [%s] %s %h %h %h %h %d %b\n" d.Deploy.root (String.concat "," d.Deploy.members)
        sp.Quilt_platform.Engine.service sp.vcpus sp.mem_limit_mb sp.base_mem_mb sp.image_mb sp.max_scale
        sp.eager_http;
      add "rep %s %d [%s] [%s]\n" r.Pipeline.entry r.Pipeline.removed_symbols
        (String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) r.Pipeline.rounds))
        (String.concat "," r.Pipeline.languages);
      Buffer.add_string b (module_text r.Pipeline.merged_module))
    p.Quilt.deployments;
  Buffer.contents b

type plan_digest = { canonical : Digest.t; raw : Digest.t }

let plan_digest p =
  {
    canonical = Digest.string (plan_text ~module_text:canonical_text p);
    raw = Digest.string (plan_text ~module_text:Pp.to_string p);
  }

(* [None] when the plans agree; a renaming-only difference is counted in
   [renamed]. *)
let compare_plans ~renamed a b =
  if a.canonical <> b.canonical then Some "plans differ"
  else begin
    if a.raw <> b.raw then incr renamed;
    None
  end
