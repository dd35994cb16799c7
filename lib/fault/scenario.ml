module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Deploy = Quilt_core.Deploy
module Json = Quilt_util.Json

type arm = Baseline | Cm | Quilt_merged

let arm_name = function Baseline -> "baseline" | Cm -> "cm" | Quilt_merged -> "quilt"
let arms = [ Baseline; Cm; Quilt_merged ]

type scenario = {
  sc_name : string;
  sc_descr : string;
  sc_hop_timeout_us : float option;
  sc_plan : seed:int -> total_us:float -> Plan.t;
}

(* All scenarios run the routed workflow (entry [route-split], two
   two-function chains): small enough to sweep three arms quickly, merged
   enough that quilt co-locates the entry with the hot chain — the fault
   domain whose size the scenarios probe. *)
let entry_fn = "route-split"

let frac total_us f = total_us *. f

let scenarios : scenario list =
  [
    {
      sc_name = "crashstorm";
      sc_descr = "entry deployment crash-loops mid-run";
      sc_hop_timeout_us = None;
      sc_plan =
        (fun ~seed ~total_us ->
          Plan.make ~seed
            [
              {
                Plan.at_us = frac total_us 0.3;
                fault =
                  Plan.Crash_storm
                    {
                      fn = entry_fn;
                      every_us = 400_000.0;
                      until_us = frac total_us 0.8;
                      count = 4;
                    };
              };
            ]);
    };
    {
      sc_name = "netchaos";
      sc_descr = "ingress delay/jitter plus 8% loss on every hop";
      sc_hop_timeout_us = Some 300_000.0;
      sc_plan =
        (fun ~seed ~total_us ->
          let dur = frac total_us 0.5 in
          Plan.make ~seed
            [
              {
                Plan.at_us = frac total_us 0.3;
                fault =
                  Plan.Net_delay
                    {
                      src = "client";
                      dst = entry_fn;
                      delay_us = 3_000.0;
                      jitter_us = 2_000.0;
                      duration_us = dur;
                    };
              };
              {
                Plan.at_us = frac total_us 0.3;
                fault = Plan.Net_drop { src = "*"; dst = "*"; p = 0.08; duration_us = dur };
              };
            ]);
    };
    {
      sc_name = "coldstorm";
      sc_descr = "image cache flushed, then repeated full-pool crashes";
      sc_hop_timeout_us = None;
      sc_plan =
        (fun ~seed ~total_us ->
          Plan.make ~seed
            [
              {
                Plan.at_us = frac total_us 0.25;
                fault =
                  Plan.Image_cache_flush
                    { pull_factor = 6.0; duration_us = frac total_us 0.6 };
              };
              { Plan.at_us = frac total_us 0.35; fault = Plan.Kill_all { fn = entry_fn } };
              { Plan.at_us = frac total_us 0.55; fault = Plan.Kill_all { fn = entry_fn } };
              { Plan.at_us = frac total_us 0.7; fault = Plan.Kill_all { fn = entry_fn } };
            ]);
    };
    {
      sc_name = "memspike";
      sc_descr = "transient memory pressure on the entry's containers";
      sc_hop_timeout_us = None;
      sc_plan =
        (fun ~seed ~total_us ->
          let spike at =
            {
              Plan.at_us = at;
              fault = Plan.Mem_spike { fn = entry_fn; mb = 70.0; duration_us = 2_000_000.0 };
            }
          in
          Plan.make ~seed [ spike (frac total_us 0.4); spike (frac total_us 0.65) ]);
    };
    {
      sc_name = "slowcpu";
      sc_descr = "entry deployment throttled to 35% CPU mid-run";
      sc_hop_timeout_us = None;
      sc_plan =
        (fun ~seed ~total_us ->
          Plan.make ~seed
            [
              {
                Plan.at_us = frac total_us 0.3;
                fault =
                  Plan.Cpu_degrade
                    { fn = entry_fn; factor = 0.35; duration_us = frac total_us 0.4 };
              };
            ]);
    };
  ]

let scenario_names = List.map (fun s -> s.sc_name) scenarios

let find_scenario name = List.find_opt (fun s -> String.equal s.sc_name name) scenarios

type outcome = {
  f_scenario : string;
  f_arm : string;
  f_policy : string;
  f_result : Loadgen.result;
  f_gateway : Policy.stats;
  f_trace : (float * string) list;
}

(* Same decision shape as the adaptive scenarios: a 6.5 ms/vCPU budget fits
   entry + one chain in a container but not entry + both, so quilt merges
   the profiled-hot chain with the entry. *)
let quilt_cfg ~smoke ~seed ~domains =
  {
    Config.default with
    Config.domains;
    cpu_budget_ms = 6.5;
    profile_duration_us = (if smoke then 8_000_000.0 else 20_000_000.0);
    seed = 1 + seed;
  }

let gen_req = Special.routed_req ~b_share:0.3

let run_one ?(smoke = false) ?(seed = 0) ?(domains = Config.default.Config.domains) ~scenario ~arm
    ~policy ~policy_name () =
  match find_scenario scenario with
  | None ->
      Error
        (Printf.sprintf "unknown fault scenario %S (known: %s)" scenario
           (String.concat ", " scenario_names))
  | Some sc -> (
      let wf = Special.routed () in
      let cfg = quilt_cfg ~smoke ~seed ~domains in
      let engine = Quilt.fresh_platform ~seed:(42 + seed) ~config:cfg ~workflows:[ wf ] () in
      let setup =
        match arm with
        | Baseline -> Ok ()
        | Cm ->
            Deploy.deploy_cm engine cfg wf;
            Ok ()
        | Quilt_merged -> (
            let wf_profiled = { wf with Workflow.gen_req } in
            match Quilt.optimize cfg ~workflows:[ wf_profiled ] wf_profiled with
            | Error e -> Error (Printf.sprintf "quilt arm optimization failed: %s" e)
            | Ok plan ->
                Quilt.apply engine plan;
                Ok ())
      in
      match setup with
      | Error e -> Error e
      | Ok () ->
          (* Let rolling deploys flip before traffic (and faults) start. *)
          Engine.run_until engine 2_000_000.0;
          Engine.set_hop_timeout engine sc.sc_hop_timeout_us;
          let duration_us = if smoke then 12_000_000.0 else 40_000_000.0 in
          let warmup_us = duration_us *. 0.1 in
          let total_us = warmup_us +. duration_us in
          let armed = Plan.arm (sc.sc_plan ~seed ~total_us) engine in
          let gw = Policy.create ~seed engine policy in
          let result =
            Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req ~rate_rps:20.0
              ~duration_us ~warmup_us ~seed ~via:(Policy.submit_fn gw) ()
          in
          Ok
            {
              f_scenario = sc.sc_name;
              f_arm = arm_name arm;
              f_policy = policy_name;
              f_result = result;
              f_gateway = Policy.stats gw;
              f_trace = Plan.trace armed;
            })

let run_matrix ?(smoke = false) ?(seed = 0) ?domains ?(scenario_filter = None)
    ?(policy = Policy.default_retry) ?(policy_name = "retry") () =
  let chosen =
    match scenario_filter with
    | None -> scenarios
    | Some n -> List.filter (fun s -> String.equal s.sc_name n) scenarios
  in
  if chosen = [] then
    Error
      (Printf.sprintf "unknown fault scenario (known: %s)" (String.concat ", " scenario_names))
  else begin
    let acc = ref [] in
    let err = ref None in
    List.iter
      (fun sc ->
        List.iter
          (fun arm ->
            if !err = None then
              match run_one ~smoke ~seed ?domains ~scenario:sc.sc_name ~arm ~policy ~policy_name () with
              | Ok o -> acc := o :: !acc
              | Error e -> err := Some e)
          arms)
      chosen;
    match !err with Some e -> Error e | None -> Ok (List.rev !acc)
  end

let outcome_json o =
  let r = o.f_result in
  let g = o.f_gateway in
  Json.Obj
    [
      ("scenario", Json.str o.f_scenario);
      ("arm", Json.str o.f_arm);
      ("policy", Json.str o.f_policy);
      ("availability", Json.Float (Loadgen.availability r));
      ("p99_ms", Json.Float (Loadgen.p99_ms r));
      ("median_ms", Json.Float (Loadgen.median_ms r));
      ("goodput_rps", Json.Float (Loadgen.goodput_rps r));
      ("offered", Json.int r.Loadgen.offered);
      ("failures", Json.int r.Loadgen.failures);
      ("retries", Json.int g.Policy.retries);
      ("hedges", Json.int g.Policy.hedges);
      ("timeouts", Json.int g.Policy.timeouts);
      ("budget_denied", Json.int g.Policy.budget_denied);
      ("recovered", Json.int g.Policy.recovered);
      ("replayed_chains", Json.int g.Policy.replayed_chains);
      ("wasted_work_ms", Json.Float (g.Policy.wasted_work_us /. 1000.0));
      ( "counters",
        let c = r.Loadgen.counters in
        Json.Obj
          [
            ("cold_starts", Json.int c.Engine.cold_starts);
            ("oom_kills", Json.int c.Engine.oom_kills);
            ("crash_kills", Json.int c.Engine.crash_kills);
            ("net_drops", Json.int c.Engine.net_drops);
            ("hop_timeouts", Json.int c.Engine.hop_timeouts);
          ] );
      ("fault_events", Json.int (List.length o.f_trace));
    ]

let print_outcome o =
  let r = o.f_result in
  let g = o.f_gateway in
  Printf.printf "  %-10s %-8s %-6s  avail %5.1f%%  p99 %8.2fms  goodput %6.1f rps  retries %4d  wasted %8.1fms\n"
    o.f_scenario o.f_arm o.f_policy
    (100.0 *. Loadgen.availability r)
    (Loadgen.p99_ms r) (Loadgen.goodput_rps r) g.Policy.retries
    (g.Policy.wasted_work_us /. 1000.0)
