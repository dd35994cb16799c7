(** Canned chaos scenarios over the three deployment arms.

    Each scenario arms a deterministic {!Plan} against the routed workflow
    deployed three ways — per-function baseline, the container-merge
    baseline, and quilt's merged grouping — and measures availability, tail
    latency, goodput, and the retry gateway's wasted-work bill.  The point
    is the blast-radius contrast: a crash storm on the entry hurts the
    merged arms more (one container hosts more of the chain), while network
    chaos hurts the baseline more (more remote hops exposed to loss). *)

type arm = Baseline | Cm | Quilt_merged

val arm_name : arm -> string
val arms : arm list

val scenario_names : string list
(** ["crashstorm"; "netchaos"; "coldstorm"; "memspike"; "slowcpu"]. *)

type outcome = {
  f_scenario : string;
  f_arm : string;
  f_policy : string;
  f_result : Quilt_platform.Loadgen.result;
  f_gateway : Policy.stats;
  f_trace : (float * string) list;  (** The armed plan's activation log. *)
}

val run_one :
  ?smoke:bool ->
  ?seed:int ->
  ?domains:int ->
  scenario:string ->
  arm:arm ->
  policy:Policy.t ->
  policy_name:string ->
  unit ->
  (outcome, string) result
(** One (scenario, arm, policy) cell.  [smoke] shrinks the run to ~12
    virtual seconds; [seed] perturbs every stream (engine, workload, fault
    plan, gateway jitter) so the whole cell is reproducible from one
    number; [domains] sets the quilt arm's decision domains (default
    {!Quilt_core.Config.default}'s).  [Error] on unknown scenario names or when the quilt arm's
    offline optimization fails. *)

val run_matrix :
  ?smoke:bool ->
  ?seed:int ->
  ?domains:int ->
  ?scenario_filter:string option ->
  ?policy:Policy.t ->
  ?policy_name:string ->
  unit ->
  (outcome list, string) result
(** Every scenario (or just [scenario_filter]) × every arm, under one
    policy (default {!Policy.default_retry}). *)

val outcome_json : outcome -> Quilt_util.Json.t
val print_outcome : outcome -> unit
