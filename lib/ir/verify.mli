(** Module well-formedness checks, run after every pipeline stage (there
    through {!checker}, which re-checks only the functions a stage changed).

    Two tiers.  The base tier catches what merging most often breaks:
    duplicate symbols, calls whose signature disagrees with the target,
    branches to missing labels, uses of undefined locals, references to
    missing globals, and return-type inconsistencies.  The strict tier
    ([run ~strict:true]) layers the {!Analysis}-backed checks on top: SSA
    dominance of every use, operand/result typing for every instruction
    class, phi-incoming-edges-match-CFG-predecessors, entry-block-has-no-
    phis, plus unreachable-block and dead-store lints (warnings).

    Every diagnostic carries a stable code, a severity, the function and —
    when known — the block it points at, so callers can filter, count, or
    render them ([quilt lint --json] does all three). *)

type severity = Error | Warning

type diagnostic = {
  code : string;  (** Stable: [Vnnn] base, [Snnn] strict, [Wnnn] lint, [Mnnn] interference. *)
  severity : severity;
  where : string;  (** Function name, or ["module"] for module-level findings. *)
  block : string option;  (** Block label when the finding is inside one. *)
  message : string;
}

val to_string : diagnostic -> string
(** [code severity [fn:block] message] — the line format of [quilt lint]. *)

val run : ?strict:bool -> Ir.modul -> diagnostic list
(** Empty when the module is well-formed (base tier) and, with
    [~strict:true], well-typed and properly dominated.  Calls to functions
    with no declaration or definition in the module are reported unless
    their name is in {!Intrinsics.names} (the host runtime).  Strict-tier
    warnings (unreachable blocks, dead stores) never appear without
    [~strict:true]. *)

val interference : Ir.modul -> diagnostic list
(** The merge-interference analyzer: findings specific to modules produced
    by fusing several members.  [M001] (error) — one name bound as both a
    function and a global, so [@name] references are ambiguous; [M002]
    (warning) — a mutable global stored to by two or more distinct members
    (member = the [svc] of a [svc__handler] / [svc__local] symbol);
    [M003] (error) — a call across a language boundary whose argument or
    return types disagree with the callee, i.e. a broken ABI shim. *)

val check_exn : ?strict:bool -> ?stage:string -> Ir.modul -> unit
(** Raises [Failure] with a readable summary if {!run} reports any
    [Error]-severity diagnostic ([Warning]s never raise).  [stage] names
    the pipeline stage in the summary. *)

(** {1 Incremental strict checking}

    A merge runs {!check_exn}[ ~strict:true] after every stage, yet most
    stages rewrite a handful of functions and return the rest physically
    unchanged (see {!Ir.map_shared}).  A checker remembers each function's
    findings and recomputes them only for functions it has not seen. *)

type checker
(** Per-function findings of the modules checked so far, keyed on each
    function's physical value.  Meant to live for one merge: it keeps the
    latest value per function name. *)

val checker : unit -> checker

val check : checker -> stage:string -> Ir.modul -> unit
(** [check c ~stage m] raises exactly when
    [check_exn ~strict:true ~stage m] would, with the same message.

    A function physically equal to the one last checked under its name
    reuses that check's findings.  Its strict-tier findings depend on the
    function alone and are reused as they are.  Its base-tier findings
    also depend on the module: the entry records every callee's signature
    and whether every [@name] it references exists, and is reused only
    when [m] resolves each of those names the same way; otherwise the base
    tier runs again on the function.  Module-level checks (V012 duplicate
    symbols) run in full on every call.  Any other function is checked in
    full and its findings replace the entry for its name. *)

val counts : checker -> int * int
(** [(checked, reused)] over every {!check} call so far, one per function
    per call: [checked] functions had a tier recomputed, [reused] ones
    had neither. *)
