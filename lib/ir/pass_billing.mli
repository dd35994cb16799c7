(** Per-function billing instrumentation (§8).

    Merged functions obscure the serverless billing boundary — many
    functions run as one process.  The paper suggests instrumenting the
    merged code with billing operations via LLVM; this pass does exactly
    that: every application function (handler or localized body) gets a
    [quilt_bill] call at entry naming the original function, so the
    provider can still count per-function executions inside a merged
    binary.  The interpreter accumulates the ticks in
    {!Interp.stats.billing}. *)

val run : Ir.modul -> Ir.modul
(** Functions other than handlers and localized bodies are returned
    physically unchanged. *)

val billed_functions : Ir.modul -> string list
(** Original function names instrumented in the module. *)
