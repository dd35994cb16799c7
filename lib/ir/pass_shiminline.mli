(** ABI-shim inlining.

    {!Pass_mergefunc} routes every localized invocation through a pair of
    single-block forwarder functions — [caller2c_<lang>_<svc>] and
    [c2callee_<svc>] — that adapt string representations across the (in
    the worst case cross-language) ABI boundary.  The conversions they
    perform are real work, but the two extra call dispatches per
    invocation are pure overhead once the callee is in the same module.

    This pass inlines call sites whose target is one of those shims: the
    shim's single straight-line block is spliced into the caller with
    fresh local names, parameters substituted by the argument values and
    the returned value forwarded to the call's destination.  Iterated so
    a shim calling a shim flattens completely; the orphaned shim bodies
    are then stripped by the symbol-level {!Pass_dce}.  The exact same
    instructions execute in the same order — only the call/return
    dispatch disappears — so responses, traps and billing are unchanged.

    Only functions named [caller2c_*] / [c2callee_*] with a single block,
    no phis and a [ret] terminator are ever considered.  A function with
    no shim call site is returned physically unchanged.  Expects a module
    that passes {!Verify.run}. *)

val is_shim : string -> bool
(** Whether a symbol names a MergeFunc ABI shim ([caller2c_*] /
    [c2callee_*]) — the only functions this pass ever inlines. *)

val run : Ir.modul -> Ir.modul
