(** Liveness-based instruction-level dead-code elimination.

    Complements {!Pass_dce}, which strips whole unreferenced symbols.
    Dropping a pure instruction once its destination has no textual use
    can never retire a self-sustaining cluster such as a phi-carried loop
    recurrence whose value never escapes.  This pass instead marks
    liveness backward from the observable roots (calls, loads, stores,
    terminator operands) through the def-use graph and drops every pure
    instruction left unmarked, plus stores into never-read slots (and then
    the slots themselves).

    Only binops, compares, geps, selects, phis and allocas are ever
    deleted; integer division counts as pure here, so an unused division
    by zero is dropped rather than kept as a trap.  A function with nothing
    to drop is returned physically unchanged.  Expects a module that
    passes {!Verify.run}. *)

val run : Ir.modul -> Ir.modul
