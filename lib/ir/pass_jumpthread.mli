(** Branch and jump-threading cleanup.

    Three rewrites, iterated to a fixpoint: a conditional branch whose two
    targets coincide becomes an unconditional one; an empty forwarding
    block (no instructions, unconditional branch, not the entry) is
    bypassed by retargeting its predecessors straight to its successor;
    and a block whose sole successor has it as sole predecessor absorbs
    that successor.  Phi nodes in downstream blocks have their incoming
    labels retargeted at every step, and a forwarding block is kept
    whenever bypassing it would hand a phi two incompatible incomings for
    one predecessor.  Unreachable blocks left behind are dropped.

    Control-flow only: no instruction is reordered, duplicated or
    deleted, so the pass is trivially semantics-preserving on verified
    modules.  A function none of the rewrites applies to is returned
    physically unchanged. *)

val run : Ir.modul -> Ir.modul
