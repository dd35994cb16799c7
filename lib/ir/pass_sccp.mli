(** Sparse conditional constant propagation with CFG pruning (Wegman–Zadeck).

    Runs the optimistic three-level lattice (unknown / constant /
    overdefined) over every function's SSA graph, tracking which CFG edges
    are executable: constants discovered through phis and branches that a
    pessimistic folder cannot see.  At the fixpoint, constant instructions
    are deleted and their uses substituted, conditional branches on known
    conditions become unconditional, blocks no execution can reach are
    dropped, and phis lose incomings from removed edges.  Two kinds of
    instruction are resolved by copy propagation: a phi left with a single
    incoming, and an identity adjustment [gep ptr %x, 0] whose offset is
    the constant 0 or a local proven 0 (the aliases
    {!Pass_mergefunc.localize_handler} introduces).

    Semantics-preserving by construction on verified modules: division and
    remainder are never folded when the divisor is zero (the runtime trap
    is kept), branch truth mirrors the interpreter ([c <> 0L]), and float
    folding follows IEEE like the tree-walker does.  Expects a module that
    passes {!Verify.run}; behaviour on ill-formed input is unspecified.

    A function with nothing to fold, copy or prune is returned physically
    unchanged, and so is every untouched block and instruction. *)

val run : Ir.modul -> Ir.modul
