(** The DelayHTTP pass (pipeline step ⑦).

    Serverless runtimes initialise their HTTP stack (libcurl and its ~40
    shared-library dependencies) before [main]; in a merged function most
    invocations became local calls that never use HTTP, so this pass deletes
    the eager [quilt_curl_global_init] calls and inserts a guarded
    [quilt_curl_init_once] immediately before every remaining
    [quilt_sync_inv] / [quilt_async_inv].  A merged function that stays
    local therefore never pays the library-loading cost — the interpreter
    and the cold-start model both observe this. *)

val run : Ir.modul -> Ir.modul
(** A function with no HTTP-init or invocation call is returned physically
    unchanged (see {!Ir.map_instrs}). *)

val eager_init_count : Ir.modul -> int
(** Number of remaining eager [quilt_curl_global_init] calls (0 after the
    pass). *)
