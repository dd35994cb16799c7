(** The compilation pipeline of Figure 5: compile every member of a
    subgraph, link them in BFS order from the root, localize every
    cross-function invocation, and produce a single deployable module.

    The work runs in two sweeps.  The first visits every member in BFS
    order: its module is compiled (step ①) unless its code is already
    present, symbols are renamed to avoid collisions (② RenameFunc), the
    module is linked with language-runtime deduplication (③ llvm-link),
    and its handler is converted to a local function (the callee half of
    ④ MergeFunc).  The second calls MergeFunc's call-site rewrite once per
    callee, turning every matching invocation into a local call, possibly
    as a §5.6 conditional invocation.  Because every member is linked
    before any site is rewritten, one rewrite per callee reaches every
    member-internal site, whichever member calls it.  Rewriting per round
    would miss sites in members linked later and need a second pass, and
    that pass would guard again the remote fallback a conditional site
    keeps.  Each site is localized exactly once, so the result is the
    module §5.4's pairwise rounds describe.

    Afterwards the HTTP-stack initialisation is delayed (⑦ DelayHTTP), the
    optional optimization passes run, and unreferenced functions, runtimes
    and globals are stripped (⑧–⑩ llc / Implib.so / gc-sections, modelled
    by global DCE).  The result is verified.

    Every stage's output is checked by the strict verifier, through one
    {!Quilt_ir.Verify.checker} per merge: a stage re-checks only the
    functions it changed (passes return untouched functions physically),
    module-level checks run in full at every stage, and a failure carries
    the same stage-named message full re-verification would give. *)

type edge_mode = Always_local | Guarded of int
(** [Guarded alpha]: the first [alpha] calls per request stay local, later
    ones fall back to remote invocation (§5.6). *)

type report = {
  rounds : (string * int) list;
      (** Per merged callee, in BFS order: number of call sites rewritten.
          A site in a non-root member counts twice, once in its localized
          clone and once in its original handler (which the final DCE
          strips). *)
  removed_symbols : int;  (** Symbols stripped by the final DCE. *)
  languages : string list;  (** Distinct source languages in the result. *)
  merged_module : Quilt_ir.Ir.modul;
  entry : string;  (** The entry handler symbol, [entry_handler root]. *)
  verify_checked : int;
      (** Per-stage function checks the merge's verifier ran, one per
          function per stage it was new or changed in (see
          {!Quilt_ir.Verify.counts}). *)
  verify_reused : int;  (** Per-stage function checks answered from the verifier's memo. *)
}

val merge_group :
  lookup:(string -> Quilt_lang.Ast.fn) ->
  members:string list ->
  root:string ->
  ?edge_mode:(caller:string -> callee:string -> edge_mode) ->
  ?billing:bool ->
  ?optimize:bool ->
  unit ->
  report
(** [members] are service names (the root included); [lookup] resolves each
    to its source.  The call graph is derived from the ASTs; only edges
    between members are merged.  [edge_mode] defaults to
    [fun ~caller:_ ~callee:_ -> Always_local].
    [optimize] (default [true]) runs the analysis-driven optimization
    passes — {!Quilt_ir.Pass_shiminline}, {!Quilt_ir.Pass_sccp},
    {!Quilt_ir.Pass_jumpthread}, {!Quilt_ir.Pass_livedce}; [false] is the
    before-arm of [bench/main.exe ir]'s analysis section.
    Every stage's output is checked by the strict verifier, per changed
    function ({!Quilt_ir.Verify.check}); an [Error]-severity finding fails
    the merge immediately with the message
    [Verify.check_exn ~strict:true ~stage] gives, naming the stage.
    Raises [Failure] if a member is unreachable from the root through
    member-internal edges (the subgraph would not be a connected rDAG). *)

val entry_handler : string -> string
(** Symbol of the merged module's entry point (the root's handler). *)

(** {1 Stages}

    {!merge_group} is {!run_stages} over {!stages}, with a
    {!Quilt_ir.Verify.checker} as [check]. *)

type stage = { name : string; rewrite : Quilt_ir.Ir.modul -> Quilt_ir.Ir.modul }
(** [name] is the stage a verifier failure names: ["link"],
    ["mergefunc:<callee>"] per callee in BFS order, ["delayhttp"], the
    optimization passes ["shiminline"], ["sccp"], ["jumpthread"],
    ["livedce"], then ["dce"], ["billing"] and ["final"]. *)

val stages :
  lookup:(string -> Quilt_lang.Ast.fn) ->
  members:string list ->
  root:string ->
  ?edge_mode:(caller:string -> callee:string -> edge_mode) ->
  ?billing:bool ->
  ?optimize:bool ->
  unit ->
  Quilt_ir.Ir.modul * stage list
(** The root's compiled module and the stages {!merge_group} applies to
    it, in order, for the same arguments.  Each call compiles afresh. *)

val run_stages :
  check:(stage:string -> Quilt_ir.Ir.modul -> unit) ->
  Quilt_ir.Ir.modul ->
  stage list ->
  Quilt_ir.Ir.modul
(** Applies each stage in turn and calls [check ~stage:name] on its
    output; the first exception [check] raises ends the run. *)

(** {1 Content-addressed merge cache}

    {!merge_group} memoises compiled groups process-wide, keyed by the
    content of its inputs: each member's AST digest, the root, the
    edge-mode decisions over every ordered member pair, and the billing
    flag.  Drift-triggered re-merges and multi-seed bench fan-outs with
    unchanged inputs hit the cache; any source or guard change misses by
    construction, so there is no explicit invalidation.  The table is
    mutex-guarded (bench fan-outs merge from a Domain pool). *)

val set_cache_enabled : bool -> unit
(** Default: enabled.  Disabling makes {!merge_group} recompile every call
    (the before-arm of [bench/main.exe engine], and a debugging aid). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since start or the last {!reset_cache}. *)

val reset_cache : unit -> unit
(** Drops every cached report and zeroes {!cache_stats}. *)

val validate :
  ?fuel:int ->
  host:Quilt_ir.Interp.host ->
  report ->
  req:string ->
  (string * Quilt_ir.Interp.stats, string) result
(** Executes the merged module's entry handler on one request on the
    {!Quilt_ir.Vm} compiled engine. *)
