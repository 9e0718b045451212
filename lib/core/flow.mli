(** SuperFlow: the end-to-end RTL-to-GDS driver (paper Fig. 3).

    Pipeline: AOI netlist (from the Verilog frontend, a [.bench]
    file, or a generator) → majority-based logic synthesis with
    buffer/splitter insertion → row-wise timing-aware placement →
    max-wirelength buffer-line insertion → layer-wise A* routing →
    layout generation → DRC, with an automatic fix loop (violating
    regions get extra routing space and are re-routed) → GDSII.

    Every stage's report is retained so callers (CLI, benches, tests)
    can reproduce the paper's tables from one [run]. *)

type times = {
  synth_s : float;
  resyn_s : float;  (** resynthesis stage; ~0 at [--resyn-effort none] *)
  place_s : float;
  route_s : float;
  layout_s : float;
  check_s : float;  (** static-verification gate; 0 when disabled *)
}

type result = {
  aqfp_netlist : Netlist.t;  (** after buffer-line insertion *)
  problem : Problem.t;  (** final placed problem *)
  routing : Router.result;
  layout : Layout.t;
  violations : Diag.t list;
      (** residual DRC diagnostics after the fix loop, sorted with
          {!Diag.compare} (empty = clean signoff) *)
  synth_report : Synth_flow.report;
  resyn_report : Resyn.report;
      (** the resynthesis stage's QoR deltas and CEC statistics; at
          the default [Off] effort the before/after metrics coincide *)
  placement : Placer.result;
  sta : Sta.report;
  energy : Energy.report;  (** adiabatic energy estimate of the design *)
  buffer_lines : int;
  drc_fix_rounds : int;
  check_report : Check.report option;
      (** the [sf_check] gate's findings ([run ~check:true] only):
          netlist lints, AQFP legality, synthesis equivalence guards,
          placement audit, route connectivity, DRC and LVS-lite *)
  times : times;
}

val drc_cache_of_db : Db.t -> Drc.cache
(** DRC tile-verdict memo wired to the database's proof store — what
    the [route] stage (and [superflow drc]) attach so an ECO rerun
    re-checks only the tiles whose geometry changed. *)

val check_passes :
  ?tier:Check.tier ->
  ?absint_cache:Absint_check.cache ->
  result ->
  Check.pass list
(** The standard verification pipeline over a finished flow result —
    what [run ~check:true] and [superflow check] execute: [lint],
    the five [absint-*] dataflow passes, [aqfp], [equiv] (from the
    synthesis guards), [place], [route], [drc], [lvs], in that
    order. [tier] (default [Check.Fast]) gates the AIG/SAT-backed
    lints; [absint_cache] memoizes the dataflow findings (the flow
    wires it to the database's proof store). Exposed so callers can
    re-run or extend the gate. *)

(** {1 The stage graph}

    The flow is an explicit six-stage graph — [synth → resyn → place
    → route → layout → check] — and each stage is independently
    cacheable in a {!Db.t} design database. A stage's cache key is
    the hash of its input-artifact hashes plus every parameter that
    affects its result:

    - [synth]: the AOI netlist, whether equivalence guards run
      (i.e. whether the flow ends at the [check] stage), and which
      {!Equiv.engine} proves them;
    - [resyn]: the AQFP netlist from [synth], the {!Resyn.effort},
      and the guard configuration — covers cut-based majority
      resynthesis ({!Resyn.run}); its window-CEC verdicts memoize
      into the database's proof store, so a warm rerun proves
      nothing;
    - [place]: the AQFP netlist from [resyn], the technology record,
      the placement algorithm and the seed — covers placement,
      buffer-line insertion, the settling pass and channel pre-sizing;
    - [route]: the placed problem and the routing algorithm — covers
      the DRC fix loop, so its outputs are the final routing, the
      problem with its final row gaps, the residual violations and
      the fix-round count;
    - [layout]: the routed problem, the routing and the AQFP netlist
      — covers layout assembly, sign-off STA and the energy report;
    - [check]: every artifact the verification gate reads, plus the
      check tier and the equivalence engine (both are recorded in
      the report header).

    [--jobs] is deliberately absent from every key: stage results
    are bit-identical at any pool size (see {!Parallel}). *)

type stage = Synth | Resyn | Place | Route | Layout | Check

val stages : stage list
(** In dependency order. *)

val stage_name : stage -> string
val stage_of_string : string -> (stage, string) Stdlib.result
val stage_rank : stage -> int

type outcome =
  | Cached of float  (** loaded from the database, in [s] seconds *)
  | Computed of float  (** executed, in [s] seconds *)

type staged = {
  outcomes : (stage * outcome) list;  (** stages run, in order *)
  db_warnings : Diag.t list;
      (** corrupt cache entries healed by recomputation *)
  synth : (Netlist.t * Synth_flow.report) option;
  resyned : (Netlist.t * Resyn.report) option;
      (** resynthesized AQFP netlist and the stage report *)
  placed : (Netlist.t * Problem.t * Placer.result * int) option;
      (** buffered AQFP netlist, placed problem, placement report,
          buffer lines *)
  routed : (Router.result * Problem.t * Diag.t list * int) option;
      (** routing, problem with final row gaps, residual violations,
          fix rounds *)
  built : (Layout.t * Sta.report * Energy.report) option;
  checked : Check.report option;
  result : result option;  (** assembled when [to_stage >= Layout] *)
}

val run_staged :
  ?tech:Tech.t ->
  ?algorithm:Placer.algorithm ->
  ?router:Router.algorithm ->
  ?seed:int ->
  ?jobs:int ->
  ?db:Db.t ->
  ?from_stage:stage ->
  ?to_stage:stage ->
  ?equiv_engine:Equiv.engine ->
  ?check_tier:Check.tier ->
  ?resyn_effort:Resyn.effort ->
  ?gds_path:string ->
  ?def_path:string ->
  Netlist.t ->
  (staged, Diag.t) Stdlib.result
(** Run a slice of the stage graph, caching through [db] when given.

    Each stage first looks itself up in the database (key as above):
    on a hit its artifacts are loaded instead of recomputed and its
    outcome is [Cached]; on a miss it executes and persists its
    outputs. Without [db], every stage is [Computed].

    [from_stage] (default [Synth]) asserts that every earlier stage
    is already in the database — a miss there fails with [DB-FROM-01]
    rather than silently recomputing; [to_stage] (default [Layout])
    stops the graph early: the [staged] artifact fields of the stages
    after it are [None]. [to_stage = Check] switches the synthesis
    equivalence guards on, exactly like [run ~check:true];
    [equiv_engine] (default [`Auto]) selects the guard's proof engine
    ({!Equiv.engine}), participates in the [synth], [resyn] and
    [check] cache keys whenever the guards run and is recorded in the
    check report header, and
    when [db] is attached the individual cone proofs memoize into the
    database's proof cache ({!Db.put_proof}). [check_tier] (default
    [Check.Fast]) selects the gate's tier — [Fast] leans on the
    [sf_absint] dataflow passes, [Full] adds the AIG/SAT-backed lints
    — participates in the [check] cache key, and is recorded in the
    report header; the absint findings memoize into the proof cache
    keyed by the netlist's structural hash. [resyn_effort] (default
    [Resyn.Off]) selects the resynthesis stage's effort and
    participates in its cache key; its window-CEC verdicts memoize
    into the proof cache. Errors: [DB-RANGE-01]
    when [from_stage] is after [to_stage] or [from_stage] is given
    without [db]. *)

val run :
  ?tech:Tech.t ->
  ?algorithm:Placer.algorithm ->
  ?router:Router.algorithm ->
  ?seed:int ->
  ?jobs:int ->
  ?check:bool ->
  ?equiv_engine:Equiv.engine ->
  ?check_tier:Check.tier ->
  ?resyn_effort:Resyn.effort ->
  ?db:Db.t ->
  ?gds_path:string ->
  ?def_path:string ->
  Netlist.t ->
  result
(** Run the full flow on an AOI netlist. [algorithm] defaults to
    [Placer.Superflow] and [router] to [Router.Sequential];
    [jobs] sets the domain-pool size for the parallel stages
    (routing, placement gradients, STA, DRC, checker) — results are
    bit-identical at every value, see {!Parallel}; [check] (default
    false) runs the {!Check} static-verification gate over every
    stage handoff and stores its report; [equiv_engine] selects the
    synthesis guards' proof engine (default [`Auto]: BDD first, SAT
    on blow-up); [db] attaches a design
    database so stages are cached ({!run_staged}); [gds_path] writes
    the final GDSII stream; [def_path] the DEF-style
    placement/routing dump. *)

val run_verilog :
  ?tech:Tech.t -> ?algorithm:Placer.algorithm -> ?router:Router.algorithm ->
  ?seed:int -> ?jobs:int -> ?check:bool -> ?equiv_engine:Equiv.engine ->
  ?check_tier:Check.tier -> ?resyn_effort:Resyn.effort -> ?db:Db.t ->
  ?gds_path:string ->
  ?def_path:string -> string -> (result, string) Stdlib.result
(** Full flow from Verilog source text. *)

val run_bench_file :
  ?tech:Tech.t -> ?algorithm:Placer.algorithm -> ?router:Router.algorithm ->
  ?seed:int -> ?jobs:int -> ?check:bool -> ?equiv_engine:Equiv.engine ->
  ?check_tier:Check.tier -> ?resyn_effort:Resyn.effort -> ?db:Db.t ->
  ?gds_path:string ->
  ?def_path:string -> string -> (result, string) Stdlib.result
(** Full flow from an ISCAS [.bench] file path. *)

val version : string

val pp_summary : Format.formatter -> result -> unit
