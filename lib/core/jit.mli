(** The pure translator: one four-phase pipeline (decode, translate,
    register-allocate, encode) for every translation the engine
    installs — tier-0 blocks, template-stitched blocks and hot regions.

    A job reads only its {!jit_env} and its {!request}, which carries a
    snapshot of the guest bytes it may decode; it never sees the engine,
    the machine or live guest memory.  [Engine] depends on this module,
    never the reverse, so the compiler enforces that a worker domain
    cannot touch engine state. *)

(** The configuration and stats records, re-exported by [Engine]. *)
module Decls : sig
  type config = {
    hw_fp : bool; (* hardware FP (Captive) vs softfloat helpers (Sec. 3.6.2) *)
    chaining : bool;
    pcid : bool; (* use PCIDs when switching address-space roots *)
    split_va_check : bool; (* 64-bit guest address-space split handling *)
    max_block : int; (* maximum guest instructions per translation block *)
    sanitize : bool; (* shadow-oracle MMU invariant checking (Hvm.Sanitize) *)
    sanitize_every : int; (* extra periodic checkpoint every N translated blocks *)
    tiering : bool; (* tiered translation: profile tier-0 blocks, form hot regions *)
    templates : bool; (* tier minus one: template-stitched cold translation
                         (Hostir.Template); active only with [tiering], since
                         promotion is what buys back code quality *)
    hot_threshold : int; (* executions of a tier-0 block before promotion *)
    region_max_blocks : int; (* maximum members in one region (all on one page) *)
    promote : bool; (* region-scoped register promotion + memory redundancy elim *)
    promote_max_regs : int; (* register-file offsets cached per region *)
    (* symbolic translation validation (Hostir.Equiv): every accepted
       translation is re-derived as an unoptimized reference emission and
       checked for exit-point equivalence; any finding is a miscompile *)
    validate_translations : bool;
    validate_every : int; (* validate every Nth tier-0 block (regions: always) *)
    (* static obligation checking (Hostir.Absint): every translation the
       engine produces is analyzed at translate time — register-file
       offsets in-bounds and aligned, spill slots inside the frame,
       promoted-register discipline and writeback coverage *)
    analyze_translations : bool;
    (* the O4 absint-simplify region pass: fold branches with known
       conditions, delete cross-block dead definitions, drop redundant
       masks, strength-reduce division — on facts that only materialize
       after region flattening and promotion *)
    absint_simplify : bool;
    (* relocation-cleanliness certification (Hostir.Reloc): every encoded
       translation is analyzed at translate time — operands and control
       transfers classified relocatable or pinned, encoding determinism
       audited; any finding means the translation can't be persisted *)
    reloc_check : bool;
    (* persistent AOT translation cache directory: certified translations
       are stored here and reinstalled (guest bytes verified, certificate
       re-checked, chain/exit sites re-bound) instead of re-translated.
       Implies certification of every translation. *)
    aot_dir : string option;
    (* concurrent JIT (OCaml 5 domains): total domains the engine may use.
       1 = fully synchronous, bit-identical to the historical engine;
       N > 1 spawns N-1 JIT worker domains that execute region-formation
       jobs while the vCPU keeps running tier-0 code.  Not part of the
       AOT config signature: the generated code is identical either way. *)
    domains : int;
    (* deterministic schedule jitter for the stress harness: seeds a PRNG
       that perturbs when completed translation jobs are drained and
       installed, widening the publish/invalidate race window without
       giving up reproducibility. *)
    stress_seed : int64 option;
  }

  val default_config : config

  type phase_stats = {
    mutable t_decode : float;
    mutable t_translate : float;
    mutable t_regalloc : float;
    mutable t_encode : float;
    (* per-tier wall-time split of translation work: template stitching
       (tier -1), cold block pipeline (tier 0), region formation (tier 1);
       t_template covers mining + patching + stitching, the others cover
       the whole pipeline pass for their tier *)
    mutable t_template : float;
    mutable t_tier0 : float;
    mutable t_region : float;
    mutable blocks_translated : int;
    mutable guest_instrs_translated : int;
    mutable host_instrs_emitted : int;
    mutable host_bytes_emitted : int;
    mutable dead_marked : int;
    mutable spills : int;
    mutable blocks_executed : int;
    mutable chain_hits : int;
    mutable smc_invalidations : int;
    (* tiered translation *)
    mutable promotions : int; (* tier-0 blocks that crossed the hotness threshold *)
    mutable regions_formed : int; (* multi-block region translations built *)
    mutable region_blocks : int; (* total member blocks across formed regions *)
    mutable region_host_instrs : int; (* host instrs emitted for region units *)
    mutable region_entries : int; (* dispatches that entered a region unit *)
    mutable region_block_execs : int; (* member blocks executed inside regions *)
    mutable region_dead_stores : int; (* cross-block dead register-file stores removed *)
    (* register promotion / memory redundancy elimination (Promote) *)
    mutable rf_promoted : int; (* register-file offsets promoted across regions *)
    mutable region_wb_entries : int; (* writeback-map entries across regions *)
    mutable mem_loads_elided : int; (* Mem_lds satisfied by a previous load *)
    mutable stores_forwarded : int; (* Mem_lds satisfied by a previous store *)
    (* symbolic translation validation (Hostir.Equiv) *)
    mutable t_validate : float;
    mutable blocks_validated : int; (* tier-0 blocks checked against the oracle *)
    mutable regions_validated : int; (* tier-1 regions checked against the oracle *)
    mutable validation_findings : int; (* equivalence divergences (miscompiles) *)
    mutable validations_bounded : int; (* checks that hit a path/step bound *)
    (* static obligation checking + absint-simplify (Hostir.Absint) *)
    mutable t_analyze : float;
    mutable blocks_analyzed : int; (* tier-0 blocks obligation-checked *)
    mutable regions_analyzed : int; (* tier-1 regions obligation-checked *)
    mutable obligation_findings : int; (* static obligation violations *)
    mutable absint_branches_folded : int; (* Br with decided condition -> Jmp *)
    mutable absint_consts_folded : int; (* pure results proved constant *)
    mutable absint_masks_dropped : int; (* redundant masks/extensions elided *)
    mutable absint_divs_reduced : int; (* unsigned div/rem by 2^k reduced *)
    mutable absint_dead_deleted : int; (* cross-block dead definitions removed *)
    (* relocation-cleanliness certification (Hostir.Reloc) *)
    mutable t_reloc : float;
    mutable translate_cycles : int; (* simulated cycles charged to translation/AOT *)
    (* per-tier ledger split of [translate_cycles]: template installs
       (stitch + patch + kind-2 AOT loads) vs the full pipeline (cold
       blocks, regions, kind-0/1 AOT loads); the two always sum to
       [translate_cycles] *)
    mutable translate_cycles_template : int;
    mutable translate_cycles_pipeline : int;
    (* template tier (Hostir.Template) *)
    mutable template_blocks : int; (* blocks installed by template stitching *)
    mutable template_instrs : int; (* guest instructions those blocks cover *)
    mutable template_misses : int; (* instructions with no usable template *)
    mutable template_fallback_blocks : int; (* blocks that fell back to the cold pipeline *)
    mutable templates_mined : int; (* template variants mined this run *)
    mutable blocks_certified : int; (* tier-0 blocks certified relocation-clean *)
    mutable regions_certified : int; (* region units certified relocation-clean *)
    mutable reloc_findings : int; (* relocation-cleanliness violations *)
    (* persistent AOT translation cache (Aotcache) *)
    mutable aot_hits : int; (* translations installed from the cache *)
    mutable aot_misses : int; (* sites with no reusable entry *)
    mutable aot_stores : int; (* certified translations persisted *)
    mutable aot_rejects : int; (* disk entries refused (corrupt or flagged) *)
    (* concurrent JIT job accounting (domains > 1 only; all 0 when synchronous) *)
    mutable jobs_enqueued : int; (* region jobs handed to the worker pool *)
    mutable jobs_completed : int; (* worker results drained by the vCPU *)
    mutable jobs_installed : int; (* results published into the sharded cache *)
    mutable jobs_stale : int; (* results rejected at install: page generation or guest hash changed (SMC) *)
    mutable jobs_cancelled : int; (* queued jobs dropped by invalidate_page before a worker took them *)
    mutable jobs_dropped : int; (* enqueues refused because the bounded queue was full *)
  }

  val new_phase_stats : unit -> phase_stats

  val add_stats : phase_stats -> phase_stats -> unit
  (** [add_stats dst d] adds every field of the delta [d] into [dst]. *)
end

include module type of struct
  include Decls
end

val now : unit -> float

(** Immutable configuration captured at engine creation, plus the
    per-guest template table: a memo that template jobs extend as they
    mine, touched only by the vCPU (template jobs never run on a worker). *)
type jit_env = {
  je_guest : Guest.Ops.ops;
  je_config : config;
  je_n_helpers : int;  (** helper symbol table size, for Reloc env bounds *)
  je_rf_bytes : int;  (** guest register file size, for Reloc env bounds *)
  je_templates : Hostir.Template.t;
}

val env : config:config -> n_helpers:int -> rf_bytes:int -> Guest.Ops.ops -> jit_env

type member_desc = {
  md_va : int64;
  md_off : int;  (** byte offset of the member's code in its guest page *)
  md_len : int;  (** guest code bytes its tier-0 record covers (regions; 0 for blocks) *)
  md_succs : int64 list;  (** profiled successor VAs, hottest first *)
}

type kind =
  | Block  (** tier 0: the generator-function pipeline *)
  | Template  (** tier -1: template stitching; may raise {!Fallback} *)
  | Region  (** tier 1: members as one unit, region passes, promotion *)

(** A translation site: guest-PA + EL/MMU regime, the members to
    translate, and the guest bytes they are decoded from.  A block
    request has one member and snapshots from its PA to the page end or
    [max_block] instructions, whichever comes first; a region request
    snapshots the head's whole page. *)
type request = {
  rq_kind : kind;
  rq_head_va : int64;
  rq_pa_page : int64;
  rq_el : int;
  rq_mmu : bool;
  rq_members : member_desc list;
  rq_snapshot : bytes;
  rq_snap_off : int;  (** page offset of the snapshot's first byte *)
  rq_validate : bool;  (** the vCPU's Equiv sampling verdict *)
}

(** An encoded, possibly certified unit plus the stats delta and capped
    finding logs accumulated producing it, merged at install. *)
type result = {
  r_program : Hostir.Encode.program;
  r_code : bytes;
  r_cert : Hostir.Reloc.certificate option;
  r_aot : bool;  (** reloaded from the AOT cache rather than translated *)
  r_n_guest : int;
  r_n_host : int;
  r_n_slots : int;
  r_n_exits : int;
  r_members : (int64 * int) array;  (** (VA, guest bytes) spans the unit covers *)
  r_stats : phase_stats;
  r_validation_log : (string * string) list;
  r_analysis_log : (string * string) list;
  r_reloc_log : (string * string) list;
}

exception Fallback of phase_stats * string option
(** A template request that cannot be stitched: the stats delta so far
    and the opcode with no usable template, if one missed. *)

val run : jit_env -> request -> result
(** Decode, the kind's translate step, then the shared tail: sampled
    Equiv validation, register allocation, Absint obligations, encode,
    Reloc certification.  Raises {!Fallback} (template requests) or a
    writeback-discipline violation from [Verify.check_wb_exn]. *)

val head_pa : request -> int64
val describe : request -> string

val member_spans : request -> (int64 * int) array
(** The (VA, guest bytes) spans of a region request's members. *)

val guest_bytes : request -> (int64 * int) array -> bytes
(** The snapshot bytes under the given (VA, length) spans, concatenated. *)

val field_of : el:int -> Adl.Decode.decoded -> string -> int64
val append_capped : (string * string) list -> (string * string) list -> (string * string) list

(** {1 AOT cache} *)

val aot_kind : kind -> int
val cfg_sig : jit_env -> int64

val persistable : jit_env -> result -> bool
(** A freshly translated result covering real guest bytes, whose members
    re-decoded to exactly the spans their tier-0 records cover. *)

val aot_entry : jit_env -> request -> result -> Hostir.Reloc.certificate -> Aotcache.entry

type loaded =
  | Loaded of result
  | Mismatch  (** another site's entry: try the next candidate *)
  | Rejected of phase_stats * (string * string) list  (** counted in [aot_rejects] *)

val load : jit_env -> request -> Aotcache.entry -> loaded
(** Turn a candidate entry into the result a fresh translation of the
    request would produce.  A block entry must span a whole number of
    instructions inside the request's snapshot (checked before any
    guest byte is compared); a region entry must cover the members
    profiling selected.  Its bytes must match the snapshot and its code
    must re-certify. *)
