(* The translator's configuration and stats records.  [Jit] re-exports
   them as [Jit.Decls] and [Engine] includes them, so their fields keep
   the [Engine.] names. *)

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
  promote : bool; (* region-scoped register promotion (Hostir.Promote) *)
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
     masks — on facts that only materialize after region flattening and
     promotion *)
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

let default_config =
  {
    hw_fp = true;
    chaining = true;
    pcid = true;
    split_va_check = true;
    max_block = 64;
    sanitize = false;
    sanitize_every = 32;
    tiering = true;
    templates = true;
    hot_threshold = 64;
    region_max_blocks = 8;
    promote = true;
    promote_max_regs = 4;
    validate_translations = false;
    validate_every = 1;
    analyze_translations = false;
    absint_simplify = true;
    reloc_check = false;
    aot_dir = None;
    domains = 1;
    stress_seed = None;
  }

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
  (* register promotion (Promote) *)
  mutable rf_promoted : int; (* register-file offsets promoted across regions *)
  mutable region_wb_entries : int; (* writeback-map entries across regions *)
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

let new_phase_stats () =
  {
    t_decode = 0.;
    t_translate = 0.;
    t_regalloc = 0.;
    t_encode = 0.;
    t_template = 0.;
    t_tier0 = 0.;
    t_region = 0.;
    blocks_translated = 0;
    guest_instrs_translated = 0;
    host_instrs_emitted = 0;
    host_bytes_emitted = 0;
    dead_marked = 0;
    spills = 0;
    blocks_executed = 0;
    chain_hits = 0;
    smc_invalidations = 0;
    promotions = 0;
    regions_formed = 0;
    region_blocks = 0;
    region_host_instrs = 0;
    region_entries = 0;
    region_block_execs = 0;
    region_dead_stores = 0;
    rf_promoted = 0;
    region_wb_entries = 0;
    t_validate = 0.;
    blocks_validated = 0;
    regions_validated = 0;
    validation_findings = 0;
    validations_bounded = 0;
    t_analyze = 0.;
    blocks_analyzed = 0;
    regions_analyzed = 0;
    obligation_findings = 0;
    absint_branches_folded = 0;
    absint_consts_folded = 0;
    absint_masks_dropped = 0;
    absint_dead_deleted = 0;
    t_reloc = 0.;
    translate_cycles = 0;
    translate_cycles_template = 0;
    translate_cycles_pipeline = 0;
    template_blocks = 0;
    template_instrs = 0;
    template_misses = 0;
    template_fallback_blocks = 0;
    templates_mined = 0;
    blocks_certified = 0;
    regions_certified = 0;
    reloc_findings = 0;
    aot_hits = 0;
    aot_misses = 0;
    aot_stores = 0;
    aot_rejects = 0;
    jobs_enqueued = 0;
    jobs_completed = 0;
    jobs_installed = 0;
    jobs_stale = 0;
    jobs_cancelled = 0;
    jobs_dropped = 0;
  }

(* Merge a stats delta that a pure translation job accumulated
   off-thread into the engine's totals.  Every field is additive. *)
let add_stats (dst : phase_stats) (d : phase_stats) =
  dst.t_decode <- dst.t_decode +. d.t_decode;
  dst.t_translate <- dst.t_translate +. d.t_translate;
  dst.t_regalloc <- dst.t_regalloc +. d.t_regalloc;
  dst.t_encode <- dst.t_encode +. d.t_encode;
  dst.t_template <- dst.t_template +. d.t_template;
  dst.t_tier0 <- dst.t_tier0 +. d.t_tier0;
  dst.t_region <- dst.t_region +. d.t_region;
  dst.blocks_translated <- dst.blocks_translated + d.blocks_translated;
  dst.guest_instrs_translated <- dst.guest_instrs_translated + d.guest_instrs_translated;
  dst.host_instrs_emitted <- dst.host_instrs_emitted + d.host_instrs_emitted;
  dst.host_bytes_emitted <- dst.host_bytes_emitted + d.host_bytes_emitted;
  dst.dead_marked <- dst.dead_marked + d.dead_marked;
  dst.spills <- dst.spills + d.spills;
  dst.blocks_executed <- dst.blocks_executed + d.blocks_executed;
  dst.chain_hits <- dst.chain_hits + d.chain_hits;
  dst.smc_invalidations <- dst.smc_invalidations + d.smc_invalidations;
  dst.promotions <- dst.promotions + d.promotions;
  dst.regions_formed <- dst.regions_formed + d.regions_formed;
  dst.region_blocks <- dst.region_blocks + d.region_blocks;
  dst.region_host_instrs <- dst.region_host_instrs + d.region_host_instrs;
  dst.region_entries <- dst.region_entries + d.region_entries;
  dst.region_block_execs <- dst.region_block_execs + d.region_block_execs;
  dst.region_dead_stores <- dst.region_dead_stores + d.region_dead_stores;
  dst.rf_promoted <- dst.rf_promoted + d.rf_promoted;
  dst.region_wb_entries <- dst.region_wb_entries + d.region_wb_entries;
  dst.t_validate <- dst.t_validate +. d.t_validate;
  dst.blocks_validated <- dst.blocks_validated + d.blocks_validated;
  dst.regions_validated <- dst.regions_validated + d.regions_validated;
  dst.validation_findings <- dst.validation_findings + d.validation_findings;
  dst.validations_bounded <- dst.validations_bounded + d.validations_bounded;
  dst.t_analyze <- dst.t_analyze +. d.t_analyze;
  dst.blocks_analyzed <- dst.blocks_analyzed + d.blocks_analyzed;
  dst.regions_analyzed <- dst.regions_analyzed + d.regions_analyzed;
  dst.obligation_findings <- dst.obligation_findings + d.obligation_findings;
  dst.absint_branches_folded <- dst.absint_branches_folded + d.absint_branches_folded;
  dst.absint_consts_folded <- dst.absint_consts_folded + d.absint_consts_folded;
  dst.absint_masks_dropped <- dst.absint_masks_dropped + d.absint_masks_dropped;
  dst.absint_dead_deleted <- dst.absint_dead_deleted + d.absint_dead_deleted;
  dst.t_reloc <- dst.t_reloc +. d.t_reloc;
  dst.translate_cycles <- dst.translate_cycles + d.translate_cycles;
  dst.translate_cycles_template <- dst.translate_cycles_template + d.translate_cycles_template;
  dst.translate_cycles_pipeline <- dst.translate_cycles_pipeline + d.translate_cycles_pipeline;
  dst.template_blocks <- dst.template_blocks + d.template_blocks;
  dst.template_instrs <- dst.template_instrs + d.template_instrs;
  dst.template_misses <- dst.template_misses + d.template_misses;
  dst.template_fallback_blocks <- dst.template_fallback_blocks + d.template_fallback_blocks;
  dst.templates_mined <- dst.templates_mined + d.templates_mined;
  dst.blocks_certified <- dst.blocks_certified + d.blocks_certified;
  dst.regions_certified <- dst.regions_certified + d.regions_certified;
  dst.reloc_findings <- dst.reloc_findings + d.reloc_findings;
  dst.aot_hits <- dst.aot_hits + d.aot_hits;
  dst.aot_misses <- dst.aot_misses + d.aot_misses;
  dst.aot_stores <- dst.aot_stores + d.aot_stores;
  dst.aot_rejects <- dst.aot_rejects + d.aot_rejects;
  dst.jobs_enqueued <- dst.jobs_enqueued + d.jobs_enqueued;
  dst.jobs_completed <- dst.jobs_completed + d.jobs_completed;
  dst.jobs_installed <- dst.jobs_installed + d.jobs_installed;
  dst.jobs_stale <- dst.jobs_stale + d.jobs_stale;
  dst.jobs_cancelled <- dst.jobs_cancelled + d.jobs_cancelled;
  dst.jobs_dropped <- dst.jobs_dropped + d.jobs_dropped
