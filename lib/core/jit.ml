(* The pure translator: one four-phase pipeline (paper Sec. 2.3-2.4,
   timed per phase for Fig. 20) — decode, translate, register-allocate,
   encode — behind every translation the engine installs: tier-0
   blocks, template-stitched blocks (tier -1) and hot regions (tier 1).

   A job is a function of its [jit_env] and its [request], which carries
   a snapshot of the guest bytes it may decode.  It never sees the
   engine, the machine or live guest memory, so the same [run] executes
   inline on the vCPU or on a worker domain.  Everything stateful —
   probing the AOT cache, publishing, page protection, cycle charges —
   stays in [Engine], which depends on this module and not the other
   way round. *)

module Dag = Hostir.Dag
module Regalloc = Hostir.Regalloc
module Encode = Hostir.Encode
module Hir = Hostir.Hir
module Equiv = Hostir.Equiv
module Ops = Guest.Ops

module Decls = Jit_decls

include Decls

let now () = Unix.gettimeofday ()

(* Everything a job may read besides its request: immutable
   configuration captured at engine creation, plus the per-guest
   template table.  The table is a memo that template jobs extend as
   they mine; only the vCPU runs template jobs, so no worker domain
   ever touches it. *)
type jit_env = {
  je_guest : Ops.ops;
  je_config : config;
  je_n_helpers : int; (* helper symbol table size, for Reloc env bounds *)
  je_rf_bytes : int; (* guest register file size, for Reloc env bounds *)
  je_templates : Hostir.Template.t;
}

let lower_intrinsic config name : Dag.lowering =
  let is_fp = String.length name > 2 && (String.sub name 0 2 = "fp" || String.length name > 4 && String.sub name 0 4 = "sint" || String.sub name 0 4 = "uint") in
  if (not config.hw_fp) && is_fp then
    match Common.softfloat_index name with Some h -> Dag.L_helper h | None -> Dag.L_inline
  else Dag.L_inline

let dag_config (guest : Ops.ops) (config : config) ~mmu_on =
  {
    Dag.bank_offset = guest.Ops.bank_offset;
    slot_offset = guest.Ops.slot_offset;
    lower_intrinsic = lower_intrinsic config;
    effect_helper = Common.effect_helper_index;
    coproc_read_helper = Common.h_coproc_read;
    coproc_write_helper = Common.h_coproc_write;
    split_va_check = config.split_va_check && mmu_on;
    as_switch_helper = Common.h_as_switch;
  }

let env ~config ~n_helpers ~rf_bytes (guest : Ops.ops) : jit_env =
  {
    je_guest = guest;
    je_config = config;
    je_n_helpers = n_helpers;
    je_rf_bytes = rf_bytes;
    je_templates =
      Hostir.Template.create ~config:(dag_config guest config) ~rf_bytes
        ~insn_size:guest.Ops.insn_size;
  }

(* --- requests and results ---------------------------------------------------- *)

type member_desc = {
  md_va : int64;
  md_off : int; (* byte offset of the member's code in its guest page *)
  md_len : int; (* guest code bytes its tier-0 record covers (regions; 0 for blocks) *)
  md_succs : int64 list; (* profiled successor VAs, hottest first *)
}

type kind = Block | Template | Region

(* Guest-PA site + EL/MMU regime in, encoded program out.  A block
   request has one member and snapshots only what decode can read (up
   to the page end or [max_block] instructions); a region request
   snapshots the head's whole page (regions never cross a page). *)
type request = {
  rq_kind : kind;
  rq_head_va : int64;
  rq_pa_page : int64;
  rq_el : int;
  rq_mmu : bool;
  rq_members : member_desc list;
  rq_snapshot : bytes;
  rq_snap_off : int; (* page offset of the snapshot's first byte *)
}

(* A translate-time checker finding: which checker raised it, the
   translation it concerns, and the checker's detail. *)
type checker = Validate | Analyze | Reloc

type finding = { checker : checker; what : string; detail : string }

(* The encoded program plus the stats delta and capped finding log the
   job accumulated, merged on the vCPU at install time.  [r_members]
   are the (VA, guest bytes) spans the unit covers; [r_aot] marks a
   result reloaded from the AOT cache instead of translated. *)
type result = {
  r_program : Encode.program;
  r_code : bytes;
  r_cert : Hostir.Reloc.certificate option;
  r_aot : bool;
  r_n_guest : int;
  r_n_host : int;
  r_n_slots : int;
  r_n_exits : int;
  r_members : (int64 * int) array;
  r_stats : phase_stats;
  r_findings : finding list;
}

(* A template request whose block cannot be stitched: the stats delta
   so far and the opcode that had no usable template, if one missed. *)
exception Fallback of phase_stats * string option

let head_pa (req : request) = Int64.logor req.rq_pa_page (Int64.logand req.rq_head_va 0xFFFL)

(* The (VA, guest bytes) spans of a region request's members. *)
let member_spans (req : request) =
  Array.of_list (List.map (fun md -> (md.md_va, md.md_len)) req.rq_members)

let describe (req : request) =
  let site = Printf.sprintf "pa=0x%Lx va=0x%Lx" (head_pa req) req.rq_head_va in
  let block = Printf.sprintf "block %s el=%d mmu=%b" site req.rq_el req.rq_mmu in
  match req.rq_kind with
  | Block -> block
  | Template -> "template " ^ block
  | Region -> Printf.sprintf "region %s members=%d" site (List.length req.rq_members)

(* The snapshot bytes under [spans], concatenated: what a unit covering
   them was translated from. *)
let guest_bytes (req : request) (spans : (int64 * int) array) : bytes =
  let buf = Buffer.create 256 in
  Array.iter
    (fun (va, len) ->
      let off = Int64.to_int (Int64.logand va 0xFFFL) - req.rq_snap_off in
      Buffer.add_subbytes buf req.rq_snapshot off len)
    spans;
  Buffer.to_bytes buf

(* --- decode ------------------------------------------------------------------ *)

let field_of ~el (d : Adl.Decode.decoded) =
  let el = Int64.of_int el in
  fun name ->
    if name = "__el" then el
    else
      match List.assoc_opt name d.Adl.Decode.field_values with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "no field %s in %s" name d.Adl.Decode.name)

let inc_pc (je : jit_env) (d : Adl.Decode.decoded) =
  if d.Adl.Decode.ends_block then None else Some je.je_guest.Ops.insn_size

(* Decode one guest basic block from the snapshot, starting at member
   [md]; returns the decoded instructions in order, or [(..., true)]
   when the very first instruction is undefined (the caller emits an
   exception stub).  Stops at a block end, at [max_block] instructions
   or at the page boundary. *)
let decode (je : jit_env) (req : request) (md : member_desc) : Adl.Decode.decoded list * bool =
  let model = je.je_guest.Ops.model in
  let snap = req.rq_snapshot in
  let decoded = ref [] in
  let n = ref 0 in
  let undefined_stub = ref false in
  let continue_ = ref true in
  while !continue_ do
    (* The snapshot ends at the page boundary (or sooner, for a block,
       at [max_block] instructions): no word is read past it. *)
    let at = md.md_off - req.rq_snap_off + (4 * !n) in
    let word () = Int64.logand 0xFFFF_FFFFL (Int64.of_int32 (Bytes.get_int32_le snap at)) in
    match if at + 4 <= Bytes.length snap then Ssa.Offline.decode model (word ()) else None with
    | Some d ->
      decoded := d :: !decoded;
      incr n;
      if d.Adl.Decode.ends_block || !n >= je.je_config.max_block then continue_ := false
    | None ->
      if !n = 0 then undefined_stub := true;
      continue_ := false
  done;
  (List.rev !decoded, !undefined_stub)

let gen_insn (je : jit_env) em ~el (d : Adl.Decode.decoded) =
  Ssa.Gen.translate em
    (Ssa.Offline.action je.je_guest.Ops.model d.Adl.Decode.name)
    ~field:(field_of ~el d) ~inc_pc:(inc_pc je d)

let equiv_items (je : jit_env) ~el decoded : Equiv.item list =
  List.map
    (fun d ->
      {
        Equiv.it_action = Ssa.Offline.action je.je_guest.Ops.model d.Adl.Decode.name;
        it_field = field_of ~el d;
        it_inc_pc = inc_pc je d;
      })
    decoded

(* --- checkers: one recorder each ----------------------------------------------- *)

(* The finding log is capped per checker: counters keep exact totals,
   the log keeps each checker's first [log_cap] findings, all in
   discovery order. *)
let log_cap = 64

let append_capped (log : finding list) = function
  | [] -> log
  | extra ->
    let kept = [| 0; 0; 0 |] in
    List.filter
      (fun f ->
        let i = match f.checker with Validate -> 0 | Analyze -> 1 | Reloc -> 2 in
        kept.(i) <- kept.(i) + 1;
        kept.(i) <= log_cap)
      (log @ extra)

let log_findings log checker what to_string findings =
  log :=
    append_capped !log (List.map (fun f -> { checker; what = what f; detail = to_string f }) findings)

(* Account one Equiv outcome: counters, plus the capped log of findings
   (full detail, for the check subcommand's report). *)
let record_validation ~(s : phase_stats) ~log ~what ~region (r : Equiv.outcome) =
  if region then s.regions_validated <- s.regions_validated + 1
  else s.blocks_validated <- s.blocks_validated + 1;
  if not r.Equiv.complete then s.validations_bounded <- s.validations_bounded + 1;
  s.validation_findings <- s.validation_findings + List.length r.Equiv.findings;
  log_findings log Validate
    (fun (f : Equiv.finding) -> Printf.sprintf "%s: %s" what f.Equiv.f_name)
    (fun (f : Equiv.finding) -> f.Equiv.f_detail)
    r.Equiv.findings

(* Static obligation checking of one translation: the pre-allocation
   stream carries the register-file and writeback-discipline
   obligations, the allocated stream the spill-frame bounds.  Counters
   plus the capped log (for the check subcommand's report). *)
let record_analysis ~(s : phase_stats) ~log ~what ~region ~promoted ~(pre : Hir.instr array)
    (ra : Regalloc.result) =
  let ta = now () in
  let findings =
    Hostir.Absint.check_translation ~classify:Common.helper_kind ~promoted pre
    @ Hostir.Absint.check_frame ~n_slots:ra.Regalloc.n_slots ra.Regalloc.instrs
  in
  if region then s.regions_analyzed <- s.regions_analyzed + 1
  else s.blocks_analyzed <- s.blocks_analyzed + 1;
  s.obligation_findings <- s.obligation_findings + List.length findings;
  log_findings log Analyze (fun _ -> what) Hostir.Absint.finding_to_string findings;
  s.t_analyze <- s.t_analyze +. (now () -. ta)

(* Certify one encoded translation relocation-clean (operand/control
   classification + encoding-determinism audit); [Some] carries the
   certificate the AOT cache persists.  Counters plus the capped log
   (for the check subcommand's report). *)
let record_reloc (je : jit_env) ~(s : phase_stats) ~log ~what ~region ~n_exits ~n_slots ?ra
    (code : bytes) : Hostir.Reloc.certificate option =
  let t0 = now () in
  let env =
    { Hostir.Reloc.n_exits; n_helpers = je.je_n_helpers; n_slots; rf_bytes = je.je_rf_bytes }
  in
  let r = Hostir.Reloc.certify ~env ?ra code in
  (match r with
  | Ok _ ->
    if region then s.regions_certified <- s.regions_certified + 1
    else s.blocks_certified <- s.blocks_certified + 1
  | Error fs ->
    s.reloc_findings <- s.reloc_findings + List.length fs;
    log_findings log Reloc (fun _ -> what) Hostir.Reloc.finding_to_string fs);
  s.t_reloc <- s.t_reloc +. (now () -. t0);
  Result.to_option r

(* A translated or AOT-loaded result, with its unit counters added to
   its own stats delta. *)
let counted kind (r : result) =
  let s = r.r_stats in
  (match kind with
  | Region ->
    s.regions_formed <- s.regions_formed + 1;
    s.region_blocks <- s.region_blocks + Array.length r.r_members
  | Block | Template ->
    s.blocks_translated <- s.blocks_translated + 1;
    s.guest_instrs_translated <- s.guest_instrs_translated + r.r_n_guest;
    s.host_instrs_emitted <- s.host_instrs_emitted + r.r_n_host;
    s.host_bytes_emitted <- s.host_bytes_emitted + Bytes.length r.r_code;
    if kind = Template then begin
      s.template_blocks <- s.template_blocks + 1;
      s.template_instrs <- s.template_instrs + r.r_n_guest
    end);
  r

(* --- the kind-specific translate steps ------------------------------------------ *)

(* What a translate step hands the shared tail: the pre-allocation
   stream, its allocation when the step already made one, the promoted
   register-file offsets, and the Equiv reference check when validation
   is on. *)
type emitted = {
  em_pre : Hir.instr array;
  em_ra : Regalloc.result option;
  em_promoted : (int * int) list;
  em_n_guest : int;
  em_check : (Hir.instr array -> Equiv.outcome) option;
}

(* Tier 0: one generator-function pass over the invocation DAG.  An
   undefined first instruction gets a stub that raises the guest's
   undefined-instruction exception. *)
let emit_block (je : jit_env) (req : request) (s : phase_stats) decoded ~undef : Hir.instr array =
  let el = req.rq_el in
  let t1 = now () in
  let dag = Dag.create (dag_config je.je_guest je.je_config ~mmu_on:req.rq_mmu) in
  let em = Dag.emitter dag in
  if undef then
    em.Ssa.Emitter.effect "take_exception" [ em.Ssa.Emitter.const 0L; em.Ssa.Emitter.const 0L ]
  else List.iter (gen_insn je em ~el) decoded;
  Dag.raw dag (Hir.Exit 0);
  let instrs = Dag.finish dag in
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_tier0 <- s.t_tier0 +. (now () -. t1);
  instrs

(* Tier minus one: stitch per-instruction template fragments instead of
   running the DAG pass.  Raises [Fallback] (the engine goes to the
   pipeline) when the first instruction is undefined, when any form is
   untemplatable, or when a hole fails to patch.  The stitched block
   then passes the same shared tail as a pipeline one. *)
let stitch (je : jit_env) (req : request) (s : phase_stats) decoded ~undef :
    Hir.instr array * Regalloc.result =
  if undef || decoded = [] then raise (Fallback (s, None));
  let el = req.rq_el and mmu_on = req.rq_mmu in
  let t1 = now () in
  let tt = je.je_templates in
  let miss = ref None in
  (* Look up (or mine, first time per form+pins) one fragment per
     decoded instruction; any miss sends the whole block cold. *)
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | d :: rest -> (
      let name = d.Adl.Decode.name in
      let action = Ssa.Offline.action je.je_guest.Ops.model name in
      let field = field_of ~el d in
      match Hostir.Template.fragment tt ~action ~name ~inc_pc:(inc_pc je d) ~mmu_on ~field with
      | Hostir.Template.Hit f -> gather ((f, field) :: acc) rest
      | Hostir.Template.Mined f ->
        s.templates_mined <- s.templates_mined + 1;
        gather ((f, field) :: acc) rest
      | Hostir.Template.Miss _ ->
        s.template_misses <- s.template_misses + 1;
        miss := Some name;
        None)
  in
  let stitched =
    match gather [] decoded with
    | None -> None
    | Some frags -> (
      match Hostir.Template.assemble tt frags with
      | None -> None
      | Some (pre, ra) ->
        (* Defensive structural check on the fabricated allocation:
           a stitching bug must fall back cold, never reach encode. *)
        if Hostir.Verify.check ~original:pre ra <> [] then None else Some (pre, ra))
  in
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_template <- s.t_template +. (now () -. t1);
  match stitched with
  | None ->
    s.template_fallback_blocks <- s.template_fallback_blocks + 1;
    raise (Fallback (s, !miss))
  | Some stitched -> stitched

(* Tier 1: the members become one unit.  Intra-region control flow is a
   PC-compare dispatch per member, straightened into direct jumps where
   the target is static, with no per-block prologue and cross-block dead
   register-file stores eliminated.  Members keep their own tier-0 cache
   entries (the region replaces only the head's), so a mid-region exit
   falls back to block-at-a-time execution; every member entry begins
   with a [Poll] safepoint, so interrupts, regime changes (the poison
   register) and the run loop's cycle/block budgets are honoured at
   block granularity exactly like the baseline dispatch loop.  A
   writeback-discipline violation ([Verify.check_wb_exn]) propagates as
   an exception. *)
let emit_region (je : jit_env) (req : request) (s : phase_stats) : emitted =
  let cfg = je.je_config in
  let el = req.rq_el and mmu_on = req.rq_mmu in
  let t1 = now () in
  let config = dag_config je.je_guest cfg ~mmu_on in
  let dag = Dag.create config in
  let em = Dag.emitter dag in
  let entries = List.map (fun md -> (md, em.Ssa.Emitter.create_block ())) req.rq_members in
  let entry_label va =
    List.find_map (fun (md, l) -> if Int64.equal md.md_va va then Some l else None) entries
  in
  let dispatch_labels = ref Hostir.Region.Iset.empty in
  let n_guest = ref 0 in
  (* Per-member decode record, kept only when validating: enough for
     Equiv to re-create the member/dispatch skeleton. *)
  let member_refs = ref [] in
  let keep_ref mr = if cfg.validate_translations then member_refs := mr :: !member_refs in
  List.iteri
    (fun mi (md, l) ->
      em.Ssa.Emitter.set_block l;
      Dag.raw dag (Hir.Poll 0);
      let decoded, undef = decode je req md in
      if undef || decoded = [] then begin
        (* cannot happen for an already-translated member; bail to the
           dispatcher rather than mistranslate *)
        keep_ref { Equiv.mb_va = md.md_va; mb_items = []; mb_undef = true; mb_targets = [] };
        Dag.raw dag (Hir.Exit 0)
      end
      else begin
        n_guest := !n_guest + List.length decoded;
        List.iter (gen_insn je em ~el) decoded;
        (* Member epilogue: PC-compare dispatch to the profiled
           in-region successors, hottest first; anything else exits to
           the engine dispatcher. *)
        let l_d = em.Ssa.Emitter.create_block () in
        Dag.raw dag (Hir.Jmp l_d);
        em.Ssa.Emitter.set_block l_d;
        dispatch_labels := Hostir.Region.Iset.add l_d !dispatch_labels;
        let targets =
          List.filter_map
            (fun va -> Option.map (fun lt -> (va, lt)) (entry_label va))
            md.md_succs
        in
        keep_ref
          {
            Equiv.mb_va = md.md_va;
            mb_items = equiv_items je ~el decoded;
            mb_undef = false;
            mb_targets = List.map fst targets;
          };
        let pc = Dag.fresh_vreg dag in
        if targets <> [] then Dag.raw dag (Hir.Load_pc pc);
        List.iter
          (fun (va_t, lt) ->
            let c = Dag.fresh_vreg dag in
            Dag.raw dag (Hir.Setcc (Hir.Ceq, c, pc, Hir.Imm va_t));
            let l_next = em.Ssa.Emitter.create_block () in
            Dag.raw dag (Hir.Br (c, lt, l_next));
            em.Ssa.Emitter.set_block l_next)
          targets;
        (* Slot mi+1: this member's own exit site, so the engine can
           patch a per-site chain edge (slot 0 = safepoint bail,
           never chained). *)
        Dag.raw dag (Hir.Exit (mi + 1))
      end)
    entries;
  let instrs = Dag.finish dag in
  let member_entry = List.map (fun (md, l) -> (md.md_va, l)) entries in
  let n0 = Array.length instrs in
  let instrs =
    Hostir.Region.optimize ~dispatch_labels:!dispatch_labels ~member_entry instrs
  in
  s.region_dead_stores <- s.region_dead_stores + (n0 - Array.length instrs);
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_region <- s.t_region +. (now () -. t1);
  let t2 = now () in
  let t_simplify = ref 0. in
  let instrs, ra, promoted =
    if not cfg.promote then (instrs, Regalloc.run instrs, [])
    else begin
      (* Promotion widens live ranges across the whole region, and a
         promoted access through a spill slot costs more than the
         [Ldrf] it replaced — so promotion is only accepted when
         allocation stays spill-free relative to the unpromoted
         stream, narrowing the candidate set until it does.  Width 0
         still runs copy propagation and register-file forwarding. *)
      let ra0 = Regalloc.run instrs in
      let rec attempt k =
        let promoted_instrs, promoted, ps =
          Hostir.Promote.run ~max_regs:k ~classify:Common.helper_kind instrs
        in
        (* The O4 absint-simplify pass, on the flattened promoted
           stream where its facts materialize: fold decided branches,
           delete cross-block dead definitions, drop proved-redundant
           masks.  The writeback discipline is re-proved below on the
           simplified stream. *)
        let instrs', ss =
          if cfg.absint_simplify then begin
            let ts = now () in
            let r = Hostir.Absint.simplify ~classify:Common.helper_kind promoted_instrs in
            t_simplify := !t_simplify +. (now () -. ts);
            r
          end
          else (promoted_instrs, Hostir.Absint.empty_simplify_stats ())
        in
        let ra' = Regalloc.run instrs' in
        if ra'.Regalloc.n_spilled <= ra0.Regalloc.n_spilled then begin
          (* Always-on safety net: a region whose safepoint, exit or
             faulting access is reachable with an uncovered dirty
             promoted register would silently corrupt guest state.
             Checked on the promoter's own output first — a promotion
             bug must surface here, before simplify's dead-code pass
             can delete the dirty definition that would incriminate
             it — and again on the simplified stream the engine
             actually runs. *)
          let wb_what pass = Printf.sprintf "%s pass=%s" (describe req) pass in
          Hostir.Verify.check_wb_exn ~what:(wb_what "promote") ~classify:Common.helper_kind
            ~promoted promoted_instrs;
          if cfg.absint_simplify then
            Hostir.Verify.check_wb_exn ~what:(wb_what "absint-simplify")
              ~classify:Common.helper_kind ~promoted instrs';
          s.rf_promoted <- s.rf_promoted + ps.Hostir.Promote.promoted;
          s.region_wb_entries <- s.region_wb_entries + ps.Hostir.Promote.wb_entries;
          s.absint_branches_folded <- s.absint_branches_folded + ss.Hostir.Absint.branches_folded;
          s.absint_consts_folded <- s.absint_consts_folded + ss.Hostir.Absint.consts_folded;
          s.absint_masks_dropped <- s.absint_masks_dropped + ss.Hostir.Absint.masks_dropped;
          s.absint_dead_deleted <- s.absint_dead_deleted + ss.Hostir.Absint.dead_deleted;
          (instrs', ra', promoted)
        end
        else if k = 0 then (instrs, ra0, [])
        else attempt (k - 1)
      in
      attempt cfg.promote_max_regs
    end
  in
  s.spills <- s.spills + ra.Regalloc.n_spilled;
  (* The simplify pass runs inside the allocation window; account it
     to the analysis phase so the bench breakdown separates them. *)
  s.t_regalloc <- s.t_regalloc +. (now () -. t2 -. !t_simplify);
  s.t_analyze <- s.t_analyze +. !t_simplify;
  {
    em_pre = instrs;
    em_ra = Some ra;
    em_promoted = promoted;
    em_n_guest = !n_guest;
    (* Validated on the final pre-regalloc stream (region passes,
       promotion and Wbmap included). *)
    em_check =
      (if cfg.validate_translations then
         Some
           (fun opt ->
             Equiv.check_region ~classify:Common.helper_kind ~config
               ~init_pc:(Hostir.Symexec.Const req.rq_head_va) ~opt (List.rev !member_refs))
       else None);
  }

(* --- the job ---------------------------------------------------------------------- *)

(* Decode from the snapshot, run the kind's translate step, then the
   shared tail: Equiv validation, register allocation, Absint
   obligations, encode, Reloc certification, unit counters.  Runs on a
   worker domain or inline on the vCPU; reads nothing but [je] and
   [req]. *)
let run (je : jit_env) (req : request) : result =
  let s = new_phase_stats () in
  let log = ref [] in
  let cfg = je.je_config in
  let region = req.rq_kind = Region in
  let em =
    match req.rq_kind with
    | Region -> emit_region je req s
    | Block | Template ->
      let t0 = now () in
      let decoded, undef = decode je req (List.hd req.rq_members) in
      s.t_decode <- s.t_decode +. (now () -. t0);
      let pre, ra =
        if req.rq_kind = Block then (emit_block je req s decoded ~undef, None)
        else
          let pre, ra = stitch je req s decoded ~undef in
          (pre, Some ra)
      in
      let check opt =
        Equiv.check_block ~classify:Common.helper_kind
          ~config:(dag_config je.je_guest cfg ~mmu_on:req.rq_mmu)
          ~init_pc:(Hostir.Symexec.Const req.rq_head_va) ~opt
          (equiv_items je ~el:req.rq_el decoded)
      in
      {
        em_pre = pre;
        em_ra = ra;
        em_promoted = [];
        em_n_guest = List.length decoded;
        em_check = (if cfg.validate_translations && not undef then Some check else None);
      }
  in
  let what = describe req in
  let pre = em.em_pre in
  let ra =
    match em.em_ra with
    | Some ra -> ra
    | None ->
      let t2 = now () in
      let ra = Regalloc.run pre in
      s.t_regalloc <- s.t_regalloc +. (now () -. t2);
      s.spills <- s.spills + ra.Regalloc.n_spilled;
      ra
  in
  (match em.em_check with
  | Some check ->
    let tv = now () in
    record_validation ~s ~log ~what ~region (check pre);
    s.t_validate <- s.t_validate +. (now () -. tv)
  | None -> ());
  if cfg.analyze_translations then
    record_analysis ~s ~log ~what ~region ~promoted:em.em_promoted ~pre ra;
  let t3 = now () in
  let code = Encode.encode ra in
  let program = Encode.decode_program ~n_slots:ra.Regalloc.n_slots code in
  s.t_encode <- s.t_encode +. (now () -. t3);
  let n_host = Array.length pre in
  let n_exits = if region then List.length req.rq_members else 0 in
  let members =
    if region then member_spans req
    else [| (req.rq_head_va, je.je_guest.Ops.insn_size * em.em_n_guest) |]
  in
  (* Certification is a pure function of the encoded bytes; the
     certificate travels with the result and decides persistence at
     install. *)
  let cert =
    if cfg.reloc_check || cfg.aot_dir <> None then
      record_reloc je ~s ~log ~what ~region ~n_exits ~n_slots:ra.Regalloc.n_slots ~ra code
    else None
  in
  counted req.rq_kind
    {
      r_program = program;
      r_code = code;
      r_cert = cert;
      r_aot = false;
      r_n_guest = em.em_n_guest;
      r_n_host = n_host;
      r_n_slots = ra.Regalloc.n_slots;
      r_n_exits = n_exits;
      r_members = members;
      r_stats = s;
      r_findings = !log;
    }

(* --- the AOT cache side of a request ------------------------------------------------- *)

let aot_kind = function Block -> 0 | Region -> 1 | Template -> 2

(* Signature over everything that changes generated code for the same
   guest bytes: guest model identity (name, offline opt level, total SSA
   size) plus every config field the translator consults.  Two boots may
   exchange cache entries iff their signatures agree. *)
let cfg_sig (je : jit_env) : int64 =
  let c = je.je_config and g = je.je_guest in
  Hostir.Reloc.hash64
    (Bytes.of_string
       (Printf.sprintf "%s|%d|%d|%d|%b|%b|%b|%b|%d|%b|%d|%d|%b|%d|%b|%b" g.Ops.name
          g.Ops.model.Ssa.Offline.opt_level
          (Ssa.Offline.total_size g.Ops.model)
          g.Ops.insn_size c.hw_fp c.chaining c.pcid c.split_va_check c.max_block c.tiering
          c.hot_threshold c.region_max_blocks c.promote c.promote_max_regs c.absint_simplify
          c.templates))

(* Persisted only when the unit covers real guest bytes (undefined
   stubs are re-translated on every boot) and, for a region, its
   members re-decoded to exactly the spans their tier-0 records cover —
   a warm boot reuses the unit only when profiling selects that
   identical member set. *)
let persistable (je : jit_env) (res : result) =
  (not res.r_aot)
  && Array.for_all (fun (_, len) -> len > 0) res.r_members
  && Array.fold_left (fun acc (_, len) -> acc + len) 0 res.r_members
     = je.je_guest.Ops.insn_size * res.r_n_guest

let aot_entry (je : jit_env) (req : request) (res : result) (cert : Hostir.Reloc.certificate) :
    Aotcache.entry =
  {
    Aotcache.e_kind = aot_kind req.rq_kind;
    e_va = req.rq_head_va;
    e_pa = head_pa req;
    e_el = req.rq_el;
    e_mmu = req.rq_mmu;
    e_cfg = cfg_sig je;
    e_members = res.r_members;
    e_guest = guest_bytes req res.r_members;
    e_n_slots = res.r_n_slots;
    e_n_exits = res.r_n_exits;
    e_n_guest = res.r_n_guest;
    e_n_host = res.r_n_host;
    e_code = res.r_code;
    e_hash = cert.Hostir.Reloc.c_hash;
  }

type loaded =
  | Loaded of result
  | Mismatch (* another site's entry: try the next candidate *)
  | Rejected of phase_stats * finding list (* counted in aot_rejects *)

(* Turn a candidate cache entry into the result a fresh translation of
   [req] would have produced.  The entry must cover exactly the spans
   the request translates (a block: a whole number of instructions
   inside the snapshot, checked before any byte is compared; a region:
   the members profiling selected), its guest bytes must equal the
   snapshot's, and the stored code must re-certify. *)
let load (je : jit_env) (req : request) (entry : Aotcache.entry) : loaded =
  let { Aotcache.e_guest; e_members; e_code; e_n_slots; e_n_guest; e_n_host; e_n_exits; _ } =
    entry
  in
  let s = new_phase_stats () in
  let reject log =
    s.aot_rejects <- s.aot_rejects + 1;
    Rejected (s, log)
  in
  let region = req.rq_kind = Region in
  let len = Bytes.length e_guest in
  let spans = if region then member_spans req else [| (req.rq_head_va, len) |] in
  if
    (not region)
    && (e_n_guest < 1
       || len <> je.je_guest.Ops.insn_size * e_n_guest
       || len > Bytes.length req.rq_snapshot)
  then reject []
  else if (region && e_members <> spans) || not (Bytes.equal e_guest (guest_bytes req spans))
  then Mismatch
  else
    let log = ref [] in
    let what = "aot " ^ describe (if region then req else { req with rq_kind = Block }) in
    match record_reloc je ~s ~log ~what ~region ~n_exits:e_n_exits ~n_slots:e_n_slots e_code with
    | None -> reject !log
    | Some cert ->
      s.aot_hits <- s.aot_hits + 1;
      Loaded
        (counted req.rq_kind
           {
             r_program = Encode.decode_program ~n_slots:e_n_slots e_code;
             r_code = e_code;
             r_cert = Some cert;
             r_aot = true;
             r_n_guest = e_n_guest;
             r_n_host = e_n_host;
             r_n_slots = e_n_slots;
             r_n_exits = e_n_exits;
             r_members = spans;
             r_stats = s;
             r_findings = !log;
           })
