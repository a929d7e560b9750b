(* The Captive DBT hypervisor engine (paper Sec. 2.3, 2.4, 2.6, 2.7).

   - Translations are produced by the pure four-phase pipeline in [Jit]
     (decode -> translate -> register allocation -> encode); the engine
     builds its requests, probes the AOT cache, and installs every
     result through one [install].
   - The code cache is indexed by guest *physical* address (plus exception
     level and MMU regime); guest page-table changes do not invalidate it.
   - Guest page tables are mapped onto host page tables on demand by the
     host-page-fault handler; guest user code runs in host ring 3.
   - Two host page-table sets cover the guest's lower (TTBR0) and upper
     (TTBR1) address spaces; generated code checks the VA split and
     switches sets under distinct PCIDs (Sec. 2.7.5).
   - Self-modifying code is caught by write-protecting host mappings of
     guest pages that contain translated code (Sec. 2.6). *)

module Exec = Hostir.Exec
module Encode = Hostir.Encode
module Dag = Hostir.Dag
module Hir = Hostir.Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost
module Ops = Guest.Ops
module Bits = Dbt_util.Bits

(* The configuration and phase-stats records live with the translator
   that reads and fills them; [Engine.config], [Engine.phase_stats] and
   their fields are the same types. *)
include Jit.Decls


type translation = {
  t_key : int64 * int * bool;
  t_va : int64; (* VA it was translated from (for per-block statistics) *)
  t_program : Encode.program;
  t_n_guest : int;
  t_n_host : int;
  t_bytes : int;
  mutable t_chain : (int64 * int * translation) option; (* expected (va, el) -> target *)
  mutable t_exec_count : int;
  mutable t_cycles : int;
  (* tiered translation *)
  mutable t_tier : int;
      (* -1 = template-stitched block (profiled like tier 0);
         0 = profiled tier-0 block; 1 = promoted/region member *)
  t_members : int; (* 1 for plain blocks; number of member blocks for regions *)
  mutable t_succs : (int64 * int * int) list; (* bounded (va, el, count) profile *)
  (* Per-exit-site chain edges of a region unit, indexed by exit slot - 1:
     each member's dispatch chunk exits through its own slot, so each exit
     site patches to its own stable successor (classic trace-exit
     chaining) instead of flapping a single shared edge.  [||] for plain
     blocks, which keep the single [t_chain] edge. *)
  t_exits : (int64 * int * translation) option array;
}

(* Unlink every chain edge into the [gone] records, and drop their own
   outgoing edges.  A chain hit bypasses the cache, so an edge surviving
   into a replaced or invalidated record would re-enter stale code; and
   the dispatch loop may still hold a gone record as its current block,
   which must not chain onward.  Called wherever a published record is
   replaced (install) or removed (SMC invalidation). *)
let unlink_edges_into (cache : translation Codecache.t) (gone : translation list) =
  let unlink = function Some (_, _, tgt) when List.memq tgt gone -> None | edge -> edge in
  Codecache.iter
    (fun _ tr ->
      tr.t_chain <- unlink tr.t_chain;
      Array.iteri (fun i edge -> tr.t_exits.(i) <- unlink edge) tr.t_exits)
    cache;
  List.iter
    (fun tr ->
      tr.t_chain <- None;
      Array.fill tr.t_exits 0 (Array.length tr.t_exits) None)
    gone

(* Send a promoted head whose region was dropped back to tier-0
   profiling, so it crosses the hot threshold again and retries. *)
let demote (head : translation) =
  head.t_tier <- 0;
  head.t_exec_count <- 0

(* --- concurrent JIT: region jobs on worker domains ------------------------------ *)

(* A region request in flight: the pure part a worker reads, plus the
   vCPU-side records (head first) and the two tokens that gate the
   eventual install against SMC while the job ran. *)
type region_job = {
  j_req : Jit.request;
  j_members : translation list;
  j_gen : int; (* code-cache page generation at enqueue: the tombstone token *)
  j_guest_hash : int64; (* Reloc.hash64 over the members' guest bytes at enqueue *)
  mutable j_outcome : (Jit.result, exn) result option; (* written by the worker under the pool lock *)
}

(* Bounded work queue + completion list; one mutex covers both (the
   contention is one vCPU against a few workers at region-formation
   granularity). *)
type pool = {
  p_mu : Mutex.t;
  p_cv : Condition.t;
  mutable p_pending : region_job list; (* FIFO, newest last *)
  mutable p_done : region_job list; (* completion order, newest last *)
  mutable p_stop : bool;
  mutable p_domains : unit Domain.t list;
}

let job_queue_depth = 16

type t = {
  guest : Ops.ops;
  config : config;
  machine : Machine.t;
  mutable ctx : Exec.ctx;
  (* The code cache: PA-sharded, published-immutable (Codecache).  The
     vCPU is the only publisher and invalidator; worker domains never
     touch it — they hand results back and the vCPU installs them. *)
  cache : translation Codecache.t;
  protected : (int64, unit) Hashtbl.t; (* guest phys pages holding code *)
  mappings : (int64, (int * int64) list ref) Hashtbl.t; (* phys page -> (as, masked va page) *)
  roots : int64 array; (* host page-table roots: [|low; high|] *)
  mutable current_as : int;
  itlb : (int64 * int * bool, int64) Hashtbl.t; (* fetch va page -> pa page *)
  sanitizer : Hvm.Sanitize.t option;
  stats : phase_stats;
  (* devices *)
  uart : Hvm.Device.Uart.state;
  timer : Hvm.Device.Timer.state;
  syscon : Hvm.Device.Syscon.state;
  (* translate-time checker findings (Equiv, Absint, Reloc), capped *)
  mutable findings : Jit.finding list;
  aot : Aotcache.t option;
  (* concurrent JIT *)
  jenv : Jit.jit_env;
  mutable pool : pool option; (* spawned on first enqueue when domains > 1 *)
  stress_prng : Dbt_util.Prng.t option; (* drain-schedule jitter (stress_seed) *)
  (* template tier: the per-opcode miss table behind the coverage
     report (the template table itself lives in [jenv]) *)
  template_miss : (string, int) Hashtbl.t;
}

(* --- engine construction ------------------------------------------------------ *)

let as_tag_value = function 0 -> 0L | _ -> 0x1FFFFL (* va >> 47 for each half *)

let make_machine () =
  let intc = Hvm.Device.Intc.create () in
  let uart = Hvm.Device.Uart.create () in
  let timer = Hvm.Device.Timer.create intc in
  let syscon = Hvm.Device.Syscon.create () in
  let devices =
    [
      Hvm.Device.Intc.device intc;
      Hvm.Device.Uart.device uart;
      Hvm.Device.Timer.device timer;
      Hvm.Device.Syscon.device syscon;
    ]
  in
  let machine = Machine.create ~devices ~intc () in
  (machine, uart, timer, syscon)

let rec create ?(config = default_config) (guest : Ops.ops) : t =
  let machine, uart, timer, syscon = make_machine () in
  machine.Machine.paging <- true;
  let roots = [| Hvm.Palloc.alloc machine.Machine.palloc; Hvm.Palloc.alloc machine.Machine.palloc |] in
  machine.Machine.cr3 <- roots.(0);
  let engine_ref = ref None in
  let engine () = Option.get !engine_ref in
  let sys ctx = Common.sys_ctx guest ctx in
  let charge_int ctx = Machine.charge ctx.Exec.machine Cost.soft_interrupt in
  let helpers = Array.make (Common.first_softfloat + List.length Common.softfloat_names)
      { Exec.fn = (fun _ _ -> 0L); cost = 0 } in
  helpers.(Common.h_coproc_read) <-
    { Exec.fn = (fun ctx args -> guest.Ops.coproc_read (sys ctx) args.(0)); cost = 30 };
  helpers.(Common.h_coproc_write) <-
    {
      Exec.fn =
        (fun ctx args ->
          charge_int ctx;
          (match guest.Ops.coproc_write (sys ctx) args.(0) args.(1) with
          | Ops.Ce_none -> ()
          | Ops.Ce_mmu_changed | Ops.Ce_tlb_flush ->
            let e = engine () in
            flush_host_mappings e);
          0L);
      cost = 30;
    };
  (* Guest exception entry/return is a direct transfer inside the
     ring-0 execution engine - no software interrupt needed. *)
  helpers.(Common.h_take_exception) <-
    {
      Exec.fn =
        (fun ctx args ->
          poison_regions (engine ());
          guest.Ops.take_exception (sys ctx) ~ec:args.(0) ~iss:args.(1);
          0L);
      cost = 60;
    };
  helpers.(Common.h_eret) <-
    {
      Exec.fn =
        (fun ctx _ ->
          poison_regions (engine ());
          guest.Ops.eret (sys ctx);
          0L);
      cost = 60;
    };
  helpers.(Common.h_tlb_flush) <-
    {
      Exec.fn =
        (fun ctx _ ->
          charge_int ctx;
          flush_host_mappings (engine ());
          0L);
      cost = 40;
    };
  helpers.(Common.h_tlb_flush_page) <-
    {
      Exec.fn =
        (fun ctx _args ->
          charge_int ctx;
          (* Single-page invalidation: conservatively flush everything. *)
          flush_host_mappings (engine ());
          0L);
      cost = 40;
    };
  helpers.(Common.h_halt) <- { Exec.fn = (fun _ _ -> raise (Machine.Powered_off 0)); cost = 0 };
  helpers.(Common.h_wfi) <-
    {
      Exec.fn =
        (fun ctx _ ->
          (* Fast-forward to the next timer event if one is pending. *)
          let e = engine () in
          let t = e.timer in
          if t.Hvm.Device.Timer.enabled && t.Hvm.Device.Timer.irq_enabled then
            Machine.charge ctx.Exec.machine (t.Hvm.Device.Timer.value + 1)
          else Machine.charge ctx.Exec.machine 1000;
          0L);
      cost = 10;
    };
  helpers.(Common.h_barrier) <- { Exec.fn = (fun _ _ -> 0L); cost = 0 };
  helpers.(Common.h_as_switch) <-
    {
      Exec.fn =
        (fun ctx args ->
          let e = engine () in
          let target_as = if args.(0) = 0L then 0 else 1 in
          e.current_as <- target_as;
          Machine.set_page_table ctx.Exec.machine ~root:e.roots.(target_as) ~pcid:target_as
            ~keep_tlb:e.config.pcid;
          ctx.Exec.regs.(Dag.as_tag_preg) <- as_tag_value target_as;
          0L);
      cost = 5;
    };
  List.iteri
    (fun i name -> helpers.(Common.first_softfloat + i) <- Common.softfloat_helper name)
    Common.softfloat_names;
  let fault_handler ctx access va ~bits ~value = handle_fault (engine ()) ctx access va ~bits ~value in
  let ctx = Exec.create ~machine ~helpers ~fault_handler in
  let jenv =
    Jit.env ~config ~n_helpers:(Array.length helpers) ~rf_bytes:(Bytes.length ctx.Exec.regfile)
      guest
  in
  let e =
    {
      guest;
      config;
      machine;
      ctx;
      cache = Codecache.create ();
      protected = Hashtbl.create 64;
      mappings = Hashtbl.create 1024;
      roots;
      current_as = 0;
      itlb = Hashtbl.create 256;
      sanitizer = (if config.sanitize then Some (Hvm.Sanitize.create ()) else None);
      stats = new_phase_stats ();
      uart;
      timer;
      syscon;
      findings = [];
      aot = Option.map Aotcache.open_dir config.aot_dir;
      jenv;
      pool = None;
      stress_prng = Option.map Dbt_util.Prng.create config.stress_seed;
      template_miss = Hashtbl.create 32;
    }
  in
  engine_ref := Some e;
  guest.Ops.reset (sys ctx) ~entry:0L;
  e

(* A regime change (exception entry/return, MMU/TLB state change, SMC
   invalidation) poisons in-flight regions: tier-1 region translations
   test this host flag at every member-entry safepoint and bail out to
   the dispatcher, which re-validates (EL, MMU regime) itself.  Cleared
   on every block entry. *)
and poison_regions (e : t) = e.ctx.Exec.regs.(Hir.region_poison_preg) <- 1L

(* Invalidate all host page-table mappings of the guest halves (the
   paper's TLB-flush intercept: clear the low 256 PML4 entries of each
   set and flush the host TLB). *)
and flush_host_mappings (e : t) =
  poison_regions e;
  Array.iter (fun root -> Hvm.Pagetable.clear_low_half e.machine.Machine.mem e.machine.Machine.palloc ~root) e.roots;
  Hvm.Tlb.flush_all e.machine.Machine.tlb;
  Machine.charge e.machine Cost.tlb_flush;
  Hashtbl.reset e.mappings;
  Hashtbl.reset e.itlb;
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_clear_mappings s | None -> ());
  sanitize_check e ~reason:"flush"

(* Shadow-oracle checkpoint (config.sanitize): sweep the real MMU state
   against the sanitizer's shadow.  Free by construction when off. *)
and sanitize_check (e : t) ~reason =
  match e.sanitizer with
  | Some s ->
    Hvm.Sanitize.check s ~machine:e.machine ~roots:e.roots
      ~code_keys:(Some (Codecache.keys e.cache)) ~reason
  | None -> ()

(* --- host page fault handling (Sec. 2.7.3) --------------------------------------- *)

and device_of e pa = Machine.find_device e.machine pa

and invalidate_page e phys_page =
  poison_regions e;
  (* Cancel in-flight region jobs translating from this page: a pending
     job was enqueued against the pre-write bytes.  Jobs already running
     on a worker domain can't be stopped mid-flight — their install is
     rejected instead, by the page-generation tombstone ([publish_if])
     and the guest-byte certificate hash re-check. *)
  (match e.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_mu;
    let cancelled, kept =
      List.partition (fun j -> Int64.equal j.j_req.Jit.rq_pa_page phys_page) p.p_pending
    in
    p.p_pending <- kept;
    Mutex.unlock p.p_mu;
    e.stats.jobs_cancelled <- e.stats.jobs_cancelled + List.length cancelled);
  (* [invalidate_page] bumps the page generation even when no key is
     published — the tombstone must outlive the cache contents. *)
  let removed = Codecache.invalidate_page e.cache phys_page in
  if removed <> [] then begin
    (* Fatal for a region unit otherwise: its members just got demoted. *)
    unlink_edges_into e.cache removed;
    e.stats.smc_invalidations <- e.stats.smc_invalidations + 1
  end;
  (* Static-analysis staleness audit: unlike chain edges, there is no
     per-translation analysis state to drop here.  Abstract facts and
     obligation findings are consumed at translate time (counters plus
     the capped [findings] log); helper effect summaries are pure
     functions of the helper index ([Effects.summarize]); neither is
     keyed by translation, so an invalidated page cannot leave a stale
     fact behind.  A re-translation after SMC re-runs the analyzer from
     scratch (regression-tested in test_engine). *)
  Hashtbl.remove e.protected phys_page;
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_invalidate_page s ~pa_page:phys_page | None -> ());
  sanitize_check e ~reason:"invalidate"

and protect_page e phys_page =
  if not (Hashtbl.mem e.protected phys_page) then begin
    Hashtbl.replace e.protected phys_page ();
    (match e.sanitizer with Some s -> Hvm.Sanitize.record_protect_page s ~pa_page:phys_page | None -> ());
    (* Downgrade any existing writable host mapping of this guest page. *)
    match Hashtbl.find_opt e.mappings phys_page with
    | Some lst ->
      List.iter
        (fun (asid, va_page) ->
          let root = e.roots.(asid) in
          match fst (Hvm.Pagetable.walk e.machine.Machine.mem ~root va_page) with
          | Some (pte_addr, pte) when Int64.logand pte Hvm.Pagetable.pte_present <> 0L ->
            let flags = Hvm.Pagetable.flags_of_bits pte in
            Hvm.Pagetable.protect e.machine.Machine.mem ~root va_page
              { flags with Hvm.Pagetable.writable = false };
            ignore pte_addr;
            Hvm.Tlb.flush_page e.machine.Machine.tlb (Int64.shift_right_logical va_page 12)
          | _ -> ())
        !lst
    | None -> ()
  end

and handle_fault (e : t) ctx (access : Machine.access) va ~bits ~value : Exec.fault_response =
  let sys = Common.sys_ctx e.guest ctx in
  (* Reconstruct the full guest VA from the masked lower-half address. *)
  let gva = if e.current_as = 1 then Int64.logor va 0xFFFF_8000_0000_0000L else va in
  match e.guest.Ops.mmu_translate sys ~access:(Common.access_of access) gva with
  | Error fault ->
    Machine.charge e.machine Cost.guest_fault_bookkeeping;
    sanitize_check e ~reason:"guest-fault";
    e.guest.Ops.data_abort sys ~va:gva ~access:(Common.access_of access) ~fault;
    raise Ops.Guest_trap
  | Ok (pa, perms) -> (
    let el = e.guest.Ops.privilege_level sys in
    let allowed =
      (el > 0 || perms.Ops.puser)
      && (access <> Machine.Write || perms.Ops.pw)
    in
    if not allowed then begin
      Machine.charge e.machine Cost.guest_fault_bookkeeping;
      sanitize_check e ~reason:"guest-fault";
      e.guest.Ops.data_abort sys ~va:gva ~access:(Common.access_of access)
        ~fault:(Ops.Gf_permission 3);
      raise Ops.Guest_trap
    end;
    match device_of e pa with
    | Some d ->
      (* MMIO: emulated by the hypervisor (an exit from the HVM). *)
      Machine.charge e.machine Cost.soft_interrupt;
      Machine.sync_devices e.machine;
      let off = Int64.to_int (Int64.sub pa d.Hvm.Device.base) in
      (match access with
      | Machine.Write ->
        d.Hvm.Device.write off bits (Option.value value ~default:0L);
        Exec.Mmio_done
      | Machine.Read | Machine.Exec -> Exec.Mmio_value (d.Hvm.Device.read off bits))
    | None ->
      let phys_page = Bits.align_down pa 4096 in
      let va_page = Bits.align_down va 4096 in
      (* Self-modifying code: a permitted write to a protected code page
         invalidates that page's translations and restores write access. *)
      if access = Machine.Write && Hashtbl.mem e.protected phys_page then
        invalidate_page e phys_page;
      let writable = perms.Ops.pw && not (Hashtbl.mem e.protected phys_page) in
      let flags =
        {
          Hvm.Pagetable.writable;
          user = perms.Ops.puser;
          executable = perms.Ops.px;
        }
      in
      let root = e.roots.(e.current_as) in
      Hvm.Pagetable.map e.machine.Machine.mem e.machine.Machine.palloc ~root va_page phys_page flags;
      (* The PTE just changed: shoot down any stale hardware-TLB entry
         for this page, or the retry re-faults through the old
         translation forever — e.g. an SMC write to a code page that was
         previously read (TLB-resident, read-only) and has just been
         remapped writable. *)
      Hvm.Tlb.flush_page e.machine.Machine.tlb (Int64.shift_right_logical va_page 12);
      (let lst =
         match Hashtbl.find_opt e.mappings phys_page with
         | Some l -> l
         | None ->
           let l = ref [] in
           Hashtbl.replace e.mappings phys_page l;
           l
       in
       if not (List.mem (e.current_as, va_page) !lst) then lst := (e.current_as, va_page) :: !lst);
      (match e.sanitizer with
      | Some s -> Hvm.Sanitize.record_map s ~asid:e.current_as ~va_page ~pa_page:phys_page ~flags
      | None -> ());
      sanitize_check e ~reason:"fault";
      Exec.Retry)

(* --- instruction fetch and translation -------------------------------------------- *)

let fetch_translate (e : t) sys va : (int64, unit) result =
  (* Translate a fetch VA to PA via the guest MMU; takes the guest
     instruction-abort path on failure. *)
  match e.guest.Ops.mmu_translate sys ~access:Ops.Afetch va with
  | Error fault ->
    e.guest.Ops.insn_abort sys ~va ~fault;
    Error ()
  | Ok (pa, perms) ->
    let el = e.guest.Ops.privilege_level sys in
    if (el = 0 && not perms.Ops.puser) || not perms.Ops.px then begin
      e.guest.Ops.insn_abort sys ~va ~fault:(Ops.Gf_permission 3);
      Error ()
    end
    else Ok pa

(* Guest code bytes currently at [pa]: request snapshots and the live
   side of the async install's hash check (both guests use 32-bit
   instruction words).  Charge-free: [Machine.phys_read] of RAM. *)
let read_guest_bytes (e : t) ~pa ~len : bytes =
  let b = Bytes.create len in
  let words = len / 4 in
  for i = 0 to words - 1 do
    let w = Machine.phys_read e.machine ~bits:32 (Int64.add pa (Int64.of_int (4 * i))) in
    Bytes.set_int32_le b (4 * i) (Int64.to_int32 w)
  done;
  for i = 4 * words to len - 1 do
    Bytes.set_uint8 b i
      (Int64.to_int (Machine.phys_read e.machine ~bits:8 (Int64.add pa (Int64.of_int i))))
  done;
  b

(* --- installing translations ----------------------------------------------------- *)

(* Simulated translate cost of a result.  The pipeline makes several
   passes (DAG build, liveness, allocation, encode), costed per guest
   and per emitted host instruction — ~2-3x the QEMU-style engine's
   single direct pass (paper Sec. 3.4).  Template stitching does no SSA
   walk, DAG build, liveness or linear scan per block, only hole
   patching and copying (mining is an offline per-opcode artifact,
   charged zero; [mine-templates] builds the same table ahead of time).
   An AOT load reads, verifies and re-binds the numbered sites. *)
let translate_cost (req : Jit.request) (res : Jit.result) =
  let n_guest = res.Jit.r_n_guest and n_host = res.Jit.r_n_host in
  if res.Jit.r_aot then 50 + (n_host / 4)
  else
    match req.Jit.rq_kind with
    | Jit.Template -> 40 + (150 * n_guest) + (25 * n_host)
    | Jit.Block | Jit.Region -> (1400 * n_guest) + (260 * n_host)

(* The one install routine, for every kind and source (translated or
   reloaded from the AOT cache).  [members] are the vCPU records a
   region is built from, head first ([] for blocks).  [async] carries
   the enqueue-time page generation and guest-byte hash of a worker
   result: the install re-hashes the live bytes and publishes through
   the generation check, and a result that went stale in flight is
   dropped and its head demoted so profiling can retry against the
   current bytes.  Returns the published record ([None] only when
   stale). *)
let install (e : t) ?(members = []) ?async (req : Jit.request) (res : Jit.result) :
    translation option =
  let s = e.stats in
  let kind = req.Jit.rq_kind in
  let key = (Jit.head_pa req, req.Jit.rq_el, req.Jit.rq_mmu) in
  let tr =
    {
      t_key = key;
      t_va = req.Jit.rq_head_va;
      t_program = res.Jit.r_program;
      t_n_guest = res.Jit.r_n_guest;
      t_n_host = res.Jit.r_n_host;
      t_bytes = Bytes.length res.Jit.r_code;
      t_chain = None;
      t_exec_count = 0;
      t_cycles = 0;
      t_tier = (match kind with Jit.Template -> -1 | Jit.Block -> 0 | Jit.Region -> 1);
      t_members = Array.length res.Jit.r_members;
      t_succs = [];
      t_exits = Array.make res.Jit.r_n_exits None;
    }
  in
  let replaced = Codecache.lookup e.cache key in
  let published =
    match async with
    | None ->
      Codecache.publish e.cache key tr;
      true
    | Some (gen, guest_hash) ->
      (* The members' guest bytes as they are in memory right now: a
         result whose source bytes changed since enqueue is stale even
         if the page's invalidation generation did not move. *)
      let pa = Int64.add req.Jit.rq_pa_page (Int64.of_int req.Jit.rq_snap_off) in
      let live = read_guest_bytes e ~pa ~len:(Bytes.length req.Jit.rq_snapshot) in
      Int64.equal guest_hash
        (Hostir.Reloc.hash64 (Jit.guest_bytes { req with Jit.rq_snapshot = live } res.Jit.r_members))
      && Codecache.publish_if e.cache key ~gen tr
  in
  if not published then begin
    s.jobs_stale <- s.jobs_stale + 1;
    Option.iter demote (List.nth_opt members 0);
    None
  end
  else begin
    add_stats s res.Jit.r_stats;
    e.findings <- Jit.append_capped e.findings res.Jit.r_findings;
    (* Translation-side cycle charge: wall-clock cycles the guest pays
       for JIT/AOT work, kept out of guest-visible device time (the
       Machine's virtual-time split) so the guest's observable execution
       is identical whether its code was translated cold or installed
       warm.  The ledger splits template installs (stitching and kind-2
       AOT loads) from the full pipeline; async charges also land in the
       async sub-ledger — cycles spent on a worker domain while the vCPU
       kept executing, so [async_jit_cycles / jit_cycles] is the
       translate-stall share the pool removed from the critical path. *)
    let n = translate_cost req res in
    if Option.is_some async then begin
      Machine.charge_jit_async e.machine n;
      s.jobs_installed <- s.jobs_installed + 1
    end
    else Machine.charge_jit e.machine n;
    s.translate_cycles <- s.translate_cycles + n;
    if kind = Jit.Template then s.translate_cycles_template <- s.translate_cycles_template + n
    else s.translate_cycles_pipeline <- s.translate_cycles_pipeline + n;
    List.iter (fun m -> m.t_tier <- 1) members;
    (* Predecessors of the replaced record relink through the cache
       (one dispatch lookup), so the hot path migrates into the new
       code instead of chaining into the orphan forever. *)
    Option.iter (fun old -> unlink_edges_into e.cache [ old ]) replaced;
    (* Translations never cross a page (decode stops at the boundary,
       regions stay on the head's page), so exactly one guest page holds
       the code, and one SMC invalidation sweeps a region unit together
       with every member. *)
    protect_page e req.Jit.rq_pa_page;
    (match e.sanitizer with
    | Some sa ->
      Array.iter
        (fun (va, len) ->
          let pa = Int64.logor req.Jit.rq_pa_page (Int64.logand va 0xFFFL) in
          Hvm.Sanitize.record_translation sa ~mem:e.machine.Machine.mem ~pa ~el:req.Jit.rq_el
            ~mmu:req.Jit.rq_mmu ~len)
        res.Jit.r_members;
      if
        kind <> Jit.Region && e.config.sanitize_every > 0
        && s.blocks_translated mod e.config.sanitize_every = 0
      then sanitize_check e ~reason:"periodic"
    | None -> ());
    (match (e.aot, res.Jit.r_cert) with
    | Some cache, Some cert when Jit.persistable e.jenv res ->
      Aotcache.store cache (Jit.aot_entry e.jenv req res cert);
      s.aot_stores <- s.aot_stores + 1
    | _ -> ());
    Some tr
  end

(* Try to satisfy a request from the AOT cache: the first candidate
   that covers the request's spans, matches its guest bytes and
   re-certifies becomes the result; a flagged or malformed entry is
   counted and skipped.  The kind-2 (template) probe counts no miss,
   since the kind-0 probe after it is the final cache fallback. *)
let aot_probe (e : t) (req : Jit.request) : Jit.result option =
  match e.aot with
  | None -> None
  | Some cache ->
    let rec first = function
      | [] ->
        if req.Jit.rq_kind <> Jit.Template then e.stats.aot_misses <- e.stats.aot_misses + 1;
        None
      | entry :: rest -> (
        match Jit.load e.jenv req entry with
        | Jit.Loaded res -> Some res
        | Jit.Mismatch -> first rest
        | Jit.Rejected (d, log) ->
          add_stats e.stats d;
          e.findings <- Jit.append_capped e.findings log;
          first rest)
    in
    first
      (Aotcache.candidates cache ~kind:(Jit.aot_kind req.Jit.rq_kind) ~va:req.Jit.rq_head_va
         ~pa:(Jit.head_pa req) ~el:req.Jit.rq_el ~mmu:req.Jit.rq_mmu ~cfg:(Jit.cfg_sig e.jenv))

(* --- block translation (tiers -1 and 0) ------------------------------------------ *)

(* Capture a block request.  The snapshot covers only what decode can
   read: up to the page end or [max_block] instructions. *)
let block_request (e : t) ~kind ~va ~pa ~el ~mmu_on : Jit.request =
  let off = Int64.to_int (Int64.logand pa 0xFFFL) in
  {
    Jit.rq_kind = kind;
    rq_head_va = va;
    rq_pa_page = Bits.align_down pa 4096;
    rq_el = el;
    rq_mmu = mmu_on;
    rq_members = [ { Jit.md_va = va; md_off = off; md_len = 0; md_succs = [] } ];
    rq_snapshot =
      read_guest_bytes e ~pa ~len:(min (4096 - off) (e.config.max_block * e.guest.Ops.insn_size));
    rq_snap_off = off;
  }

(* Translate the block at [va]/[pa] and install it.  With templates on,
   the order is: kind-2 AOT entry, template stitching, kind-0 AOT entry,
   the pipeline; [kind = Block] starts at the kind-0 probe.  Block jobs
   run inline on the vCPU. *)
let translate_block (e : t) ~kind ~va ~pa ~el ~mmu_on : translation =
  let req = block_request e ~kind ~va ~pa ~el ~mmu_on in
  let rec attempt (req : Jit.request) =
    let t0 = Jit.now () in
    match aot_probe e req with
    | Some res ->
      if req.Jit.rq_kind = Jit.Template then
        e.stats.t_template <- e.stats.t_template +. (Jit.now () -. t0);
      (req, res)
    | None -> (
      match Jit.run e.jenv req with
      | res -> (req, res)
      | exception Jit.Fallback (d, miss) ->
        add_stats e.stats d;
        Option.iter
          (fun name ->
            Hashtbl.replace e.template_miss name
              (1 + Option.value ~default:0 (Hashtbl.find_opt e.template_miss name)))
          miss;
        attempt { req with Jit.rq_kind = Jit.Block })
  in
  let req, res = attempt req in
  (* synchronous installs always publish *)
  Option.get (install e req res)



(* --- tiered translation: hot-region formation (tier 1) ---------------------------- *)
(* Bounded successor profile (space-saving, k = 4): recorded free of
   charge in the run loop while a block is still tier 0; drives member
   selection and dispatch ordering when the block is promoted. *)
let record_succ (tr : translation) va el =
  let rec bump = function
    | [] -> None
    | (v, e_, c) :: rest when Int64.equal v va && e_ = el -> Some ((v, e_, c + 1) :: rest)
    | x :: rest -> Option.map (fun r -> x :: r) (bump rest)
  in
  match bump tr.t_succs with
  | Some l -> tr.t_succs <- l
  | None ->
    if List.length tr.t_succs < 4 then tr.t_succs <- (va, el, 1) :: tr.t_succs
    else begin
      (* replace the coldest entry, inheriting its count *)
      let min_c = List.fold_left (fun m (_, _, c) -> min m c) max_int tr.t_succs in
      let replaced = ref false in
      tr.t_succs <-
        List.map
          (fun (v, e_, c) ->
            if (not !replaced) && c = min_c then begin
              replaced := true;
              (va, el, min_c + 1)
            end
            else (v, e_, c))
          tr.t_succs
    end

(* Profiled successor VAs of [tr] at exception level [el], hottest first;
   the recorded chain edge counts as the hottest observation. *)
let succs_by_heat (tr : translation) ~el =
  let base = List.filter (fun (_, e_, _) -> e_ = el) tr.t_succs in
  let base =
    match tr.t_chain with
    | Some (cva, cel, _)
      when cel = el && not (List.exists (fun (v, _, _) -> Int64.equal v cva) base) ->
      (cva, el, max_int) :: base
    | _ -> base
  in
  List.sort (fun (_, _, a) (_, _, b) -> compare b a) base |> List.map (fun (v, _, _) -> v)

(* Member selection: breadth-first over the recorded chain edge plus the
   bounded taken-target profile — limited to [region_max_blocks] members
   on the head's guest page (so physical code-cache indexing and
   page-granular SMC invalidation stay exact) and to the head's
   exception level and MMU regime.  Also reports whether the head
   self-loops: a single-member region is still worth translating when
   the head loops back to itself — the self-edge becomes an in-region
   transfer with no dispatch, no per-iteration block entry and a
   deferred PC sync, the hottest shape in loop kernels. *)
let select_members (e : t) (head : translation) : translation list * bool =
  let pa_head, el, mmu_on = head.t_key in
  let va_page = Bits.align_down head.t_va 4096 in
  let pa_page = Bits.align_down pa_head 4096 in
  let members = ref [ head ] in
  let queue = Queue.create () in
  Queue.add head queue;
  while (not (Queue.is_empty queue)) && List.length !members < e.config.region_max_blocks do
    let m = Queue.pop queue in
    List.iter
      (fun va ->
        if
          List.length !members < e.config.region_max_blocks
          && Int64.equal (Bits.align_down va 4096) va_page
          && not (List.exists (fun m' -> Int64.equal m'.t_va va) !members)
        then
          let pa = Int64.logor pa_page (Int64.logand va 0xFFFL) in
          match Codecache.lookup e.cache (pa, el, mmu_on) with
          | Some tr
            when tr.t_n_guest > 0 && tr.t_members = 1
                 && Array.length tr.t_exits = 0
                 && Int64.equal tr.t_va va ->
            members := !members @ [ tr ];
            Queue.add tr queue
          | _ -> ())
      (succs_by_heat m ~el)
  done;
  let self_loop =
    List.exists (fun va -> Int64.equal va head.t_va) (succs_by_heat head ~el)
  in
  (!members, self_loop)

(* Capture a region request: snapshot the head's guest page (regions
   never cross a page) and freeze the member spans and successor
   profiles.  Page snapshots are charge-free, so capturing costs no
   guest cycles. *)
let region_request (e : t) ~(head : translation) ~(members : translation list) : Jit.request =
  let pa_head, el, mmu_on = head.t_key in
  let pa_page = Bits.align_down pa_head 4096 in
  {
    Jit.rq_kind = Jit.Region;
    rq_head_va = head.t_va;
    rq_pa_page = pa_page;
    rq_el = el;
    rq_mmu = mmu_on;
    rq_members =
      List.map
        (fun m ->
          {
            Jit.md_va = m.t_va;
            md_off = Int64.to_int (Int64.logand m.t_va 0xFFFL);
            md_len = e.guest.Ops.insn_size * m.t_n_guest;
            md_succs = succs_by_heat m ~el;
          })
        members;
    rq_snapshot = read_guest_bytes e ~pa:pa_page ~len:4096;
    rq_snap_off = 0;
  }

(* A region job for the worker pool: the request plus the page
   invalidation generation and guest-byte hash that gate its install. *)
let make_region_job (e : t) ~(req : Jit.request) ~(members : translation list) : region_job =
  {
    j_req = req;
    j_members = members;
    j_gen = Codecache.page_gen e.cache req.Jit.rq_pa_page;
    j_guest_hash = Hostir.Reloc.hash64 (Jit.guest_bytes req (Jit.member_spans req));
    j_outcome = None;
  }

let install_job (e : t) (job : region_job) (res : Jit.result) =
  ignore (install e ~members:job.j_members ~async:(job.j_gen, job.j_guest_hash) job.j_req res)

(* --- the worker pool ------------------------------------------------------------- *)

(* Worker-domain main loop: pop a job, run it pure, hand the outcome
   back under the pool lock.  Workers never touch the engine — the vCPU
   installs results from [drain_jobs] at dispatch granularity. *)
let rec worker_loop (je : Jit.jit_env) (p : pool) : unit =
  Mutex.lock p.p_mu;
  while p.p_pending = [] && not p.p_stop do
    Condition.wait p.p_cv p.p_mu
  done;
  match p.p_pending with
  | [] -> Mutex.unlock p.p_mu (* stopping *)
  | job :: rest ->
    p.p_pending <- rest;
    Mutex.unlock p.p_mu;
    let outcome = try Ok (Jit.run je job.j_req) with exn -> Error exn in
    Mutex.lock p.p_mu;
    job.j_outcome <- Some outcome;
    p.p_done <- p.p_done @ [ job ];
    Mutex.unlock p.p_mu;
    worker_loop je p


(* The pool is spawned lazily on the first enqueue, so a [domains = 1]
   engine (and every engine until its first hot crossing) never pays
   for domain creation. *)
let ensure_pool (e : t) : pool =
  match e.pool with
  | Some p -> p
  | None ->
    let p =
      {
        p_mu = Mutex.create ();
        p_cv = Condition.create ();
        p_pending = [];
        p_done = [];
        p_stop = false;
        p_domains = [];
      }
    in
    let je = e.jenv in
    p.p_domains <-
      List.init (max 1 (e.config.domains - 1)) (fun _ -> Domain.spawn (fun () -> worker_loop je p));
    e.pool <- Some p;
    p

(* Queue a job for the worker pool.  The queue is bounded, so a burst
   of hot crossings cannot pile up unbounded translation work; a
   dropped job demotes the head (and takes back its promotion count),
   so the block re-crosses the threshold later and retries. *)
let enqueue_job (e : t) (job : region_job) : unit =
  let s = e.stats in
  let p = ensure_pool e in
  Mutex.lock p.p_mu;
  if List.length p.p_pending < job_queue_depth then begin
    p.p_pending <- p.p_pending @ [ job ];
    Condition.broadcast p.p_cv;
    Mutex.unlock p.p_mu;
    s.jobs_enqueued <- s.jobs_enqueued + 1
  end
  else begin
    Mutex.unlock p.p_mu;
    s.jobs_dropped <- s.jobs_dropped + 1;
    s.promotions <- s.promotions - 1;
    demote (List.hd job.j_members)
  end

(* Install whatever the workers have finished.  Called from the run
   loop at dispatch granularity — the vCPU is the only publisher and
   invalidator, so every interleaving of install with lookup and SMC
   invalidation happens at this one well-defined point.  Under
   [stress_seed], a seeded PRNG jitters how many completions are taken
   per call, deterministically exploring install/invalidate/lookup
   orderings for the stress harness. *)
let drain_jobs (e : t) : unit =
  match e.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_mu;
    let avail = p.p_done in
    let n_avail = List.length avail in
    let n_take =
      match e.stress_prng with
      | None -> n_avail
      | Some rng ->
        if n_avail = 0 then 0
        else if Dbt_util.Prng.bool rng then 0 (* hold every completion this tick *)
        else Dbt_util.Prng.int rng (n_avail + 1)
    in
    let rec take n = function
      | x :: rest when n > 0 ->
        let a, b = take (n - 1) rest in
        (x :: a, b)
      | l -> ([], l)
    in
    let taken, rest = take n_take avail in
    p.p_done <- rest;
    Mutex.unlock p.p_mu;
    List.iter
      (fun job ->
        e.stats.jobs_completed <- e.stats.jobs_completed + 1;
        match job.j_outcome with
        | Some (Ok res) -> install_job e job res
        | Some (Error exn) -> raise exn
        | None -> assert false)
      taken

(* A block reaching the hot threshold must run pipeline-quality code
   from here on — the template tier is a cold-boot device, not a
   steady-state one.  Re-translate the template-stitched record through
   the full pipeline; the replacement inherits the profile, and install
   unlinks chain edges into the replaced record. *)
let repipeline (e : t) (old : translation) : translation =
  let pa, el, mmu_on = old.t_key in
  let fresh = translate_block e ~kind:Jit.Block ~va:old.t_va ~pa ~el ~mmu_on in
  fresh.t_exec_count <- old.t_exec_count;
  fresh.t_succs <- old.t_succs;
  fresh

(* Promote a hot tier-0 (or template) block: select members, then
   either translate the region inline ([domains <= 1] — bit-identical
   in cycles and stats to the pre-concurrency engine) or enqueue the
   formation job and keep executing the current code while a worker
   domain translates.  A template-tier lone head is re-translated
   through the pipeline, so every tier-1 translation (and every record a
   failed job demotes back to tier 0) is pipeline-built. *)
let promote_block (e : t) (head : translation) : unit =
  e.stats.promotions <- e.stats.promotions + 1;
  let was_template = head.t_tier < 0 in
  head.t_tier <- 1;
  let members, self_loop = select_members e head in
  if List.length members > 1 || self_loop then begin
    (* A region unit will replace the head's cache entry, and the job
       re-translates every member from guest bytes through the full
       pipeline into the unit — so no stand-alone re-translation is
       needed: the hot path (region entry + chained exits) runs
       pipeline-built code, and the members' stand-alone records only
       serve stray direct dispatches. *)
    let req = region_request e ~head ~members in
    match aot_probe e req with
    | Some res -> ignore (install e ~members req res)
    | None ->
      if e.config.domains <= 1 then ignore (install e ~members req (Jit.run e.jenv req))
      else enqueue_job e (make_region_job e ~req ~members)
  end
  else if was_template then begin
    (* Lone hot head, no region formed: its record stays published, so
       re-translate it through the pipeline at the promoted tier. *)
    let fresh = repipeline e head in
    fresh.t_tier <- 1
  end

(* Stop the worker pool: discard pending jobs, join the domains.  Safe
   to call repeatedly and on a [domains = 1] engine (no-op); the pool
   respawns on the next enqueue. *)
let shutdown (e : t) : unit =
  match e.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_mu;
    p.p_stop <- true;
    p.p_pending <- [];
    Condition.broadcast p.p_cv;
    Mutex.unlock p.p_mu;
    List.iter Domain.join p.p_domains;
    e.pool <- None

(* --- dispatch loop ------------------------------------------------------------------- *)

type exit_reason = Poweroff of int | Cycle_limit | Block_limit

let lookup_fetch (e : t) sys va ~el ~mmu_on =
  let va_page = Bits.align_down va 4096 in
  match Hashtbl.find_opt e.itlb (va_page, el, mmu_on) with
  | Some pa_page -> Ok (Int64.logor pa_page (Int64.logand va 0xFFFL))
  | None -> (
    match fetch_translate e sys va with
    | Error () -> Error ()
    | Ok pa ->
      Hashtbl.replace e.itlb (va_page, el, mmu_on) (Bits.align_down pa 4096);
      Ok pa)

(* Enter a block at [va] under exception level [el]: set the host ring
   (guest EL0 runs in host ring 3, everything else ring 0) and, when
   sanitizing, audit the ring/user-bit invariant.  Also called at chain
   transitions, where the exception level may have changed mid-chain. *)
let enter_block (e : t) ~el ~va =
  (* The dispatcher re-validated (EL, MMU regime): clear the region
     poison flag so tier-1 regions run until the next regime change. *)
  e.ctx.Exec.regs.(Hir.region_poison_preg) <- 0L;
  e.machine.Machine.ring <- (if el = 0 then 3 else 0);
  match e.sanitizer with
  | None -> ()
  | Some s ->
    let asid = if Int64.shift_right_logical va 47 = 0L then 0 else 1 in
    Hvm.Sanitize.audit_ring s ~machine:e.machine ~roots:e.roots ~asid ~guest_el:el ~pc:va

let prepare_as (e : t) va =
  (* Set the active page-table set to match the next PC's half. *)
  let target_as = if Int64.shift_right_logical va 47 = 0L then 0 else 1 in
  if target_as <> e.current_as then begin
    e.current_as <- target_as;
    Machine.set_page_table e.machine ~root:e.roots.(target_as) ~pcid:target_as
      ~keep_tlb:e.config.pcid
  end;
  e.ctx.Exec.regs.(Dag.as_tag_preg) <- as_tag_value target_as

let run ?(max_cycles = max_int) ?(max_blocks = max_int) (e : t) : exit_reason =
  let sys = Common.sys_ctx e.guest e.ctx in
  let block_kind = if e.config.templates && e.config.tiering then Jit.Template else Jit.Block in
  (* Region safepoints honour this run's cycle ceiling. *)
  e.ctx.Exec.poll_deadline <- max_cycles;
  let result = ref None in
  (try
     while !result = None do
       if e.syscon.Hvm.Device.Syscon.poweroff then
         result := Some (Poweroff e.syscon.Hvm.Device.Syscon.exit_code)
       else if e.machine.Machine.cycles > max_cycles then result := Some Cycle_limit
       else if e.stats.blocks_executed > max_blocks then result := Some Block_limit
       else begin
         (* Install any translations the worker domains finished: the
            vCPU is the only publisher, so completed jobs land at
            dispatch granularity — one well-defined interleaving point
            against lookups and SMC invalidation. *)
         if Option.is_some e.pool then drain_jobs e;
         (* Interrupts are taken at block boundaries. *)
         if Machine.irq_pending e.machine then ignore (e.guest.Ops.deliver_irq sys);
         let el = e.guest.Ops.privilege_level sys in
         let mmu_on = e.guest.Ops.mmu_enabled sys in
         let va = e.ctx.Exec.pc in
         enter_block e ~el ~va;
         Machine.charge e.machine Cost.dispatch_lookup;
         match lookup_fetch e sys va ~el ~mmu_on with
         | Error () -> () (* instruction abort redirected the PC *)
         | Ok pa -> (
           let key = (pa, el, mmu_on) in
           let tr =
             match Codecache.lookup e.cache key with
             | Some tr -> tr
             | None -> translate_block e ~kind:block_kind ~va ~pa ~el ~mmu_on
           in
           prepare_as e va;
           (* Execute, following chain links while they hit. *)
           try
             let cur = ref tr in
             let continue_chain = ref true in
             while !continue_chain do
               let c0 = e.machine.Machine.cycles in
               Machine.charge e.machine Cost.block_entry;
               let slot = ref 0 in
               (* A region unit is exactly a translation with exit sites
                  (a self-loop region has t_members = 1 but one site). *)
               if Array.length !cur.t_exits > 0 then begin
                 (* Region unit: each member entry polls a block-budget
                    safepoint, so the run loop's max_blocks bound holds
                    at block granularity even without dispatching. *)
                 let budget =
                   if max_blocks = max_int then max_int
                   else max 1 (max_blocks - e.stats.blocks_executed)
                 in
                 e.ctx.Exec.poll_budget <- budget;
                 slot := Exec.run e.ctx !cur.t_program;
                 let consumed = max 1 (budget - e.ctx.Exec.poll_budget) in
                 e.stats.blocks_executed <- e.stats.blocks_executed + consumed;
                 e.stats.region_entries <- e.stats.region_entries + 1;
                 e.stats.region_block_execs <- e.stats.region_block_execs + consumed
               end
               else begin
                 ignore (Exec.run e.ctx !cur.t_program);
                 e.stats.blocks_executed <- e.stats.blocks_executed + 1
               end;
               !cur.t_exec_count <- !cur.t_exec_count + 1;
               !cur.t_cycles <- !cur.t_cycles + (e.machine.Machine.cycles - c0);
               let next_va = e.ctx.Exec.pc in
               let next_el = e.guest.Ops.privilege_level sys in
               if e.config.tiering && !cur.t_tier <= 0 then begin
                 record_succ !cur next_va next_el;
                 if !cur.t_n_guest > 0 && !cur.t_exec_count >= e.config.hot_threshold then
                   promote_block e !cur
               end;
               if
                 e.config.chaining
                 && (not (Machine.irq_pending e.machine))
                 && e.stats.blocks_executed <= max_blocks
                 && e.machine.Machine.cycles <= max_cycles
               then begin
                 (* Regions chain per exit site (each member's dispatch
                    chunk has its own patchable slot); plain blocks keep
                    the single chain edge.  Slot 0 is the safepoint bail
                    path and is never patched: the bail reasons (poison,
                    budget, irq) all need the checks above or the full
                    dispatcher. *)
                 let site =
                   if Array.length !cur.t_exits > 0 then
                     if !slot >= 1 && !slot <= Array.length !cur.t_exits then Some (!slot - 1)
                     else None
                   else Some (-1) (* plain block: the t_chain edge *)
                 in
                 let edge =
                   match site with
                   | Some s when s >= 0 -> !cur.t_exits.(s)
                   | Some _ -> !cur.t_chain
                   | None -> None
                 in
                 match edge with
                 | Some (cva, cel, target) when cva = next_va && cel = next_el ->
                   Machine.charge e.machine Cost.branch;
                   e.stats.chain_hits <- e.stats.chain_hits + 1;
                   enter_block e ~el:next_el ~va:next_va;
                   cur := target
                 | _ -> (
                   (* Try to link: only when the target is already
                      translated and the MMU regime is unchanged. *)
                   let mmu_on' = e.guest.Ops.mmu_enabled sys in
                   if mmu_on' = mmu_on && Int64.shift_right_logical next_va 47 = Int64.shift_right_logical va 47 then begin
                     match Hashtbl.find_opt e.itlb (Bits.align_down next_va 4096, next_el, mmu_on') with
                     | Some pa_page -> (
                       let npa = Int64.logor pa_page (Int64.logand next_va 0xFFFL) in
                       match Codecache.lookup e.cache (npa, next_el, mmu_on') with
                       | Some target ->
                         (match site with
                         | Some s when s >= 0 -> !cur.t_exits.(s) <- Some (next_va, next_el, target)
                         | Some _ -> !cur.t_chain <- Some (next_va, next_el, target)
                         | None -> ());
                         Machine.charge e.machine Cost.dispatch_lookup;
                         enter_block e ~el:next_el ~va:next_va;
                         cur := target
                       | None -> continue_chain := false)
                     | None -> continue_chain := false
                   end
                   else continue_chain := false)
               end
               else continue_chain := false
             done
           with Ops.Guest_trap -> () (* guest exception taken mid-block *))
       end
     done
   with Machine.Powered_off code -> result := Some (Poweroff code));
  Option.get !result

(* --- guest setup utilities -------------------------------------------------------------- *)

let sys (e : t) = Common.sys_ctx e.guest e.ctx

let load_image (e : t) ~addr (image : bytes) = Hvm.Mem.blit_in e.machine.Machine.mem ~addr image

let set_entry (e : t) entry = e.guest.Ops.reset (sys e) ~entry

let uart_output (e : t) = Hvm.Device.Uart.output e.uart
let cycles (e : t) = e.machine.Machine.cycles

(* The virtual-time split: [cycles] = wall clock; [jit_cycles] is the
   translation-side share (JIT + AOT loads); [exec_cycles] the
   guest-visible remainder that device time follows.  A warm boot must
   reproduce [exec_cycles] bit-for-bit. *)
let jit_cycles (e : t) = e.machine.Machine.jit_cycles
let exec_cycles (e : t) = Machine.guest_cycles e.machine

(* The share of [jit_cycles] spent on worker domains (0 when
   [domains = 1]): translate work the concurrent JIT removed from the
   vCPU's critical path. *)
let async_jit_cycles (e : t) = e.machine.Machine.async_jit_cycles
(* Checker findings in discovery order, at most 64 per checker. *)
let findings (e : t) = e.findings
let aot_entry_count (e : t) = match e.aot with Some c -> Aotcache.entry_count c | None -> 0
let cache_keys (e : t) = Codecache.keys e.cache
let cache_shards (e : t) = Codecache.n_shards e.cache

(* Per-translation execution statistics, for the Fig. 21 code-quality
   analysis: (translation VA, guest instrs, host instrs, executions,
   accumulated cycles, tier). *)
let block_stats (e : t) =
  Codecache.fold
    (fun _ tr acc ->
      (tr.t_va, tr.t_n_guest, tr.t_n_host, tr.t_exec_count, tr.t_cycles, tr.t_tier) :: acc)
    e.cache []

(* Per-opcode template miss counts, heaviest first (the [templates]
   subcommand's miss table). *)
let template_miss_table (e : t) : (string * int) list =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) e.template_miss []
  |> List.sort (fun (n1, c1) (n2, c2) ->
       if c1 <> c2 then compare c2 c1 else compare n1 n2)

(* The engine's template table (mined lazily, so it doubles as a warm-up
   memo of the offline mine-templates artifact) and its report, empty
   when nothing was stitched. *)
let template_table (e : t) : Hostir.Template.t = e.jenv.Jit.je_templates
let template_report (e : t) = Hostir.Template.report (template_table e)
