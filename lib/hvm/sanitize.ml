(* Memory-system sanitizer: shadow-oracle invariant checking for the host
   page tables, the hardware-TLB model, frame accounting, the code cache,
   and ring transitions.  See sanitize.mli for the checker inventory.

   Everything here is read-only with respect to the system under test: raw
   [Mem] reads (never [phys_read], which ticks devices), direct TLB array
   scans (never [Tlb.lookup], which counts hits/misses), and no cycle
   charges — so cycle counts and statistics of a sanitized run are
   bit-identical to an unsanitized one. *)

module Counters = Dbt_util.Stats.Counters

type checker = Pt_shadow | Tlb_shadow | Frames | Code_cache | Ring

let checker_name = function
  | Pt_shadow -> "pt"
  | Tlb_shadow -> "tlb"
  | Frames -> "frames"
  | Code_cache -> "code"
  | Ring -> "ring"

type finding = { checker : checker; detail : string }

let string_of_finding f = Printf.sprintf "[%s] %s" (checker_name f.checker) f.detail

type shadow_mapping = {
  s_pa : int64;
  mutable s_writable : bool;
  s_user : bool;
  s_executable : bool;
}

type translation_shadow = { th_len : int; th_digest : int64 }

type t = {
  (* (asid, va page) -> what the engine mapped there *)
  shadow : (int * int64, shadow_mapping) Hashtbl.t;
  (* physical pages currently write-protected because they back code *)
  code_pages : (int64, unit) Hashtbl.t;
  (* (pa, el, mmu) -> length and content hash of the translated bytes *)
  translations : (int64 * int * bool, translation_shadow) Hashtbl.t;
  counters : Counters.t;
  seen : (string, unit) Hashtbl.t; (* finding dedup *)
  mutable findings_rev : finding list;
  mutable n_findings : int;
  max_findings : int;
}

let create ?(max_findings = 200) () =
  {
    shadow = Hashtbl.create 256;
    code_pages = Hashtbl.create 64;
    translations = Hashtbl.create 256;
    counters = Counters.create ();
    seen = Hashtbl.create 64;
    findings_rev = [];
    n_findings = 0;
    max_findings;
  }

let finding t checker fmt =
  Printf.ksprintf
    (fun detail ->
      let key = checker_name checker ^ "|" ^ detail in
      if not (Hashtbl.mem t.seen key) then begin
        Hashtbl.replace t.seen key ();
        Counters.bump t.counters (checker_name checker ^ " findings");
        if t.n_findings < t.max_findings then begin
          t.findings_rev <- { checker; detail } :: t.findings_rev;
          t.n_findings <- t.n_findings + 1
        end
      end)
    fmt

let page_of pa = Int64.logand pa (Int64.lognot 0xFFFL)

(* FNV-1a over the guest bytes of a translation; the re-hash at each
   checkpoint is the missed-invalidation oracle. *)
let digest mem ~pa ~len =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Mem.read8 mem (Int64.add pa (Int64.of_int i)))) 0x100000001B3L
  done;
  !h

(* ---- recording hooks ---------------------------------------------- *)

let record_map t ~asid ~va_page ~pa_page ~(flags : Pagetable.flags) =
  Hashtbl.replace t.shadow (asid, page_of va_page)
    {
      s_pa = page_of pa_page;
      s_writable = flags.Pagetable.writable;
      s_user = flags.Pagetable.user;
      s_executable = flags.Pagetable.executable;
    }

let record_unmap t ~asid ~va_page = Hashtbl.remove t.shadow (asid, page_of va_page)

let record_protect_page t ~pa_page =
  let page = page_of pa_page in
  Hashtbl.iter (fun _ (s : shadow_mapping) -> if s.s_pa = page then s.s_writable <- false) t.shadow;
  Hashtbl.replace t.code_pages page ()

let record_invalidate_page t ~pa_page =
  let page = page_of pa_page in
  Hashtbl.remove t.code_pages page;
  let dead =
    Hashtbl.fold (fun ((pa, _, _) as k) _ acc -> if page_of pa = page then k :: acc else acc)
      t.translations []
  in
  List.iter (Hashtbl.remove t.translations) dead

let record_clear_mappings t = Hashtbl.reset t.shadow

let record_translation t ~mem ~pa ~el ~mmu ~len =
  Hashtbl.replace t.translations (pa, el, mmu)
    { th_len = len; th_digest = digest mem ~pa ~len }

(* ---- checkpoint sweep --------------------------------------------- *)

let flags_str (f : Pagetable.flags) =
  Printf.sprintf "%c%c%c"
    (if f.Pagetable.writable then 'w' else '-')
    (if f.Pagetable.user then 'u' else '-')
    (if f.Pagetable.executable then 'x' else '-')

let check t ~(machine : Machine.t) ~roots ~code_keys ~reason =
  let mem = machine.Machine.mem in
  let palloc = machine.Machine.palloc in
  let tlb = machine.Machine.tlb in
  Counters.bump t.counters "checkpoints";
  Counters.bump t.counters ("checkpoint " ^ reason);

  (* (a) page tables vs. the shadow mapping table.  The sweep also
     collects every reachable table frame for checker (c) and every live
     leaf for (b)/(d). *)
  let reachable = Hashtbl.create 64 in (* table frame -> () *)
  let live_leaves = Hashtbl.create 256 in (* (asid, va page) -> pte *)
  let in_palloc f =
    Int64.unsigned_compare f palloc.Palloc.base >= 0
    && Int64.unsigned_compare f palloc.Palloc.limit < 0
  in
  let table_perm_bits = Int64.logor Pagetable.pte_present (Int64.logor Pagetable.pte_writable Pagetable.pte_user) in
  Array.iteri
    (fun asid root ->
      let rec sweep table level va_base =
        for i = 0 to 511 do
          let pte = Mem.read64 mem (Int64.add table (Int64.of_int (8 * i))) in
          if Int64.logand pte Pagetable.pte_present <> 0L then begin
            let va = Int64.logor va_base (Int64.shift_left (Int64.of_int i) (12 + (9 * level))) in
            if level > 0 then begin
              Counters.bump t.counters "pt intermediate entries checked";
              let f = Pagetable.frame_of pte in
              (* Intermediate levels must be exactly maximally permissive
                 (P|W|U, no NX, no stray bits): x86 ANDs permissions
                 across levels, so anything less escalates restrictions
                 and anything more is a corrupt descriptor. *)
              if pte <> Int64.logor f table_perm_bits then
                finding t Pt_shadow
                  "as%d L%d table descriptor for va 0x%Lx not maximally permissive: 0x%Lx" asid
                  level va pte;
              if (not (in_palloc f)) || Int64.logand f 0xFFFL <> 0L then
                finding t Frames "as%d L%d table frame 0x%Lx outside the frame allocator region"
                  asid level f
              else if Hashtbl.mem reachable f then
                finding t Frames "table frame 0x%Lx double-mapped (reached again at as%d L%d va 0x%Lx)"
                  f asid level va
              else begin
                Hashtbl.replace reachable f ();
                sweep f (level - 1) va
              end
            end
            else begin
              Counters.bump t.counters "pt leaves checked";
              Hashtbl.replace live_leaves (asid, va) pte;
              match Hashtbl.find_opt t.shadow (asid, va) with
              | None ->
                finding t Pt_shadow "dangling PTE: as%d va 0x%Lx -> 0x%Lx has no shadow mapping"
                  asid va pte
              | Some s ->
                if Pagetable.frame_of pte <> s.s_pa then
                  finding t Pt_shadow "as%d va 0x%Lx maps frame 0x%Lx but the shadow says 0x%Lx"
                    asid va (Pagetable.frame_of pte) s.s_pa;
                let fl = Pagetable.flags_of_bits pte in
                if
                  fl.Pagetable.writable <> s.s_writable
                  || fl.Pagetable.user <> s.s_user
                  || fl.Pagetable.executable <> s.s_executable
                then
                  finding t Pt_shadow "as%d va 0x%Lx permissions %s but the shadow says %s" asid va
                    (flags_str fl)
                    (flags_str
                       {
                         Pagetable.writable = s.s_writable;
                         user = s.s_user;
                         executable = s.s_executable;
                       })
            end
          end
        done
      in
      Hashtbl.replace reachable root ();
      sweep root 3 0L)
    roots;
  (* The reverse direction: every shadow mapping must still be present. *)
  Hashtbl.iter
    (fun (asid, va) (s : shadow_mapping) ->
      Counters.bump t.counters "pt shadow entries checked";
      if not (Hashtbl.mem live_leaves (asid, va)) then
        finding t Pt_shadow "lost mapping: shadow has as%d va 0x%Lx -> 0x%Lx but the walk finds nothing"
          asid va s.s_pa)
    t.shadow;

  (* (b) every valid hardware-TLB entry must be derivable from the
     current page tables under its PCID.  Entries are scanned directly —
     [Tlb.lookup] would perturb the hit/miss statistics. *)
  let derivable root (e : Tlb.entry) =
    match fst (Pagetable.walk mem ~root (Int64.shift_left (Int64.of_int e.Tlb.vpn) 12)) with
    | None -> false
    | Some (_, pte) ->
      Pagetable.frame_of pte = e.Tlb.frame
      &&
      let fl = Pagetable.flags_of_bits pte in
      fl.Pagetable.writable = e.Tlb.writable
      && fl.Pagetable.user = e.Tlb.user
      && fl.Pagetable.executable = e.Tlb.executable
  in
  Array.iter
    (fun (e : Tlb.entry) ->
      if e.Tlb.valid then begin
        Counters.bump t.counters "tlb entries checked";
        if e.Tlb.global then begin
          if not (Array.exists (fun root -> derivable root e) roots) then
            finding t Tlb_shadow
              "stale global TLB entry: vpn 0x%x -> 0x%Lx derivable from no live root" e.Tlb.vpn
              e.Tlb.frame
        end
        else if e.Tlb.pcid < 0 || e.Tlb.pcid >= Array.length roots then
          finding t Tlb_shadow "TLB entry vpn 0x%x carries unknown PCID %d" e.Tlb.vpn e.Tlb.pcid
        else if not (derivable roots.(e.Tlb.pcid) e) then
          finding t Tlb_shadow
            "stale TLB entry: pcid %d vpn 0x%x -> 0x%Lx (%s) not derivable from the current page tables"
            e.Tlb.pcid e.Tlb.vpn e.Tlb.frame
            (flags_str
               {
                 Pagetable.writable = e.Tlb.writable;
                 user = e.Tlb.user;
                 executable = e.Tlb.executable;
               })
      end)
    tlb.Tlb.entries;

  (* (c) frame accounting against Palloc: the allocated region must
     partition exactly into reachable table frames and free-listed
     frames. *)
  let free = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Counters.bump t.counters "frames free-listed";
      if Hashtbl.mem free f then finding t Frames "frame 0x%Lx on the free list twice (double free)" f
      else Hashtbl.replace free f ();
      if Hashtbl.mem reachable f then
        finding t Frames "frame 0x%Lx freed but still mapped in a page table" f)
    palloc.Palloc.free;
  let n_alloc = Int64.to_int (Int64.div (Int64.sub palloc.Palloc.next palloc.Palloc.base) 4096L) in
  for i = 0 to n_alloc - 1 do
    let f = Int64.add palloc.Palloc.base (Int64.mul (Int64.of_int i) 4096L) in
    if (not (Hashtbl.mem reachable f)) && not (Hashtbl.mem free f) then
      finding t Frames "frame 0x%Lx leaked: allocated but neither reachable from a root nor free" f
  done;
  Counters.bump t.counters "frames swept" ~by:n_alloc;

  (* (d) code-cache coherence: W^X over every mapping and TLB entry of a
     protected page, and a content re-hash of every live translation. *)
  Hashtbl.iter
    (fun page () ->
      Counters.bump t.counters "code pages checked";
      Hashtbl.iter
        (fun (asid, va) (s : shadow_mapping) ->
          if s.s_pa = page then begin
            if s.s_writable then
              finding t Code_cache "shadow mapping of code page 0x%Lx at as%d va 0x%Lx is writable"
                page asid va;
            match Hashtbl.find_opt live_leaves (asid, va) with
            | Some pte when (Pagetable.flags_of_bits pte).Pagetable.writable ->
              finding t Code_cache
                "writable host mapping of code page 0x%Lx at as%d va 0x%Lx (W^X violated)" page asid
                va
            | _ -> ()
          end)
        t.shadow;
      Array.iter
        (fun (e : Tlb.entry) ->
          if e.Tlb.valid && page_of e.Tlb.frame = page && e.Tlb.writable then
            finding t Code_cache "writable TLB entry for code page 0x%Lx (pcid %d vpn 0x%x)" page
              e.Tlb.pcid e.Tlb.vpn)
        tlb.Tlb.entries)
    t.code_pages;
  Hashtbl.iter
    (fun (pa, el, mmu) (th : translation_shadow) ->
      Counters.bump t.counters "code translations hashed";
      if not (Hashtbl.mem t.code_pages (page_of pa)) then
        finding t Code_cache "translation at pa 0x%Lx (el%d, mmu %b) backed by unprotected page 0x%Lx"
          pa el mmu (page_of pa);
      if th.th_len > 0 && digest mem ~pa ~len:th.th_len <> th.th_digest then
        finding t Code_cache
          "guest code at pa 0x%Lx (el%d, mmu %b, %d bytes) changed under a live translation: invalidate_page never fired"
          pa el mmu th.th_len)
    t.translations;

  (* (d') published-cache snapshot audit (concurrent JIT): every key the
     engine's sharded code cache publishes at this checkpoint must have
     been narrated through [record_translation] — so its guest bytes are
     re-hashed above — and must sit on a write-protected page.  A stale
     install (an in-flight translation job landing after its page's SMC
     invalidation) surfaces here as an unnarrated or unprotected key. *)
  match code_keys with
  | None -> ()
  | Some keys ->
    List.iter
      (fun ((pa, el, mmu) as k) ->
        Counters.bump t.counters "code published keys checked";
        if not (Hashtbl.mem t.translations k) then
          finding t Code_cache
            "published cache key pa 0x%Lx (el%d, mmu %b) has no recorded translation (stale install)"
            pa el mmu;
        if not (Hashtbl.mem t.code_pages (page_of pa)) then
          finding t Code_cache
            "published cache key pa 0x%Lx (el%d, mmu %b) on unprotected page 0x%Lx" pa el mmu
            (page_of pa))
      keys

(* (e) ring/privilege audit, run at block-dispatch time. *)
let audit_ring t ~(machine : Machine.t) ~roots ~asid ~guest_el ~pc =
  Counters.bump t.counters "ring audits";
  let ring = machine.Machine.ring in
  if guest_el = 0 <> (ring = 3) then
    finding t Ring "guest EL%d dispatched in host ring %d" guest_el ring;
  if ring = 3 && machine.Machine.paging && asid >= 0 && asid < Array.length roots then begin
    let va_page = page_of (Int64.logand pc 0x0000_7FFF_FFFF_FFFFL) in
    match fst (Pagetable.walk machine.Machine.mem ~root:roots.(asid) va_page) with
    | Some (_, pte) when not (Pagetable.flags_of_bits pte).Pagetable.user ->
      finding t Ring "user code at pc 0x%Lx runs over a kernel-only host mapping (as%d va 0x%Lx)" pc
        asid va_page
    | _ -> () (* not yet demand-paged: nothing to audit *)
  end

(* ---- results ------------------------------------------------------ *)

let ok t = t.findings_rev = []
let findings t = List.rev t.findings_rev
let counters t = t.counters

let report t =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (string_of_finding f);
      Buffer.add_char b '\n')
    (findings t);
  Buffer.add_string b (Counters.report t.counters);
  Buffer.contents b
