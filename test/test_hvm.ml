(* HVM substrate tests: physical memory, page tables, TLB, devices. *)

module Mem = Hvm.Mem
module Pt = Hvm.Pagetable
module Tlb = Hvm.Tlb
module Machine = Hvm.Machine

(* Memory sizes for the [Mem] tests: one frame, a partial second frame,
   and three whole frames plus a partial fourth. *)
let mem_sizes = [ 4096; 6000; (3 * 4096) + 8 ]

let test_mem_widths () =
  List.iter
    (fun size ->
      let m = Mem.create size in
      let sz = Int64.of_int size in
      (* the start of memory, its last 8 bytes, and a frame boundary *)
      let bases = 0 :: (size - 8) :: (if size > 4096 then [ 4092 ] else []) in
      List.iter
        (fun base ->
          let at k = Int64.of_int (base + k) in
          let what s = Printf.sprintf "%s (size %d, at %d)" s size base in
          Mem.write64 m (at 0) 0x1122334455667788L;
          Alcotest.(check int64) (what "read64") 0x1122334455667788L (Mem.read64 m (at 0));
          Alcotest.(check int64) (what "read32 low") 0x55667788L (Mem.read32 m (at 0));
          Alcotest.(check int64) (what "read32 high") 0x11223344L (Mem.read32 m (at 4));
          Alcotest.(check int64) (what "read16") 0x7788L (Mem.read16 m (at 0));
          Alcotest.(check int64) (what "read16 mid") 0x4455L (Mem.read16 m (at 3));
          Alcotest.(check int64) (what "read8") 0x88L (Mem.read8 m (at 0));
          Mem.write8 m (at 1) 0xFFL;
          Alcotest.(check int64) (what "byte patch") 0x112233445566FF88L (Mem.read64 m (at 0));
          Mem.write32 m (at 2) 0xA0B0C0D0L;
          Mem.write16 m (at 6) 0xE0F0L;
          Alcotest.(check int64) (what "word patch") 0xE0F0A0B0C0D0FF88L (Mem.read64 m (at 0)))
        bases;
      Alcotest.check_raises "oob read" (Mem.Bus_error { addr = sz; bits = 8; write = false })
        (fun () -> ignore (Mem.read8 m sz));
      Alcotest.check_raises "oob write carries width and direction"
        (Mem.Bus_error { addr = Int64.sub sz 4L; bits = 64; write = true })
        (fun () -> Mem.write64 m (Int64.sub sz 4L) 0L))
    mem_sizes;
  Alcotest.(check bool) "bus error printer" true
    (try
       ignore (Mem.read32 (Mem.create 4096) 8000L);
       false
     with e ->
       let s = Printexc.to_string e in
       s = "Mem.Bus_error(read of 32 bits at 0x1f40)")

(* A flat-[Bytes] reference model of [Mem]: the semantics every
   storage layout must keep, [Bus_error] payloads included. *)
module Flat = struct
  let check m addr len ~write =
    let size = Bytes.length m in
    let a = Int64.to_int addr in
    if addr < 0L || Int64.compare addr (Int64.of_int size) >= 0 || a + len > size then
      raise (Mem.Bus_error { addr; bits = 8 * len; write });
    a

  let read m ~bits addr =
    let a = check m addr (bits / 8) ~write:false in
    match bits with
    | 8 -> Int64.of_int (Bytes.get_uint8 m a)
    | 16 -> Int64.of_int (Bytes.get_uint16_le m a)
    | 32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le m a)) 0xFFFFFFFFL
    | _ -> Bytes.get_int64_le m a

  let write m ~bits addr v =
    let a = check m addr (bits / 8) ~write:true in
    match bits with
    | 8 -> Bytes.set_uint8 m a (Int64.to_int v land 0xFF)
    | 16 -> Bytes.set_uint16_le m a (Int64.to_int v land 0xFFFF)
    | 32 -> Bytes.set_int32_le m a (Int64.to_int32 v)
    | _ -> Bytes.set_int64_le m a v

  let blit_in m ~addr src =
    let a = check m addr (Bytes.length src) ~write:true in
    Bytes.blit src 0 m a (Bytes.length src)

  let zero_range m ~addr ~len =
    let a = check m addr len ~write:true in
    Bytes.fill m a len '\000'
end

(* Random reads, writes, blits and zeroings against [Flat], biased to
   addresses that straddle frame boundaries, the 4 MiB spans of the
   directory's second level, or the end of memory; every result and every
   [Bus_error] payload must agree, and so must the final contents.  The
   register-file accessors [Mem.load]/[Mem.store] are checked the same
   way.  The largest size spans three second-level tables, the last one
   partial. *)
let test_mem_differential () =
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Mem.Bus_error { addr; bits; write } -> Error (addr, bits, write)
  in
  let agree what f g =
    if outcome f <> outcome g then Alcotest.failf "Mem and Flat disagree on %s" what
  in
  let span = 4 * 1024 * 1024 in
  let regs = Bytes.make 16 '\000' in
  let via_regs f a =
    let a = Int64.to_int a in
    if a < 0 || a > max_int - 8 then raise (Mem.Bus_error { addr = Int64.of_int a; bits = 0; write = false });
    f a
  in
  List.iter
    (fun size ->
      let rng = Random.State.make [| size |] in
      let m = Mem.create size and r = Bytes.make size '\000' in
      let frames = (size + 4095) / 4096 in
      let addr () =
        match Random.State.int rng 5 with
        | 0 -> (4096 * Random.State.int rng (frames + 1)) + Random.State.int rng 20 - 10
        | 1 -> size + Random.State.int rng 20 - 16
        | 2 -> Random.State.int rng size
        | 3 -> (span * Random.State.int rng ((size / span) + 2)) + Random.State.int rng 20 - 10
        | _ -> if Random.State.bool rng then -1 - Random.State.int rng 8 else max_int
      in
      for step = 1 to 4000 do
        let a = Int64.of_int (addr ()) in
        let bits = 8 lsl Random.State.int rng 4 in
        let what op = Printf.sprintf "%s (size %d, step %d, addr %Ld, bits %d)" op size step a bits in
        match Random.State.int rng 12 with
        | 0 | 1 | 2 | 3 ->
          agree (what "read") (fun () -> Mem.read m ~bits a) (fun () -> Flat.read r ~bits a)
        | 4 | 5 | 6 ->
          let v = Random.State.bits64 rng in
          agree (what "write") (fun () -> Mem.write m ~bits a v) (fun () -> Flat.write r ~bits a v)
        | 8 ->
          agree (what "load")
            (fun () ->
              via_regs (fun a -> Mem.load m ~bits a regs 8) a;
              Bytes.get_int64_le regs 8)
            (fun () -> via_regs (fun _ -> Flat.read r ~bits a) a)
        | 9 ->
          let v = Random.State.bits64 rng in
          Bytes.set_int64_le regs 0 v;
          agree (what "store")
            (fun () -> via_regs (fun a -> Mem.store m ~bits a regs 0) a)
            (fun () -> via_regs (fun _ -> Flat.write r ~bits a v) a)
        | 7 ->
          let src = Bytes.init (Random.State.int rng 9000) (fun _ -> Char.chr (Random.State.int rng 256)) in
          agree (what "blit_in") (fun () -> Mem.blit_in m ~addr:a src) (fun () -> Flat.blit_in r ~addr:a src)
        | _ ->
          (* whole frames, a partial head or tail frame, or both *)
          let a, len =
            match Random.State.int rng 3 with
            | 0 -> (Int64.of_int (4096 * Random.State.int rng frames), 4096 * (1 + Random.State.int rng 2))
            | 1 -> (a, Random.State.int rng 5000)
            | _ -> (a, 0)
          in
          agree (what "zero_range")
            (fun () -> Mem.zero_range m ~addr:a ~len)
            (fun () -> Flat.zero_range r ~addr:a ~len)
      done;
      for a = 0 to size - 1 do
        if Mem.read8 m (Int64.of_int a) <> Int64.of_int (Bytes.get_uint8 r a) then
          Alcotest.failf "size %d: final contents differ at %d" size a
      done;
      Alcotest.(check bool) "resident frames within the directory" true
        (Mem.resident_frames m >= 0 && Mem.resident_frames m <= frames);
      Mem.zero_range m ~addr:0L ~len:size;
      (* a partial last frame is filled, not released *)
      Alcotest.(check bool) (Printf.sprintf "size %d: zeroed memory releases whole frames" size) true
        (Mem.resident_frames m <= if size mod 4096 = 0 then 0 else 1))
    (mem_sizes @ [ (2 * span) + 4096 + 8 ])

(* Unwritten frames of every instance share one zero frame, so a store
   that reached it would show up in every other instance. *)
let test_mem_instances_isolated () =
  List.iter
    (fun size ->
      let a = Mem.create size and b = Mem.create size in
      let addrs = [ 0L; 4092L; Int64.of_int (size - 8) ] in
      List.iter (fun addr -> if Int64.to_int addr + 8 <= size then Mem.write64 a addr (-1L)) addrs;
      Mem.blit_in a ~addr:(Int64.of_int (size / 2)) (Bytes.make 16 '\xff');
      Mem.zero_range a ~addr:0L ~len:(min size 4096);
      Mem.write8 a 1L 0xAAL;
      let fresh = Mem.create size in
      for i = 0 to size - 1 do
        let i = Int64.of_int i in
        if Mem.read8 b i <> 0L || Mem.read8 fresh i <> 0L then
          Alcotest.failf "size %d: a write to one instance shows in another at %Ld" size i
      done;
      Alcotest.(check int) "untouched instance holds no frames" 0 (Mem.resident_frames b))
    mem_sizes

(* Demand paging on a default-sized engine: a whole SPEC proxy boot
   touches a small share of its 256 MiB, and page-table frames that
   [Palloc] recycles do not accumulate. *)
let test_mem_resident_after_boot () =
  let code, e = Harness.workload "429.mcf" in
  Alcotest.check Harness.exit_t "mcf exits as registered" (Workloads.Runner.Poweroff 0) code;
  let m = e.Captive.Engine.machine in
  let mem = m.Machine.mem and p = m.Machine.palloc in
  let frames = Machine.default_mem_size / 4096 in
  let resident = Mem.resident_frames mem in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d frames resident (< 2%%)" resident frames)
    true
    (resident * 50 < frames);
  for _ = 1 to 100 do
    let f = Hvm.Palloc.alloc p in
    Mem.write64 mem f 1L;
    let held = Mem.resident_frames mem in
    Hvm.Palloc.release p f;
    (* the free list hands [f] back, zeroed whole: no longer resident *)
    let g = Hvm.Palloc.alloc p in
    Alcotest.(check int64) "free list reuses the frame" f g;
    Alcotest.(check int) "a reused frame starts on the zero frame" (held - 1)
      (Mem.resident_frames mem);
    Hvm.Palloc.release p g
  done;
  Alcotest.(check bool) "release->alloc cycles do not grow the count" true
    (Mem.resident_frames mem <= resident)

let mk_machine () = Machine.create ~mem_size:(16 * 1024 * 1024) ()

let test_pagetable_map_walk () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  let flags = { Pt.writable = true; user = false; executable = true } in
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x7000_0000L 0x1000L flags;
  (match fst (Pt.walk m.Machine.mem ~root 0x7000_0000L) with
  | Some (_, pte) ->
    Alcotest.(check int64) "frame" 0x1000L (Pt.frame_of pte);
    let f = Pt.flags_of_bits pte in
    Alcotest.(check bool) "writable" true f.Pt.writable;
    Alcotest.(check bool) "not user" false f.Pt.user;
    Alcotest.(check bool) "exec" true f.Pt.executable
  | None -> Alcotest.fail "mapping not found");
  Alcotest.(check bool) "unmapped va misses" true (fst (Pt.walk m.Machine.mem ~root 0x7000_1000L) = None);
  Pt.unmap m.Machine.mem ~root 0x7000_0000L;
  Alcotest.(check bool) "unmap works" true (fst (Pt.walk m.Machine.mem ~root 0x7000_0000L) = None)

let test_pagetable_protect_and_clear () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  let rw = { Pt.writable = true; user = true; executable = false } in
  (* one low-half and one high-half mapping *)
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x1000L 0x2000L rw;
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x0000_8000_0000_0000L 0x3000L rw;
  Pt.protect m.Machine.mem ~root 0x1000L { rw with Pt.writable = false };
  (match fst (Pt.walk m.Machine.mem ~root 0x1000L) with
  | Some (_, pte) -> Alcotest.(check bool) "downgraded" false (Pt.flags_of_bits pte).Pt.writable
  | None -> Alcotest.fail "lost mapping");
  Pt.clear_low_half m.Machine.mem m.Machine.palloc ~root;
  Alcotest.(check bool) "low half cleared" true (fst (Pt.walk m.Machine.mem ~root 0x1000L) = None);
  Alcotest.(check bool) "high half survives" true
    (fst (Pt.walk m.Machine.mem ~root 0x0000_8000_0000_0000L) <> None)

let test_tlb_pcid () =
  let tlb = Tlb.create ~size:64 () in
  let flags = { Pt.writable = true; user = true; executable = true } in
  Tlb.insert tlb ~pcid:0 ~vpn:5 ~frame:0x5000L ~flags ~global:false;
  Alcotest.(check bool) "hit pcid0" true (Tlb.lookup tlb ~pcid:0 5).Tlb.valid;
  Alcotest.(check bool) "miss pcid1" true (not (Tlb.lookup tlb ~pcid:1 5).Tlb.valid);
  Tlb.insert tlb ~pcid:1 ~vpn:6 ~frame:0x6000L ~flags ~global:false;
  Tlb.flush_pcid tlb 0;
  Alcotest.(check bool) "pcid0 flushed" true (not (Tlb.lookup tlb ~pcid:0 5).Tlb.valid);
  Alcotest.(check bool) "pcid1 survives pcid0 flush" true (Tlb.lookup tlb ~pcid:1 6).Tlb.valid;
  Tlb.flush_all tlb;
  Alcotest.(check bool) "all flushed" true (not (Tlb.lookup tlb ~pcid:1 6).Tlb.valid)

(* invlpg semantics: flush_page must drop the translation under *every*
   PCID and also global entries, but leave entries for other VPNs that
   merely alias the same direct-mapped slot alone. *)
let test_tlb_flush_page_pcid_blind () =
  let tlb = Tlb.create ~size:64 () in
  let flags = { Pt.writable = true; user = true; executable = true } in
  Tlb.insert tlb ~pcid:3 ~vpn:5 ~frame:0x5000L ~flags ~global:false;
  Tlb.flush_page tlb 5;
  Alcotest.(check bool) "flushed under a foreign pcid" true (not (Tlb.lookup tlb ~pcid:3 5).Tlb.valid);
  Tlb.insert tlb ~pcid:0 ~vpn:7 ~frame:0x7000L ~flags ~global:true;
  Tlb.flush_page tlb 7;
  Alcotest.(check bool) "global entry flushed" true (not (Tlb.lookup tlb ~pcid:9 7).Tlb.valid);
  Tlb.insert tlb ~pcid:0 ~vpn:9 ~frame:0x9000L ~flags ~global:false;
  Tlb.flush_page tlb (9 + 64); (* aliases slot 9, different vpn *)
  Alcotest.(check bool) "slot-aliasing vpn survives" true (Tlb.lookup tlb ~pcid:0 9).Tlb.valid

(* Frame accounting: map/unmap/clear cycles must return every intermediate
   table frame to the allocator exactly once (no leak, no double free). *)
let prop_frame_accounting =
  QCheck2.Test.make ~name:"map/unmap/clear returns every table frame exactly once" ~count:50
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 2_000_000))
    (fun pages ->
      let m = mk_machine () in
      let p = m.Machine.palloc in
      let root = Hvm.Palloc.alloc p in
      let flags = { Pt.writable = true; user = true; executable = false } in
      let no_dups l = List.length (List.sort_uniq compare l) = List.length l in
      let cycle () =
        List.iter
          (fun pg -> Pt.map m.Machine.mem p ~root (Int64.mul (Int64.of_int pg) 4096L) 0x1000L flags)
          pages;
        (* unmap half of them first: leaves clear but tables remain *)
        List.iteri
          (fun i pg ->
            if i mod 2 = 0 then Pt.unmap m.Machine.mem ~root (Int64.mul (Int64.of_int pg) 4096L))
          pages;
        Pt.clear_low_half m.Machine.mem p ~root
      in
      cycle ();
      let ok1 = Hvm.Palloc.frames_used p = 1 && no_dups p.Hvm.Palloc.free in
      (* A second cycle re-allocates from the free list and must balance again. *)
      cycle ();
      ok1 && Hvm.Palloc.frames_used p = 1 && no_dups p.Hvm.Palloc.free)

let test_free_subtree_accounting () =
  let m = mk_machine () in
  let p = m.Machine.palloc in
  let root = Hvm.Palloc.alloc p in
  let flags = { Pt.writable = true; user = true; executable = false } in
  let high = 0x0000_8000_0000_0000L in
  Pt.map m.Machine.mem p ~root high 0x2000L flags;
  Pt.map m.Machine.mem p ~root 0x1000L 0x3000L flags;
  Alcotest.(check int) "root + 2x3 tables" 7 (Hvm.Palloc.frames_used p);
  Pt.clear_low_half m.Machine.mem p ~root;
  Alcotest.(check int) "high-half tables survive clear" 4 (Hvm.Palloc.frames_used p);
  Alcotest.(check bool) "high mapping still walks" true
    (fst (Pt.walk m.Machine.mem ~root high) <> None);
  Pt.free_subtree m.Machine.mem p root 3;
  Alcotest.(check int) "free_subtree releases everything" 0 (Hvm.Palloc.frames_used p);
  Alcotest.(check bool) "no double free" true
    (List.length (List.sort_uniq compare p.Hvm.Palloc.free) = List.length p.Hvm.Palloc.free)

let test_machine_translate_rings () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  m.Machine.cr3 <- root;
  m.Machine.paging <- true;
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x4000L 0x8000L
    { Pt.writable = false; user = false; executable = true };
  m.Machine.ring <- 0;
  Alcotest.(check int64) "kernel read ok" 0x8123L (Machine.translate m ~access:Machine.Read 0x4123L);
  Alcotest.check_raises "kernel write to RO faults"
    (Machine.Host_fault { va = 0x4123L; access = Machine.Write }) (fun () ->
      ignore (Machine.translate m ~access:Machine.Write 0x4123L));
  m.Machine.ring <- 3;
  Alcotest.check_raises "user access to kernel page faults"
    (Machine.Host_fault { va = 0x4123L; access = Machine.Read }) (fun () ->
      ignore (Machine.translate m ~access:Machine.Read 0x4123L))

let test_devices () =
  let intc = Hvm.Device.Intc.create () in
  let uart = Hvm.Device.Uart.create () in
  let timer = Hvm.Device.Timer.create intc in
  let udev = Hvm.Device.Uart.device uart in
  udev.Hvm.Device.write 0 8 (Int64.of_int (Char.code 'h'));
  udev.Hvm.Device.write 0 8 (Int64.of_int (Char.code 'i'));
  Alcotest.(check string) "uart collects" "hi" (Hvm.Device.Uart.output uart);
  Alcotest.(check int64) "tx ready" 1L (udev.Hvm.Device.read 4 32);
  let tdev = Hvm.Device.Timer.device timer in
  tdev.Hvm.Device.write 0 32 100L; (* load *)
  tdev.Hvm.Device.write 8 32 3L; (* enable + irq *)
  Alcotest.(check bool) "no irq yet" false (Hvm.Device.Intc.asserted intc);
  intc.Hvm.Device.Intc.enabled <- 2;
  tdev.Hvm.Device.tick 150;
  Alcotest.(check bool) "irq raised" true (Hvm.Device.Intc.asserted intc);
  Alcotest.(check int) "fired once" 1 timer.Hvm.Device.Timer.fired;
  tdev.Hvm.Device.write 12 32 0L; (* ack *)
  Alcotest.(check bool) "irq cleared" false (Hvm.Device.Intc.asserted intc)

(* Property: any mapping installed is returned by the walk with its exact
   frame and flags. *)
let prop_map_walk =
  QCheck2.Test.make ~name:"pagetable map/walk roundtrip" ~count:200
    QCheck2.Gen.(triple (int_range 0 100000) bool bool)
    (fun (page, writable, user) ->
      let m = mk_machine () in
      let root = Hvm.Palloc.alloc m.Machine.palloc in
      let va = Int64.mul (Int64.of_int page) 4096L in
      let pa = Int64.of_int (0x100000 + (page mod 64) * 4096) in
      let flags = { Pt.writable; user; executable = true } in
      Pt.map m.Machine.mem m.Machine.palloc ~root va pa flags;
      match fst (Pt.walk m.Machine.mem ~root va) with
      | Some (_, pte) -> Pt.frame_of pte = pa && Pt.flags_of_bits pte = flags
      | None -> false)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "hvm",
    [
      Alcotest.test_case "memory widths" `Quick test_mem_widths;
      Alcotest.test_case "memory matches a flat reference" `Quick test_mem_differential;
      Alcotest.test_case "memory instances never share written state" `Quick
        test_mem_instances_isolated;
      Alcotest.test_case "resident frames after an mcf boot" `Quick test_mem_resident_after_boot;
      Alcotest.test_case "pagetable map/walk" `Quick test_pagetable_map_walk;
      Alcotest.test_case "protect and clear-low-half" `Quick test_pagetable_protect_and_clear;
      Alcotest.test_case "tlb pcid tagging" `Quick test_tlb_pcid;
      Alcotest.test_case "tlb flush_page is pcid-blind" `Quick test_tlb_flush_page_pcid_blind;
      Alcotest.test_case "free_subtree/clear_low_half accounting" `Quick test_free_subtree_accounting;
      Alcotest.test_case "machine rings" `Quick test_machine_translate_rings;
      Alcotest.test_case "devices" `Quick test_devices;
      q prop_map_walk;
      q prop_frame_accounting;
    ] )
