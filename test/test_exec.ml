(* Executor tests: the threaded-code executor's hot paths allocate
   nothing, a host fault resumes with the old executor's exact charging,
   and the executor's inlined semantics (bit ops, shifts, extensions,
   flags) agree with [Dbt_util.Bits]. *)

open Hostir
open Hir
module Machine = Hvm.Machine
module Bits = Dbt_util.Bits

let program ?(n_slots = 0) ?(wb_map = [||]) code =
  { (Test_symexec.indexify code) with Encode.n_slots; wb_map }

(* A 4 MiB machine with paging on and an empty page table; the fault
   handler maps the faulting page to physical 0x20000 and retries, except
   at two addresses it services as device emulation.  Every fault is
   logged. *)
let paged_ctx () =
  let m = Machine.create ~mem_size:(4 * 1024 * 1024) () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  m.Machine.cr3 <- root;
  m.Machine.paging <- true;
  let log = Buffer.create 64 in
  let fault_handler _ctx access va ~bits ~value =
    Printf.bprintf log "[%s 0x%Lx %d %s]"
      (match access with Machine.Read -> "r" | Machine.Write -> "w" | Machine.Exec -> "x")
      va bits
      (match value with None -> "-" | Some v -> Printf.sprintf "0x%Lx" v);
    if va = 0x9000L then Exec.Mmio_value 0x1234L
    else if va = 0xA000L then Exec.Mmio_done
    else begin
      Hvm.Pagetable.map m.Machine.mem m.Machine.palloc ~root
        (Int64.logand va (Int64.lognot 0xFFFL))
        0x20000L
        { Hvm.Pagetable.writable = true; user = true; executable = false };
      Exec.Retry
    end
  in
  (Exec.create ~machine:m ~helpers:[||] ~fault_handler, log)

(* Retry, Mmio_value and Mmio_done in the middle of a program with spill
   slots and a writeback map.  Every figure below was measured on the
   per-instruction interpreter this executor replaced: the fault path
   must charge the faulting instruction again on Retry, flush the
   writeback map before each handler call, and charge slot traffic of
   the handler's store value and of an Mmio_value destination. *)
let test_fault_resume () =
  let ctx, log = paged_ctx () in
  let m = ctx.Exec.machine in
  let p =
    program ~n_slots:3
      ~wb_map:[| (Slot 1, 24); (Preg 2, 32) |]
      [|
        Mov (Slot 0, Imm 0x10008L);
        Mov (Preg 1, Imm 0x55L);
        Mem_st (64, Slot 0, Preg 1) (* unmapped: Retry *);
        Mem_ld (64, Slot 1, Slot 0) (* TLB hit *);
        Mem_ld (32, Slot 2, Imm 0x9000L) (* Mmio_value *);
        Mem_st (16, Imm 0xA000L, Slot 1) (* Mmio_done *);
        Alu (Aadd, Preg 2, Slot 1, Slot 2);
        Ldrf (Preg 3, 8);
        Strf (16, Slot 2);
        Inc_pc 4;
        Exit 3;
      |]
  in
  Exec.rf_write ctx 8 0x77L;
  Exec.set_pc ctx 0x400L;
  let slot = Exec.run ctx (Exec.compile p) in
  let chk = Alcotest.(check int) in
  chk "exit slot" 3 slot;
  chk "cycles" 843 m.Machine.cycles;
  chk "instrs_executed" 12 ctx.Exec.instrs_executed;
  chk "rf_loads" 1 ctx.Exec.rf_loads;
  chk "rf_stores" 9 ctx.Exec.rf_stores;
  chk "faults" 6 m.Machine.faults;
  chk "mem_ops" 5 m.Machine.mem_ops;
  chk "tlb hits" 1 m.Machine.tlb.Hvm.Tlb.hits;
  chk "tlb misses" 4 m.Machine.tlb.Hvm.Tlb.misses;
  let chk64 = Alcotest.(check int64) in
  List.iteri (fun r v -> chk64 (Printf.sprintf "r%d" r) v (Exec.reg ctx r)) [ 0L; 0x55L; 0x1289L; 0x77L ];
  chk64 "pc" 0x404L (Exec.pc ctx);
  List.iteri
    (fun i v -> chk64 (Printf.sprintf "rf[%d]" (8 * i)) v (Exec.rf_read ctx (8 * i)))
    [ 0L; 0x77L; 0x1234L; 0x55L; 0x1289L ];
  chk64 "stored through the retried mapping" 0x55L (Hvm.Mem.read64 m.Machine.mem 0x20008L);
  Alcotest.(check string)
    "handler calls" "[w 0x10008 64 0x55][r 0x9000 32 -][w 0xa000 16 0x55]" (Buffer.contents log)

(* A helper-free loop over the hot shapes, TLB-hit memory traffic
   included, allocates (almost) nothing per executed host instruction. *)
let test_hot_loop_allocation_free () =
  let ctx, _ = paged_ctx () in
  let code =
    Exec.compile
      (program
         [|
           Mov (Preg 0, Imm 0L);
           Mov (Preg 5, Imm 0x10000L);
           Label 1;
           Alu (Aadd, Preg 0, Preg 0, Imm 1L);
           Ldrf (Preg 1, 8);
           Flags_add (64, Preg 2, Preg 1, Preg 0, Imm 0L);
           Bit1 (Bclz64, Preg 3, Preg 2);
           Bit1 (Bpopcnt, Preg 7, Preg 1);
           Strf (16, Preg 3);
           Mem_st (64, Preg 5, Preg 0);
           Mem_ld (32, Preg 4, Preg 5);
           Alu (Axor, Preg 1, Preg 1, Preg 4);
           Strf (8, Preg 1);
           Poll 1;
           Setcc (Cult, Preg 6, Preg 0, Imm 20_000L);
           Br (Preg 6, 1, 2);
           Label 2;
           Exit 0;
         |])
  in
  (* warm up: the first store faults the page in, and the first entry
     sizes the slot frame *)
  ignore (Exec.run ctx code);
  let n0 = ctx.Exec.instrs_executed in
  let w0 = Gc.minor_words () in
  ignore (Exec.run ctx code);
  let words = Gc.minor_words () -. w0 in
  let n = ctx.Exec.instrs_executed - n0 in
  Alcotest.(check bool) "ran the loop" true (n > 200_000);
  let per_instr = words /. float_of_int n in
  if per_instr >= 0.1 then
    Alcotest.failf "%.3f minor words per host instruction (%.0f words over %d instructions)" per_instr
      words n

let gen_width = QCheck2.Gen.oneofl [ 32; 64 ]

let prop_flags_add_matches_bits =
  QCheck2.Test.make ~name:"Exec.flags_add = Bits.add_nzcv" ~count:1000
    QCheck2.Gen.(quad gen_width int64 int64 bool)
    (fun (width, a, b, cin) ->
      Exec.flags_add ~width a b (if cin then 1L else 0L) = Bits.add_nzcv ~width a b cin)

let prop_bit1_matches_bits =
  QCheck2.Test.make ~name:"Exec.bit1 = Bits" ~count:1000 QCheck2.Gen.int64 (fun v ->
      let z32 = Bits.zero_extend v ~width:32 in
      Exec.bit1 Bclz32 v = Int64.of_int (Bits.clz ~width:32 z32)
      && Exec.bit1 Bclz64 v = Int64.of_int (Bits.clz v)
      && Exec.bit1 Bpopcnt v = Int64.of_int (Bits.popcount v)
      && Exec.bit1 Bswap16 v = Bits.byte_swap v ~width:16
      && Exec.bit1 Bswap32 v = Bits.byte_swap z32 ~width:32
      && Exec.bit1 Bswap64 v = Bits.byte_swap v ~width:64
      && Exec.bit1 Brbit32 v = Bits.bit_reverse z32 ~width:32
      && Exec.bit1 Brbit64 v = Bits.bit_reverse v ~width:64)

(* Shift amounts: arbitrary, or small enough to hit 0, the width and just
   past it. *)
let gen_amount = QCheck2.Gen.(oneof [ int64; map Int64.of_int (int_range 0 70) ])

let prop_bit2_shifts_match_bits =
  QCheck2.Test.make ~name:"Exec.bit2 and Exec.alu shifts = Bits" ~count:1000
    QCheck2.Gen.(pair int64 gen_amount)
    (fun (a, b) ->
      let n63 = Int64.to_int (Int64.logand b 63L) in
      Exec.bit2 Bror32 a b
      = Bits.rotate_right (Bits.zero_extend a ~width:32) (Int64.to_int (Int64.logand b 31L)) ~width:32
      && Exec.bit2 Bror64 a b = Bits.rotate_right a n63 ~width:64
      && Exec.alu Ashl a b = Bits.shl a n63
      && Exec.alu Ashr a b = Bits.shr a n63
      && Exec.alu Asar a b = Bits.sar a n63)

let prop_ext_matches_bits =
  QCheck2.Test.make ~name:"Exec.ext = Bits.sign_extend/zero_extend" ~count:1000
    QCheck2.Gen.(pair int64 (int_range 0 64))
    (fun (v, width) ->
      Exec.ext true width v = Bits.sign_extend v ~width
      && Exec.ext false width v = Bits.zero_extend v ~width)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "exec",
    [
      Alcotest.test_case "fault resume matches the interpreter" `Quick test_fault_resume;
      Alcotest.test_case "hot loop allocates nothing" `Quick test_hot_loop_allocation_free;
      q prop_flags_add_matches_bits;
      q prop_bit1_matches_bits;
      q prop_bit2_shifts_match_bits;
      q prop_ext_matches_bits;
    ] )
