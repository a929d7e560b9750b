(* Execution of encoded host machine code against the HVM.

   [compile] turns a decoded program (Encode.program) into threaded code
   once, when the translation is installed: one closure per instruction,
   with its operands, cycle cost, jump targets and successor index
   resolved then, so [run] never matches on an instruction.  The hot
   shapes get their own closures; every other shape is a closure over the
   shared per-instruction semantics ([exec]).

   Host registers, spill slots and the guest PC live in [Bytes.t] as
   little-endian qwords, which native code reads and writes unboxed.  The
   semantic helpers below are local and inlined for the same reason: an
   [int64] that crosses a call into another compilation unit is boxed.

   Host page faults raised by the MMU are delivered to the
   engine-installed fault handler; [Retry] re-executes the faulting
   instruction once the handler has populated the host page tables,
   [Mmio_*] completes the access by device emulation, and guest
   exceptions simply propagate as OCaml exceptions to the engine's run
   loop. *)

open Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost

type fault_response =
  | Retry
  | Mmio_value of int64 (* a load serviced by device emulation *)
  | Mmio_done (* a store serviced by device emulation *)

type ctx = {
  machine : Machine.t;
  regfile : Bytes.t; (* guest register file (lives in HVM memory space) *)
  regs : Bytes.t;
      (* host GPRs r0..r15, qword r at byte 8r, then two scratch qwords
         ([scratch_addr], [scratch_val]) for [Machine.load]/[store] *)
  pc_reg : Bytes.t; (* the dedicated guest-PC host register, one qword *)
  helpers : helper array;
  fault_handler : ctx -> Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response;
  mutable slots : Bytes.t; (* current translation frame, qword s at byte 8s *)
  (* region safepoint budgets, set by the engine before entering a
     tier-1 region translation; [Poll] exits when either is exhausted *)
  mutable poll_deadline : int; (* machine-cycle ceiling (run's max_cycles) *)
  mutable poll_budget : int; (* remaining block executions (run's max_blocks) *)
  (* Precise-state writeback map of the running translation ([Hir.Wbmap],
     installed from the code's [wb_map] on entry): dirty promoted guest
     registers flushed to the register file before anything outside the
     translation can observe it — fault delivery, a [Poll] exit, an
     [Exit].  [||] for translations without promotion. *)
  mutable wb_map : (operand * int) array;
  (* statistics *)
  mutable instrs_executed : int;
  mutable rf_loads : int; (* dynamic register-file reads ([Ldrf]) *)
  mutable rf_stores : int; (* dynamic register-file writes ([Strf] + writebacks) *)
}

and helper = {
  fn : ctx -> int64 array -> int64;
  cost : int; (* charged in addition to the call overhead *)
}

let n_pregs = 16
let scratch_addr = 8 * n_pregs
let scratch_val = 8 * (n_pregs + 1)

let create ~machine ~helpers ~fault_handler =
  {
    machine;
    regfile = Bytes.make 8192 '\000';
    regs = Bytes.make (8 * (n_pregs + 2)) '\000';
    pc_reg = Bytes.make 8 '\000';
    helpers;
    fault_handler;
    slots = Bytes.empty;
    poll_deadline = max_int;
    poll_budget = max_int;
    wb_map = [||];
    instrs_executed = 0;
    rf_loads = 0;
    rf_stores = 0;
  }

let rf_read ctx off = Bytes.get_int64_le ctx.regfile off
let rf_write ctx off v = Bytes.set_int64_le ctx.regfile off v
let check_preg r = if r < 0 || r >= n_pregs then invalid_arg "executor: bad register"

let reg ctx r =
  check_preg r;
  Bytes.get_int64_le ctx.regs (8 * r)

let set_reg ctx r v =
  check_preg r;
  Bytes.set_int64_le ctx.regs (8 * r) v

let pc ctx = Bytes.get_int64_le ctx.pc_reg 0
let set_pc ctx v = Bytes.set_int64_le ctx.pc_reg 0 v

(* Register access at a byte offset resolved by [compile]. *)
let[@inline] get ctx off = Bytes.get_int64_le ctx.regs off
let[@inline] set ctx off v = Bytes.set_int64_le ctx.regs off v

let[@inline] charge ctx n =
  let m = ctx.machine in
  m.Machine.cycles <- m.Machine.cycles + n

(* Operand access; spill-slot traffic costs an extra L1 access. *)
let[@inline] rd ctx = function
  | Preg r -> get ctx (8 * r)
  | Imm v -> v
  | Slot s ->
    charge ctx 1;
    Bytes.get_int64_le ctx.slots (8 * s)
  | Vreg _ -> invalid_arg "executor: virtual register"

let[@inline] wr ctx o v =
  match o with
  | Preg r -> set ctx (8 * r) v
  | Slot s ->
    charge ctx 1;
    Bytes.set_int64_le ctx.slots (8 * s) v
  | Imm _ | Vreg _ -> invalid_arg "executor: bad destination"

(* ---- concrete semantics, shared with Symexec's and Absint's folds ---- *)

module Bits = Dbt_util.Bits
open Softfloat

let[@inline] zext width v =
  if width >= 64 then v else if width <= 0 then 0L else Int64.logand v (Int64.pred (Int64.shift_left 1L width))

let[@inline] sext width v =
  if width <= 0 || width >= 64 then v
  else
    let s = 64 - width in
    Int64.shift_right (Int64.shift_left v s) s

let[@inline] ext signed bits v = if signed then sext bits v else zext bits v

(* Unsigned order by flipping the sign bit; compiles to a plain compare. *)
let[@inline] ult a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int
let[@inline] ule a b = Int64.add a Int64.min_int <= Int64.add b Int64.min_int

let[@inline] alu op a b =
  match op with
  | Aadd -> Int64.add a b
  | Asub -> Int64.sub a b
  | Aand -> Int64.logand a b
  | Aor -> Int64.logor a b
  | Axor -> Int64.logxor a b
  | Ashl -> Int64.shift_left a (Int64.to_int b land 63)
  | Ashr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Asar -> Int64.shift_right a (Int64.to_int b land 63)
  | Amul -> Int64.mul a b

let mulhi signed a b =
  let hi, _ = Sf_core.mul64_wide a b in
  let hi = if signed && a < 0L then Int64.sub hi b else hi in
  if signed && b < 0L then Int64.sub hi a else hi

let[@inline] divrem signed want_rem a b =
  if b = 0L then if want_rem then a else 0L
  else if signed then if want_rem then Int64.rem a b else Int64.div a b
  else if want_rem then Int64.unsigned_rem a b
  else Int64.unsigned_div a b

let[@inline] cond_holds c a b =
  match c with
  | Ceq -> a = b
  | Cne -> a <> b
  | Cult -> ult a b
  | Cule -> ule a b
  | Cugt -> ult b a
  | Cuge -> ule b a
  | Cslt -> a < b
  | Csle -> a <= b
  | Csgt -> a > b
  | Csge -> a >= b

(* 32-bit halves as native ints, for [Bits]' allocation-free kernels. *)
let[@inline] lo32 v = Int64.to_int v land 0xFFFFFFFF
let[@inline] hi32 v = Int64.to_int (Int64.shift_right_logical v 32)
let[@inline] join32 ~hi ~lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let[@inline] bit1 op v =
  match op with
  | Bclz32 -> Int64.of_int (Bits.clz32 (lo32 v))
  | Bclz64 ->
    let h = hi32 v in
    Int64.of_int (if h <> 0 then Bits.clz32 h else 32 + Bits.clz32 (lo32 v))
  | Bpopcnt -> Int64.of_int (Bits.popcount32 (lo32 v) + Bits.popcount32 (hi32 v))
  | Bswap16 -> Int64.of_int (Bits.bswap32 (Int64.to_int v land 0xFFFF) lsr 16)
  | Bswap32 -> Int64.of_int (Bits.bswap32 (lo32 v))
  | Bswap64 -> join32 ~hi:(Bits.bswap32 (lo32 v)) ~lo:(Bits.bswap32 (hi32 v))
  | Brbit32 -> Int64.of_int (Bits.rbit32 (lo32 v))
  | Brbit64 -> join32 ~hi:(Bits.rbit32 (lo32 v)) ~lo:(Bits.rbit32 (hi32 v))

let[@inline] bit2 op a b =
  match op with
  | Bror32 ->
    let x = lo32 a and n = Int64.to_int b land 31 in
    if n = 0 then Int64.of_int x else Int64.of_int (((x lsr n) lor (x lsl (32 - n))) land 0xFFFFFFFF)
  | Bror64 ->
    let n = Int64.to_int b land 63 in
    if n = 0 then a else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))

let[@inline] bit r i = Int64.logand (Int64.shift_right_logical r (i land 63)) 1L <> 0L

(* The NZCV nibble of a [width]-bit result with carry [c] and overflow [v]. *)
let[@inline] flags_nzcv ~width r c v =
  Int64.of_int
    ((if bit r (width - 1) then 8 else 0)
    lor (if zext width r = 0L then 4 else 0)
    lor (if c then 2 else 0)
    lor if v then 1 else 0)

(* AddWithCarry's flags ([Bits.add_nzcv]), unboxed: [cin] is the carry-in
   register value, non-zero for 1. *)
let[@inline] flags_add ~width a b cin =
  let a = zext width a and b = zext width b in
  let ci = cin <> 0L in
  let r = zext width (Int64.add (Int64.add a b) (if ci then 1L else 0L)) in
  let c = if ci then ule r a else ult r a in
  let sa = bit a (width - 1) in
  flags_nzcv ~width r c (sa = bit b (width - 1) && bit r (width - 1) <> sa)

let[@inline] flags_logic ~width r = flags_nzcv ~width r false false

let flags = Sf_types.new_flags ()

let exec_fp2 op a b =
  match op with
  | Fadd64 -> F64.add flags a b
  | Fsub64 -> F64.sub flags a b
  | Fmul64 -> F64.mul flags a b
  | Fdiv64 -> F64.div flags a b
  | Fmin64 -> F64.min_ flags a b
  | Fmax64 -> F64.max_ flags a b
  | Fadd32 -> F32.add flags (zext 32 a) (zext 32 b)
  | Fsub32 -> F32.sub flags (zext 32 a) (zext 32 b)
  | Fmul32 -> F32.mul flags (zext 32 a) (zext 32 b)
  | Fdiv32 -> F32.div flags (zext 32 a) (zext 32 b)
  | Fmin32 -> F32.min_ flags (zext 32 a) (zext 32 b)
  | Fmax32 -> F32.max_ flags (zext 32 a) (zext 32 b)

(* The simulated host FPU: square root has x86 NaN-sign semantics (the
   engine emits the paper's inline fix-up); everything else follows the
   shared softfloat propagation rules. *)
let exec_fp1 op s =
  match op with
  | Fsqrt64 -> F64.sqrt ~style:Sf_types.X86_nan flags s
  | Fsqrt32 -> F32.sqrt ~style:Sf_types.X86_nan flags (zext 32 s)
  | Fcvt_32_64 -> F32.to_f64 flags (zext 32 s)
  | Fcvt_64_32 -> F64.to_f32 flags s
  | Fcvt_64_s64 -> F64.to_int64 flags s
  | Fcvt_64_u64 -> Sf_core.to_uint64 Sf_core.f64_fmt flags s
  | Fcvt_32_s32 -> (
    let v = F32.to_int64 flags (zext 32 s) in
    let v = if v > 2147483647L then 2147483647L else if v < -2147483648L then -2147483648L else v in
    zext 32 v)
  | Fcvt_s64_64 -> F64.of_int64 flags s
  | Fcvt_u64_64 -> F64.of_uint64 flags s
  | Fcvt_s32_32 -> F32.of_int64 flags (sext 32 s)
  | Fcvt_s64_32 -> F32.of_int64 flags s

let fcmp_nzcv w a b =
  let c = if w = 64 then F64.compare_ flags a b else F32.compare_ flags (zext 32 a) (zext 32 b) in
  match c with
  | Sf_core.Cmp_lt -> 8L
  | Sf_core.Cmp_eq -> 6L
  | Sf_core.Cmp_gt -> 2L
  | Sf_core.Cmp_unordered -> 3L

let instr_cost = function
  | Mov _ | Neg _ | Not _ | Bit1 _ | Bit2 _ | Setcc _ | Cmov _ | Ext _ -> Cost.mov
  | Alu (Amul, _, _, _) -> Cost.int_mul
  | Alu _ -> Cost.alu
  | Mulhi _ -> Cost.int_mul
  | Divrem _ -> Cost.int_div
  | Fp2 ((Fdiv64 | Fdiv32), _, _, _) -> Cost.fp_div
  | Fp2 _ -> Cost.fp
  | Fp1 ((Fsqrt64 | Fsqrt32), _, _) -> Cost.fp_sqrt
  | Fp1 _ -> Cost.fp
  | Fcmp_flags _ -> Cost.fp + 2
  | Flags_add _ -> 2
  | Flags_logic _ -> 1
  | Ldrf _ | Strf _ -> 1 (* register-file access: L1-resident, pipelined *)
  | Load_pc _ | Store_pc _ | Inc_pc _ -> Cost.mov
  | Mem_ld _ | Mem_st _ -> 0 (* charged inside the MMU model *)
  | Call _ -> Cost.helper_call_overhead
  | Jmp _ -> Cost.branch
  | Br _ -> Cost.branch
  | Exit _ -> 0
  (* never executed in sequence; each applied entry charges like a Strf *)
  | Wbmap _ -> 0
  (* free, like the run loop's own irq_pending check at block boundaries:
     a single host flag test folded into the dispatch branch *)
  | Poll _ -> 0
  | Label _ -> 0

(* Flush dirty promoted guest registers to the register file: the
   precise-state step before the world outside the translation (fault
   handler, engine dispatcher) reads it.  Each entry costs one cycle,
   like the [Strf] it stands in for (spilled entries charge their slot
   read on top, via [rd]). *)
let apply_wb ctx =
  let map = ctx.wb_map in
  for i = 0 to Array.length map - 1 do
    let o, off = map.(i) in
    charge ctx 1;
    ctx.rf_stores <- ctx.rf_stores + 1;
    rf_write ctx off (rd ctx o)
  done

(* The shared per-instruction semantics of every non-branching
   instruction, over generic operands.  Cycle cost and the executed count
   are charged by the caller. *)
let exec ctx ins =
  match ins with
  | Label _ | Wbmap _ -> ()
  | Mov (d, s) -> wr ctx d (rd ctx s)
  | Alu (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (alu op a b)
  | Mulhi (signed, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (mulhi signed a b)
  | Divrem (signed, want_rem, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (divrem signed want_rem a b)
  | Setcc (c, d, a, b) -> wr ctx d (if cond_holds c (rd ctx a) (rd ctx b) then 1L else 0L)
  | Cmov (d, c, a, b) -> wr ctx d (if rd ctx c <> 0L then rd ctx a else rd ctx b)
  | Ext (signed, bits, d, s) -> wr ctx d (ext signed bits (rd ctx s))
  | Neg (d, s) -> wr ctx d (Int64.neg (rd ctx s))
  | Not (d, s) -> wr ctx d (Int64.lognot (rd ctx s))
  | Bit1 (op, d, s) -> wr ctx d (bit1 op (rd ctx s))
  | Bit2 (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (bit2 op a b)
  | Fp2 (op, d, a, b) -> wr ctx d (exec_fp2 op (rd ctx a) (rd ctx b))
  | Fp1 (op, d, s) -> wr ctx d (exec_fp1 op (rd ctx s))
  | Fcmp_flags (w, d, a, b) -> wr ctx d (fcmp_nzcv w (rd ctx a) (rd ctx b))
  | Flags_add (w, d, a, b, c) ->
    let a = rd ctx a and b = rd ctx b and cin = rd ctx c in
    wr ctx d (flags_add ~width:w a b cin)
  | Flags_logic (w, d, s) -> wr ctx d (flags_logic ~width:w (rd ctx s))
  | Ldrf (d, off) ->
    ctx.rf_loads <- ctx.rf_loads + 1;
    wr ctx d (rf_read ctx off)
  | Strf (off, s) ->
    ctx.rf_stores <- ctx.rf_stores + 1;
    rf_write ctx off (rd ctx s)
  | Load_pc d -> wr ctx d (pc ctx)
  | Store_pc s -> set_pc ctx (rd ctx s)
  | Inc_pc n -> set_pc ctx (Int64.add (pc ctx) (Int64.of_int n))
  | Mem_ld (w, d, a) ->
    set ctx scratch_addr (rd ctx a);
    Machine.load ctx.machine ~bits:w ctx.regs ~addr:scratch_addr ~dst:scratch_val;
    wr ctx d (get ctx scratch_val)
  | Mem_st (w, a, v) ->
    set ctx scratch_val (rd ctx v);
    set ctx scratch_addr (rd ctx a);
    Machine.store ctx.machine ~bits:w ctx.regs ~addr:scratch_addr ~src:scratch_val
  | Call (h, args, ret) -> (
    let helper = ctx.helpers.(h) in
    charge ctx helper.cost;
    let vals = Array.map (rd ctx) args in
    let r = helper.fn ctx vals in
    match ret with Some dst -> wr ctx dst r | None -> ())
  | Jmp _ | Br _ | Exit _ | Poll _ -> invalid_arg "Exec.exec: branch"

(* ---- threaded code ---- *)

(* Each closure runs one instruction and returns the index of the next,
   or [-1 - slot] for an exit through chain slot [slot]. *)
type code = {
  fns : (ctx -> int) array; (* one per instruction, then [fell_off] *)
  instrs : instr array; (* the program, for fault delivery *)
  n_slots : int;
  code_wb_map : (operand * int) array;
}

let fell_off _ = invalid_arg "translation fell off the end without an exit"

let[@inline] tick ctx c =
  charge ctx c;
  ctx.instrs_executed <- ctx.instrs_executed + 1

let[@inline] count ctx = ctx.instrs_executed <- ctx.instrs_executed + 1

let poll_fired ctx =
  let m = ctx.machine in
  get ctx (8 * region_poison_preg) <> 0L
  || ctx.poll_budget <= 0
  || m.Machine.cycles >= ctx.poll_deadline
  || Machine.irq_pending m

let compile_instr ~n ~next ins : ctx -> int =
  let c = instr_cost ins in
  let target t = if t < 0 || t > n then n else t in
  let p r =
    check_preg r;
    8 * r
  in
  match ins with
  | Label _ | Wbmap _ ->
    fun ctx ->
      count ctx;
      next
  | Mov (Preg d, Preg s) ->
    let d = p d and s = p s in
    fun ctx ->
      tick ctx c;
      set ctx d (get ctx s);
      next
  | Mov (Preg d, Imm v) ->
    let d = p d in
    fun ctx ->
      tick ctx c;
      set ctx d v;
      next
  | Alu (op, Preg d, Preg a, Preg b) ->
    let d = p d and a = p a and b = p b in
    fun ctx ->
      tick ctx c;
      set ctx d (alu op (get ctx a) (get ctx b));
      next
  | Alu (op, Preg d, Preg a, Imm b) ->
    let d = p d and a = p a in
    fun ctx ->
      tick ctx c;
      set ctx d (alu op (get ctx a) b);
      next
  | Setcc (cc, Preg d, Preg a, Preg b) ->
    let d = p d and a = p a and b = p b in
    fun ctx ->
      tick ctx c;
      set ctx d (if cond_holds cc (get ctx a) (get ctx b) then 1L else 0L);
      next
  | Setcc (cc, Preg d, Preg a, Imm b) ->
    let d = p d and a = p a in
    fun ctx ->
      tick ctx c;
      set ctx d (if cond_holds cc (get ctx a) b then 1L else 0L);
      next
  | Cmov (Preg d, Preg cn, Preg a, Preg b) ->
    let d = p d and cn = p cn and a = p a and b = p b in
    fun ctx ->
      tick ctx c;
      set ctx d (if get ctx cn <> 0L then get ctx a else get ctx b);
      next
  | Ext (signed, bits, Preg d, Preg s) ->
    let d = p d and s = p s in
    fun ctx ->
      tick ctx c;
      set ctx d (ext signed bits (get ctx s));
      next
  | Bit1 (op, Preg d, Preg s) ->
    let d = p d and s = p s in
    fun ctx ->
      tick ctx c;
      set ctx d (bit1 op (get ctx s));
      next
  | Flags_add (width, Preg d, Preg a, Preg b, Preg ci) ->
    let d = p d and a = p a and b = p b and ci = p ci in
    fun ctx ->
      tick ctx c;
      set ctx d (flags_add ~width (get ctx a) (get ctx b) (get ctx ci));
      next
  | Flags_add (width, Preg d, Preg a, Preg b, Imm ci) ->
    let d = p d and a = p a and b = p b in
    fun ctx ->
      tick ctx c;
      set ctx d (flags_add ~width (get ctx a) (get ctx b) ci);
      next
  | Flags_add (width, Preg d, Preg a, Imm b, Imm ci) ->
    let d = p d and a = p a in
    fun ctx ->
      tick ctx c;
      set ctx d (flags_add ~width (get ctx a) b ci);
      next
  | Bit2 (op, Preg d, Preg a, Preg b) ->
    let d = p d and a = p a and b = p b in
    fun ctx ->
      tick ctx c;
      set ctx d (bit2 op (get ctx a) (get ctx b));
      next
  | Bit2 (op, Preg d, Preg a, Imm b) ->
    let d = p d and a = p a in
    fun ctx ->
      tick ctx c;
      set ctx d (bit2 op (get ctx a) b);
      next
  | Not (Preg d, Preg s) ->
    let d = p d and s = p s in
    fun ctx ->
      tick ctx c;
      set ctx d (Int64.lognot (get ctx s));
      next
  | Flags_logic (width, Preg d, Preg s) ->
    let d = p d and s = p s in
    fun ctx ->
      tick ctx c;
      set ctx d (flags_logic ~width (get ctx s));
      next
  | Ldrf (Preg d, off) ->
    let d = p d in
    fun ctx ->
      tick ctx c;
      ctx.rf_loads <- ctx.rf_loads + 1;
      set ctx d (Bytes.get_int64_le ctx.regfile off);
      next
  | Strf (off, Preg s) ->
    let s = p s in
    fun ctx ->
      tick ctx c;
      ctx.rf_stores <- ctx.rf_stores + 1;
      Bytes.set_int64_le ctx.regfile off (get ctx s);
      next
  | Strf (off, Imm v) ->
    fun ctx ->
      tick ctx c;
      ctx.rf_stores <- ctx.rf_stores + 1;
      Bytes.set_int64_le ctx.regfile off v;
      next
  | Load_pc (Preg d) ->
    let d = p d in
    fun ctx ->
      tick ctx c;
      set ctx d (Bytes.get_int64_le ctx.pc_reg 0);
      next
  | Store_pc (Preg s) ->
    let s = p s in
    fun ctx ->
      tick ctx c;
      Bytes.set_int64_le ctx.pc_reg 0 (get ctx s);
      next
  | Inc_pc k ->
    let k = Int64.of_int k in
    fun ctx ->
      tick ctx c;
      Bytes.set_int64_le ctx.pc_reg 0 (Int64.add (Bytes.get_int64_le ctx.pc_reg 0) k);
      next
  | Mem_ld (bits, Preg d, Preg a) ->
    let dst = p d and addr = p a in
    fun ctx ->
      count ctx;
      Machine.load ctx.machine ~bits ctx.regs ~addr ~dst;
      next
  | Mem_st (bits, Preg a, Preg v) ->
    let addr = p a and src = p v in
    fun ctx ->
      count ctx;
      Machine.store ctx.machine ~bits ctx.regs ~addr ~src;
      next
  | Jmp t ->
    let t = target t in
    fun ctx ->
      tick ctx c;
      t
  | Br (Preg r, t, f) ->
    let r = p r and t = target t and f = target f in
    fun ctx ->
      tick ctx c;
      if get ctx r <> 0L then t else f
  | Br (cn, t, f) ->
    let t = target t and f = target f in
    fun ctx ->
      tick ctx c;
      if rd ctx cn <> 0L then t else f
  | Exit slot ->
    if slot < 0 then invalid_arg "executor: negative exit slot";
    fun ctx ->
      count ctx;
      apply_wb ctx;
      -1 - slot
  | Poll slot ->
    if slot < 0 then invalid_arg "executor: negative exit slot";
    fun ctx ->
      count ctx;
      if poll_fired ctx then begin
        apply_wb ctx;
        -1 - slot
      end
      else begin
        ctx.poll_budget <- ctx.poll_budget - 1;
        next
      end
  | _ ->
    (* checked here, as [rd]/[wr] would reach the scratch qwords past r15 *)
    ignore (map_operands (function Preg r as o -> check_preg r; o | o -> o) ins);
    fun ctx ->
      tick ctx c;
      exec ctx ins;
      next

let compile (p : Encode.program) =
  let instrs = p.Encode.code in
  let n = Array.length instrs in
  let fns = Array.make (n + 1) fell_off in
  Array.iteri (fun i ins -> fns.(i) <- compile_instr ~n ~next:(i + 1) ins) instrs;
  Array.iter (function Preg r, _ -> check_preg r | _ -> ()) p.Encode.wb_map;
  { fns; instrs; n_slots = p.Encode.n_slots; code_wb_map = p.Encode.wb_map }

(* A host fault out of instruction [i]: count and charge the round trip,
   flush promoted registers (the handler reads the register file), then
   ask the engine.  Returns the index to resume at: [i] again for
   [Retry], which charges the instruction's cost a second time, or the
   next instruction once device emulation has completed the access. *)
let deliver_fault ctx code i va access =
  let m = ctx.machine in
  m.Machine.faults <- m.Machine.faults + 1;
  charge ctx Cost.fault_roundtrip;
  apply_wb ctx;
  let ins = code.instrs.(i) in
  let bits, value =
    match ins with
    | Mem_ld (w, _, _) -> (w, None)
    | Mem_st (w, _, v) -> (w, Some (rd ctx v))
    | _ -> (0, None)
  in
  match ctx.fault_handler ctx access va ~bits ~value with
  | Retry -> i
  | Mmio_value v -> (
    match ins with
    | Mem_ld (_, d, _) ->
      wr ctx d v;
      i + 1
    | _ -> invalid_arg "Mmio_value for a non-load")
  | Mmio_done -> i + 1

(* Run compiled code; returns the chain-slot id of the exit taken.  One
   exception handler per entry: a host fault leaves [i] at the faulting
   instruction, and the loop resumes where [deliver_fault] says. *)
let run ctx code =
  if Bytes.length ctx.slots < 8 * code.n_slots then ctx.slots <- Bytes.make (8 * code.n_slots) '\000';
  ctx.wb_map <- code.code_wb_map;
  let fns = code.fns in
  let i = ref 0 in
  while !i >= 0 do
    match
      while !i >= 0 do
        i := (Array.unsafe_get fns !i) ctx
      done
    with
    | () -> ()
    | exception Machine.Host_fault { va; access } -> i := deliver_fault ctx code !i va access
  done;
  -1 - !i
