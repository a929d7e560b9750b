(* Seeded generator for the cold-code workload: large bare-metal ARM and
   RISC-V images whose code mostly runs once.

   An image is a sequence of chunks of random instructions drawn from a
   mixed opcode set (ALU immediate/register, multiply/divide, loads and
   stores to a private data buffer, forward conditional branches).  Most
   chunks are straight-line code executed once; some sit in warm loops
   that stay below the engine's promotion threshold; a few sit in hot
   loops that cross it.  Branches only go forward inside a chunk and
   loop counters live in registers the random code never writes, so
   every image terminates.  The image ends by folding its data
   registers into a checksum, printing four characters of it to the
   UART and powering off with the low checksum byte as exit code.

   Only the seed decides the bytes: every draw comes from one
   [Dbt_util.Prng] stream created from it. *)

module Prng = Dbt_util.Prng

let next = Prng.next
let int = Prng.int
let pick r arr = arr.(int r (Array.length arr))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A shuffle bag over [lo, lo + n): each run of n draws holds every
   value once, in seeded order.  Drawing opcode classes, lengths and
   trip counts from bags fixes their counts over an image, so the work
   in an image varies little from seed to seed. *)
type bag = { rng : Prng.t; vals : int array; mutable next : int }

let bag rng ~lo ~n = { rng; vals = Array.init n (fun i -> lo + i); next = n }

let draw b =
  if b.next = Array.length b.vals then begin
    shuffle b.rng b.vals;
    b.next <- 0
  end;
  b.next <- b.next + 1;
  b.vals.(b.next - 1)

(* Shape of one image: [chunks] chunks, of which [hot] sit in loops that
   cross the engine's default [hot_threshold] of 64, [warm] in loops
   that stay below it, and the rest run once.  Only the order of the
   kinds is drawn. *)
let chunks = 800
let hot = 24
let warm = 120

type kind = Straight | Hot | Warm

let chunk_kinds r =
  let a = Array.init chunks (fun i -> if i < hot then Hot else if i < hot + warm then Warm else Straight) in
  shuffle r a;
  a

(* The bags one image draws from. *)
type bags = {
  op : bag; (* opcode class, see [arm_insn] / [rv_insn] *)
  len : bag; (* straight and warm chunk length: 4..16 instructions *)
  hot_len : bag; (* 8..12 *)
  warm_trips : bag; (* 8..39 *)
  hot_trips : bag; (* 100..139 *)
}

let bags r =
  {
    op = bag r ~lo:0 ~n:24;
    len = bag r ~lo:4 ~n:13;
    hot_len = bag r ~lo:8 ~n:5;
    warm_trips = bag r ~lo:8 ~n:32;
    hot_trips = bag r ~lo:100 ~n:40;
  }

(* Trip count and body length of one chunk; straight chunks run once. *)
let chunk_plan b = function
  | Straight -> (1, draw b.len)
  | Warm -> (draw b.warm_trips, draw b.len)
  | Hot -> (draw b.hot_trips, draw b.hot_len)

let uart_base = 0x0910_0000L
let syscon_base = 0x0930_0000L

(* --- ARM (EL1, MMU off) ---------------------------------------------- *)

module A = Guest_arm.Arm_asm

let arm_base = 0x80000L
let arm_data = 0x0100_0000L (* 32 KiB buffer addressed off x20 *)

(* x0-x15 hold data; x16 is the divisor scratch, x19 the loop counter,
   x20 the data base, x21 the UART/syscon scratch. *)
let arm_regs = Array.init 16 Fun.id

let arm_masks =
  [| 0xFFL; 0xFFFFL; 0xFFFF_FFFFL; 0x0F0F_0F0F_0F0F_0F0FL; 0x5555_5555_5555_5555L;
     0xFFFF_0000L; 0x3FFL; 0xFF00_FF00_FF00_FF00L; 0x7FFF_FFFF_FFFF_FFFFL |]

let arm_conds = A.[| EQ; NE; CS; CC; MI; PL; GE; LT; GT; LE; HI; LS |]

let arm_insn r b a ~target =
  let d () = pick r arm_regs in
  match draw b.op with
  | 0 | 1 -> A.add_imm a (d ()) (d ()) (int r 4096)
  | 2 -> A.sub_imm a (d ()) (d ()) (int r 4096)
  | 3 -> A.and_imm a (d ()) (d ()) (pick r arm_masks)
  | 4 -> A.orr_imm a (d ()) (d ()) (pick r arm_masks)
  | 5 -> A.eor_imm a (d ()) (d ()) (pick r arm_masks)
  | 6 | 7 -> A.add_reg a (d ()) (d ()) (d ())
  | 8 -> A.sub_reg a (d ()) (d ()) (d ())
  | 9 -> A.and_reg a (d ()) (d ()) (d ())
  | 10 -> A.orr_reg a (d ()) (d ()) (d ())
  | 11 -> A.eor_reg a (d ()) (d ()) (d ())
  | 12 -> A.lsl_imm a (d ()) (d ()) (1 + int r 62)
  | 13 -> A.lsr_imm a (d ()) (d ()) (1 + int r 62)
  | 14 -> A.asr_imm a (d ()) (d ()) (1 + int r 62)
  | 15 -> A.mul a (d ()) (d ()) (d ())
  | 16 -> A.madd a (d ()) (d ()) (d ()) (d ())
  | 17 -> A.umulh a (d ()) (d ()) (d ())
  | 18 ->
    (* never divide by zero: the divisor gets its low bit set *)
    A.orr_imm a A.x16 (d ()) 1L;
    if int r 2 = 0 then A.udiv a (d ()) (d ()) A.x16 else A.sdiv a (d ()) (d ()) A.x16
  | 19 | 20 -> (
    let off = int r 4096 in
    match int r 3 with
    | 0 -> A.ldr a (d ()) A.x20 ~off:(8 * off)
    | 1 -> A.ldr32 a (d ()) A.x20 ~off:(4 * off)
    | _ -> A.ldrb a (d ()) A.x20 ~off)
  | 21 | 22 -> (
    let off = int r 4096 in
    match int r 3 with
    | 0 -> A.str a (d ()) A.x20 ~off:(8 * off)
    | 1 -> A.str32 a (d ()) A.x20 ~off:(4 * off)
    | _ -> A.strb a (d ()) A.x20 ~off)
  | _ -> (
    match target with
    | None -> A.csel a (d ()) (d ()) (d ()) (pick r arm_conds)
    | Some lbl -> (
      match int r 3 with
      | 0 -> A.cbz a (d ()) lbl
      | 1 -> A.cbnz a (d ()) lbl
      | _ ->
        A.cmp_reg a (d ()) (d ());
        A.b_cond a (pick r arm_conds) lbl))

(* One chunk of [len] instructions, with a label before each one so
   forward branches can land anywhere up to the chunk's end. *)
let arm_chunk r b a ~id ~len =
  let lbl j = Printf.sprintf "c%d_%d" id j in
  for i = 0 to len - 1 do
    A.label a (lbl i);
    let target = if i < len - 1 then Some (lbl (i + 1 + int r (len - i))) else None in
    arm_insn r b a ~target
  done;
  A.label a (lbl len)

let arm_image ~seed : bytes =
  let r = Prng.create seed in
  let b = bags r in
  let a = A.create ~base:arm_base () in
  A.mov_const a A.x20 arm_data;
  Array.iter (fun x -> A.mov_const a x (next r)) arm_regs;
  Array.iteri
    (fun id kind ->
      let trips, len = chunk_plan b kind in
      if kind = Straight then arm_chunk r b a ~id ~len
      else begin
        let head = Printf.sprintf "l%d" id in
        A.mov_const a A.x19 (Int64.of_int trips);
        A.label a head;
        arm_chunk r b a ~id ~len;
        A.sub_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 head
      end)
    (chunk_kinds r);
  (* checksum = xor of the data registers, folded to 24 bits *)
  Array.iter (fun x -> if x <> A.x0 then A.eor_reg a A.x0 A.x0 x) arm_regs;
  A.lsr_imm a A.x1 A.x0 32;
  A.eor_reg a A.x0 A.x0 A.x1;
  A.mov_const a A.x21 uart_base;
  for k = 0 to 3 do
    A.lsr_imm a A.x1 A.x0 (6 * k);
    A.and_imm a A.x1 A.x1 0x3FL;
    A.add_imm a A.x1 A.x1 0x30;
    A.strb a A.x1 A.x21
  done;
  A.mov_const a A.x21 syscon_base;
  A.str a A.x0 A.x21;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

(* --- RISC-V (RV64IM, user level, flat memory) ------------------------- *)

module R = Guest_riscv.Rv_asm

let riscv_base = 0x1000L
let riscv_data = 0x0100_0000L (* 4 KiB buffer centred on s2 *)

(* Data registers; x18 (s2) is the data base, x19 (s3) the loop counter,
   x20 (s4) the divisor scratch, x21 the UART scratch. *)
let rv_regs = [| 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17; 28; 29; 30 |]
let rv_s2 = 18 and rv_s3 = 19 and rv_s4 = 20 and rv_x21 = 21

let op = 0b0110011 and op32 = 0b0111011 and op_imm = 0b0010011 and op_imm32 = 0b0011011

(* A conditional branch with any of the six RV64 conditions. *)
let rv_branch a ~funct3 rs1 rs2 lbl =
  a.R.fixups <- (a.R.count, `B, lbl) :: a.R.fixups;
  R.emit a ((rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor 0b1100011)

let rv_insn r b a ~target =
  let d () = pick r rv_regs in
  let imm12 () = int r 4096 - 2048 in
  let alu ~funct7 ~funct3 = R.r_type ~funct7 ~rs2:(d ()) ~rs1:(d ()) ~funct3 ~rd:(d ()) ~opcode:op a in
  match draw b.op with
  | 0 | 1 -> R.addi a (d ()) (d ()) (imm12 ())
  | 2 -> R.i_type ~imm:(imm12 ()) ~rs1:(d ()) ~funct3:4 ~rd:(d ()) ~opcode:op_imm a (* xori *)
  | 3 -> R.andi a (d ()) (d ()) (imm12 ())
  | 4 -> R.ori a (d ()) (d ()) (imm12 ())
  | 5 -> R.slli a (d ()) (d ()) (1 + int r 63)
  | 6 -> R.srli a (d ()) (d ()) (1 + int r 63)
  | 7 ->
    (* srai *)
    R.i_type ~imm:(0x400 lor (1 + int r 63)) ~rs1:(d ()) ~funct3:5 ~rd:(d ()) ~opcode:op_imm a
  | 8 -> R.i_type ~imm:(imm12 ()) ~rs1:(d ()) ~funct3:0 ~rd:(d ()) ~opcode:op_imm32 a (* addiw *)
  | 9 | 10 -> alu ~funct7:0 ~funct3:(pick r [| 0; 4; 6; 7 |]) (* add xor or and *)
  | 11 -> alu ~funct7:0 ~funct3:(pick r [| 1; 2; 3; 5 |]) (* sll slt sltu srl *)
  | 12 -> alu ~funct7:32 ~funct3:(pick r [| 0; 5 |]) (* sub sra *)
  | 13 ->
    (* addw subw *)
    R.r_type ~funct7:(pick r [| 0; 32 |]) ~rs2:(d ()) ~rs1:(d ()) ~funct3:0 ~rd:(d ()) ~opcode:op32 a
  | 14 | 15 -> alu ~funct7:1 ~funct3:(pick r [| 0; 1; 3 |]) (* mul mulh mulhu *)
  | 16 ->
    R.ori a rv_s4 (d ()) 1;
    R.r_type ~funct7:1 ~rs2:rv_s4 ~rs1:(d ()) ~funct3:(pick r [| 4; 5; 6; 7 |]) ~rd:(d ()) ~opcode:op a
  | 17 | 18 -> (
    match int r 3 with
    | 0 -> R.ld a (d ()) rv_s2 (8 * (int r 512 - 256))
    | 1 -> R.lw a (d ()) rv_s2 (4 * (int r 1024 - 512))
    | _ -> R.lbu a (d ()) rv_s2 (imm12 ()))
  | 19 | 20 -> (
    match int r 3 with
    | 0 -> R.sd a (d ()) rv_s2 (8 * (int r 512 - 256))
    | 1 -> R.s_type ~imm:(4 * (int r 1024 - 512)) ~rs2:(d ()) ~rs1:rv_s2 ~funct3:2 ~opcode:0b0100011 a
    | _ -> R.sb a (d ()) rv_s2 (imm12 ()))
  | _ -> (
    match target with
    | None -> R.lui a (d ()) (int r 0x100000)
    | Some lbl -> rv_branch a ~funct3:(pick r [| 0; 1; 4; 5; 6; 7 |]) (d ()) (d ()) lbl)

let rv_chunk r b a ~id ~len =
  let lbl j = Printf.sprintf "c%d_%d" id j in
  for i = 0 to len - 1 do
    R.label a (lbl i);
    let target = if i < len - 1 then Some (lbl (i + 1 + int r (len - i))) else None in
    rv_insn r b a ~target
  done;
  R.label a (lbl len)

let riscv_image ~seed : bytes =
  let r = Prng.create seed in
  let b = bags r in
  let a = R.create ~base:riscv_base () in
  R.li a rv_s2 (Int64.add riscv_data 2048L);
  Array.iter (fun x -> R.li a x (Int64.logand (next r) 0x7FFF_FFFFL)) rv_regs;
  Array.iteri
    (fun id kind ->
      let trips, len = chunk_plan b kind in
      if kind = Straight then rv_chunk r b a ~id ~len
      else begin
        let head = Printf.sprintf "l%d" id in
        R.li a rv_s3 (Int64.of_int trips);
        R.label a head;
        rv_chunk r b a ~id ~len;
        R.addi a rv_s3 rv_s3 (-1);
        R.bne a rv_s3 R.zero head
      end)
    (chunk_kinds r);
  let acc = rv_regs.(0) in
  Array.iter (fun x -> if x <> acc then R.xor_ a acc acc x) rv_regs;
  R.srli a R.a1 acc 32;
  R.xor_ a acc acc R.a1;
  R.li a rv_x21 uart_base;
  for k = 0 to 3 do
    R.srli a R.a1 acc (6 * k);
    R.andi a R.a1 R.a1 0x3F;
    R.addi a R.a1 R.a1 0x30;
    R.sb a R.a1 rv_x21 0
  done;
  R.andi a R.a0 acc 0xFF;
  R.li a R.a7 93L;
  R.ecall a;
  R.assemble a
