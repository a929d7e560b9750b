(* SPEC CPU2006 proxy kernels (Figs. 17/18 of the paper).

   We cannot compile SPEC for the guest, so each benchmark is represented
   by a synthetic kernel reproducing its dominant inner-loop shape:
   429.mcf is pointer chasing, 456.hmmer a high-register-pressure dynamic
   programming loop, 470.lbm a streaming FP stencil, and so on.  Each
   proxy is a user-mode guest program returning a checksum via sys_exit,
   which the differential tests compare across engines. *)

module A = Guest_arm.Arm_asm
module U = Uprog

type benchmark = {
  name : string;
  fp : bool;
  build : scale:int -> bytes;
}

(* Every proxy loads its loop counters with [k * scale] and counts them
   down to zero, so a scale below 1 would wrap and never finish. *)
let parse_scale s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "scale %S is not a positive integer" s)

let b name fp build =
  let build ~scale =
    if scale < 1 then invalid_arg (Printf.sprintf "%s: scale %d is not positive" name scale);
    build ~scale
  in
  { name; fp; build }

(* ------------------------------------------------------------------ int *)

(* 400.perlbench: bytecode interpreter dispatch. *)
let perlbench ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      (* opcode array *)
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:8192;
      A.mov_const a A.x19 (Int64.of_int (50 * scale)); (* outer iterations *)
      A.movz a A.x20 0; (* accumulator *)
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 1024L; (* opcodes per pass *)
      A.label a "dispatch";
      A.ldrb_post a A.x3 A.x1 8;
      A.and_imm a A.x3 A.x3 7L;
      (* 8-way opcode switch *)
      A.cmp_imm a A.x3 0;
      A.b_cond a A.EQ "op_add";
      A.cmp_imm a A.x3 1;
      A.b_cond a A.EQ "op_sub";
      A.cmp_imm a A.x3 2;
      A.b_cond a A.EQ "op_xor";
      A.cmp_imm a A.x3 3;
      A.b_cond a A.EQ "op_shl";
      A.cmp_imm a A.x3 4;
      A.b_cond a A.EQ "op_shr";
      A.cmp_imm a A.x3 5;
      A.b_cond a A.EQ "op_mul";
      A.cmp_imm a A.x3 6;
      A.b_cond a A.EQ "op_rot";
      A.add_imm a A.x20 A.x20 7;
      A.b a "next";
      A.label a "op_add";
      A.add_imm a A.x20 A.x20 1;
      A.b a "next";
      A.label a "op_sub";
      A.sub_imm a A.x20 A.x20 3;
      A.b a "next";
      A.label a "op_xor";
      A.eor_imm a A.x20 A.x20 0xFFL;
      A.b a "next";
      A.label a "op_shl";
      A.lsl_imm a A.x20 A.x20 1;
      A.b a "next";
      A.label a "op_shr";
      A.lsr_imm a A.x20 A.x20 1;
      A.b a "next";
      A.label a "op_mul";
      A.movz a A.x4 31;
      A.mul a A.x20 A.x20 A.x4;
      A.b a "next";
      A.label a "op_rot";
      A.rorv a A.x20 A.x20 A.x3;
      A.label a "next";
      A.sub_imm a A.x2 A.x2 1;
      A.cbnz a A.x2 "dispatch";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 401.bzip2: run-length coding over a byte buffer. *)
let bzip2 ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:16384;
      A.mov_const a A.x19 (Int64.of_int (6 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 U.data2_va;
      A.mov_const a A.x3 16384L;
      A.label a "rle";
      A.ldrb_post a A.x4 A.x1 1; (* current byte *)
      A.and_imm a A.x4 A.x4 0x3FL;
      A.movz a A.x5 1; (* run length *)
      A.label a "run";
      A.sub_imm a A.x3 A.x3 1;
      A.cbz a A.x3 "flush";
      A.ldrb a A.x6 A.x1;
      A.and_imm a A.x6 A.x6 0x3FL;
      A.cmp_reg a A.x6 A.x4;
      A.b_cond a A.NE "flush";
      A.add_imm a A.x1 A.x1 1;
      A.add_imm a A.x5 A.x5 1;
      A.b a "run";
      A.label a "flush";
      A.strb_post a A.x4 A.x2 1;
      A.strb_post a A.x5 A.x2 1;
      A.add_reg a A.x20 A.x20 A.x5;
      A.cbnz a A.x3 "rle";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 403.gcc: table-driven state machine. *)
let gcc ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:32768;
      A.mov_const a A.x19 (Int64.of_int (16 * scale));
      A.movz a A.x20 0; (* state *)
      A.movz a A.x21 0; (* checksum *)
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 4096L;
      A.label a "step";
      A.ldr_post a A.x3 A.x1 8; (* token *)
      A.eor_reg a A.x4 A.x3 A.x20;
      A.and_imm a A.x4 A.x4 0xFF8L; (* table index (aligned) *)
      A.mov_const a A.x5 U.data2_va;
      A.ldr_reg a A.x6 A.x5 A.x4; (* next-state table *)
      A.add_reg a A.x20 A.x6 A.x3;
      A.and_imm a A.x20 A.x20 0xFFFFL;
      (* conditional accumulate *)
      A.tbz a A.x3 3 "skip";
      A.add_reg a A.x21 A.x21 A.x20;
      A.label a "skip";
      A.sub_imm a A.x2 A.x2 1;
      A.cbnz a A.x2 "step";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x21)

(* 429.mcf: pointer chasing over a pseudo-random permutation. *)
let mcf ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      (* Build next[i] = (i * 40503 + 1) % N as a chain of 8-byte cells. *)
      let n = 16384 in
      A.mov_const a A.x1 U.data_va;
      A.movz a A.x2 0; (* i *)
      A.mov_const a A.x3 (Int64.of_int n);
      A.mov_const a A.x4 40503L;
      A.label a "init";
      A.mul a A.x5 A.x2 A.x4;
      A.add_imm a A.x5 A.x5 1;
      A.and_imm a A.x5 A.x5 (Int64.of_int (n - 1));
      A.lsl_imm a A.x6 A.x5 3;
      A.mov_const a A.x7 U.data_va;
      A.add_reg a A.x6 A.x6 A.x7;
      A.lsl_imm a A.x8 A.x2 3;
      A.add_reg a A.x8 A.x8 A.x7;
      A.str a A.x6 A.x8; (* cell[i] = &cell[next] *)
      A.add_imm a A.x2 A.x2 1;
      A.cmp_reg a A.x2 A.x3;
      A.b_cond a A.NE "init";
      (* chase *)
      A.mov_const a A.x19 (Int64.of_int (12 * scale * n));
      A.mov_const a A.x1 U.data_va;
      A.movz a A.x20 0;
      A.label a "chase";
      A.ldr a A.x1 A.x1;
      A.add_imm a A.x20 A.x20 1;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "chase";
      A.lsr_imm a A.x0 A.x1 3;
      A.eor_reg a A.x0 A.x0 A.x20)

(* 445.gobmk: board scanning with neighbour tests. *)
let gobmk ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:8192;
      A.mov_const a A.x19 (Int64.of_int (160 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.movz a A.x2 1; (* row *)
      A.label a "row";
      A.movz a A.x3 1; (* col *)
      A.label a "col";
      (* idx = row*32 + col, byte board *)
      A.lsl_imm a A.x4 A.x2 5;
      A.add_reg a A.x4 A.x4 A.x3;
      A.mov_const a A.x5 U.data_va;
      A.add_reg a A.x5 A.x5 A.x4;
      A.ldrb a A.x6 A.x5;
      A.and_imm a A.x6 A.x6 3L;
      A.cbz a A.x6 "empty";
      (* count like-colored neighbours *)
      A.ldrb ~off:1 a A.x7 A.x5;
      A.and_imm a A.x7 A.x7 3L;
      A.cmp_reg a A.x7 A.x6;
      A.b_cond a A.NE "n1";
      A.add_imm a A.x20 A.x20 1;
      A.label a "n1";
      A.ldrb ~off:32 a A.x7 A.x5;
      A.and_imm a A.x7 A.x7 3L;
      A.cmp_reg a A.x7 A.x6;
      A.b_cond a A.NE "empty";
      A.add_imm a A.x20 A.x20 2;
      A.label a "empty";
      A.add_imm a A.x3 A.x3 1;
      A.cmp_imm a A.x3 20;
      A.b_cond a A.NE "col";
      A.add_imm a A.x2 A.x2 1;
      A.cmp_imm a A.x2 20;
      A.b_cond a A.NE "row";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 456.hmmer: dynamic-programming inner loop with many live values
   (deliberate register pressure; see Sec. 3.2's slowdown discussion). *)
let hmmer ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:32768;
      A.mov_const a A.x19 (Int64.of_int (16 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 U.data2_va;
      A.mov_const a A.x3 2048L;
      (* rolling state in x4..x15 and x21..x24: 16 live values *)
      for r = 4 to 15 do A.movz a r r done;
      for r = 21 to 24 do A.movz a r r done;
      A.label a "dp";
      A.ldr_post a A.x16 A.x1 8;
      A.add_reg a A.x4 A.x4 A.x16;
      A.add_reg a A.x5 A.x5 A.x4;
      A.eor_reg a A.x6 A.x6 A.x5;
      A.add_reg a A.x7 A.x7 A.x6;
      (* max chains *)
      A.cmp_reg a A.x7 A.x8;
      A.csel a A.x8 A.x7 A.x8 A.GT;
      A.add_reg a A.x9 A.x9 A.x8;
      A.eor_reg a A.x10 A.x10 A.x9;
      A.add_reg a A.x11 A.x11 A.x10;
      A.cmp_reg a A.x11 A.x12;
      A.csel a A.x12 A.x11 A.x12 A.GT;
      A.add_reg a A.x13 A.x13 A.x12;
      A.add_reg a A.x14 A.x14 A.x13;
      A.eor_reg a A.x15 A.x15 A.x14;
      A.add_reg a A.x21 A.x21 A.x15;
      A.add_reg a A.x22 A.x22 A.x21;
      A.cmp_reg a A.x22 A.x23;
      A.csel a A.x23 A.x22 A.x23 A.GT;
      A.add_reg a A.x24 A.x24 A.x23;
      A.str_post a A.x24 A.x2 8;
      A.sub_imm a A.x3 A.x3 1;
      A.cbnz a A.x3 "dp";
      A.add_reg a A.x20 A.x20 A.x24;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 458.sjeng: bit-twiddling over bitboards. *)
let sjeng ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x19 (Int64.of_int (57_000 * scale));
      A.mov_const a A.x1 0x123456789ABCDEFL;
      A.movz a A.x20 0;
      A.label a "loop";
      U.prng_step p A.x1 A.x2;
      (* popcount via clz-driven loop would be slow; use rbit/clz tricks *)
      A.rbit a A.x3 A.x1;
      A.clz a A.x4 A.x3; (* trailing zeros *)
      A.add_reg a A.x20 A.x20 A.x4;
      A.and_imm a A.x5 A.x1 0xFF00FF00FF00FFL;
      A.eor_reg a A.x20 A.x20 A.x5;
      A.rev64 a A.x6 A.x1;
      A.add_reg a A.x20 A.x20 A.x6;
      A.tbz a A.x1 0 "even";
      A.movz a A.x7 13;
      A.rorv a A.x20 A.x20 A.x7;
      A.label a "even";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "loop";
      A.mov_reg a A.x0 A.x20)

(* 462.libquantum: streaming toggle pass over a large array. *)
let libquantum ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:262144;
      A.mov_const a A.x19 (Int64.of_int (4 * scale));
      A.mov_const a A.x21 0x8000000000000000L;
      A.movz a A.x20 0;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 32768L;
      A.label a "sweep";
      A.ldr a A.x3 A.x1;
      A.eor_reg a A.x3 A.x3 A.x21;
      A.str_post a A.x3 A.x1 8;
      A.add_reg a A.x20 A.x20 A.x3;
      A.sub_imm a A.x2 A.x2 1;
      A.cbnz a A.x2 "sweep";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 464.h264ref: SAD block matching over byte arrays. *)
let h264ref ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:65536;
      A.mov_const a A.x19 (Int64.of_int (24 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 (Int64.add U.data_va 0x4000L);
      A.mov_const a A.x3 4096L;
      A.label a "sad";
      A.ldrb_post a A.x4 A.x1 1;
      A.ldrb_post a A.x5 A.x2 1;
      A.subs_reg a A.x6 A.x4 A.x5;
      A.csneg a A.x6 A.x6 A.x6 A.GE; (* abs *)
      A.add_reg a A.x20 A.x20 A.x6;
      A.sub_imm a A.x3 A.x3 1;
      A.cbnz a A.x3 "sad";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 471.omnetpp: binary-heap event queue. *)
let omnetpp ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x19 (Int64.of_int (80 * scale));
      A.mov_const a A.x21 0x243F6A8885A308D3L; (* prng state *)
      A.movz a A.x20 0; (* checksum *)
      A.label a "outer";
      A.movz a A.x22 0; (* heap size *)
      (* insert 256 elements *)
      A.movz a A.x2 256;
      A.label a "ins";
      U.prng_step p A.x21 A.x3;
      A.and_imm a A.x4 A.x21 0xFFFFFL; (* key *)
      (* sift up from index x22 *)
      A.mov_reg a A.x5 A.x22;
      A.label a "up";
      A.cbz a A.x5 "place";
      A.sub_imm a A.x6 A.x5 1;
      A.lsr_imm a A.x6 A.x6 1; (* parent *)
      A.mov_const a A.x7 U.data_va;
      A.lsl_imm a A.x8 A.x6 3;
      A.ldr_reg a A.x9 A.x7 A.x8;
      A.cmp_reg a A.x9 A.x4;
      A.b_cond a A.LS "place";
      (* move parent down *)
      A.lsl_imm a A.x10 A.x5 3;
      A.str_reg a A.x9 A.x7 A.x10;
      A.mov_reg a A.x5 A.x6;
      A.b a "up";
      A.label a "place";
      A.mov_const a A.x7 U.data_va;
      A.lsl_imm a A.x10 A.x5 3;
      A.str_reg a A.x4 A.x7 A.x10;
      A.add_imm a A.x22 A.x22 1;
      A.sub_imm a A.x2 A.x2 1;
      A.cbnz a A.x2 "ins";
      (* drain the minimum a few times *)
      A.mov_const a A.x7 U.data_va;
      A.ldr a A.x9 A.x7;
      A.add_reg a A.x20 A.x20 A.x9;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 473.astar: grid flood expansion. *)
let astar ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:65536;
      A.mov_const a A.x19 (Int64.of_int (16 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.movz a A.x2 0; (* cell index *)
      A.label a "cell";
      A.mov_const a A.x3 U.data_va;
      A.lsl_imm a A.x4 A.x2 3;
      A.ldr_reg a A.x5 A.x3 A.x4;
      A.and_imm a A.x5 A.x5 0xFFL; (* cost *)
      A.cmp_imm a A.x5 128;
      A.b_cond a A.CS "blocked";
      (* relax: cost + east neighbour *)
      A.add_imm a A.x6 A.x2 1;
      A.and_imm a A.x6 A.x6 0x1FFFL;
      A.lsl_imm a A.x6 A.x6 3;
      A.ldr_reg a A.x7 A.x3 A.x6;
      A.and_imm a A.x7 A.x7 0xFFL;
      A.add_reg a A.x8 A.x5 A.x7;
      A.add_reg a A.x20 A.x20 A.x8;
      A.label a "blocked";
      A.add_imm a A.x2 A.x2 1;
      A.cmp_imm ~sf:1 a A.x2 0xFFF;
      A.b_cond a A.NE "cell";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* 483.xalancbmk: tree walking and string comparison. *)
let xalancbmk ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:65536;
      A.mov_const a A.x19 (Int64.of_int (5_000 * scale));
      A.movz a A.x20 0;
      A.label a "outer";
      A.movz a A.x2 1; (* node index, heap-shaped tree *)
      A.label a "walk";
      A.mov_const a A.x3 U.data_va;
      A.lsl_imm a A.x4 A.x2 3;
      A.ldr_reg a A.x5 A.x3 A.x4;
      (* compare two "strings" of 8 bytes each *)
      A.and_imm a A.x6 A.x5 0x00FF00FF00FF00FFL;
      A.mov_const a A.x7 0x0042004200420042L;
      A.cmp_reg a A.x6 A.x7;
      A.cset a A.x8 A.EQ;
      A.add_reg a A.x20 A.x20 A.x8;
      (* descend left/right on a key bit *)
      A.lsl_imm a A.x2 A.x2 1;
      A.tbz a A.x5 17 "left";
      A.add_imm a A.x2 A.x2 1;
      A.label a "left";
      A.cmp_imm ~sf:1 a A.x2 4096;
      A.b_cond a A.CC "walk";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.mov_reg a A.x0 A.x20)

(* ------------------------------------------------------------------ fp *)

(* 482.sphinx3: dot products. *)
let sphinx3 ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      (* fill with small integers, convert on the fly *)
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:32768;
      A.mov_const a A.x19 (Int64.of_int (40 * scale));
      A.movz a A.x2 0;
      A.scvtf_d a A.d0 A.x2; (* acc = 0.0 *)
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x3 2048L;
      A.label a "dot";
      A.ldr_post a A.x4 A.x1 8;
      A.and_imm a A.x4 A.x4 0xFFFFL;
      A.scvtf_d a A.d1 A.x4;
      A.ldr a A.x5 A.x1;
      A.and_imm a A.x5 A.x5 0xFFFFL;
      A.scvtf_d a A.d2 A.x5;
      A.fmadd_d a A.d0 A.d1 A.d2 A.d0;
      A.sub_imm a A.x3 A.x3 1;
      A.cbnz a A.x3 "dot";
      (* rescale to avoid overflow *)
      A.mov_const a A.x6 0x3E112E0BE826D695L; (* ~1e-9 *)
      A.fmov_x_to_d a A.d3 A.x6;
      A.fmul_d a A.d0 A.d0 A.d3;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.fcvtzs_d a A.x0 A.d0)

(* 433.milc: complex arithmetic. *)
let milc ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x19 (Int64.of_int (57_000 * scale));
      A.movz a A.x2 3;
      A.scvtf_d a A.d0 A.x2; (* re = 3.0 *)
      A.movz a A.x2 4;
      A.scvtf_d a A.d1 A.x2; (* im = 4.0 *)
      A.movz a A.x2 1;
      A.scvtf_d a A.d6 A.x2;
      A.mov_const a A.x3 0x3FEFFFFF00000000L; (* ~0.99999988 *)
      A.fmov_x_to_d a A.d7 A.x3;
      A.label a "loop";
      (* (re,im) = (re,im) * (d7, small) + tiny damping *)
      A.fmul_d a A.d2 A.d0 A.d7;
      A.fmul_d a A.d3 A.d1 A.d7;
      A.fmul_d a A.d4 A.d0 A.d1;
      A.fsub_d a A.d0 A.d2 A.d3;
      A.fadd_d a A.d1 A.d3 A.d2;
      A.fdiv_d a A.d5 A.d4 A.d6;
      A.fadd_d a A.d0 A.d0 A.d5;
      (* normalize magnitudes to keep values finite *)
      A.fmul_d a A.d0 A.d0 A.d7;
      A.fmul_d a A.d1 A.d1 A.d7;
      A.fmax_d a A.d0 A.d0 A.d6;
      A.fmin_d a A.d0 A.d0 A.d7;
      A.fmax_d a A.d1 A.d1 A.d6;
      A.fmin_d a A.d1 A.d1 A.d7;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "loop";
      A.fadd_d a A.d0 A.d0 A.d1;
      A.fcvtzs_d a A.x0 A.d0)

(* 435.gromacs: pairwise force computation. *)
let gromacs ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:16384;
      A.mov_const a A.x19 (Int64.of_int (100 * scale));
      A.movz a A.x2 0;
      A.scvtf_d a A.d0 A.x2;
      A.movz a A.x2 1;
      A.scvtf_d a A.d7 A.x2; (* 1.0 *)
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x3 512L;
      A.label a "pair";
      (* dx, dy, dz from integer coordinates *)
      A.ldr_post a A.x4 A.x1 8;
      A.and_imm a A.x5 A.x4 0x3FFL;
      A.scvtf_d a A.d1 A.x5;
      A.lsr_imm a A.x5 A.x4 16;
      A.and_imm a A.x5 A.x5 0x3FFL;
      A.scvtf_d a A.d2 A.x5;
      A.lsr_imm a A.x5 A.x4 32;
      A.and_imm a A.x5 A.x5 0x3FFL;
      A.scvtf_d a A.d3 A.x5;
      (* r2 = dx*dx + dy*dy + dz*dz + 1 *)
      A.fmul_d a A.d4 A.d1 A.d1;
      A.fmadd_d a A.d4 A.d2 A.d2 A.d4;
      A.fmadd_d a A.d4 A.d3 A.d3 A.d4;
      A.fadd_d a A.d4 A.d4 A.d7;
      (* force ~ 1/r2 *)
      A.fdiv_d a A.d5 A.d7 A.d4;
      A.fadd_d a A.d0 A.d0 A.d5;
      A.sub_imm a A.x3 A.x3 1;
      A.cbnz a A.x3 "pair";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.fcvtzs_d a A.x0 A.d0)

(* 444.namd: pairwise with square roots. *)
let namd ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:16384;
      A.mov_const a A.x19 (Int64.of_int (160 * scale));
      A.movz a A.x2 0;
      A.scvtf_d a A.d0 A.x2;
      A.movz a A.x2 1;
      A.scvtf_d a A.d7 A.x2;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x3 512L;
      A.label a "pair";
      A.ldr_post a A.x4 A.x1 8;
      A.and_imm a A.x5 A.x4 0xFFFFFL;
      A.scvtf_d a A.d1 A.x5;
      A.fadd_d a A.d1 A.d1 A.d7;
      A.fsqrt_d a A.d2 A.d1; (* r = sqrt(r2) *)
      A.fdiv_d a A.d3 A.d7 A.d2; (* 1/r *)
      A.fmadd_d a A.d0 A.d3 A.d3 A.d0;
      A.sub_imm a A.x3 A.x3 1;
      A.cbnz a A.x3 "pair";
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.fcvtzs_d a A.x0 A.d0)

(* 470.lbm: streaming FP stencil. *)
let lbm ~scale =
  U.make (fun p ->
      let a = p.U.asm in
      A.mov_const a A.x1 U.data_va;
      U.fill_random p ~base:A.x1 ~len:131072;
      (* pre-pass: turn random words into small doubles in-place *)
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x2 16384L;
      A.label a "conv";
      A.ldr a A.x3 A.x1;
      A.and_imm a A.x3 A.x3 0xFFFL;
      A.scvtf_d a A.d1 A.x3;
      A.str_d a A.d1 A.x1;
      A.add_imm a A.x1 A.x1 8;
      A.sub_imm a A.x2 A.x2 1;
      A.cbnz a A.x2 "conv";
      A.mov_const a A.x19 (Int64.of_int (4 * scale));
      A.movz a A.x2 0;
      A.scvtf_d a A.d0 A.x2;
      (* 0.25 weight *)
      A.mov_const a A.x3 0x3FD0000000000000L;
      A.fmov_x_to_d a A.d7 A.x3;
      A.label a "outer";
      A.mov_const a A.x1 U.data_va;
      A.mov_const a A.x4 16000L;
      A.label a "cell";
      A.ldr_d a A.d1 A.x1;
      A.ldr_d ~off:8 a A.d2 A.x1;
      A.ldr_d ~off:16 a A.d3 A.x1;
      A.ldr_d ~off:24 a A.d4 A.x1;
      A.fadd_d a A.d5 A.d1 A.d2;
      A.fadd_d a A.d6 A.d3 A.d4;
      A.fadd_d a A.d5 A.d5 A.d6;
      A.fmul_d a A.d5 A.d5 A.d7;
      A.str_d a A.d5 A.x1;
      A.fadd_d a A.d0 A.d0 A.d5;
      A.add_imm a A.x1 A.x1 8;
      A.sub_imm a A.x4 A.x4 1;
      A.cbnz a A.x4 "cell";
      (* damp the accumulator *)
      A.fmul_d a A.d0 A.d0 A.d7;
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "outer";
      A.fcvtzs_d a A.x0 A.d0)

let integer_benchmarks =
  [
    b "400.perlbench" false perlbench;
    b "401.bzip2" false bzip2;
    b "403.gcc" false gcc;
    b "429.mcf" false mcf;
    b "445.gobmk" false gobmk;
    b "456.hmmer" false hmmer;
    b "458.sjeng" false sjeng;
    b "462.libquantum" false libquantum;
    b "464.h264ref" false h264ref;
    b "471.omnetpp" false omnetpp;
    b "473.astar" false astar;
    b "483.xalancbmk" false xalancbmk;
  ]

let fp_benchmarks =
  [
    b "482.sphinx3" true sphinx3;
    b "433.milc" true milc;
    b "435.gromacs" true gromacs;
    b "444.namd" true namd;
    b "470.lbm" true lbm;
  ]

let all = integer_benchmarks @ fp_benchmarks
let find name = List.find (fun bm -> bm.name = name) all
