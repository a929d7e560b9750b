(* Quickstart: assemble a bare-metal AArch64 guest program, run it under
   the Captive engine, and read its UART output.

     dune exec examples/quickstart.exe

   The guest computes 10! iteratively, prints it in decimal through the
   emulated UART, and powers the machine off through the system
   controller. *)

module A = Guest_arm.Arm_asm

let uart = 0x0910_0000L
let syscon = 0x0930_0000L

let program () =
  let a = A.create ~base:0x80000L () in
  (* x0 = 10! *)
  A.movz a A.x1 10;
  A.movz a A.x0 1;
  A.label a "fact";
  A.mul a A.x0 A.x0 A.x1;
  A.sub_imm a A.x1 A.x1 1;
  A.cbnz a A.x1 "fact";
  (* print x0 in decimal: build digits on a scratch buffer, then emit *)
  A.mov_const a A.x2 0x100000L; (* scratch *)
  A.movz a A.x3 0; (* digit count *)
  A.movz a A.x4 10;
  A.mov_reg a A.x5 A.x0;
  A.label a "digits";
  A.udiv a A.x6 A.x5 A.x4;
  A.msub a A.x7 A.x6 A.x4 A.x5; (* x7 = x5 mod 10 *)
  A.add_imm a A.x7 A.x7 48;
  A.str_reg a A.x7 A.x2 A.x3;
  A.add_imm a A.x3 A.x3 1;
  A.mov_reg a A.x5 A.x6;
  A.cbnz a A.x5 "digits";
  (* emit digits most-significant first *)
  A.mov_const a A.x8 uart;
  A.label a "emit";
  A.sub_imm a A.x3 A.x3 1;
  A.ldrb_reg a A.x9 A.x2 A.x3;
  A.strb a A.x9 A.x8;
  A.cbnz a A.x3 "emit";
  A.movz a A.x9 10;
  A.strb a A.x9 A.x8; (* newline *)
  (* power off with exit code 0 *)
  A.mov_const a A.x10 syscon;
  A.str a A.xzr A.x10;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let () =
  let guest = Guest_arm.Arm.ops () in
  let engine = Captive.Engine.create guest in
  Captive.Engine.load_image engine ~addr:0x80000L (program ());
  Captive.Engine.set_entry engine 0x80000L;
  let outcome = Captive.Engine.run ~max_cycles:50_000_000 engine in
  (match outcome with
  | Captive.Engine.Poweroff code -> Printf.printf "guest powered off (exit %d)\n" code
  | _ -> print_endline "guest did not finish");
  Printf.printf "UART output: %s" (Captive.Engine.uart_output engine);
  let s = engine.Captive.Engine.stats in
  Printf.printf "simulated host cycles: %d\n" (Captive.Engine.cycles engine);
  Printf.printf "translated %d blocks (%d guest instructions -> %d host instructions)\n"
    s.Captive.Engine.blocks_translated s.Captive.Engine.guest_instrs_translated
    s.Captive.Engine.host_instrs_emitted;
  if outcome <> Captive.Engine.Poweroff 0 then exit 1
