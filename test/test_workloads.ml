(* Workload-layer tests: the mini guest OS syscall surface, the SPEC proxy
   builders, and the RV64IM guest. *)

module A = Guest_arm.Arm_asm
module K = Workloads.Kernel
module Run = Workloads.Runner
module W = Workloads.Registry
module R = Guest_riscv.Rv_asm

let run_user_ref user =
  let o = Harness.run Run.Reference (Harness.user user) in
  (o.Run.exit, o.Run.uart)

let test_syscall_surface () =
  (* exit code propagation *)
  let code, _ = run_user_ref (Harness.el0_program (fun a ->
      A.movz a A.x0 123;
      A.movz a A.x8 0;
      A.svc a 0))
  in
  Alcotest.check Harness.exit_t "exit code" (Run.Poweroff 123) code;
  (* putchar ordering *)
  let _, out = run_user_ref (Harness.el0_program (fun a ->
      List.iter
        (fun c ->
          A.movz a A.x0 (Char.code c);
          A.movz a A.x8 1;
          A.svc a 0)
        [ 'a'; 'b'; 'c' ];
      A.movz a A.x0 0;
      A.movz a A.x8 0;
      A.svc a 0))
  in
  Alcotest.(check string) "uart" "abc" out;
  (* uptime is monotone *)
  let code, _ = run_user_ref (Harness.el0_program (fun a ->
      A.movz a A.x8 2;
      A.svc a 0;
      A.mov_reg a A.x19 A.x0;
      A.movz a A.x8 2;
      A.svc a 0;
      A.cmp_reg a A.x0 A.x19;
      A.cset a A.x0 A.CS;
      A.movz a A.x8 0;
      A.svc a 0))
  in
  Alcotest.check Harness.exit_t "uptime monotone" (Run.Poweroff 1) code;
  (* unknown syscall kills the task with 99 *)
  let code, _ = run_user_ref (Harness.el0_program (fun a ->
      A.movz a A.x8 77;
      A.svc a 0))
  in
  Alcotest.check Harness.exit_t "unknown syscall" (Run.Poweroff 99) code

let test_fault_counters () =
  (* three data aborts, each skipped, then reported *)
  let code, _ = run_user_ref (Harness.el0_program (fun a ->
      A.mov_const a A.x1 0x0070_0000L;
      A.ldr a A.x2 A.x1;
      A.ldr a A.x2 A.x1;
      A.ldr a A.x2 A.x1;
      A.movz a A.x8 4;
      A.svc a 0;
      A.movz a A.x8 0;
      A.svc a 0))
  in
  Alcotest.check Harness.exit_t "fault count" (Run.Poweroff 3) code

let test_user_cannot_write_kernel () =
  (* stores to kernel memory must not land *)
  let code, _ = run_user_ref (Harness.el0_program (fun a ->
      A.mov_const a A.x1 (K.kva 0x83000L);
      A.mov_const a A.x2 0xFFL;
      A.str a A.x2 A.x1; (* faults, skipped *)
      A.movz a A.x8 3; (* ticks: reads the very location *)
      A.svc a 0;
      A.and_imm a A.x0 A.x0 0xFFL;
      A.movz a A.x8 0;
      A.svc a 0))
  in
  (* the tick counter must not have become 0xFF *)
  Alcotest.(check bool) "kernel data intact" true (code <> Run.Poweroff 0xFF)

let test_spec_builders () =
  (* every proxy must assemble and keep its labels resolvable at several
     scales; a scale below 1 would make its loops wrap *)
  List.iter
    (fun (b : Workloads.Spec.benchmark) ->
      List.iter
        (fun scale ->
          let img = b.Workloads.Spec.build ~scale in
          Alcotest.(check bool) (b.Workloads.Spec.name ^ " builds") true (Bytes.length img > 64))
        [ 1; 3 ];
      match b.Workloads.Spec.build ~scale:0 with
      | _ -> Alcotest.failf "%s built at scale 0" b.Workloads.Spec.name
      | exception Invalid_argument _ -> ())
    Workloads.Spec.all

let test_simbench_builders () =
  List.iter
    (fun (w : W.entry) ->
      let size = function
        | Run.Bare { code; _ } -> Bytes.length code
        | Run.User { user; _ } -> Bytes.length user
      in
      Alcotest.(check bool) (w.W.name ^ " builds") true (size (w.W.build ~scale:1) > 16))
    (W.select [ W.Simbench ])

(* --- RISC-V ------------------------------------------------------------------ *)

let run_rv ?(engine = Run.captive) image =
  let o = Harness.run ~guest:Run.Riscv engine (Run.Bare { addr = 0x1000L; code = image }) in
  (o.Run.exit, o.Run.uart)

let rv_exit_with body =
  let a = R.create ~base:0x1000L () in
  body a;
  R.li a R.a7 93L;
  R.ecall a;
  R.assemble a

let test_riscv_semantics () =
  (* arithmetic, shifts, comparisons *)
  let code, _ = run_rv (rv_exit_with (fun a ->
      R.li a R.t0 100L;
      R.li a R.t1 7L;
      R.mul a R.t2 R.t0 R.t1; (* 700 *)
      R.divu a R.t2 R.t2 R.t1; (* 100 *)
      R.remu a R.a0 R.t2 (* 100 mod ... *) R.t1; (* 2 *)
      R.slli a R.t0 R.a0 4; (* 32 *)
      R.add a R.a0 R.a0 R.t0 (* 34 *)))
  in
  Alcotest.check Harness.exit_t "rv arith" (Run.Poweroff 34) code;
  (* memory *)
  let code, _ = run_rv (rv_exit_with (fun a ->
      R.li a R.s2 0x40000L;
      R.li a R.t0 0x1234L;
      R.sd a R.t0 R.s2 0;
      R.ld a R.t1 R.s2 0;
      R.lbu a R.t2 R.s2 1; (* 0x12 *)
      R.sub a R.a0 R.t1 R.t0;
      R.add a R.a0 R.a0 R.t2))
  in
  Alcotest.check Harness.exit_t "rv memory" (Run.Poweroff 0x12) code;
  (* branches and jal *)
  let code, _ = run_rv (rv_exit_with (fun a ->
      R.li a R.t0 5L;
      R.li a R.a0 0L;
      R.label a "loop";
      R.add a R.a0 R.a0 R.t0;
      R.addi a R.t0 R.t0 (-1);
      R.bne a R.t0 R.zero "loop";
      (* a0 = 5+4+3+2+1 = 15 *)
      R.jal a R.ra "sub";
      R.j a "end";
      R.label a "sub";
      R.addi a R.a0 R.a0 100;
      (* jalr return *)
      R.i_type ~imm:0 ~rs1:R.ra ~funct3:0 ~rd:0 ~opcode:0b1100111 a;
      R.label a "end"))
  in
  Alcotest.check Harness.exit_t "rv branches" (Run.Poweroff 115) code

let test_riscv_engines_agree () =
  let image = rv_exit_with (fun a ->
      R.li a R.t0 12345L;
      R.li a R.t1 678L;
      R.mul a R.t2 R.t0 R.t1;
      R.xor_ a R.t2 R.t2 R.t0;
      R.srli a R.a0 R.t2 8)
  in
  let c, _ = run_rv image in
  let q, _ = run_rv ~engine:Run.qemu image in
  Alcotest.check Harness.exit_t "rv engines agree" c q;
  Alcotest.(check bool) "rv ran" true (c <> Run.Limit)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "syscall surface" `Slow test_syscall_surface;
      Alcotest.test_case "fault counters" `Slow test_fault_counters;
      Alcotest.test_case "user cannot write kernel" `Slow test_user_cannot_write_kernel;
      Alcotest.test_case "SPEC builders" `Quick test_spec_builders;
      Alcotest.test_case "SimBench builders" `Quick test_simbench_builders;
      Alcotest.test_case "riscv semantics" `Quick test_riscv_semantics;
      Alcotest.test_case "riscv engines agree" `Quick test_riscv_engines_agree;
    ] )
