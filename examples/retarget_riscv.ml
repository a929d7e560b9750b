(* Retargetability: the same two engines run an RV64IM guest, with zero
   engine changes - only the ADL description differs.

     dune exec examples/retarget_riscv.exe

   The guest computes the 30th Fibonacci number, writes a digest to the
   UART (plain MMIO stores work even for this user-level guest), and
   exits through the ECALL convention (a7 = 93). *)

module R = Guest_riscv.Rv_asm
module Run = Workloads.Runner

let program () =
  let a = R.create ~base:0x1000L () in
  (* fib(30) iteratively in a0 *)
  R.li a R.t0 30L;
  R.li a R.a0 0L;
  R.li a R.a1 1L;
  R.label a "loop";
  R.add a R.t1 R.a0 R.a1;
  R.add a R.a0 R.zero R.a1;
  R.add a R.a1 R.zero R.t1;
  R.addi a R.t0 R.t0 (-1);
  R.bne a R.t0 R.zero "loop";
  (* print the last 6 decimal digits to the UART *)
  R.li a R.t2 0x09100000L;
  R.li a R.s2 100000L;
  R.label a "print";
  R.divu a R.t1 R.a0 R.s2;
  R.li a R.t0 10L;
  R.remu a R.t1 R.t1 R.t0;
  R.addi a R.t1 R.t1 48;
  R.sb a R.t1 R.t2 0;
  R.divu a R.s2 R.s2 R.t0;
  R.bne a R.s2 R.zero "print";
  (* exit(42) *)
  R.li a R.a0 42L;
  R.li a R.a7 93L;
  R.ecall a;
  R.assemble a

let () =
  let image = Run.Bare { addr = 0x1000L; code = program () } in
  let outcomes =
    List.map
      (fun (name, engine) ->
        let o = Run.boot ~max_cycles:50_000_000 engine Run.Riscv image in
        Printf.printf "%-11s fib(30) ends ...%s  exit=%s  (%d cycles)\n" (name ^ ":") o.Run.uart
          (Run.exit_to_string o.Run.exit) o.Run.cycles;
        o)
      [ ("captive", Run.captive); ("qemu-style", Run.qemu) ]
  in
  print_endline "fib(30) = 832040";
  (* the retargeting effort, quantified *)
  let m = (Run.ops Run.Riscv).Guest.Ops.model in
  Printf.printf "\nRV64IM model: %d decode entries, %d optimized SSA statements\n"
    (List.length m.Ssa.Offline.arch.Adl.Ast.a_decodes)
    (Ssa.Offline.total_size m);
  if List.exists (fun (o : Run.outcome) -> o.Run.exit <> Run.Poweroff 42) outcomes then begin
    prerr_endline "retarget_riscv: both engines must exit 42";
    exit 1
  end
