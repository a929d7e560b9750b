(* Boot the miniature guest OS (stage-1 paging, EL0/EL1, syscalls, timer
   interrupts) on both DBT engines and compare.

     dune exec examples/os_boot.exe

   The user program prints a banner via the putchar syscall, triggers a
   recoverable data abort, waits for two timer ticks, and exits. *)

module A = Guest_arm.Arm_asm
module K = Workloads.Kernel
module R = Workloads.Runner

let user_program () =
  let a = A.create ~base:K.user_va () in
  let print s =
    String.iter
      (fun ch ->
        A.movz a A.x0 (Char.code ch);
        A.movz a A.x8 1;
        A.svc a 0)
      s
  in
  print "hello from EL0\n";
  (* a recoverable fault: the kernel counts it and skips the load *)
  A.mov_const a A.x1 0x0070_0000L;
  A.ldr a A.x2 A.x1;
  print "survived a data abort\n";
  (* spin until the timer has ticked twice *)
  A.label a "wait";
  A.mov_const a A.x6 20000L;
  A.label a "burn";
  A.sub_imm a A.x6 A.x6 1;
  A.cbnz a A.x6 "burn";
  A.movz a A.x8 3;
  A.svc a 0;
  A.cmp_imm a A.x0 2;
  A.b_cond a A.CC "wait";
  print "timer ticked twice\n";
  (* exit(7) *)
  A.movz a A.x0 7;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let () =
  let image = R.User { user = user_program (); timer = true } in
  let run engine = R.boot ~max_cycles:500_000_000 engine R.Arm image in
  let c = run R.captive in
  Printf.printf "--- Captive ---\n%s(exit %s, %d simulated cycles, %d host page faults)\n\n"
    c.R.uart (R.exit_to_string c.R.exit) c.R.cycles
    (R.captive_of c).Captive.Engine.machine.Hvm.Machine.faults;
  let q = run R.qemu in
  Printf.printf "--- QEMU-style baseline ---\n%s(exit %s, %d simulated cycles)\n\n" q.R.uart
    (R.exit_to_string q.R.exit) q.R.cycles;
  Printf.printf "Captive/QEMU cycle ratio: %.2fx\n"
    (float_of_int q.R.cycles /. float_of_int c.R.cycles);
  if c.R.exit <> R.Poweroff 7 || q.R.exit <> R.Poweroff 7 then begin
    prerr_endline "os_boot: both engines must exit 7";
    exit 1
  end
