(* Full-system engine tests: Captive vs QEMU-style vs reference
   interpreter, system-level behaviours (paging, syscalls, faults,
   interrupts, self-modifying code), and the paper's architectural claims
   (code-cache retention across TLB flushes, Table 2 bit accuracy). *)

open Harness
module K = Workloads.Kernel
module QE = Qemu_ref.Qemu_engine

(* Run [image] on the reference interpreter and both DBT engines: each
   engine must end as the reference does, with the same UART output. *)
let check_all_agree name image =
  let r = run R.Reference image in
  List.iter
    (fun (engine, e) ->
      let o = run e image in
      Alcotest.check exit_t (name ^ ": " ^ engine ^ " vs ref exit") r.R.exit o.R.exit;
      Alcotest.(check string) (name ^ ": " ^ engine ^ " vs ref uart") r.R.uart o.R.uart)
    [ ("captive", R.captive); ("qemu", R.qemu) ];
  r

(* --- bare-metal programs ----------------------------------------------------- *)

let test_bare_metal_agreement () =
  let progs =
    [
      ( "arith",
        bare_metal (fun a ->
            A.mov_const a A.x1 0x123456789ABCDEFL;
            A.mov_const a A.x2 0x0F1E2D3C4B5A697L;
            A.mul a A.x3 A.x1 A.x2;
            A.umulh a A.x4 A.x1 A.x2;
            A.eor_reg a A.x5 A.x3 A.x4;
            A.sdiv a A.x6 A.x5 A.x2;
            A.add_reg a A.x0 A.x5 A.x6) );
      ( "flags",
        bare_metal (fun a ->
            A.mov_const a A.x1 Int64.max_int;
            A.adds_imm a A.x2 A.x1 1;
            A.cset a A.x3 A.VS; (* overflow *)
            A.cset a A.x4 A.MI; (* negative *)
            A.adc_reg a A.x5 A.x3 A.x4;
            A.subs_imm a A.x6 A.x3 2;
            A.cset a A.x7 A.CC; (* borrow *)
            A.add_reg a A.x0 A.x5 A.x7) );
      ( "memory",
        bare_metal (fun a ->
            A.mov_const a A.x1 0x100000L;
            A.mov_const a A.x2 0xCAFEBABEDEADBEEFL;
            A.str a A.x2 A.x1;
            A.ldrb ~off:3 a A.x3 A.x1;
            A.ldrh ~off:2 a A.x4 A.x1;
            A.ldrsw ~off:4 a A.x5 A.x1;
            A.stp ~off:16 a A.x3 A.x4 A.x1;
            A.ldp ~off:16 a A.x6 A.x7 A.x1;
            A.add_reg a A.x0 A.x6 A.x7;
            A.add_reg a A.x0 A.x0 A.x5) );
      ( "fp",
        bare_metal (fun a ->
            A.mov_const a A.x1 (Int64.bits_of_float 1.5);
            A.fmov_x_to_d a A.d1 A.x1;
            A.mov_const a A.x2 (Int64.bits_of_float (-2.25));
            A.fmov_x_to_d a A.d2 A.x2;
            A.fmul_d a A.d3 A.d1 A.d2;
            A.fdiv_d a A.d4 A.d3 A.d1;
            A.fsqrt_d a A.d5 A.d1;
            A.fmadd_d a A.d6 A.d4 A.d5 A.d3;
            A.fcmp_d a A.d6 A.d3;
            A.cset a A.x3 A.GT;
            A.fcvtzs_d a A.x4 A.d6;
            A.fmov_d_to_x a A.x5 A.d5;
            A.add_reg a A.x0 A.x4 A.x3;
            A.eor_reg a A.x0 A.x0 A.x5) );
      ( "branches",
        bare_metal (fun a ->
            A.movz a A.x0 0;
            A.movz a A.x1 0;
            A.label a "outer";
            A.movz a A.x2 0;
            A.label a "inner";
            A.add_reg a A.x0 A.x0 A.x2;
            A.add_imm a A.x2 A.x2 1;
            A.cmp_imm a A.x2 10;
            A.b_cond a A.NE "inner";
            A.add_imm a A.x1 A.x1 1;
            A.tbz a A.x1 4 "outer") );
    ]
  in
  List.iter (fun (name, image) -> ignore (check_all_agree name (bare image))) progs

(* --- Table 2 through the full stack -------------------------------------------- *)

let test_sqrt_bit_accuracy_guest () =
  (* fsqrt of -0.5 through both engines: the guest must observe the ARM
     result (+default NaN), not the host's x86 -NaN. *)
  let image =
    bare_metal (fun a ->
        A.mov_const a A.x1 (Int64.bits_of_float (-0.5));
        A.fmov_x_to_d a A.d1 A.x1;
        A.fsqrt_d a A.d2 A.d1;
        A.fmov_d_to_x a A.x2 A.d2;
        (* x0 = 1 iff result == ARM default NaN *)
        A.mov_const a A.x3 0x7FF8000000000000L;
        A.cmp_reg a A.x2 A.x3;
        A.cset a A.x0 A.EQ)
  in
  let r = check_all_agree "sqrt-nan" (bare image) in
  Alcotest.check exit_t "guest sees ARM NaN" (R.Poweroff 1) r.R.exit

(* --- self-modifying code --------------------------------------------------------- *)

let test_self_modifying_code () =
  (* Execute `mov x0, #1; ret-to-exit`, patch it in place to `mov x0, #2`,
     re-execute: the code cache must be invalidated by the write. *)
  let image =
    bare_metal (fun a ->
        A.movz a A.x20 0;
        (* call the patchable snippet twice *)
        A.adr a A.x21 "snippet";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        (* patch: rewrite first instruction to movz x0,#2 *)
        (let w = (0b110100101 lsl 23) lor (2 lsl 5) lor 0 in
         A.mov_const a A.x22 (Int64.of_int w));
        A.str32 a A.x22 A.x21;
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.mov_reg a A.x0 A.x20;
        A.b a "done";
        A.label a "snippet";
        A.movz a A.x0 1;
        A.ret a;
        A.label a "done")
  in
  let r = check_all_agree "smc" (bare image) in
  Alcotest.check exit_t "every engine sees the patch (1+2)" (R.Poweroff 3) r.R.exit;
  let _, e = captive (bare image) in
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0)

(* --- full OS boot ------------------------------------------------------------------ *)

let test_os_boot_and_syscalls () =
  let u =
    el0_program (fun a ->
        List.iter
          (fun ch ->
            A.movz a A.x0 (Char.code ch);
            A.movz a A.x8 1;
            A.svc a 0)
          [ 'b'; 'o'; 'o'; 't' ];
        (* user memory through the MMU *)
        A.mov_const a A.x1 (Int64.add K.user_va 0x20000L);
        A.mov_const a A.x2 0x1111111111111111L;
        A.str a A.x2 A.x1;
        A.ldr a A.x3 A.x1;
        A.lsr_imm a A.x0 A.x3 60;
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let r = check_all_agree "os boot" (user u) in
  Alcotest.check exit_t "exit code" (R.Poweroff 1) r.R.exit;
  Alcotest.(check string) "uart" "boot" r.R.uart

let test_user_kernel_isolation () =
  (* EL0 attempting to read kernel memory must fault; the kernel's abort
     handler counts it and skips the instruction. *)
  let u =
    el0_program (fun a ->
        A.mov_const a A.x1 (K.kva 0x80000L);
        A.ldr a A.x2 A.x1; (* kernel VA: faults, is skipped *)
        A.mov_const a A.x1 K.kernel_pa;
        A.ldr a A.x3 A.x1; (* kernel PA unmapped in TTBR0: faults too *)
        A.movz a A.x8 4;
        A.svc a 0; (* x0 = fault count *)
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let r = check_all_agree "isolation" (user u) in
  Alcotest.check exit_t "two faults observed" (R.Poweroff 2) r.R.exit

let test_timer_interrupts () =
  let u =
    el0_program (fun a ->
        (* burn cycles until at least 2 ticks observed *)
        A.label a "wait";
        A.mov_const a A.x6 20000L;
        A.label a "burn";
        A.sub_imm a A.x6 A.x6 1;
        A.cbnz a A.x6 "burn";
        A.movz a A.x8 3;
        A.svc a 0; (* ticks *)
        A.cmp_imm a A.x0 2;
        A.b_cond a A.CC "wait";
        A.movz a A.x0 0;
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let exit, e = captive (user u) in
  Alcotest.check exit_t "captive: timer ticks reached 2" (R.Poweroff 0) exit;
  Alcotest.(check bool) "timer fired" true (e.CE.timer.Hvm.Device.Timer.fired >= 2);
  Alcotest.check exit_t "qemu: timer ticks reached 2" (R.Poweroff 0) (run R.qemu (user u)).R.exit

let test_cache_retention_across_tlb_flush () =
  (* The paper's Sec. 2.6 claim: Captive's PA-indexed cache survives guest
     TLB flushes; the QEMU-style VA-indexed cache is invalidated. *)
  let image =
    bare_metal (fun a ->
        A.movz a A.x19 50;
        A.movz a A.x20 0;
        A.label a "loop";
        A.add_imm a A.x20 A.x20 3;
        A.tlbi_all a;
        A.sub_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "loop";
        A.mov_reg a A.x0 A.x20)
  in
  let _, e = captive (bare image) in
  let q = match (run R.qemu (bare image)).R.handle with R.Qemu_h q -> q | _ -> assert false in
  (* Captive translates each block once; QEMU-style retranslates after
     every flush. *)
  Alcotest.(check bool) "captive retains translations" true (e.CE.stats.CE.blocks_translated < 10);
  Alcotest.(check bool)
    (Printf.sprintf "qemu retranslates (%d blocks)" q.QE.stats.QE.blocks_translated)
    true
    (q.QE.stats.QE.blocks_translated > 50)

let test_spec_proxies_differential () =
  (* keep runtime modest: captive vs qemu on three benchmarks *)
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let c = Workloads.Registry.boot R.captive w and q = Workloads.Registry.boot R.qemu w in
      Alcotest.check exit_t (name ^ " exit codes agree") c.R.exit q.R.exit;
      Alcotest.check exit_t (name ^ " exits as registered") (R.Poweroff w.Workloads.Registry.expected)
        c.R.exit)
    [ "445.gobmk"; "456.hmmer"; "444.namd" ]

(* --- randomized differential testing --------------------------------------- *)

(* Random straight-line programs over data-processing, memory and FP
   instructions; the full architectural state is dumped to memory and
   compared across all three engines. *)
let random_program seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 99L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 16 in
  let a = A.create ~base:0x80000L () in
  (* x20: data base (never an operand destination below) *)
  A.mov_const a A.x20 0x200000L;
  (* seed registers *)
  for i = 0 to 15 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  for i = 0 to 7 do
    A.fmov_x_to_d a i (r 16)
  done;
  for _ = 1 to 60 do
    match r 24 with
    | 0 -> A.add_reg a (reg ()) (reg ()) (reg ())
    | 1 -> A.subs_reg a (reg ()) (reg ()) (reg ())
    | 2 -> A.adds_imm a (reg ()) (reg ()) (r 4096)
    | 3 -> A.and_reg a (reg ()) (reg ()) (reg ())
    | 4 -> A.eor_imm a (reg ()) (reg ()) 0xFF00FF00FF00FF00L
    | 5 -> A.mul a (reg ()) (reg ()) (reg ())
    | 6 -> A.umulh a (reg ()) (reg ()) (reg ())
    | 7 -> A.udiv a (reg ()) (reg ()) (reg ())
    | 8 -> A.sdiv ~sf:(r 2) a (reg ()) (reg ()) (reg ())
    | 9 -> A.lslv a (reg ()) (reg ()) (reg ())
    | 10 -> A.rorv ~sf:(r 2) a (reg ()) (reg ()) (reg ())
    | 11 -> A.csel a (reg ()) (reg ()) (reg ()) (List.nth [ A.EQ; A.LT; A.HI; A.VS ] (r 4))
    | 12 -> A.csinv a (reg ()) (reg ()) (reg ()) (List.nth [ A.NE; A.GE; A.LS; A.MI ] (r 4))
    | 13 -> A.clz a (reg ()) (reg ())
    | 14 -> A.rbit ~sf:(r 2) a (reg ()) (reg ())
    | 15 -> A.extr a (reg ()) (reg ()) (reg ()) (r 64)
    | 16 -> A.ccmp_imm a (reg ()) (r 32) (r 16) (List.nth [ A.EQ; A.GT; A.CC; A.PL ] (r 4))
    | 17 -> A.str ~off:(8 * r 64) a (reg ()) A.x20
    | 18 -> A.ldr ~off:(8 * r 64) a (reg ()) A.x20
    | 19 -> A.strb ~off:(r 256) a (reg ()) A.x20
    | 20 -> A.ldrsw ~off:(4 * r 32) a (reg ()) A.x20
    | 21 -> A.fadd_d a (r 8) (r 8) (r 8)
    | 22 -> A.fmul_d a (r 8) (r 8) (r 8)
    | _ ->
      A.fsqrt_d a (r 8) (r 8)
  done;
  (* dump state: x0..x15, d0..d7, then the N/Z/C/V flags via cset *)
  dump_and_halt a ~regs:16 ~fp:8 ~flags:[ A.EQ; A.CS; A.MI; A.VS ]

let prop_random_programs =
  QCheck2.Test.make ~name:"random programs: captive = qemu = reference" ~count:25
    QCheck2.Gen.int64 (fun seed ->
      let dump engine = dump 28 (run engine (bare (random_program seed))) in
      let c = dump R.captive and q = dump R.qemu and rr = dump R.Reference in
      c <> [] && c = q && c = rr)

let suite =
  ( "engine",
    [
      Alcotest.test_case "bare-metal differential" `Slow test_bare_metal_agreement;
      Alcotest.test_case "Table 2 via guest fsqrt" `Slow test_sqrt_bit_accuracy_guest;
      Alcotest.test_case "self-modifying code" `Slow test_self_modifying_code;
      Alcotest.test_case "OS boot + syscalls" `Slow test_os_boot_and_syscalls;
      Alcotest.test_case "user/kernel isolation" `Slow test_user_kernel_isolation;
      Alcotest.test_case "timer interrupts" `Slow test_timer_interrupts;
      Alcotest.test_case "cache retention across TLB flush" `Slow test_cache_retention_across_tlb_flush;
      Alcotest.test_case "SPEC proxies differential" `Slow test_spec_proxies_differential;
      QCheck_alcotest.to_alcotest prop_random_programs;
    ] )
