(* The benchmark's own tests:
   - the output check counts a program whose expected value is wrong;
   - the cold-code generator is a function of its seed alone;
   - at the default seed, Captive agrees with the Reference interpreter on
     every cold-code image (exit code, UART output and register file).
   Run with `dune build @perfbench/selftest`. *)

let failures = ref 0

let check name cond =
  Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

let programs names = List.filter (fun (p : Suite.program) -> List.mem p.Suite.name names) Suite.system

let wrong_expected_value_is_counted () =
  let progs = programs [ "mmu-stress-arm"; "mmu-stress-riscv" ] in
  let expected = Oracle.build progs in
  let counts table = Bench.run_pass ~pass:0 ~traced:false ~expected:table progs in
  check "oracle: correct table, no failures" (counts expected = (2, 0));
  let tamper f = List.map (fun (n, e) -> if n = "mmu-stress-arm" then (n, f e) else (n, e)) expected in
  check "oracle: wrong exit code counted once"
    (counts (tamper (fun e -> { e with Oracle.exit_code = e.Oracle.exit_code + 1 })) = (2, 1));
  check "oracle: wrong UART digest counted once"
    (counts (tamper (fun e -> { e with Oracle.uart_md5 = Digest.to_hex (Digest.string "x") })) = (2, 1))

let images seed =
  [ Coldgen.arm_image ~seed; Coldgen.riscv_image ~seed ]

let generator_depends_on_seed_only () =
  check "coldgen: one seed gives identical bytes" (images 7L = images 7L);
  let a = images 7L and b = images 8L in
  check "coldgen: different seeds give different bytes" (List.for_all2 (fun x y -> x <> y) a b)

let captive_agrees_with_reference () =
  List.iter
    (fun (p : Suite.program) ->
      let ops = Suite.guest_ops p.Suite.guest in
      let image = p.Suite.build () in
      let r = Captive.Reference.create ops in
      Suite.install (Workloads.Kernel.reference_target r) image;
      let ref_exit = Captive.Reference.run ~max_instrs:Suite.max_instrs r in
      let e = Captive.Engine.create ~config:Bench.config ops in
      Suite.install (Workloads.Kernel.captive_target e) image;
      let exit = Captive.Engine.run ~max_cycles:Suite.max_cycles e in
      Captive.Engine.shutdown e;
      let same_exit =
        match ref_exit, exit with
        | Captive.Reference.Poweroff a, Captive.Engine.Poweroff b -> a = b
        | _ -> false
      in
      let what = Printf.sprintf "cold-code seed %d: %s %s" Suite.default_seed p.Suite.name in
      check (what "exit code") same_exit;
      check (what "UART output") (Captive.Reference.uart_output r = Captive.Engine.uart_output e);
      check (what "register file")
        (Bytes.equal (Captive.Reference.regfile r) e.Captive.Engine.ctx.Hostir.Exec.regfile))
    (Suite.cold_code ~seed:Suite.default_seed)

let () =
  Bench.sink := ignore;
  wrong_expected_value_is_counted ();
  generator_depends_on_seed_only ();
  captive_agrees_with_reference ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
