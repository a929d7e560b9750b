(* captive_run: command-line front end to the DBT engines.

     captive_run spec 429.mcf --engine captive --scale 2
     captive_run simbench Mem-Hot-MMU
     captive_run boot --engine qemu
     captive_run info
     captive_run ssa add_sub_imm --level 4
     captive_run lint
     captive_run mmucheck --json --guard
     captive_run stress --json --seeds 32
     captive_run bench --quick --json
     captive_run validate --json
     captive_run relocheck --json
     captive_run aot --json

   `spec` runs a SPEC CPU2006 proxy under the mini guest OS, `simbench`
   one SimBench category on both engines, `boot` a demo user program on
   the mini-OS, `info` prints the loaded guest models, `ssa` dumps an
   instruction's optimized SSA (the offline artifact of Fig. 6), `lint`
   statically verifies the whole offline pipeline (decode tables, SSA
   after every pass at O1-O4, and post-regalloc HostIR) for every guest
   model, `mmucheck` runs MMU-stress workloads on both guests with the
   online shadow-oracle sanitizer (page tables, TLB, frame accounting,
   code-cache W^X, ring transitions) enabled, `stress` is the
   race-focused lane for the concurrent JIT (seeded drain schedules on
   worker domains, sanitizer + single-domain equivalence as oracles),
   `bench` is the CI perf-regression gate against bench/baseline.json
   (with --exact, the determinism gate: exec/jit cycle bit-identity at
   --domains 1), `validate`
   symbolically checks every translation formed while booting the ARM
   and RISC-V workloads at O1-O4 against an unoptimized reference
   emission (Hostir.Equiv), `relocheck` certifies every translation
   relocation-clean (Hostir.Reloc: no absolute host addresses, numbered
   exits only, environment references in bounds, deterministic
   encoding), and `aot` is the persistent-cache warm-boot gate: each
   quick-bench workload runs cold then warm against the same on-disk
   AOT cache, and the warm boot must spend <= 10% of the cold boot's
   translate cycles with bit-identical guest-visible execution. *)

open Cmdliner

type engine_kind = Eng_captive | Eng_qemu | Eng_reference

let engine_conv =
  let parse = function
    | "captive" -> Ok Eng_captive
    | "qemu" -> Ok Eng_qemu
    | "reference" | "ref" -> Ok Eng_reference
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S (captive|qemu|reference)" s))
  in
  let print fmt e =
    Format.pp_print_string fmt
      (match e with Eng_captive -> "captive" | Eng_qemu -> "qemu" | Eng_reference -> "reference")
  in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(value & opt engine_conv Eng_captive & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"DBT engine: captive, qemu or reference.")

let scale_arg =
  Arg.(value & opt int 1 & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let verbose_stats_captive (e : Captive.Engine.t) =
  let s = e.Captive.Engine.stats in
  Printf.printf "cycles: %d\n" (Captive.Engine.cycles e);
  Printf.printf "blocks: executed %d, translated %d, chain hits %d\n"
    s.Captive.Engine.blocks_executed s.Captive.Engine.blocks_translated s.Captive.Engine.chain_hits;
  Printf.printf "guest instrs translated: %d -> host instrs %d (%.1f/guest), %d bytes\n"
    s.Captive.Engine.guest_instrs_translated s.Captive.Engine.host_instrs_emitted
    (float_of_int s.Captive.Engine.host_instrs_emitted
    /. float_of_int (max 1 s.Captive.Engine.guest_instrs_translated))
    s.Captive.Engine.host_bytes_emitted;
  Printf.printf "host page faults: %d, SMC invalidations: %d\n"
    e.Captive.Engine.machine.Hvm.Machine.faults s.Captive.Engine.smc_invalidations;
  Printf.printf "JIT wall time: decode %.1fms translate %.1fms regalloc %.1fms encode %.1fms\n"
    (1000. *. s.Captive.Engine.t_decode) (1000. *. s.Captive.Engine.t_translate)
    (1000. *. s.Captive.Engine.t_regalloc) (1000. *. s.Captive.Engine.t_encode);
  if s.Captive.Engine.template_blocks > 0 then
    Printf.printf
      "template tier: %d blocks (%d instrs) stitched, %d mined, %d misses; translate cycles \
       %d template / %d pipeline\n"
      s.Captive.Engine.template_blocks s.Captive.Engine.template_instrs
      s.Captive.Engine.templates_mined s.Captive.Engine.template_misses
      s.Captive.Engine.translate_cycles_template s.Captive.Engine.translate_cycles_pipeline

let run_user ~engine ~user =
  let guest = Guest_arm.Arm.ops () in
  match engine with
  | Eng_captive ->
    let e = Captive.Engine.create guest in
    Workloads.Kernel.install (Workloads.Kernel.captive_target e) ~user;
    let code =
      match Captive.Engine.run ~max_cycles:50_000_000_000 e with
      | Captive.Engine.Poweroff c -> c
      | _ -> -1
    in
    print_string (Captive.Engine.uart_output e);
    Printf.printf "exit code: %d\n" code;
    verbose_stats_captive e
  | Eng_qemu ->
    let e = Qemu_ref.Qemu_engine.create guest in
    Workloads.Kernel.install (Workloads.Kernel.qemu_target e) ~user;
    let code =
      match Qemu_ref.Qemu_engine.run ~max_cycles:50_000_000_000 e with
      | Qemu_ref.Qemu_engine.Poweroff c -> c
      | _ -> -1
    in
    print_string (Qemu_ref.Qemu_engine.uart_output e);
    Printf.printf "exit code: %d\ncycles: %d\n" code (Qemu_ref.Qemu_engine.cycles e)
  | Eng_reference ->
    let r = Captive.Reference.create guest in
    Workloads.Kernel.install (Workloads.Kernel.reference_target r) ~user;
    let code =
      match Captive.Reference.run ~max_instrs:500_000_000 r with
      | Captive.Reference.Poweroff c -> c
      | _ -> -1
    in
    print_string (Captive.Reference.uart_output r);
    Printf.printf "exit code: %d (interpreted %d instructions)\n" code r.Captive.Reference.instrs_executed

(* --- spec ------------------------------------------------------------------- *)

let spec_names = List.map (fun b -> b.Workloads.Spec.name) Workloads.Spec.all

let spec_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:(Printf.sprintf "One of: %s" (String.concat ", " spec_names)))
  in
  let run name engine scale =
    match List.find_opt (fun b -> b.Workloads.Spec.name = name) Workloads.Spec.all with
    | None -> `Error (false, Printf.sprintf "unknown benchmark %S" name)
    | Some b ->
      run_user ~engine ~user:(b.Workloads.Spec.build ~scale);
      `Ok ()
  in
  Cmd.v (Cmd.info "spec" ~doc:"Run a SPEC CPU2006 proxy under the mini guest OS.")
    Term.(ret (const run $ bench $ engine_arg $ scale_arg))

(* --- simbench ------------------------------------------------------------------ *)

let simbench_cmd =
  let which = Arg.(value & pos 0 (some string) None & info [] ~docv:"CATEGORY") in
  let run which =
    let benches = Simbench.all () in
    let selected =
      match which with
      | None -> benches
      | Some n -> List.filter (fun b -> String.lowercase_ascii b.Simbench.name = String.lowercase_ascii n) benches
    in
    if selected = [] then `Error (false, "unknown SimBench category")
    else begin
      List.iter
        (fun b ->
          let r = Simbench.run_one b in
          Printf.printf "%-20s captive %8dk  qemu %8dk  speed-up %.2fx\n%!" r.Simbench.bench
            (r.Simbench.captive_cycles / 1000) (r.Simbench.qemu_cycles / 1000) r.Simbench.speedup)
        selected;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "simbench" ~doc:"Run SimBench categories on both engines.")
    Term.(ret (const run $ which))

(* --- boot ----------------------------------------------------------------------- *)

let demo_user () =
  let a = Guest_arm.Arm_asm.create ~base:Workloads.Kernel.user_va () in
  String.iter
    (fun ch ->
      Guest_arm.Arm_asm.movz a Guest_arm.Arm_asm.x0 (Char.code ch);
      Guest_arm.Arm_asm.movz a Guest_arm.Arm_asm.x8 1;
      Guest_arm.Arm_asm.svc a 0)
    "captive mini-OS: up at EL0 with paging, syscalls and a timer\n";
  Guest_arm.Arm_asm.movz a Guest_arm.Arm_asm.x0 0;
  Guest_arm.Arm_asm.movz a Guest_arm.Arm_asm.x8 0;
  Guest_arm.Arm_asm.svc a 0;
  Guest_arm.Arm_asm.assemble a

let boot_cmd =
  let run engine = run_user ~engine ~user:(demo_user ()) in
  Cmd.v (Cmd.info "boot" ~doc:"Boot the mini guest OS with a demo user program.")
    Term.(const run $ engine_arg)

(* The guest programs the checking subcommands boot on Captive: a user
   program under the ARM mini-OS, or the bare-metal RISC-V MMU-stress
   image. *)
type program = Arm_user of bytes | Riscv_mmu

let exit_of = function
  | Captive.Engine.Poweroff c -> c
  | Captive.Engine.Cycle_limit -> -2
  | Captive.Engine.Block_limit -> -3

(* Create an engine for [program] (guest models at offline level
   [level]), run it to power-off or [max_cycles], and stop its JIT
   workers; returns the engine and the guest exit code. *)
let boot ?(config = Captive.Engine.default_config) ?level ?(max_cycles = 2_000_000_000) program =
  let e =
    match program with
    | Arm_user user ->
      let e = Captive.Engine.create ~config (Guest_arm.Arm.ops ?opt_level:level ()) in
      Workloads.Kernel.install (Workloads.Kernel.captive_target e) ~user;
      e
    | Riscv_mmu ->
      let e = Captive.Engine.create ~config (Guest_riscv.Riscv.ops ?opt_level:level ()) in
      Captive.Engine.load_image e ~addr:Workloads.Mmu_stress.riscv_entry
        (Workloads.Mmu_stress.riscv_image ());
      Captive.Engine.set_entry e Workloads.Mmu_stress.riscv_entry;
      e
  in
  Fun.protect
    ~finally:(fun () -> Captive.Engine.shutdown e)
    (fun () -> (e, exit_of (Captive.Engine.run ~max_cycles e)))

(* --- info ------------------------------------------------------------------------- *)

let info_cmd =
  let run () =
    List.iter
      (fun (ops : Guest.Ops.ops) ->
        let m = ops.Guest.Ops.model in
        Printf.printf "%-10s %s\n" ops.Guest.Ops.name ops.Guest.Ops.description;
        Printf.printf "           %d decode entries, %d execute actions, %d optimized SSA statements\n"
          (List.length m.Ssa.Offline.arch.Adl.Ast.a_decodes)
          (List.length m.Ssa.Offline.arch.Adl.Ast.a_executes)
          (Ssa.Offline.total_size m))
      [ Guest_arm.Arm.ops (); Guest_riscv.Riscv.ops () ]
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe the available guest models.") Term.(const run $ const ())

(* --- ssa --------------------------------------------------------------------------- *)

let ssa_cmd =
  let insn = Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTRUCTION") in
  let level = Arg.(value & opt int 4 & info [ "l"; "level" ] ~docv:"N" ~doc:"Offline optimization level (1-4).") in
  let guest = Arg.(value & opt string "armv8-a" & info [ "g"; "guest" ] ~doc:"Guest model (armv8-a or rv64im).") in
  let classify = Arg.(value & flag & info [ "c"; "classify" ] ~doc:"Annotate statements as [f]ixed or [d]ynamic (Sec. 2.2.2).") in
  let run insn level guest classify =
    let model =
      match guest with
      | "armv8-a" -> Guest_arm.Arm.model_at_level level
      | "rv64im" -> Ssa.Offline.build ~opt_level:level Guest_riscv.Riscv_descr.source
      | g -> failwith ("unknown guest " ^ g)
    in
    match Hashtbl.find_opt model.Ssa.Offline.actions insn with
    | Some action ->
      if classify then begin
        print_string (Ssa.Analysis.to_string_annotated action);
        let f, d, fb, db = Ssa.Analysis.stats action in
        Printf.printf "\n%d fixed / %d dynamic statements; %d fixed / %d dynamic branches\n" f d fb db
      end
      else print_string (Ssa.Ir.to_string action)
    | None ->
      Printf.printf "no action %S; available:\n" insn;
      Hashtbl.iter (fun n _ -> Printf.printf "  %s\n" n) model.Ssa.Offline.actions
  in
  Cmd.v (Cmd.info "ssa" ~doc:"Dump an instruction's optimized SSA (the offline artifact).")
    Term.(const run $ insn $ level $ guest $ classify)

(* --- lint --------------------------------------------------------------------------- *)

(* Static verification sweep over the whole offline pipeline, for every
   guest model:

   1. decode-table analysis (Adl.Declint): ambiguous overlaps, shadowed
      patterns, bad field-extraction plans, bad `when` predicates;
   2. SSA well-formedness (Ssa.Verify) after every optimization pass at
      each level O1-O4, attributing any broken invariant to the
      offending pass by name; plus the semantic layer (Ssa.Absint):
      translation validation of every optimized action against its
      unoptimized reference, and interval proofs that every bank/slot
      access index stays within the architecture's declared bounds;
   3. HostIR invariants (Hostir.Verify) on a representative translation
      of every action: post-regalloc operand discipline, spill-slot
      bounds, branch-target resolution and dead-marking soundness.

   Exit status is non-zero if any violation is found, so the `@lint`
   dune alias can gate the test suite on it.  With --json, stdout
   carries machine-readable counter objects (one per guest plus a
   summary line) for CI trending; violations go to stderr. *)

module Counters = Dbt_util.Stats.Counters

let lint_guest ~json c failures (ops : Guest.Ops.ops) =
  let arch = ops.Guest.Ops.model.Ssa.Offline.arch in
  let gname = ops.Guest.Ops.name in
  (* Progress chatter is suppressed in JSON mode; violations go to stderr
     there so stdout stays parseable. *)
  let say fmt =
    if json then Printf.ifprintf stdout fmt else Printf.printf fmt
  in
  let shout line = if json then prerr_endline line else print_endline line in
  say "linting %s: %d decode entries, %d execute actions\n%!" gname
    (List.length arch.Adl.Ast.a_decodes)
    (List.length arch.Adl.Ast.a_executes);
  (* 1. decode table *)
  Counters.bump c "decode entries checked" ~by:(List.length arch.Adl.Ast.a_decodes);
  List.iter
    (fun v ->
      incr failures;
      Counters.bump c "decode-table violations";
      shout (Printf.sprintf "  %s: %s" gname (Adl.Declint.string_of_violation v)))
    (Adl.Declint.check_arch arch);
  (* 2. SSA after every pass at O1-O4, then the semantic layer: validate
     the optimized action against its unoptimized twin (statement ids
     are stable across passes) and range-check every bank/slot access. *)
  Ssa.Absint.reset_simplify_stats ();
  List.iter
    (fun level ->
      List.iter
        (fun (x : Adl.Ast.execute) ->
          let reference = Ssa.Build.execute arch x in
          let action = Ssa.Build.execute arch x in
          let ctx = Ssa.Offline.opt_context arch x.Adl.Ast.x_name in
          try
            Ssa.Opt.optimize ~ctx ~verify:true ~level action;
            Counters.bump c "ssa action/level sweeps verified";
            let opt_summary = Ssa.Absint.analyze ~ctx action in
            let findings, compared =
              Ssa.Absint.validate ~ctx ~opt_summary ~reference ~optimized:action ()
            in
            Counters.bump c "absint statements validated" ~by:compared;
            let rfindings, rchecked =
              Ssa.Absint.check_ranges ~ctx ~summary:opt_summary action
            in
            Counters.bump c "absint accesses range-checked" ~by:rchecked;
            let report kind fs =
              List.iter
                (fun f ->
                  incr failures;
                  Counters.bump c (kind ^ " findings");
                  shout
                    (Printf.sprintf "  %s O%d %s: %s" gname level kind
                       (Ssa.Absint.string_of_finding f)))
                fs
            in
            report "validator" findings;
            report "range-check" rfindings
          with Ssa.Verify.Invalid { action = aname; phase; violations } ->
            incr failures;
            Counters.bump c "ssa violations" ~by:(List.length violations);
            shout
              (Ssa.Verify.report
                 ~action:(Printf.sprintf "%s/%s at O%d" gname aname level)
                 ~phase violations))
        arch.Adl.Ast.a_executes)
    [ 1; 2; 3; 4 ];
  let st = Ssa.Absint.simplify_stats in
  Counters.bump c "absint-simplify branches folded" ~by:st.Ssa.Absint.branches_folded;
  Counters.bump c "absint-simplify statements folded" ~by:st.Ssa.Absint.stmts_folded;
  Counters.bump c "absint-simplify masks dropped" ~by:st.Ssa.Absint.masks_dropped;
  (* 3. HostIR on a representative translation of every O4 action *)
  let cfg =
    {
      Hostir.Dag.bank_offset = ops.Guest.Ops.bank_offset;
      slot_offset = ops.Guest.Ops.slot_offset;
      lower_intrinsic =
        (fun name ->
          match Captive.Common.softfloat_index name with
          | Some h -> Hostir.Dag.L_helper h
          | None -> Hostir.Dag.L_inline);
      effect_helper = Captive.Common.effect_helper_index;
      coproc_read_helper = Captive.Common.h_coproc_read;
      coproc_write_helper = Captive.Common.h_coproc_write;
      split_va_check = false;
      as_switch_helper = Captive.Common.h_as_switch;
    }
  in
  Hashtbl.iter
    (fun aname action ->
      (* A representative decoded instance: all fields zero, EL1.  Some
         actions cannot translate under it (e.g. dynamic widths); they
         are skipped, not failed. *)
      let field n = if n = "__el" then 1L else 0L in
      match
        let dag = Hostir.Dag.create cfg in
        Ssa.Gen.translate (Hostir.Dag.emitter dag) action ~field
          ~inc_pc:(Some ops.Guest.Ops.insn_size);
        Hostir.Dag.raw dag (Hostir.Hir.Exit 0);
        Some (Hostir.Dag.finish dag)
      with
      | exception (Ssa.Gen.Unsupported _ | Hostir.Dag.Unsupported_lowering _ | Invalid_argument _)
        ->
        Counters.bump c "hostir translations skipped"
      | None -> Counters.bump c "hostir translations skipped"
      | Some original -> (
        let ra = Hostir.Regalloc.run original in
        match Hostir.Verify.check ~original ra with
        | [] -> Counters.bump c "hostir translations verified"
        | violations ->
          incr failures;
          Counters.bump c "hostir violations" ~by:(List.length violations);
          shout (Hostir.Verify.report ~what:(gname ^ "/" ^ aname) violations)))
    ops.Guest.Ops.model.Ssa.Offline.actions

let lint_cmd =
  let guest =
    Arg.(value & opt string "all" & info [ "g"; "guest" ] ~docv:"GUEST"
           ~doc:"Guest model to lint (armv8-a, rv64im or all).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit counters as JSON on stdout (one object per guest plus a \
                 summary line); violations go to stderr.")
  in
  let run guest json =
    let guests =
      match guest with
      | "all" -> Ok [ Guest_arm.Arm.ops (); Guest_riscv.Riscv.ops () ]
      | "armv8-a" -> Ok [ Guest_arm.Arm.ops () ]
      | "rv64im" -> Ok [ Guest_riscv.Riscv.ops () ]
      | g -> Error (Printf.sprintf "unknown guest %s (expected armv8-a, rv64im or all)" g)
    in
    match guests with
    | Error msg -> `Error (true, msg)
    | Ok guests ->
    let summary = Counters.create () in
    let failures = ref 0 in
    List.iter
      (fun ops ->
        let c = Counters.create () in
        lint_guest ~json c failures ops;
        List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (Counters.to_list c);
        if json then
          Printf.printf "{\"kind\":\"guest\",\"guest\":%s,\"counters\":%s}\n"
            (Dbt_util.Stats.json_string ops.Guest.Ops.name)
            (Counters.to_json c))
      guests;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"guests\":%d,\"violations\":%d,\"counters\":%s}\n"
        (List.length guests) !failures (Counters.to_json summary)
    else Printf.printf "\nlint counters:\n%s" (Counters.report summary);
    if !failures = 0 then begin
      if not json then print_endline "lint: no violations";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "lint: %d violation site(s)" !failures)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify decode tables, SSA passes (O1-O4) and HostIR for every guest.")
    Term.(ret (const run $ guest $ json))

(* --- mmucheck ------------------------------------------------------------------------ *)

(* Online counterpart of `lint`: boot the ARM mini-OS and RISC-V
   bare-metal MMU-stress workloads with the shadow-oracle sanitizer
   (Hvm.Sanitize) enabled — checkpointing at every host fault, flush,
   SMC invalidation and every N translated blocks — and report the
   per-checker counters.  All five checkers run at every checkpoint:
   page tables vs. shadow, TLB derivability, frame accounting, code
   cache W^X/content coherence, and the ring audit.  Exit status is
   non-zero on any finding or on a wrong guest exit code.

   --guard reruns the ARM workload with the sanitizer off and asserts
   that cycle counts and exit codes match the sanitized run exactly:
   the sanitizer charges no cycles and perturbs no statistics, so
   sanitizer-off throughput is the engine's unmodified cycle model. *)

let mmucheck_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit per-workload counter objects and a summary line as JSON on stdout; \
                 findings go to stderr.")
  in
  let guard =
    Arg.(value & flag & info [ "guard" ]
           ~doc:"Also rerun the ARM workload with the sanitizer off and assert identical \
                 cycle counts and exit code (the sanitizer is observation-free).")
  in
  let every =
    Arg.(value & opt int 32 & info [ "every" ] ~docv:"N"
           ~doc:"Extra periodic checkpoint every N translated blocks.")
  in
  let run json guard every =
    let failures = ref 0 in
    let summary = Counters.create () in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let config =
      { Captive.Engine.default_config with Captive.Engine.sanitize = true; sanitize_every = every }
    in
    let run_arm ~sanitize () =
      boot ~config:{ config with Captive.Engine.sanitize } (Arm_user (Workloads.Mmu_stress.arm_user ()))
    in
    let report name (e : Captive.Engine.t) ~code ~expected =
      (* One final sweep so even a quiet run ends with a checkpoint. *)
      Captive.Engine.sanitize_check e ~reason:"final";
      match e.Captive.Engine.sanitizer with
      | None -> ()
      | Some s ->
        let fnd = Hvm.Sanitize.findings s in
        List.iter
          (fun f ->
            incr failures;
            shout (Printf.sprintf "  %s: %s" name (Hvm.Sanitize.string_of_finding f)))
          fnd;
        if code <> expected then begin
          incr failures;
          shout (Printf.sprintf "  %s: exit code %d, expected %d" name code expected)
        end;
        let c = Hvm.Sanitize.counters s in
        List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (Counters.to_list c);
        if json then
          Printf.printf
            "{\"kind\":\"workload\",\"name\":%s,\"exit\":%d,\"expected\":%d,\"findings\":%d,\"counters\":%s}\n"
            (Dbt_util.Stats.json_string name) code expected (List.length fnd) (Counters.to_json c)
        else
          say "%s: exit %d (expected %d), %d finding(s)\n%s\n" name code expected
            (List.length fnd) (Counters.report c)
    in
    say "mmucheck: armv8-a mini-OS MMU stress under the shadow-oracle sanitizer\n%!";
    let e_arm, code_arm = run_arm ~sanitize:true () in
    report "armv8-a" e_arm ~code:code_arm ~expected:Workloads.Mmu_stress.arm_expected_exit;
    say "mmucheck: rv64im MMU stress under the shadow-oracle sanitizer\n%!";
    let e_rv, code_rv = boot ~config Riscv_mmu in
    report "rv64im" e_rv ~code:code_rv ~expected:Workloads.Mmu_stress.riscv_expected_exit;
    if guard then begin
      let e_off, code_off = run_arm ~sanitize:false () in
      let cy_off = Captive.Engine.cycles e_off and cy_on = Captive.Engine.cycles e_arm in
      let ok = code_off = code_arm && cy_off = cy_on in
      if not ok then begin
        incr failures;
        shout
          (Printf.sprintf
             "  guard: sanitizer perturbs execution (off: exit %d, %d cycles; on: exit %d, %d cycles)"
             code_off cy_off code_arm cy_on)
      end;
      if json then
        Printf.printf
          "{\"kind\":\"guard\",\"cycles_off\":%d,\"cycles_on\":%d,\"exit_off\":%d,\"exit_on\":%d,\"ok\":%b}\n"
          cy_off cy_on code_off code_arm ok
      else
        say "guard: sanitizer-off cycles %d, sanitizer-on cycles %d: %s\n" cy_off cy_on
          (if ok then "identical" else "MISMATCH")
    end;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":2,\"findings\":%d,\"counters\":%s}\n"
        !failures (Counters.to_json summary)
    else say "\nmmucheck counters:\n%s" (Counters.report summary);
    if !failures = 0 then begin
      if not json then print_endline "mmucheck: no findings";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "mmucheck: %d finding(s)" !failures)
  in
  Cmd.v
    (Cmd.info "mmucheck"
       ~doc:"Run the ARM and RISC-V MMU-stress workloads under the shadow-oracle sanitizer.")
    Term.(ret (const run $ json $ guard $ every))

(* --- stress -------------------------------------------------------------------------- *)

(* The concurrency-stress lane for the concurrent JIT.  Each seed runs
   the MMU-stress workloads (both guests: SMC, page-table churn, ring
   transitions) with worker domains, a lowered hot threshold (so region
   jobs are plentiful) and a seeded install-schedule jitter
   (Engine.stress_seed): the vCPU's drain of completed translation jobs
   is deterministically randomized, exploring different interleavings
   of publish / lookup / invalidate against the sharded code cache.
   Two oracles hold every run: the shadow-oracle MMU sanitizer (which
   also audits the published shard keys for coherence) must report zero
   findings, and the guest-visible outcome — exit code and UART
   output — must equal a single-domain reference run of the same
   workload.  Any violation fails the run. *)

let stress_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per (workload, seed) run plus a summary line on \
                 stdout; findings go to stderr.")
  in
  let seeds =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N"
           ~doc:"Seeded drain schedules to explore per workload.")
  in
  let domains =
    Arg.(value & opt int 3 & info [ "domains" ] ~docv:"D"
           ~doc:"Total domains per engine: one vCPU plus D-1 JIT workers.")
  in
  let run json seeds domains =
    if seeds < 1 then `Error (true, "--seeds must be >= 1")
    else if domains < 2 then `Error (true, "--domains must be >= 2")
    else begin
      let failures = ref 0 in
      let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
      let shout line = if json then prerr_endline line else print_endline line in
      (* Hot threshold 4: the stress workloads cross it early and often,
         so the job queue, the install path and SMC cancellation all see
         real traffic. *)
      let base_config =
        { Captive.Engine.default_config with
          Captive.Engine.sanitize = true;
          sanitize_every = 32;
          hot_threshold = 4;
        }
      in
      let run_one ~config kind =
        let e, code =
          boot ~config
            (match kind with
            | `Arm -> Arm_user (Workloads.Mmu_stress.arm_user ())
            | `Riscv -> Riscv_mmu)
        in
        (* One final sweep so even a quiet run ends with a checkpoint. *)
        Captive.Engine.sanitize_check e ~reason:"final";
        (e, code)
      in
      let workloads =
        [ ("armv8-a-mmu", `Arm, Workloads.Mmu_stress.arm_expected_exit);
          ("rv64im-mmu", `Riscv, Workloads.Mmu_stress.riscv_expected_exit);
        ]
      in
      say "stress: %d workload(s) x %d seed(s) at %d domains (1 vCPU + %d JIT workers)\n%!"
        (List.length workloads) seeds domains (domains - 1);
      (* Single-domain references: the guest-visible outcome every
         concurrent run must reproduce. *)
      let refs =
        List.map
          (fun (name, kind, expected) ->
            let e, code = run_one ~config:base_config kind in
            if code <> expected then begin
              incr failures;
              shout
                (Printf.sprintf "stress: %s: reference exit %d, expected %d" name code expected)
            end;
            (name, (code, Captive.Engine.uart_output e)))
          workloads
      in
      let runs = ref 0 in
      List.iter
        (fun (name, kind, expected) ->
          let ref_code, ref_uart = List.assoc name refs in
          for seed = 1 to seeds do
            incr runs;
            let config =
              { base_config with
                Captive.Engine.domains;
                stress_seed = Some (Int64.of_int seed);
              }
            in
            let e, code = run_one ~config kind in
            let s = e.Captive.Engine.stats in
            let findings =
              match e.Captive.Engine.sanitizer with
              | Some sa -> Hvm.Sanitize.findings sa
              | None -> []
            in
            let uart_ok = String.equal (Captive.Engine.uart_output e) ref_uart in
            let ok = findings = [] && code = ref_code && code = expected && uart_ok in
            if not ok then begin
              incr failures;
              shout
                (Printf.sprintf
                   "stress: %s seed %d: exit %d (ref %d, expected %d), uart %s, %d sanitizer \
                    finding(s)"
                   name seed code ref_code expected
                   (if uart_ok then "ok" else "DIVERGED")
                   (List.length findings));
              List.iter
                (fun f -> shout (Printf.sprintf "  %s" (Hvm.Sanitize.string_of_finding f)))
                findings
            end;
            if json then
              Printf.printf
                "{\"kind\":\"run\",\"workload\":%s,\"seed\":%d,\"domains\":%d,\"exit\":%d,\"expected\":%d,\"exit_ref\":%d,\"uart_ok\":%b,\"findings\":%d,\"jobs_enqueued\":%d,\"jobs_completed\":%d,\"jobs_installed\":%d,\"jobs_stale\":%d,\"jobs_cancelled\":%d,\"jobs_dropped\":%d,\"smc_invalidations\":%d,\"async_jit_cycles\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"template_blocks\":%d,\"template_misses\":%d,\"ok\":%b}\n"
                (Dbt_util.Stats.json_string name)
                seed domains code expected ref_code uart_ok (List.length findings)
                s.Captive.Engine.jobs_enqueued s.Captive.Engine.jobs_completed
                s.Captive.Engine.jobs_installed s.Captive.Engine.jobs_stale
                s.Captive.Engine.jobs_cancelled s.Captive.Engine.jobs_dropped
                s.Captive.Engine.smc_invalidations
                (Captive.Engine.async_jit_cycles e)
                s.Captive.Engine.translate_cycles_template
                s.Captive.Engine.translate_cycles_pipeline s.Captive.Engine.template_blocks
                s.Captive.Engine.template_misses ok
            else
              say "%-12s seed %3d: exit %3d, jobs %d enq / %d inst / %d stale / %d cancelled%s\n"
                name seed code s.Captive.Engine.jobs_enqueued s.Captive.Engine.jobs_installed
                s.Captive.Engine.jobs_stale s.Captive.Engine.jobs_cancelled
                (if ok then "" else "  FAIL")
          done)
        workloads;
      if json then
        Printf.printf
          "{\"kind\":\"summary\",\"workloads\":%d,\"seeds\":%d,\"domains\":%d,\"runs\":%d,\"failures\":%d,\"gate\":%s}\n"
          (List.length workloads) seeds domains !runs !failures
          (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"));
      shout
        (Printf.sprintf "stress: %d run(s) at %d domains: %s" !runs domains
           (if !failures = 0 then "PASS" else "FAIL"));
      if !failures = 0 then `Ok ()
      else `Error (false, Printf.sprintf "stress: %d failure(s)" !failures)
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Race-focused stress lane: run the MMU-stress workloads on the concurrent JIT \
             with seeded install schedules, gated by the MMU sanitizer and single-domain \
             equivalence.")
    Term.(ret (const run $ json $ seeds $ domains))

(* --- bench --------------------------------------------------------------------------- *)

(* The CI perf-regression gate.  `bench --quick` runs a handful of
   loop-heavy SPEC proxies on three engines — Captive with tiering, Captive
   tier-0-only, and the QEMU-style reference engine — and emits one flat
   JSON object per workload plus a summary (`--json`), in exactly the
   shape `bench/baseline.json` is committed in.  When a baseline is
   available the verdict gates: the run fails if tiered Captive cycles on
   any workload regress by more than 5% over the baseline, or if the
   Captive-vs-QEMU speedup drops below baseline - 5%.  Scaling reuses the
   harness's BENCH_SCALE convention so the quick set stays under ~60s. *)

module MJ = Dbt_util.Minijson

let bench_quick_names = [ "462.libquantum"; "429.mcf"; "400.perlbench"; "458.sjeng" ]
let bench_full_names = bench_quick_names @ [ "445.gobmk"; "471.omnetpp"; "483.xalancbmk" ]

type bench_row = {
  br_name : string;
  br_exit_ok : bool;
  br_tiered : int; (* tiered Captive cycles *)
  br_untiered : int;
  br_qemu : int;
  br_speedup : float; (* qemu / tiered captive *)
  br_gain_pct : float; (* (untiered - tiered) / untiered * 100 *)
  br_hinstrs : int; (* host instrs interpreted, tiered *)
  br_hinstrs_u : int; (* host instrs interpreted, tier-0 only *)
  br_rf_loads : int; (* dynamic register-file loads, tiered *)
  br_rf_stores : int; (* dynamic register-file stores (incl. writebacks) *)
  br_exec : int; (* guest-execution cycles, tiered (cycles - jit) *)
  br_jit : int; (* total JIT cycles, tiered (sync + async) *)
  br_async_jit : int; (* JIT cycles charged from worker-domain installs *)
  br_resident_kb : int; (* guest RAM the tiered run touched (ungated) *)
  br_stats : Captive.Engine.phase_stats;
}

let bench_run_one ~scale ~domains ?hot_threshold name : bench_row =
  let user = (Workloads.Spec.find name).Workloads.Spec.build ~scale in
  let run_captive config = boot ~config ~max_cycles:50_000_000_000 (Arm_user user) in
  let e_t, code_t =
    let c = { Captive.Engine.default_config with Captive.Engine.domains } in
    let c =
      match hot_threshold with
      | Some h -> { c with Captive.Engine.hot_threshold = h }
      | None -> c
    in
    run_captive c
  in
  let e_u, code_u =
    run_captive { Captive.Engine.default_config with Captive.Engine.tiering = false }
  in
  let cy_u = Captive.Engine.cycles e_u in
  let e_q = Qemu_ref.Qemu_engine.create (Guest_arm.Arm.ops ()) in
  Workloads.Kernel.install (Workloads.Kernel.qemu_target e_q) ~user;
  let code_q =
    match Qemu_ref.Qemu_engine.run ~max_cycles:50_000_000_000 e_q with
    | Qemu_ref.Qemu_engine.Poweroff c -> c
    | _ -> -2
  in
  let cy_t = Captive.Engine.cycles e_t and cy_q = Qemu_ref.Qemu_engine.cycles e_q in
  {
    br_name = name;
    br_exit_ok = code_t = code_u && code_t = code_q && code_t >= 0;
    br_tiered = cy_t;
    br_untiered = cy_u;
    br_qemu = cy_q;
    br_speedup = float_of_int cy_q /. float_of_int (max 1 cy_t);
    br_gain_pct = 100. *. float_of_int (cy_u - cy_t) /. float_of_int (max 1 cy_u);
    br_hinstrs = e_t.Captive.Engine.ctx.Hostir.Exec.instrs_executed;
    br_hinstrs_u = e_u.Captive.Engine.ctx.Hostir.Exec.instrs_executed;
    br_rf_loads = e_t.Captive.Engine.ctx.Hostir.Exec.rf_loads;
    br_rf_stores = e_t.Captive.Engine.ctx.Hostir.Exec.rf_stores;
    br_exec = Captive.Engine.exec_cycles e_t;
    br_jit = Captive.Engine.jit_cycles e_t;
    br_async_jit = Captive.Engine.async_jit_cycles e_t;
    br_resident_kb = 4 * Hvm.Mem.resident_frames e_t.Captive.Engine.machine.Hvm.Machine.mem;
    br_stats = e_t.Captive.Engine.stats;
  }

(* translate_cpgi: simulated translate cycles per guest instruction
   translated — the ROADMAP's translation-cost metric, and what the
   template tier and the AOT warm-boot gate drive toward zero. *)
let bench_cpgi (s : Captive.Engine.phase_stats) =
  float_of_int s.Captive.Engine.translate_cycles
  /. float_of_int (max 1 s.Captive.Engine.guest_instrs_translated)

let bench_row_json r =
  let s = r.br_stats in
  (* Per-phase translate-time breakdown (milliseconds): lets the CI perf
     gate's artifact show where translate time went, so a regression in
     e.g. the analysis phase is attributable from the JSON alone.  The
     baseline gate itself reads only captive_cycles, speedup and
     translate_cpgi.  The translate ledger and wall timers are split per
     tier: template (tier minus one) vs pipeline (tier 0 + regions). *)
  let ms t = 1000. *. t in
  let cpgi = bench_cpgi s in
  Printf.sprintf
    "{\"kind\":\"workload\",\"name\":%s,\"exit_ok\":%b,\"captive_cycles\":%d,\"exec_cycles\":%d,\"jit_cycles\":%d,\"async_jit_cycles\":%d,\"captive_untiered_cycles\":%d,\"qemu_cycles\":%d,\"speedup\":%.4f,\"tiered_gain_pct\":%.2f,\"host_instrs\":%d,\"host_instrs_untiered\":%d,\"promotions\":%d,\"regions\":%d,\"region_blocks\":%d,\"region_entries\":%d,\"region_block_execs\":%d,\"region_dead_stores\":%d,\"rf_loads\":%d,\"rf_stores\":%d,\"rf_promoted\":%d,\"region_wb_entries\":%d,\"absint_branches_folded\":%d,\"absint_consts_folded\":%d,\"absint_masks_dropped\":%d,\"absint_dead_deleted\":%d,\"translate_cycles\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"translate_cpgi\":%.2f,\"template_blocks\":%d,\"template_instrs\":%d,\"template_misses\":%d,\"template_fallback_blocks\":%d,\"templates_mined\":%d,\"t_decode_ms\":%.2f,\"t_translate_ms\":%.2f,\"t_template_ms\":%.2f,\"t_tier0_ms\":%.2f,\"t_region_ms\":%.2f,\"t_regalloc_ms\":%.2f,\"t_encode_ms\":%.2f,\"t_validate_ms\":%.2f,\"t_analyze_ms\":%.2f,\"resident_kb\":%d}"
    (Dbt_util.Stats.json_string r.br_name)
    r.br_exit_ok r.br_tiered r.br_exec r.br_jit r.br_async_jit r.br_untiered r.br_qemu
    r.br_speedup r.br_gain_pct r.br_hinstrs
    r.br_hinstrs_u s.Captive.Engine.promotions s.Captive.Engine.regions_formed
    s.Captive.Engine.region_blocks s.Captive.Engine.region_entries
    s.Captive.Engine.region_block_execs s.Captive.Engine.region_dead_stores r.br_rf_loads
    r.br_rf_stores s.Captive.Engine.rf_promoted s.Captive.Engine.region_wb_entries
    s.Captive.Engine.absint_branches_folded s.Captive.Engine.absint_consts_folded
    s.Captive.Engine.absint_masks_dropped s.Captive.Engine.absint_dead_deleted
    s.Captive.Engine.translate_cycles
    s.Captive.Engine.translate_cycles_template s.Captive.Engine.translate_cycles_pipeline cpgi
    s.Captive.Engine.template_blocks s.Captive.Engine.template_instrs
    s.Captive.Engine.template_misses s.Captive.Engine.template_fallback_blocks
    s.Captive.Engine.templates_mined
    (ms s.Captive.Engine.t_decode)
    (ms s.Captive.Engine.t_translate) (ms s.Captive.Engine.t_template)
    (ms s.Captive.Engine.t_tier0) (ms s.Captive.Engine.t_region)
    (ms s.Captive.Engine.t_regalloc)
    (ms s.Captive.Engine.t_encode) (ms s.Captive.Engine.t_validate)
    (ms s.Captive.Engine.t_analyze)
    r.br_resident_kb

(* Parse a committed baseline: one flat JSON object per line, keyed by
   "name".  "captive_cycles", "speedup" and "translate_cpgi" (when
   present) gate with tolerance; "exec_cycles"/"jit_cycles" (when
   present) gate bit-exactly under --exact — the determinism lane's
   cycle-identity check. *)
let bench_load_baseline file :
    (string * (float * float * float option * (float * float) option)) list =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let rows = ref [] in
    (try
       while true do
         let line = input_line ic in
         match MJ.parse_line_opt line with
         | Some fields when MJ.find_string fields "kind" = Some "workload" -> (
           match
             (MJ.find_string fields "name", MJ.find_number fields "captive_cycles",
              MJ.find_number fields "speedup")
           with
           | Some n, Some c, Some s ->
             let xj =
               match
                 (MJ.find_number fields "exec_cycles", MJ.find_number fields "jit_cycles")
               with
               | Some x, Some j -> Some (x, j)
               | _ -> None
             in
             rows := (n, (c, s, MJ.find_number fields "translate_cpgi", xj)) :: !rows
           | _ -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

let bench_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per workload plus a summary line on stdout; the \
                 gate verdict goes to stderr.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Run the quick loop-heavy subset (under ~60s) used by the CI gate.")
  in
  let baseline =
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline to gate against (default: bench/baseline.json when present).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Determinism gate: additionally require exec_cycles and jit_cycles to be \
                 bit-identical to the baseline's (fails if the baseline lacks those \
                 fields).  Meaningful with --domains 1, where the cycle model is \
                 deterministic.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
           ~doc:"Domains for the tiered Captive engine (1 = synchronous JIT; D > 1 adds \
                 D-1 worker domains).")
  in
  let hot_threshold =
    Arg.(value & opt (some int) None & info [ "hot-threshold" ] ~docv:"N"
           ~doc:"Override the tiered engine's promotion threshold.  A large value keeps \
                 every block in the template/tier-0 stage — the CI cold-translate gate \
                 uses this to measure pure cold-boot translate cost.")
  in
  let run json quick baseline scale exact domains hot_threshold =
    let scale =
      if scale <> 1 then scale
      else try int_of_string (Sys.getenv "BENCH_SCALE") with _ -> 1
    in
    let names = if quick then bench_quick_names else bench_full_names in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    say "bench%s: %d workloads at scale %d, %d domain(s) (captive tiered / captive tier-0 / qemu)\n%!"
      (if quick then " --quick" else "")
      (List.length names) scale domains;
    let rows = List.map (bench_run_one ~scale ~domains ?hot_threshold) names in
    let failures = ref 0 in
    List.iter
      (fun r ->
        if json then print_endline (bench_row_json r)
        else
          say "%-16s captive %11d  tier-0 %11d  qemu %11d  speedup %5.2fx  tiered gain %+5.1f%%  (regions %d/%d blocks)%s\n"
            r.br_name r.br_tiered r.br_untiered r.br_qemu r.br_speedup r.br_gain_pct
            r.br_stats.Captive.Engine.regions_formed r.br_stats.Captive.Engine.region_blocks
            (if r.br_exit_ok then "" else "  EXIT MISMATCH");
        if not r.br_exit_ok then begin
          incr failures;
          shout (Printf.sprintf "bench: %s: engines disagree on exit code" r.br_name)
        end)
      rows;
    let geomean f =
      exp (List.fold_left (fun a r -> a +. log (max 1e-9 (f r))) 0. rows
           /. float_of_int (max 1 (List.length rows)))
    in
    let gm_speedup = geomean (fun r -> r.br_speedup) in
    let baseline_file =
      match baseline with
      | Some f -> f
      | None -> Filename.concat "bench" "baseline.json"
    in
    let base = bench_load_baseline baseline_file in
    let gate =
      if base = [] then begin
        if exact then begin
          incr failures;
          shout "bench: --exact requires a baseline with exec_cycles/jit_cycles"
        end;
        if exact then "fail" else "no-baseline"
      end
      else begin
        List.iter
          (fun r ->
            match List.assoc_opt r.br_name base with
            | None -> ()
            | Some (bc, bs, bcpgi, bxj) ->
              (* A --hot-threshold override changes the tiering policy, so
                 the absolute-cycles and speedup gates no longer compare
                 like with like; only translate_cpgi (what the override
                 exists to isolate) still gates. *)
              let comparable = hot_threshold = None in
              if comparable && float_of_int r.br_tiered > bc *. 1.05 then begin
                incr failures;
                shout
                  (Printf.sprintf
                     "bench: %s: captive cycles regressed >5%% (%d vs baseline %.0f)" r.br_name
                     r.br_tiered bc)
              end;
              if comparable && r.br_speedup < bs *. 0.95 then begin
                incr failures;
                shout
                  (Printf.sprintf
                     "bench: %s: captive-vs-qemu speedup %.2fx below baseline %.2fx - 5%%"
                     r.br_name r.br_speedup bs)
              end;
              (match bcpgi with
              | Some bt when bench_cpgi r.br_stats > bt *. 1.05 ->
                (* The cold-translate gate: templates must keep the
                   simulated translate cost per guest instruction from
                   creeping back up. *)
                incr failures;
                shout
                  (Printf.sprintf
                     "bench: %s: translate_cpgi regressed >5%% (%.1f vs baseline %.1f)"
                     r.br_name (bench_cpgi r.br_stats) bt)
              | _ -> ());
              if exact then begin
                match bxj with
                | None ->
                  incr failures;
                  shout
                    (Printf.sprintf
                       "bench: %s: --exact but baseline has no exec_cycles/jit_cycles"
                       r.br_name)
                | Some (bx, bj) ->
                  if float_of_int r.br_exec <> bx || float_of_int r.br_jit <> bj then begin
                    incr failures;
                    shout
                      (Printf.sprintf
                         "bench: %s: cycle split not bit-identical to baseline (exec %d vs \
                          %.0f, jit %d vs %.0f)"
                         r.br_name r.br_exec bx r.br_jit bj)
                  end
              end)
          rows;
        if !failures = 0 then "pass" else "fail"
      end
    in
    if json then
      Printf.printf
        "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"geomean_speedup\":%.4f,\"gate\":%s,\"failures\":%d}\n"
        (List.length rows) scale gm_speedup
        (Dbt_util.Stats.json_string gate)
        !failures;
    shout
      (Printf.sprintf "bench: geomean speedup %.2fx over qemu; gate vs %s: %s" gm_speedup
         (if base = [] then "(no baseline)" else baseline_file)
         (String.uppercase_ascii gate));
    if !failures = 0 then `Ok ()
    else `Error (false, Printf.sprintf "bench: %d gate failure(s)" !failures)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the perf benchmark set on all engines and gate against bench/baseline.json.")
    Term.(ret (const run $ json $ quick $ baseline $ scale_arg $ exact $ domains $ hot_threshold))

(* --- validate ------------------------------------------------------------------------ *)

(* --- checker sweeps (validate, analyze, relocheck) ----------------------------------- *)

(* The checker sweeps' workload matrix: name, program, expected exit
   code.  Each sweep boots every workload at every offline level O1-O4. *)
let sweep_workloads () =
  let spec name = Arm_user ((Workloads.Spec.find name).Workloads.Spec.build ~scale:1) in
  [ ("armv8-a-boot", Arm_user (demo_user ()), 0);
    ("armv8-a-mmu", Arm_user (Workloads.Mmu_stress.arm_user ()), Workloads.Mmu_stress.arm_expected_exit);
    ("armv8-a-libquantum", spec "462.libquantum", 8);
    ("armv8-a-mcf", spec "429.mcf", 0);
    ("armv8-a-perlbench", spec "400.perlbench", 212);
    ("armv8-a-sjeng", spec "458.sjeng", 35);
    ("armv8-a-gobmk", spec "445.gobmk", 64);
    ("armv8-a-omnetpp", spec "471.omnetpp", 220);
    ("armv8-a-xalancbmk", spec "483.xalancbmk", 0);
    ("rv64im-mmu", Riscv_mmu, Workloads.Mmu_stress.riscv_expected_exit);
  ]

let sweep_workload_arg =
  Arg.(value & opt string "all" & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Restrict to one workload (armv8-a-boot, armv8-a-mmu, rv64im-mmu or all).")

let sweep_level_arg =
  Arg.(value & opt int 0 & info [ "l"; "level" ] ~docv:"N"
         ~doc:"Restrict to one offline optimization level (1-4; 0 sweeps all).")

(* What one checker reports for one workload/level run: its finding
   count and log, and its own fields of the JSON and human rows. *)
type sweep_row = {
  sr_findings : int;
  sr_log : (string * string) list; (* newest first, as the engine keeps it *)
  sr_json : string;
  sr_human : string;
}

(* Run one checker sweep: boot the (filtered) matrix with [config], let
   [check] account each engine's counters into the summary, and fail on
   any finding or wrong guest exit code.  With [json], stdout carries
   one object per workload/level pair plus a summary line; findings go
   to stderr. *)
let checker_sweep ~cmd ~doing ~width ~config ~json ~workload ~level check =
  let failures = ref 0 in
  let summary = Counters.create () in
  let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
  let shout line = if json then prerr_endline line else print_endline line in
  let workloads =
    List.filter (fun (n, _, _) -> workload = "all" || workload = n) (sweep_workloads ())
  in
  let levels = List.filter (fun l -> level = 0 || level = l) [ 1; 2; 3; 4 ] in
  say "%s: %d workload(s) x %d level(s) with %s\n%!" cmd (List.length workloads)
    (List.length levels) doing;
  List.iter
    (fun level ->
      List.iter
        (fun (name, program, expected) ->
          let e, code = boot ~config ~level program in
          let row = check summary e in
          if row.sr_findings > 0 then begin
            failures := !failures + row.sr_findings;
            List.iter
              (fun (what, detail) ->
                shout (Printf.sprintf "  %s O%d %s\n    %s" name level what detail))
              (List.rev row.sr_log)
          end;
          if code <> expected then begin
            incr failures;
            shout (Printf.sprintf "  %s O%d: exit code %d, expected %d" name level code expected)
          end;
          if json then
            Printf.printf
              "{\"kind\":\"workload\",\"name\":%s,\"opt_level\":%d,\"exit\":%d,\"expected\":%d,%s}\n"
              (Dbt_util.Stats.json_string name)
              level code expected row.sr_json
          else say "%-*s O%d: exit %d (expected %d), %s\n%!" width name level code expected row.sr_human)
        workloads)
    levels;
  if json then
    Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"failures\":%d,\"counters\":%s}\n"
      (List.length workloads * List.length levels)
      !failures (Counters.to_json summary)
  else say "\n%s counters:\n%s" cmd (Counters.report summary);
  if !failures = 0 then begin
    if not json then Printf.printf "%s: no findings\n" cmd;
    `Ok ()
  end
  else `Error (false, Printf.sprintf "%s: %d finding(s)" cmd !failures)

(* End-to-end symbolic translation validation (Hostir.Equiv): boot the
   ARM mini-OS demo, the ARM MMU-stress workload and the RISC-V
   bare-metal MMU-stress image with `validate_translations` enabled, at
   every offline optimization level O1-O4.  Every tier-0 block (and, when
   tiering kicks in, every region) formed by the engine is symbolically
   executed alongside an unoptimized per-instruction reference emission
   from the same decode, and the exit states — PC, register file
   (promoted offsets equated through the writeback map), ordered store
   trace and helper-call arguments — are compared term-by-term.  Exit
   status is non-zero on any divergence finding or wrong guest exit
   code.  With --json, stdout carries one counter object per
   workload/level pair plus a summary line for the CI artifact;
   findings (with both term trees) go to stderr. *)

let validate_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one counter object per workload/level pair plus a summary line as \
                 JSON on stdout; divergence findings go to stderr.")
  in
  let every =
    Arg.(value & opt int 1 & info [ "every" ] ~docv:"N"
           ~doc:"Validate every Nth translated tier-0 block (regions are always \
                 validated).  1 validates everything.")
  in
  let run json every workload level =
    if every < 1 then `Error (true, "--every must be >= 1")
    else
      let config =
        { Captive.Engine.default_config with
          Captive.Engine.validate_translations = true;
          validate_every = every;
        }
      in
      checker_sweep ~cmd:"validate" ~doing:"symbolic translation validation" ~width:14 ~config
        ~json ~workload ~level (fun summary e ->
          let s = e.Captive.Engine.stats in
          let nb = s.Captive.Engine.blocks_validated in
          let nr = s.Captive.Engine.regions_validated in
          let nf = s.Captive.Engine.validation_findings in
          let nbd = s.Captive.Engine.validations_bounded in
          Counters.bump summary "programs validated" ~by:(nb + nr);
          Counters.bump summary "blocks validated" ~by:nb;
          Counters.bump summary "regions validated" ~by:nr;
          Counters.bump summary "divergence findings" ~by:nf;
          Counters.bump summary "bounded checks" ~by:nbd;
          let ms = 1000. *. s.Captive.Engine.t_validate in
          let per = ms /. float_of_int (max 1 (nb + nr)) in
          {
            sr_findings = nf;
            sr_log = e.Captive.Engine.validation_log;
            sr_json =
              Printf.sprintf
                "\"blocks_validated\":%d,\"regions_validated\":%d,\"findings\":%d,\"bounded\":%d,\"validate_ms\":%.1f,\"ms_per_program\":%.3f"
                nb nr nf nbd ms per;
            sr_human =
              Printf.sprintf
                "%4d blocks + %2d regions validated, %d finding(s), %d bounded, %6.1fms (%.2fms/program)"
                nb nr nf nbd ms per;
          })
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Symbolically validate every translation formed while running the ARM and \
             RISC-V workloads at O1-O4 against an unoptimized reference emission.")
    Term.(ret (const run $ json $ every $ sweep_workload_arg $ sweep_level_arg))

(* --- analyze ------------------------------------------------------------------------- *)

(* Translate-time abstract interpretation sweep (Hostir.Absint): the same
   workload matrix as `validate`, run with `analyze_translations`
   enabled.  Every tier-0 block and every flattened region the engine
   forms is pushed through the dataflow analyzer and checked against the
   static obligations — register-file accesses in bounds and aligned,
   spill-slot accesses inside the allocated frame, the promoted
   writeback discipline (dirty coverage, call barriers, staleness) — at
   every offline optimization level O1-O4.  Exit status is non-zero on
   any obligation finding or wrong guest exit code; with --json, stdout
   carries one counter object per workload/level pair plus a summary
   line for the CI artifact, and findings go to stderr. *)

let analyze_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one counter object per workload/level pair plus a summary line as \
                 JSON on stdout; obligation findings go to stderr.")
  in
  let run json workload level =
    let config =
      { Captive.Engine.default_config with Captive.Engine.analyze_translations = true }
    in
    checker_sweep ~cmd:"analyze" ~doing:"translate-time obligation checking" ~width:20 ~config
      ~json ~workload ~level (fun summary e ->
        let s = e.Captive.Engine.stats in
        let nb = s.Captive.Engine.blocks_analyzed in
        let nr = s.Captive.Engine.regions_analyzed in
        let nf = s.Captive.Engine.obligation_findings in
        Counters.bump summary "programs analyzed" ~by:(nb + nr);
        Counters.bump summary "blocks analyzed" ~by:nb;
        Counters.bump summary "regions analyzed" ~by:nr;
        Counters.bump summary "obligation findings" ~by:nf;
        Counters.bump summary "absint branches folded" ~by:s.Captive.Engine.absint_branches_folded;
        Counters.bump summary "absint consts folded" ~by:s.Captive.Engine.absint_consts_folded;
        Counters.bump summary "absint masks dropped" ~by:s.Captive.Engine.absint_masks_dropped;
        Counters.bump summary "absint dead deleted" ~by:s.Captive.Engine.absint_dead_deleted;
        let ms = 1000. *. s.Captive.Engine.t_analyze in
        let per = ms /. float_of_int (max 1 (nb + nr)) in
        {
          sr_findings = nf;
          sr_log = e.Captive.Engine.analysis_log;
          sr_json =
            Printf.sprintf
              "\"blocks_analyzed\":%d,\"regions_analyzed\":%d,\"findings\":%d,\"branches_folded\":%d,\"consts_folded\":%d,\"masks_dropped\":%d,\"dead_deleted\":%d,\"analyze_ms\":%.1f,\"ms_per_program\":%.3f"
              nb nr nf s.Captive.Engine.absint_branches_folded
              s.Captive.Engine.absint_consts_folded s.Captive.Engine.absint_masks_dropped
              s.Captive.Engine.absint_dead_deleted ms per;
          sr_human =
            Printf.sprintf
              "%5d blocks + %3d regions analyzed, %d finding(s), %6.1fms (%.3fms/program)" nb nr
              nf ms per;
        })
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Check translate-time static obligations (register-file bounds, frame bounds, \
             writeback discipline) on every translation formed while running the ARM and \
             RISC-V workloads at O1-O4.")
    Term.(ret (const run $ json $ sweep_workload_arg $ sweep_level_arg))

(* --- relocheck ----------------------------------------------------------------------- *)

(* Relocation-cleanliness sweep (Hostir.Reloc): the same workload matrix
   as `validate`/`analyze`, run with `reloc_check` enabled.  Every tier-0
   block and every region unit the engine forms is decoded back from its
   encoded bytes and classified operand by operand — no absolute host
   addresses in immediates (abs-host-addr), control leaves only through
   numbered chain/exit sites (unnumbered-exit), environment-relative
   references in bounds (env-immediate), helper references by stable
   symbol id (helper-by-addr) — and audited for encoding determinism:
   decode -> re-encode must reproduce the byte stream, and re-encoding
   the allocated instruction stream must too (nondet-encoding).  Clean
   programs receive the certificate the persistent AOT cache consumes;
   a single finding at any level is a hard failure, because a flagged
   translation must never be persisted. *)

let relocheck_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one counter object per workload/level pair plus a summary line as \
                 JSON on stdout; relocation findings go to stderr.")
  in
  let run json workload level =
    let config = { Captive.Engine.default_config with Captive.Engine.reloc_check = true } in
    checker_sweep ~cmd:"relocheck" ~doing:"relocation-cleanliness certification" ~width:20
      ~config ~json ~workload ~level (fun summary e ->
        let s = e.Captive.Engine.stats in
        let nb = s.Captive.Engine.blocks_certified in
        let nr = s.Captive.Engine.regions_certified in
        let nf = s.Captive.Engine.reloc_findings in
        Counters.bump summary "programs certified" ~by:(nb + nr);
        Counters.bump summary "blocks certified" ~by:nb;
        Counters.bump summary "regions certified" ~by:nr;
        Counters.bump summary "relocation findings" ~by:nf;
        let ms = 1000. *. s.Captive.Engine.t_reloc in
        let per = ms /. float_of_int (max 1 (nb + nr)) in
        {
          sr_findings = nf;
          sr_log = Captive.Engine.reloc_log e;
          sr_json =
            Printf.sprintf
              "\"blocks_certified\":%d,\"regions_certified\":%d,\"findings\":%d,\"relocheck_ms\":%.1f,\"ms_per_program\":%.3f"
              nb nr nf ms per;
          sr_human =
            Printf.sprintf
              "%5d blocks + %3d regions certified, %d finding(s), %6.1fms (%.3fms/program)" nb nr
              nf ms per;
        })
  in
  Cmd.v
    (Cmd.info "relocheck"
       ~doc:"Certify every translation formed while running the ARM and RISC-V workloads \
             at O1-O4 relocation-clean (no absolute host addresses, numbered exits only, \
             environment references in bounds, deterministic encoding).")
    Term.(ret (const run $ json $ sweep_workload_arg $ sweep_level_arg))

(* --- aot ----------------------------------------------------------------------------- *)

(* Warm-boot gate for the persistent AOT translation cache.  Each
   quick-bench workload runs twice against the same cache directory: a
   cold boot that translates everything and persists each certified
   translation, then a warm boot on a fresh engine that reinstalls the
   persisted code (guest bytes verified, certificate re-checked) instead
   of retranslating.  The gate: the warm boot must spend at most
   --max-ratio (default 10) percent of the cold boot's simulated
   translate cycles, guest-visible execution cycles (total minus
   JIT-charged) must be bit-identical — translation is pure overhead, so
   where the code came from must be invisible to the guest — exit codes
   must match, and the warm boot must reject nothing it stored. *)

let aot_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per workload plus a summary line on stdout; the \
                 gate verdict goes to stderr.")
  in
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Cache directory root (default: _captive_aot, wiped per workload before \
                 the cold run and removed afterwards unless --keep).")
  in
  let keep =
    Arg.(value & flag & info [ "keep" ]
           ~doc:"Keep the cache directory after the run instead of removing it.")
  in
  let max_ratio =
    Arg.(value & opt float 10.0 & info [ "max-ratio" ] ~docv:"PCT"
           ~doc:"Fail if warm-boot translate cycles exceed this percentage of cold.")
  in
  let run json dir keep max_ratio scale =
    let scale =
      if scale <> 1 then scale
      else try int_of_string (Sys.getenv "BENCH_SCALE") with _ -> 1
    in
    let root = match dir with Some d -> d | None -> "_captive_aot" in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let wipe d =
      if Sys.file_exists d && Sys.is_directory d then
        Array.iter
          (fun f -> if Filename.check_suffix f ".aot" then Sys.remove (Filename.concat d f))
          (Sys.readdir d)
    in
    let rmdir_if_empty d =
      if Sys.file_exists d && Sys.is_directory d && Array.length (Sys.readdir d) = 0 then
        Sys.rmdir d
    in
    let failures = ref 0 in
    say "aot: %d workloads at scale %d (cold boot stores, warm boot reloads; cache root %s)\n%!"
      (List.length bench_quick_names) scale root;
    let rows =
      List.map
        (fun name ->
          let user = (Workloads.Spec.find name).Workloads.Spec.build ~scale in
          let wdir = Filename.concat root name in
          wipe wdir;
          let boot () =
            let config =
              { Captive.Engine.default_config with Captive.Engine.aot_dir = Some wdir }
            in
            boot ~config ~max_cycles:50_000_000_000 (Arm_user user)
          in
          let e_c, code_c = boot () in
          let e_w, code_w = boot () in
          let sc = e_c.Captive.Engine.stats and sw = e_w.Captive.Engine.stats in
          let tc = sc.Captive.Engine.translate_cycles in
          let tw = sw.Captive.Engine.translate_cycles in
          let xc = Captive.Engine.exec_cycles e_c in
          let xw = Captive.Engine.exec_cycles e_w in
          let ratio = 100. *. float_of_int tw /. float_of_int (max 1 tc) in
          let ok =
            code_c = code_w && code_c >= 0 && xc = xw && ratio <= max_ratio
            && sw.Captive.Engine.aot_rejects = 0
            && sw.Captive.Engine.reloc_findings = 0
          in
          if not ok then begin
            incr failures;
            if code_c <> code_w || code_c < 0 then
              shout (Printf.sprintf "aot: %s: exit codes cold %d / warm %d" name code_c code_w);
            if xc <> xw then
              shout
                (Printf.sprintf "aot: %s: guest execution cycles differ (cold %d, warm %d)"
                   name xc xw);
            if ratio > max_ratio then
              shout
                (Printf.sprintf
                   "aot: %s: warm translate cycles %d are %.1f%% of cold %d (limit %.0f%%)"
                   name tw ratio tc max_ratio);
            if sw.Captive.Engine.aot_rejects > 0 then
              shout
                (Printf.sprintf "aot: %s: warm boot rejected %d cache entr(ies)" name
                   sw.Captive.Engine.aot_rejects);
            if sw.Captive.Engine.reloc_findings > 0 then begin
              shout
                (Printf.sprintf "aot: %s: %d relocation finding(s)" name
                   sw.Captive.Engine.reloc_findings);
              List.iter
                (fun (what, detail) ->
                  shout (Printf.sprintf "  %s %s\n    %s" name what detail))
                (List.rev (Captive.Engine.reloc_log e_w))
            end
          end;
          if json then
            Printf.printf
              "{\"kind\":\"workload\",\"name\":%s,\"ok\":%b,\"exit_cold\":%d,\"exit_warm\":%d,\"cold_translate_cycles\":%d,\"warm_translate_cycles\":%d,\"warm_ratio_pct\":%.2f,\"cold_template_cycles\":%d,\"cold_pipeline_cycles\":%d,\"warm_template_cycles\":%d,\"warm_pipeline_cycles\":%d,\"template_blocks_cold\":%d,\"template_blocks_warm\":%d,\"exec_cycles_cold\":%d,\"exec_cycles_warm\":%d,\"exec_identical\":%b,\"aot_stores\":%d,\"aot_hits\":%d,\"aot_misses\":%d,\"aot_rejects\":%d,\"cache_entries\":%d}\n"
              (Dbt_util.Stats.json_string name)
              ok code_c code_w tc tw ratio sc.Captive.Engine.translate_cycles_template
              sc.Captive.Engine.translate_cycles_pipeline
              sw.Captive.Engine.translate_cycles_template
              sw.Captive.Engine.translate_cycles_pipeline sc.Captive.Engine.template_blocks
              sw.Captive.Engine.template_blocks xc xw (xc = xw) sc.Captive.Engine.aot_stores
              sw.Captive.Engine.aot_hits sw.Captive.Engine.aot_misses
              sw.Captive.Engine.aot_rejects
              (Captive.Engine.aot_entry_count e_w)
          else
            say
              "%-16s cold translate %9d  warm %7d (%5.1f%%)  exec %11d %s  stored %3d, reloaded %3d%s\n"
              name tc tw ratio xc
              (if xc = xw then "==" else "!=")
              sc.Captive.Engine.aot_stores sw.Captive.Engine.aot_hits
              (if ok then "" else "  FAIL");
          if not keep then begin
            wipe wdir;
            rmdir_if_empty wdir
          end;
          (name, ok))
        bench_quick_names
    in
    if not keep then rmdir_if_empty root;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"failures\":%d,\"gate\":%s}\n"
        (List.length rows) scale !failures
        (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"));
    shout
      (Printf.sprintf "aot: warm-boot gate (<= %.0f%% of cold translate cycles, \
                       bit-identical execution): %s"
         max_ratio
         (if !failures = 0 then "PASS" else "FAIL"));
    if !failures = 0 then `Ok ()
    else `Error (false, Printf.sprintf "aot: %d gate failure(s)" !failures)
  in
  Cmd.v
    (Cmd.info "aot"
       ~doc:"Run each quick-bench workload cold then warm against the same persistent AOT \
             cache and gate: warm translate cycles <= 10% of cold, guest execution cycles \
             bit-identical, nothing rejected.")
    Term.(ret (const run $ json $ dir $ keep $ max_ratio $ scale_arg))

(* --- mine-templates ------------------------------------------------------------------ *)

(* Offline template mining: run every decode entry's witness encoding
   through the template miner (the same table the engine builds lazily
   at translate time) and report the per-form result — variants, pinned
   fields, holes, host instructions, and untemplatable forms with the
   reason.  This is the offline counterpart of the engine's on-demand
   mining: the translate-time cost model charges zero simulated cycles
   for mining because this subcommand can build the identical table
   ahead of time. *)
let guest_arg =
  Arg.(value & opt string "all" & info [ "guest" ] ~docv:"GUEST"
         ~doc:"Guest model to mine: armv8-a, rv64im or all.")

let mine_templates_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per (form, MMU regime) plus a summary per guest.")
  in
  let run json guest_name =
    let guests =
      match guest_name with
      | "all" -> [ Guest_arm.Arm.ops (); Guest_riscv.Riscv.ops () ]
      | "armv8-a" | "arm" -> [ Guest_arm.Arm.ops () ]
      | "rv64im" | "riscv" -> [ Guest_riscv.Riscv.ops () ]
      | s -> failwith (Printf.sprintf "unknown guest %S (armv8-a|rv64im|all)" s)
    in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    List.iter
      (fun (guest : Guest.Ops.ops) ->
        let e = Captive.Engine.create guest in
        let tt = Captive.Engine.template_table e in
        let model = guest.Guest.Ops.model in
        let mined = ref 0 and missed = ref 0 in
        (* One witness per decode entry: the entry's own match value is
           an encoding that selects it (more specific entries may still
           shadow it — the decoder, not the miner, owns that choice). *)
        List.iter
          (fun (entry : Adl.Decode.entry) ->
            match Ssa.Offline.decode model entry.Adl.Decode.value with
            | None -> ()
            | Some d ->
              let action = Ssa.Offline.action model d.Adl.Decode.name in
              let inc_pc =
                if d.Adl.Decode.ends_block then None else Some guest.Guest.Ops.insn_size
              in
              List.iter
                (fun (el, mmu_on) ->
                  let field = Captive.Jit.field_of ~el d in
                  match
                    Hostir.Template.fragment tt ~action ~name:d.Adl.Decode.name ~inc_pc
                      ~mmu_on ~field
                  with
                  | Hostir.Template.Hit _ -> ()
                  | Hostir.Template.Mined _ -> incr mined
                  | Hostir.Template.Miss _ -> incr missed)
                [ (0, false); (0, true); (1, false); (1, true) ])
          model.Ssa.Offline.decoder.Adl.Decode.entries;
        let report = Captive.Engine.template_report e in
        let live = List.filter (fun r -> r.Hostir.Template.fr_dead = None) report in
        let dead = List.filter (fun r -> r.Hostir.Template.fr_dead <> None) report in
        if json then
          List.iter
            (fun (r : Hostir.Template.form_report) ->
              Printf.printf
                "{\"kind\":\"form\",\"guest\":%s,\"name\":%s,\"mmu\":%b,\"variants\":%d,\"pins\":%d,\"host_instrs\":%d,\"holes\":%d,\"dead\":%s}\n"
                (Dbt_util.Stats.json_string guest.Guest.Ops.name)
                (Dbt_util.Stats.json_string r.Hostir.Template.fr_name)
                r.Hostir.Template.fr_mmu r.Hostir.Template.fr_variants
                r.Hostir.Template.fr_pins r.Hostir.Template.fr_host_instrs
                r.Hostir.Template.fr_holes
                (match r.Hostir.Template.fr_dead with
                | None -> "null"
                | Some reason -> Dbt_util.Stats.json_string reason))
            report
        else begin
          say "\n=== %s: %d forms mined (%d live, %d untemplatable) ===\n\n"
            guest.Guest.Ops.name (List.length report) (List.length live) (List.length dead);
          say "%-28s %4s %9s %5s %11s %6s\n" "form" "mmu" "variants" "pins" "host-instrs"
            "holes";
          List.iter
            (fun (r : Hostir.Template.form_report) ->
              say "%-28s %4s %9d %5d %11d %6d\n" r.Hostir.Template.fr_name
                (if r.Hostir.Template.fr_mmu then "on" else "off")
                r.Hostir.Template.fr_variants r.Hostir.Template.fr_pins
                r.Hostir.Template.fr_host_instrs r.Hostir.Template.fr_holes)
            live;
          if dead <> [] then begin
            say "\nuntemplatable forms (cold-pipeline fallback):\n";
            List.iter
              (fun (r : Hostir.Template.form_report) ->
                say "  %-28s %s\n" r.Hostir.Template.fr_name
                  (Option.value ~default:"?" r.Hostir.Template.fr_dead))
              dead
          end
        end;
        if json then
          Printf.printf
            "{\"kind\":\"summary\",\"guest\":%s,\"forms\":%d,\"live\":%d,\"dead\":%d,\"variants\":%d,\"fragments_mined\":%d,\"witness_misses\":%d}\n"
            (Dbt_util.Stats.json_string guest.Guest.Ops.name)
            (List.length report) (List.length live) (List.length dead)
            (Hostir.Template.variant_count tt)
            !mined !missed
        else
          say "\n%s: %d template variants live, %d witness encodings untemplatable\n"
            guest.Guest.Ops.name
            (Hostir.Template.variant_count tt)
            !missed)
      guests;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "mine-templates"
       ~doc:"Mine the per-opcode translation template table offline and report per-form \
             variants, pins, holes and untemplatable forms.")
    Term.(ret (const run $ json $ guest_arg))

(* --- templates (coverage report) ------------------------------------------------------- *)

(* Template-tier coverage: run the quick-bench workloads (plus the two
   MMU-stress images) and report, per workload, the share of translated
   guest instructions served by the template tier, with a per-opcode
   miss table for whatever fell back to the cold pipeline. *)
let templates_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per workload plus a summary line.")
  in
  let min_coverage =
    Arg.(value & opt float 0. & info [ "min-coverage" ] ~docv:"PCT"
           ~doc:"Fail if any workload's template coverage (percent of translated guest \
                 instructions served by the template tier) falls below this.")
  in
  let hot_threshold =
    Arg.(value & opt (some int) None & info [ "hot-threshold" ] ~docv:"N"
           ~doc:"Override the promotion threshold (a large value isolates the cold path: \
                 no promotion-time pipeline re-translation in the denominator).")
  in
  let run json min_coverage hot_threshold scale =
    let scale =
      if scale <> 1 then scale
      else try int_of_string (Sys.getenv "BENCH_SCALE") with _ -> 1
    in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let config =
      let c = Captive.Engine.default_config in
      match hot_threshold with
      | Some h -> { c with Captive.Engine.hot_threshold = h }
      | None -> c
    in
    let run_workload = function
      | `Spec name ->
        let user = (Workloads.Spec.find name).Workloads.Spec.build ~scale in
        let e, code = boot ~config ~max_cycles:50_000_000_000 (Arm_user user) in
        (name, e, code)
      | `Arm_mmu ->
        let e, code = boot ~config (Arm_user (Workloads.Mmu_stress.arm_user ())) in
        ("armv8-a-mmu", e, code)
      | `Riscv_mmu ->
        let e, code = boot ~config Riscv_mmu in
        ("rv64im-mmu", e, code)
    in
    let workloads =
      List.map (fun n -> `Spec n) bench_quick_names @ [ `Arm_mmu; `Riscv_mmu ]
    in
    let failures = ref 0 in
    let coverages = ref [] in
    say "templates: coverage over %d workloads at scale %d%s\n%!" (List.length workloads)
      scale
      (match hot_threshold with
      | Some h -> Printf.sprintf " (hot threshold %d)" h
      | None -> "");
    List.iter
      (fun w ->
        let name, e, code = run_workload w in
        let s = e.Captive.Engine.stats in
        let covered = s.Captive.Engine.template_instrs in
        let total = s.Captive.Engine.guest_instrs_translated in
        let pct = 100. *. float_of_int covered /. float_of_int (max 1 total) in
        coverages := pct :: !coverages;
        let misses = Captive.Engine.template_miss_table e in
        if code < 0 then begin
          incr failures;
          shout (Printf.sprintf "templates: %s: abnormal exit %d" name code)
        end;
        if pct < min_coverage then begin
          incr failures;
          shout
            (Printf.sprintf "templates: %s: coverage %.1f%% below --min-coverage %.1f%%" name
               pct min_coverage)
        end;
        if json then begin
          let miss_json =
            String.concat ","
              (List.map
                 (fun (op, n) ->
                   Printf.sprintf "{\"op\":%s,\"count\":%d}" (Dbt_util.Stats.json_string op) n)
                 misses)
          in
          Printf.printf
            "{\"kind\":\"workload\",\"name\":%s,\"exit\":%d,\"coverage_pct\":%.2f,\"template_instrs\":%d,\"guest_instrs_translated\":%d,\"template_blocks\":%d,\"blocks_translated\":%d,\"template_fallback_blocks\":%d,\"template_misses\":%d,\"templates_mined\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"misses\":[%s]}\n"
            (Dbt_util.Stats.json_string name)
            code pct covered total s.Captive.Engine.template_blocks
            s.Captive.Engine.blocks_translated s.Captive.Engine.template_fallback_blocks
            s.Captive.Engine.template_misses s.Captive.Engine.templates_mined
            s.Captive.Engine.translate_cycles_template
            s.Captive.Engine.translate_cycles_pipeline miss_json
        end
        else begin
          say "%-16s coverage %5.1f%%  (%d/%d instrs, %d/%d blocks, %d mined)%s\n" name pct
            covered total s.Captive.Engine.template_blocks
            s.Captive.Engine.blocks_translated s.Captive.Engine.templates_mined
            (if code >= 0 then "" else "  ABNORMAL EXIT");
          List.iteri
            (fun i (op, n) -> if i < 8 then say "    miss %-24s x%d\n" op n)
            misses
        end)
      workloads;
    let min_pct = List.fold_left min 100. !coverages in
    if json then
      Printf.printf
        "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"min_coverage_pct\":%.2f,\"gate\":%s,\"failures\":%d}\n"
        (List.length workloads) scale min_pct
        (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"))
        !failures;
    shout
      (Printf.sprintf "templates: min coverage %.1f%% over %d workloads: %s" min_pct
         (List.length workloads)
         (if !failures = 0 then "PASS" else "FAIL"));
    if !failures = 0 then `Ok ()
    else `Error (false, Printf.sprintf "templates: %d failure(s)" !failures)
  in
  Cmd.v
    (Cmd.info "templates"
       ~doc:"Report template-tier coverage per workload (share of translated guest \
             instructions served by templates) with a per-opcode miss table.")
    Term.(ret (const run $ json $ min_coverage $ hot_threshold $ scale_arg))

let () =
  let doc = "Retargetable system-level DBT hypervisor (Captive reproduction)" in
  let man =
    [ `S Manpage.s_synopsis;
      `P "$(mname) $(b,spec) $(i,BENCHMARK) [$(b,--engine) $(i,ENGINE)] [$(b,--scale) $(i,N)]";
      `Noblank; `P "$(mname) $(b,simbench) [$(i,CATEGORY)]";
      `Noblank; `P "$(mname) $(b,boot) [$(b,--engine) $(i,ENGINE)]";
      `Noblank; `P "$(mname) $(b,info)";
      `Noblank; `P "$(mname) $(b,ssa) $(i,INSTRUCTION) [$(b,--level) $(i,N)] [$(b,--guest) $(i,GUEST)] [$(b,--classify)]";
      `Noblank; `P "$(mname) $(b,lint) [$(b,--guest) $(i,GUEST)] [$(b,--json)]";
      `Noblank; `P "$(mname) $(b,mmucheck) [$(b,--json)] [$(b,--guard)] [$(b,--every) $(i,N)]";
      `Noblank; `P "$(mname) $(b,stress) [$(b,--json)] [$(b,--seeds) $(i,N)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,bench) [$(b,--quick)] [$(b,--json)] [$(b,--baseline) $(i,FILE)] [$(b,--exact)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,validate) [$(b,--json)] [$(b,--every) $(i,N)]";
      `Noblank; `P "$(mname) $(b,analyze) [$(b,--json)] [$(b,--workload) $(i,NAME)] [$(b,--level) $(i,N)]";
      `Noblank; `P "$(mname) $(b,relocheck) [$(b,--json)] [$(b,--workload) $(i,NAME)] [$(b,--level) $(i,N)]";
      `Noblank; `P "$(mname) $(b,aot) [$(b,--json)] [$(b,--dir) $(i,DIR)] [$(b,--keep)] [$(b,--max-ratio) $(i,PCT)]";
      `Noblank; `P "$(mname) $(b,mine-templates) [$(b,--json)] [$(b,--guest) $(i,GUEST)]";
      `Noblank; `P "$(mname) $(b,templates) [$(b,--json)] [$(b,--min-coverage) $(i,PCT)] [$(b,--hot-threshold) $(i,N)]";
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "captive_run" ~doc ~man)
          [ spec_cmd; simbench_cmd; boot_cmd; info_cmd; ssa_cmd; lint_cmd; mmucheck_cmd;
            stress_cmd; bench_cmd; validate_cmd; analyze_cmd; relocheck_cmd; aot_cmd;
            mine_templates_cmd; templates_cmd ]))
