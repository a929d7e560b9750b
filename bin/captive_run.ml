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
     captive_run check --json
     captive_run aot --json

   Every subcommand that runs guests is a loop over workloads from
   Workloads.Registry, run through Workloads.Runner on one or more
   engines and configurations, with one row per run.  `spec` runs a SPEC
   CPU2006 proxy under the mini guest OS, `simbench` one SimBench
   category on both engines, `boot` a demo user program on the mini-OS,
   `info` prints the loaded guest models, `ssa` dumps an instruction's
   optimized SSA (the offline artifact of Fig. 6), `lint` statically
   verifies the whole offline pipeline (decode tables, SSA after every
   pass at O1-O4, and post-regalloc HostIR) for every guest model,
   `mmucheck` runs the MMU-stress workloads with the online
   shadow-oracle sanitizer (page tables, TLB, frame accounting,
   code-cache W^X, ring transitions) enabled, `stress` is the
   race-focused lane for the concurrent JIT (seeded drain schedules on
   worker domains, sanitizer + single-domain equivalence as oracles),
   `bench` is the CI perf-regression gate against bench/baseline.json
   (with --exact, the determinism gate: exec/jit cycle bit-identity at
   --domains 1), `check` runs the three translate-time checkers in one
   pass over every translation formed while booting the check workloads
   at O1-O4 — symbolic equivalence against an unoptimized reference
   emission (Hostir.Equiv), static obligations (Hostir.Absint) and
   relocation cleanliness (Hostir.Reloc: no absolute host addresses,
   numbered exits only, environment references in bounds, deterministic
   encoding) — and `aot` is the persistent-cache warm-boot gate: each
   quick workload runs cold then warm against the same on-disk AOT
   cache, and the warm boot must spend <= 10% of the cold boot's
   translate cycles with bit-identical guest-visible execution.  At
   scale 1 every gate also checks each run's exit code against the
   registry. *)

open Cmdliner
module CE = Captive.Engine
module R = Workloads.Runner
module W = Workloads.Registry
module Counters = Dbt_util.Stats.Counters

let engine_arg =
  (* enum also takes unambiguous prefixes, so "ref" still names the interpreter *)
  let engines = [ ("captive", R.captive); ("qemu", R.qemu); ("reference", R.Reference) ] in
  Arg.(value & opt (enum engines) R.captive & info [ "e"; "engine" ] ~docv:"ENGINE"
         ~doc:"DBT engine: captive, qemu or reference.")

let scale_arg =
  let positive = Arg.conv' (Workloads.Spec.parse_scale, Format.pp_print_int) in
  Arg.(value & opt positive 1 & info [ "s"; "scale" ] ~docv:"N"
         ~doc:"Workload scale factor (a positive integer).")

(* A workload-name argument resolved through the registry: an unknown
   name is a usage error that lists the valid ones. *)
let workload_conv ws =
  let names = Arg.enum (List.map (fun n -> (n, n)) (W.names ws)) in
  Arg.conv
    ( (fun s -> Result.map W.find (Arg.conv_parser names s)),
      fun ppf (w : W.entry) -> Format.pp_print_string ppf w.W.name )

(* The guest models a model-wide subcommand covers: one, or all. *)
let guests_arg names what =
  let both = [ R.Arm; R.Riscv ] in
  let guests = [ ("all", both); ("armv8-a", [ R.Arm ]); ("rv64im", [ R.Riscv ]) ] in
  Arg.(value & opt (enum guests) both & info names ~docv:"GUEST"
         ~doc:(Printf.sprintf "Guest model to %s: armv8-a, rv64im or all." what))

(* In JSON mode stdout carries only JSON: progress is dropped and gate
   messages go to stderr. *)
let say json fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt
let shout json line = if json then prerr_endline line else print_endline line

let verdict what failures =
  if failures = 0 then `Ok () else `Error (false, Printf.sprintf "%s: %d failure(s)" what failures)

let verbose_stats_captive (e : CE.t) =
  let s = e.CE.stats in
  Printf.printf "cycles: %d\n" (CE.cycles e);
  Printf.printf "blocks: executed %d, translated %d, chain hits %d\n" s.CE.blocks_executed
    s.CE.blocks_translated s.CE.chain_hits;
  Printf.printf "guest instrs translated: %d -> host instrs %d (%.1f/guest), %d bytes\n"
    s.CE.guest_instrs_translated s.CE.host_instrs_emitted
    (float_of_int s.CE.host_instrs_emitted /. float_of_int (max 1 s.CE.guest_instrs_translated))
    s.CE.host_bytes_emitted;
  Printf.printf "host page faults: %d, SMC invalidations: %d\n"
    e.CE.machine.Hvm.Machine.faults s.CE.smc_invalidations;
  Printf.printf "JIT wall time: decode %.1fms translate %.1fms regalloc %.1fms encode %.1fms\n"
    (1000. *. s.CE.t_decode) (1000. *. s.CE.t_translate) (1000. *. s.CE.t_regalloc)
    (1000. *. s.CE.t_encode);
  if s.CE.template_blocks > 0 then
    Printf.printf
      "template tier: %d blocks (%d instrs) stitched, %d mined, %d misses; translate cycles \
       %d template / %d pipeline\n"
      s.CE.template_blocks s.CE.template_instrs s.CE.templates_mined s.CE.template_misses
      s.CE.translate_cycles_template s.CE.translate_cycles_pipeline

let run_workload engine ~scale w =
  let o = W.boot ~scale engine w in
  print_string o.R.uart;
  let exit = R.exit_to_string o.R.exit in
  match o.R.handle with
  | R.Captive_h e ->
    Printf.printf "exit code: %s\n" exit;
    verbose_stats_captive e
  | R.Qemu_h _ -> Printf.printf "exit code: %s\ncycles: %d\n" exit o.R.cycles
  | R.Reference_h r ->
    Printf.printf "exit code: %s (interpreted %d instructions)\n" exit
      r.Captive.Reference.instrs_executed

(* --- spec ------------------------------------------------------------------- *)

let spec_cmd =
  let specs = W.select [ W.Spec_int; W.Spec_fp ] in
  let bench =
    Arg.(required & pos 0 (some (workload_conv specs)) None & info [] ~docv:"BENCHMARK"
           ~doc:(Printf.sprintf "One of: %s" (String.concat ", " (W.names specs))))
  in
  let run w engine scale = run_workload engine ~scale w in
  Cmd.v (Cmd.info "spec" ~doc:"Run a SPEC CPU2006 proxy under the mini guest OS.")
    Term.(const run $ bench $ engine_arg $ scale_arg)

(* --- simbench ------------------------------------------------------------------ *)

let simbench_cmd =
  let which = Arg.(value & pos 0 (some string) None & info [] ~docv:"CATEGORY") in
  let run which =
    let selected =
      List.filter
        (fun (w : W.entry) ->
          match which with
          | None -> true
          | Some n -> String.lowercase_ascii w.W.name = String.lowercase_ascii n)
        (W.select [ W.Simbench ])
    in
    let failures = ref 0 in
    List.iter
      (fun (w : W.entry) ->
        let c = W.boot R.captive w and q = W.boot R.qemu w in
        Printf.printf "%-20s captive %8dk  qemu %8dk  speed-up %.2fx\n%!" w.W.name
          (c.R.cycles / 1000) (q.R.cycles / 1000)
          (float_of_int q.R.cycles /. float_of_int c.R.cycles);
        List.iter
          (fun (engine, (o : R.outcome)) ->
            if not (W.exit_ok ~scale:1 w o.R.exit) then begin
              incr failures;
              Printf.eprintf "simbench: %s: %s exited %s\n" w.W.name engine
                (R.exit_to_string o.R.exit)
            end)
          [ ("captive", c); ("qemu", q) ])
      selected;
    match selected with
    | [] -> `Error (false, "unknown SimBench category")
    | _ -> verdict "simbench" !failures
  in
  Cmd.v (Cmd.info "simbench" ~doc:"Run SimBench categories on both engines.")
    Term.(ret (const run $ which))

(* --- boot ----------------------------------------------------------------------- *)

let boot_cmd =
  let run engine = run_workload engine ~scale:1 (W.find "armv8-a-boot") in
  Cmd.v (Cmd.info "boot" ~doc:"Boot the mini guest OS with a demo user program.")
    Term.(const run $ engine_arg)

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
      [ R.ops R.Arm; R.ops R.Riscv ]
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
      | "rv64im" -> Guest_riscv.Riscv.model_at_level level
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

let lint_guest ~json c failures (ops : Guest.Ops.ops) =
  let arch = ops.Guest.Ops.model.Ssa.Offline.arch in
  let gname = ops.Guest.Ops.name in
  say json "linting %s: %d decode entries, %d execute actions\n%!" gname
    (List.length arch.Adl.Ast.a_decodes)
    (List.length arch.Adl.Ast.a_executes);
  (* 1. decode table *)
  Counters.bump c "decode entries checked" ~by:(List.length arch.Adl.Ast.a_decodes);
  List.iter
    (fun v ->
      incr failures;
      Counters.bump c "decode-table violations";
      shout json (Printf.sprintf "  %s: %s" gname (Adl.Declint.string_of_violation v)))
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
                  shout json
                    (Printf.sprintf "  %s O%d %s: %s" gname level kind
                       (Ssa.Absint.string_of_finding f)))
                fs
            in
            report "validator" findings;
            report "range-check" rfindings
          with Ssa.Verify.Invalid { action = aname; phase; violations } ->
            incr failures;
            Counters.bump c "ssa violations" ~by:(List.length violations);
            shout json
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
          shout json (Hostir.Verify.report ~what:(gname ^ "/" ^ aname) violations)))
    ops.Guest.Ops.model.Ssa.Offline.actions

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit counters as JSON on stdout (one object per guest plus a \
                 summary line); violations go to stderr.")
  in
  let run guests json =
    let guests = List.map (fun g -> R.ops g) guests in
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
    if !failures = 0 && not json then print_endline "lint: no violations";
    verdict "lint" !failures
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify decode tables, SSA passes (O1-O4) and HostIR for every guest.")
    Term.(ret (const run $ guests_arg [ "g"; "guest" ] "lint" $ json))

(* --- mmucheck ------------------------------------------------------------------------ *)

(* Online counterpart of `lint`: boot the MMU-stress workloads with the
   shadow-oracle sanitizer (Hvm.Sanitize) enabled — checkpointing at
   every host fault, flush, SMC invalidation and every
   [sanitize_every] translated blocks — and report the per-checker
   counters.  All five checkers run at every checkpoint: page tables vs.
   shadow, TLB derivability, frame accounting, code cache W^X/content
   coherence, and the ring audit.  Exit status is non-zero on any
   finding or on a wrong guest exit code.

   --guard reruns the ARM workload with the sanitizer off and asserts
   that cycle counts and exit codes match the sanitized run exactly:
   the sanitizer charges no cycles and perturbs no statistics, so
   sanitizer-off throughput is the engine's unmodified cycle model. *)

(* Sanitizer findings after one final sweep, so even a quiet run ends
   with a checkpoint. *)
let sanitizer_findings e =
  CE.sanitize_check e ~reason:"final";
  match e.CE.sanitizer with Some s -> Hvm.Sanitize.findings s | None -> []

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
  let run json guard =
    let failures = ref 0 in
    let summary = Counters.create () in
    let fail line = incr failures; shout json line in
    let boot ~sanitize w = W.boot (R.Captive { CE.default_config with CE.sanitize }) w in
    let workloads = W.select [ W.Mmu_stress ] in
    let runs =
      List.map
        (fun (w : W.entry) ->
          say json "mmucheck: %s under the shadow-oracle sanitizer\n%!" w.W.name;
          let o = boot ~sanitize:true w in
          let e = R.captive_of o in
          let fnd = sanitizer_findings e in
          List.iter
            (fun f -> fail (Printf.sprintf "  %s: %s" w.W.name (Hvm.Sanitize.string_of_finding f)))
            fnd;
          let exit = R.exit_to_string o.R.exit in
          if not (W.exit_ok ~scale:1 w o.R.exit) then
            fail (Printf.sprintf "  %s: exit code %s, expected %d" w.W.name exit w.W.expected);
          let c = Hvm.Sanitize.counters (Option.get e.CE.sanitizer) in
          List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (Counters.to_list c);
          if json then
            Printf.printf
              "{\"kind\":\"workload\",\"name\":%s,\"exit\":%s,\"expected\":%d,\"findings\":%d,\"counters\":%s}\n"
              (Dbt_util.Stats.json_string w.W.name) (R.exit_json o.R.exit) w.W.expected
              (List.length fnd) (Counters.to_json c)
          else
            say json "%s: exit %s (expected %d), %d finding(s)\n%s\n" w.W.name exit w.W.expected
              (List.length fnd) (Counters.report c);
          (w, o))
        workloads
    in
    if guard then begin
      let w, on = List.find (fun ((w : W.entry), _) -> w.W.guest = R.Arm) runs in
      let off = boot ~sanitize:false w in
      let ok = off.R.exit = on.R.exit && off.R.cycles = on.R.cycles in
      let x_off = R.exit_json off.R.exit and x_on = R.exit_json on.R.exit in
      if not ok then
        fail
          (Printf.sprintf
             "  guard: sanitizer perturbs execution (off: exit %s, %d cycles; on: exit %s, %d cycles)"
             x_off off.R.cycles x_on on.R.cycles);
      if json then
        Printf.printf
          "{\"kind\":\"guard\",\"cycles_off\":%d,\"cycles_on\":%d,\"exit_off\":%s,\"exit_on\":%s,\"ok\":%b}\n"
          off.R.cycles on.R.cycles x_off x_on ok
      else
        say json "guard: sanitizer-off cycles %d, sanitizer-on cycles %d: %s\n" off.R.cycles
          on.R.cycles
          (if ok then "identical" else "MISMATCH")
    end;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"findings\":%d,\"counters\":%s}\n"
        (List.length workloads) !failures (Counters.to_json summary)
    else say json "\nmmucheck counters:\n%s" (Counters.report summary);
    if !failures = 0 && not json then print_endline "mmucheck: no findings";
    verdict "mmucheck" !failures
  in
  Cmd.v
    (Cmd.info "mmucheck"
       ~doc:"Run the ARM and RISC-V MMU-stress workloads under the shadow-oracle sanitizer.")
    Term.(ret (const run $ json $ guard))

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
      let fail line = incr failures; shout json line in
      (* Hot threshold 4: the stress workloads cross it early and often,
         so the job queue, the install path and SMC cancellation all see
         real traffic. *)
      let base_config =
        { CE.default_config with CE.sanitize = true; hot_threshold = 4 }
      in
      let workloads = W.select [ W.Mmu_stress ] in
      say json "stress: %d workload(s) x %d seed(s) at %d domains (1 vCPU + %d JIT workers)\n%!"
        (List.length workloads) seeds domains (domains - 1);
      let runs = ref 0 in
      List.iter
        (fun (w : W.entry) ->
          (* The single-domain reference: the guest-visible outcome every
             concurrent run must reproduce. *)
          let r = W.boot (R.Captive base_config) w in
          if not (W.exit_ok ~scale:1 w r.R.exit) then
            fail
              (Printf.sprintf "stress: %s: reference exit %s, expected %d" w.W.name
                 (R.exit_to_string r.R.exit) w.W.expected);
          for seed = 1 to seeds do
            incr runs;
            let config =
              { base_config with CE.domains; stress_seed = Some (Int64.of_int seed) }
            in
            let o = W.boot (R.Captive config) w in
            let e = R.captive_of o in
            let s = e.CE.stats in
            let findings = sanitizer_findings e in
            let uart_ok = String.equal o.R.uart r.R.uart in
            let ok =
              findings = [] && o.R.exit = r.R.exit && W.exit_ok ~scale:1 w o.R.exit && uart_ok
            in
            let exit = R.exit_json o.R.exit and exit_ref = R.exit_json r.R.exit in
            if not ok then begin
              fail
                (Printf.sprintf
                   "stress: %s seed %d: exit %s (ref %s, expected %d), uart %s, %d sanitizer \
                    finding(s)"
                   w.W.name seed exit exit_ref w.W.expected
                   (if uart_ok then "ok" else "DIVERGED")
                   (List.length findings));
              List.iter
                (fun f -> shout json (Printf.sprintf "  %s" (Hvm.Sanitize.string_of_finding f)))
                findings
            end;
            if json then
              Printf.printf
                "{\"kind\":\"run\",\"workload\":%s,\"seed\":%d,\"domains\":%d,\"exit\":%s,\"expected\":%d,\"exit_ref\":%s,\"uart_ok\":%b,\"findings\":%d,\"jobs_enqueued\":%d,\"jobs_completed\":%d,\"jobs_installed\":%d,\"jobs_stale\":%d,\"jobs_cancelled\":%d,\"jobs_dropped\":%d,\"smc_invalidations\":%d,\"async_jit_cycles\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"template_blocks\":%d,\"template_misses\":%d,\"ok\":%b}\n"
                (Dbt_util.Stats.json_string w.W.name)
                seed domains exit w.W.expected exit_ref uart_ok (List.length findings)
                s.CE.jobs_enqueued s.CE.jobs_completed s.CE.jobs_installed s.CE.jobs_stale
                s.CE.jobs_cancelled s.CE.jobs_dropped s.CE.smc_invalidations
                (CE.async_jit_cycles e) s.CE.translate_cycles_template
                s.CE.translate_cycles_pipeline s.CE.template_blocks s.CE.template_misses ok
            else
              say json "%-12s seed %3d: exit %3s, jobs %d enq / %d inst / %d stale / %d cancelled%s\n"
                w.W.name seed exit s.CE.jobs_enqueued s.CE.jobs_installed s.CE.jobs_stale
                s.CE.jobs_cancelled
                (if ok then "" else "  FAIL")
          done)
        workloads;
      if json then
        Printf.printf
          "{\"kind\":\"summary\",\"workloads\":%d,\"seeds\":%d,\"domains\":%d,\"runs\":%d,\"failures\":%d,\"gate\":%s}\n"
          (List.length workloads) seeds domains !runs !failures
          (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"));
      shout json
        (Printf.sprintf "stress: %d run(s) at %d domains: %s" !runs domains
           (if !failures = 0 then "PASS" else "FAIL"));
      verdict "stress" !failures
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Race-focused stress lane: run the MMU-stress workloads on the concurrent JIT \
             with seeded install schedules, gated by the MMU sanitizer and single-domain \
             equivalence.")
    Term.(ret (const run $ json $ seeds $ domains))

(* --- bench --------------------------------------------------------------------------- *)

(* The CI perf-regression gate.  `bench --quick` runs the quick
   workloads on three engines — Captive with tiering, Captive
   tier-0-only, and the QEMU-style reference engine — and emits one flat
   JSON object per workload plus a summary (`--json`), in exactly the
   shape `bench/baseline.json` is committed in.  When a baseline is
   available the verdict gates: the run fails if tiered Captive cycles on
   any workload regress by more than 5% over the baseline, if the
   Captive-vs-QEMU speedup drops below baseline - 5%, or if a baseline
   workload was not run at all. *)

module MJ = Dbt_util.Minijson

type bench_row = {
  br_name : string;
  br_exit_ok : bool; (* engines agree, and at scale 1 on the registry's exit *)
  br_tiered : int; (* tiered Captive cycles *)
  br_untiered : int;
  br_qemu : int;
  br_exec : int; (* guest-execution cycles, tiered (cycles - jit) *)
  br_jit : int; (* total JIT cycles, tiered (sync + async) *)
  br_stats : CE.phase_stats; (* tiered *)
  br_json : string;
}

(* translate_cpgi: simulated translate cycles per guest instruction
   translated — the ROADMAP's translation-cost metric, and what the
   template tier and the AOT warm-boot gate drive toward zero. *)
let bench_cpgi (s : CE.phase_stats) =
  float_of_int s.CE.translate_cycles /. float_of_int (max 1 s.CE.guest_instrs_translated)

let bench_speedup ~qemu ~tiered = float_of_int qemu /. float_of_int (max 1 tiered)
let bench_gain_pct ~untiered ~tiered =
  100. *. float_of_int (untiered - tiered) /. float_of_int (max 1 untiered)

(* Per-phase translate-time breakdown (milliseconds): lets the CI perf
   gate's artifact show where translate time went, so a regression in
   e.g. the analysis phase is attributable from the JSON alone.  The
   baseline gate itself reads only captive_cycles, speedup and
   translate_cpgi.  The translate ledger and wall timers are split per
   tier: template (tier minus one) vs pipeline (tier 0 + regions).  The
   host columns are the other clock, ungated because wall time is noisy:
   the tiered run's wall milliseconds (engine creation, image load and
   run), host instructions executed per wall second, and minor-heap words
   allocated per host instruction. *)
let bench_row_json name ~exit_ok (e : CE.t) (u : CE.t) ~qemu ~wall_s ~minor_words =
  let s = e.CE.stats in
  let tiered = CE.cycles e and untiered = CE.cycles u in
  let ms t = 1000. *. t in
  let host_instrs = float_of_int e.CE.ctx.Hostir.Exec.instrs_executed in
  Printf.sprintf
    "{\"kind\":\"workload\",\"name\":%s,\"exit_ok\":%b,\"captive_cycles\":%d,\"exec_cycles\":%d,\"jit_cycles\":%d,\"async_jit_cycles\":%d,\"captive_untiered_cycles\":%d,\"qemu_cycles\":%d,\"speedup\":%.4f,\"tiered_gain_pct\":%.2f,\"host_instrs\":%d,\"host_instrs_untiered\":%d,\"promotions\":%d,\"regions\":%d,\"region_blocks\":%d,\"region_entries\":%d,\"region_block_execs\":%d,\"region_dead_stores\":%d,\"rf_loads\":%d,\"rf_stores\":%d,\"rf_promoted\":%d,\"region_wb_entries\":%d,\"absint_branches_folded\":%d,\"absint_consts_folded\":%d,\"absint_masks_dropped\":%d,\"absint_dead_deleted\":%d,\"translate_cycles\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"translate_cpgi\":%.2f,\"template_blocks\":%d,\"template_instrs\":%d,\"template_misses\":%d,\"template_fallback_blocks\":%d,\"templates_mined\":%d,\"t_decode_ms\":%.2f,\"t_translate_ms\":%.2f,\"t_template_ms\":%.2f,\"t_tier0_ms\":%.2f,\"t_region_ms\":%.2f,\"t_regalloc_ms\":%.2f,\"t_encode_ms\":%.2f,\"t_validate_ms\":%.2f,\"t_analyze_ms\":%.2f,\"resident_kb\":%d,\"host_wall_ms\":%.2f,\"host_instrs_per_s\":%.0f,\"minor_words_per_host_instr\":%.3f}"
    (Dbt_util.Stats.json_string name)
    exit_ok tiered (CE.exec_cycles e) (CE.jit_cycles e) (CE.async_jit_cycles e) untiered qemu
    (bench_speedup ~qemu ~tiered) (bench_gain_pct ~untiered ~tiered)
    e.CE.ctx.Hostir.Exec.instrs_executed u.CE.ctx.Hostir.Exec.instrs_executed
    s.CE.promotions s.CE.regions_formed s.CE.region_blocks s.CE.region_entries
    s.CE.region_block_execs s.CE.region_dead_stores e.CE.ctx.Hostir.Exec.rf_loads
    e.CE.ctx.Hostir.Exec.rf_stores s.CE.rf_promoted s.CE.region_wb_entries
    s.CE.absint_branches_folded s.CE.absint_consts_folded s.CE.absint_masks_dropped
    s.CE.absint_dead_deleted s.CE.translate_cycles s.CE.translate_cycles_template
    s.CE.translate_cycles_pipeline (bench_cpgi s) s.CE.template_blocks s.CE.template_instrs
    s.CE.template_misses s.CE.template_fallback_blocks s.CE.templates_mined (ms s.CE.t_decode)
    (ms s.CE.t_translate) (ms s.CE.t_template) (ms s.CE.t_tier0) (ms s.CE.t_region)
    (ms s.CE.t_regalloc) (ms s.CE.t_encode) (ms s.CE.t_validate) (ms s.CE.t_analyze)
    (4 * Hvm.Mem.resident_frames e.CE.machine.Hvm.Machine.mem)
    (ms wall_s) (host_instrs /. Float.max wall_s 1e-9) (minor_words /. Float.max host_instrs 1.)

(* One workload on the three engines: tiered Captive (with this run's
   domains and hot threshold), tier-0-only Captive and the QEMU-style
   engine. *)
let bench_run_one ~scale ~domains ?hot_threshold (w : W.entry) : bench_row =
  let tiered =
    { CE.default_config with
      CE.domains;
      hot_threshold = Option.value hot_threshold ~default:CE.default_config.CE.hot_threshold;
    }
  in
  (* the guest model is built once per process; keep it out of the timing *)
  ignore (R.ops w.W.guest);
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let t = W.boot ~scale (R.Captive tiered) w in
  let wall_s = Unix.gettimeofday () -. t0 and minor_words = Gc.minor_words () -. w0 in
  let u = W.boot ~scale (R.Captive { CE.default_config with CE.tiering = false }) w in
  let q = W.boot ~scale R.qemu w in
  let e = R.captive_of t in
  let exit_ok = t.R.exit = u.R.exit && t.R.exit = q.R.exit && W.exit_ok ~scale w t.R.exit in
  {
    br_name = w.W.name;
    br_exit_ok = exit_ok;
    br_tiered = t.R.cycles;
    br_untiered = u.R.cycles;
    br_qemu = q.R.cycles;
    br_exec = CE.exec_cycles e;
    br_jit = CE.jit_cycles e;
    br_stats = e.CE.stats;
    br_json =
      bench_row_json w.W.name ~exit_ok e (R.captive_of u) ~qemu:q.R.cycles ~wall_s ~minor_words;
  }

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
    let workloads = W.select [ (if quick then W.Quick else W.Sweep) ] in
    let failures = ref 0 in
    let fail line = incr failures; shout json line in
    say json "bench%s: %d workloads at scale %d, %d domain(s) (captive tiered / captive tier-0 / qemu)\n%!"
      (if quick then " --quick" else "")
      (List.length workloads) scale domains;
    let rows = List.map (bench_run_one ~scale ~domains ?hot_threshold) workloads in
    let speedup r = bench_speedup ~qemu:r.br_qemu ~tiered:r.br_tiered in
    List.iter
      (fun r ->
        if json then print_endline r.br_json
        else
          say json "%-16s captive %11d  tier-0 %11d  qemu %11d  speedup %5.2fx  tiered gain %+5.1f%%  (regions %d/%d blocks)%s\n"
            r.br_name r.br_tiered r.br_untiered r.br_qemu (speedup r)
            (bench_gain_pct ~untiered:r.br_untiered ~tiered:r.br_tiered)
            r.br_stats.CE.regions_formed r.br_stats.CE.region_blocks
            (if r.br_exit_ok then "" else "  EXIT MISMATCH");
        if not r.br_exit_ok then
          fail
            (Printf.sprintf "bench: %s: exit codes disagree across engines or with the registry"
               r.br_name))
      rows;
    let gm_speedup =
      exp (List.fold_left (fun a r -> a +. log (max 1e-9 (speedup r))) 0. rows
           /. float_of_int (max 1 (List.length rows)))
    in
    let baseline_file =
      match baseline with
      | Some f -> f
      | None -> Filename.concat "bench" "baseline.json"
    in
    let base = bench_load_baseline baseline_file in
    let gate =
      if base = [] then begin
        if exact then fail "bench: --exact requires a baseline with exec_cycles/jit_cycles";
        if exact then "fail" else "no-baseline"
      end
      else begin
        List.iter
          (fun (name, _) ->
            if not (List.exists (fun r -> r.br_name = name) rows) then
              fail (Printf.sprintf "bench: %s: in the baseline but not run" name))
          base;
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
              let cpgi = bench_cpgi r.br_stats in
              if comparable && float_of_int r.br_tiered > bc *. 1.05 then
                fail
                  (Printf.sprintf
                     "bench: %s: captive cycles regressed >5%% (%d vs baseline %.0f)" r.br_name
                     r.br_tiered bc);
              if comparable && speedup r < bs *. 0.95 then
                fail
                  (Printf.sprintf
                     "bench: %s: captive-vs-qemu speedup %.2fx below baseline %.2fx - 5%%"
                     r.br_name (speedup r) bs);
              (* The cold-translate gate: templates must keep the simulated
                 translate cost per guest instruction from creeping back up. *)
              (match bcpgi with
              | Some bt when cpgi > bt *. 1.05 ->
                fail
                  (Printf.sprintf
                     "bench: %s: translate_cpgi regressed >5%% (%.1f vs baseline %.1f)"
                     r.br_name cpgi bt)
              | _ -> ());
              if exact then begin
                let x = r.br_exec and j = r.br_jit in
                match bxj with
                | None ->
                  fail
                    (Printf.sprintf
                       "bench: %s: --exact but baseline has no exec_cycles/jit_cycles"
                       r.br_name)
                | Some (bx, bj) ->
                  if float_of_int x <> bx || float_of_int j <> bj then
                    fail
                      (Printf.sprintf
                         "bench: %s: cycle split not bit-identical to baseline (exec %d vs \
                          %.0f, jit %d vs %.0f)"
                         r.br_name x bx j bj)
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
    shout json
      (Printf.sprintf "bench: geomean speedup %.2fx over qemu; gate vs %s: %s" gm_speedup
         (if base = [] then "(no baseline)" else baseline_file)
         (String.uppercase_ascii gate));
    verdict "bench" !failures
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the perf benchmark set on all engines and gate against bench/baseline.json.")
    Term.(ret (const run $ json $ quick $ baseline $ scale_arg $ exact $ domains $ hot_threshold))

(* --- check ----------------------------------------------------------------------------- *)

let check_workloads = W.select [ W.Os_boot; W.Mmu_stress; W.Sweep ]

let checker_name = function
  | Captive.Jit.Validate -> "validate"
  | Captive.Jit.Analyze -> "analyze"
  | Captive.Jit.Reloc -> "reloc"

(* What one checker reports for one workload/level run: its finding
   count and its own fields of the JSON and human rows.  Computing it
   also adds the run's counters into the sweep summary. *)
let checker_row summary (s : CE.phase_stats) checker =
  (* (verb, finding kind, timer field, blocks, regions, findings, seconds,
     extra (JSON field, summary counter, value)s) *)
  let verb, kind, timer, nb, nr, nf, t, extra =
    match checker with
    | Captive.Jit.Validate ->
      ( "validated", "divergence", "validate_ms", s.CE.blocks_validated, s.CE.regions_validated,
        s.CE.validation_findings, s.CE.t_validate,
        [ ("bounded", "bounded checks", s.CE.validations_bounded) ] )
    | Captive.Jit.Analyze ->
      ( "analyzed", "obligation", "analyze_ms", s.CE.blocks_analyzed, s.CE.regions_analyzed,
        s.CE.obligation_findings, s.CE.t_analyze,
        [ ("branches_folded", "absint branches folded", s.CE.absint_branches_folded);
          ("consts_folded", "absint consts folded", s.CE.absint_consts_folded);
          ("masks_dropped", "absint masks dropped", s.CE.absint_masks_dropped);
          ("dead_deleted", "absint dead deleted", s.CE.absint_dead_deleted) ] )
    | Captive.Jit.Reloc ->
      ( "certified", "relocation", "relocheck_ms", s.CE.blocks_certified, s.CE.regions_certified,
        s.CE.reloc_findings, s.CE.t_reloc, [] )
  in
  Counters.bump summary ("programs " ^ verb) ~by:(nb + nr);
  Counters.bump summary ("blocks " ^ verb) ~by:nb;
  Counters.bump summary ("regions " ^ verb) ~by:nr;
  Counters.bump summary (kind ^ " findings") ~by:nf;
  List.iter (fun (_, name, n) -> Counters.bump summary name ~by:n) extra;
  let ms = 1000. *. t in
  let per = ms /. float_of_int (max 1 (nb + nr)) in
  let counts =
    [ ("blocks_" ^ verb, nb); ("regions_" ^ verb, nr); ("findings", nf) ]
    @ List.map (fun (field, _, n) -> (field, n)) extra
  in
  ( nf,
    Printf.sprintf "%s,\"%s\":%.1f,\"ms_per_program\":%.3f"
      (String.concat "," (List.map (fun (field, n) -> Printf.sprintf "\"%s\":%d" field n) counts))
      timer ms per,
    Printf.sprintf "%5d blocks + %3d regions %s, %d finding(s)%s, %6.1fms (%.3fms/program)" nb nr
      verb nf
      (String.concat "" (List.map (fun (field, _, n) -> Printf.sprintf ", %s %d" field n) extra))
      ms per )

(* The translate-time checker sweep: boot every check workload (the
   mini-OS demo, both MMU-stress images and the Sweep SPECint proxies)
   at every offline level O1-O4 once, with all three checkers on.
   - Equiv (Hostir.Equiv) symbolically executes every tier-0 block and
     every region alongside an unoptimized per-instruction reference
     emission from the same decode, and compares the exit states — PC,
     register file (promoted offsets equated through the writeback
     map), ordered store trace and helper-call arguments — term by term.
   - The Absint obligations (Hostir.Absint) require register-file
     accesses in bounds and aligned, spill-slot accesses inside the
     allocated frame, and the promoted writeback discipline (dirty
     coverage, call barriers, staleness).
   - Reloc (Hostir.Reloc) decodes each translation back from its bytes
     and classifies it operand by operand: no absolute host addresses,
     control leaves only through numbered exits, environment references
     in bounds, helpers by symbol id, and decode -> re-encode reproduces
     the bytes.  Clean programs get the certificate the AOT cache
     requires, so one finding is a hard failure.
   Any finding or wrong guest exit code fails the sweep.  With --json,
   stdout carries one object per workload/level pair, each checker's
   fields nested under its name, plus a summary line; findings go to
   stderr in discovery order. *)
let check_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one object per workload/level pair plus a summary line as JSON on \
                 stdout; findings go to stderr.")
  in
  let workload =
    Arg.(value & opt (some (workload_conv check_workloads)) None & info [ "w"; "workload" ]
           ~docv:"NAME"
           ~doc:(Printf.sprintf "Restrict to one workload (default: all): %s."
                   (String.concat ", " (W.names check_workloads))))
  in
  let level =
    Arg.(value & opt (some (enum [ ("1", 1); ("2", 2); ("3", 3); ("4", 4) ])) None
         & info [ "l"; "level" ] ~docv:"N"
             ~doc:"Restrict to one offline optimization level, 1-4 (default: all).")
  in
  let run json workload level =
    let config =
      { CE.default_config with
        CE.validate_translations = true;
        analyze_translations = true;
        reloc_check = true;
      }
    in
    let failures = ref 0 in
    let summary = Counters.create () in
    let workloads = match workload with Some w -> [ w ] | None -> check_workloads in
    let levels = match level with Some l -> [ l ] | None -> [ 1; 2; 3; 4 ] in
    say json "check: %d workload(s) x %d level(s) with Equiv validation, Absint obligations and \
              Reloc certification\n%!"
      (List.length workloads) (List.length levels);
    List.iter
      (fun level ->
        List.iter
          (fun (w : W.entry) ->
            let o = W.boot ~opt_level:level (R.Captive config) w in
            let e = R.captive_of o in
            let rows =
              List.map
                (fun c -> (checker_name c, checker_row summary e.CE.stats c))
                [ Captive.Jit.Validate; Captive.Jit.Analyze; Captive.Jit.Reloc ]
            in
            List.iter (fun (_, (nf, _, _)) -> failures := !failures + nf) rows;
            List.iter
              (fun (f : Captive.Jit.finding) ->
                shout json
                  (Printf.sprintf "  %s O%d %s: %s\n    %s" w.W.name level
                     (checker_name f.Captive.Jit.checker) f.Captive.Jit.what f.Captive.Jit.detail))
              (CE.findings e);
            let exit = R.exit_json o.R.exit in
            if not (W.exit_ok ~scale:1 w o.R.exit) then begin
              incr failures;
              shout json
                (Printf.sprintf "  %s O%d: exit code %s, expected %d" w.W.name level exit
                   w.W.expected)
            end;
            if json then
              Printf.printf
                "{\"kind\":\"workload\",\"name\":%s,\"opt_level\":%d,\"exit\":%s,\"expected\":%d,%s}\n"
                (Dbt_util.Stats.json_string w.W.name)
                level exit w.W.expected
                (String.concat ","
                   (List.map (fun (c, (_, json, _)) -> Printf.sprintf "\"%s\":{%s}" c json) rows))
            else begin
              say json "%-18s O%d: exit %s (expected %d)\n" w.W.name level exit w.W.expected;
              List.iter (fun (c, (_, _, human)) -> say json "    %-8s %s\n" c human) rows;
              say json "%!"
            end)
          workloads)
      levels;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"failures\":%d,\"counters\":%s}\n"
        (List.length workloads * List.length levels)
        !failures (Counters.to_json summary)
    else say json "\ncheck counters:\n%s" (Counters.report summary);
    if !failures = 0 && not json then print_endline "check: no findings";
    verdict "check" !failures
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the translate-time checkers (Equiv validation, Absint obligations, Reloc \
             certification) on every translation formed while running the check workloads \
             at O1-O4.")
    Term.(ret (const run $ json $ workload $ level))

(* --- aot ----------------------------------------------------------------------------- *)

(* Warm-boot gate for the persistent AOT translation cache.  Each quick
   workload runs twice against the same cache directory: a cold boot
   that translates everything and persists each certified translation,
   then a warm boot on a fresh engine that reinstalls the persisted code
   (guest bytes verified, certificate re-checked) instead of
   retranslating.  The gate: the warm boot must spend at most
   --max-ratio (default 10) percent of the cold boot's simulated
   translate cycles, guest-visible execution cycles (total minus
   JIT-charged) must be bit-identical — translation is pure overhead, so
   where the code came from must be invisible to the guest — both boots
   must end with the same exit code (the registry's at scale 1), and the
   warm boot must reject nothing it stored. *)

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
    let root = match dir with Some d -> d | None -> "_captive_aot" in
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
    let workloads = W.select [ W.Quick ] in
    say json "aot: %d workloads at scale %d (cold boot stores, warm boot reloads; cache root %s)\n%!"
      (List.length workloads) scale root;
    List.iter
      (fun (w : W.entry) ->
        let name = w.W.name in
        let wdir = Filename.concat root name in
        wipe wdir;
        let boot () =
          W.boot ~scale (R.Captive { CE.default_config with CE.aot_dir = Some wdir }) w
        in
        let c = boot () in
        let wm = boot () in
        let e_c = R.captive_of c and e_w = R.captive_of wm in
        let sc = e_c.CE.stats and sw = e_w.CE.stats in
        let tc = sc.CE.translate_cycles in
        let tw = sw.CE.translate_cycles in
        let xc = CE.exec_cycles e_c in
        let xw = CE.exec_cycles e_w in
        let ratio = 100. *. float_of_int tw /. float_of_int (max 1 tc) in
        let exits_ok = c.R.exit = wm.R.exit && W.exit_ok ~scale w c.R.exit in
        let ok =
          exits_ok && xc = xw && ratio <= max_ratio
          && sw.CE.aot_rejects = 0
          && sw.CE.reloc_findings = 0
        in
        let exit_c = R.exit_json c.R.exit and exit_w = R.exit_json wm.R.exit in
        if not ok then begin
          incr failures;
          if not exits_ok then
            shout json
              (Printf.sprintf "aot: %s: exit codes cold %s / warm %s (expected %d at scale 1)"
                 name exit_c exit_w w.W.expected);
          if xc <> xw then
            shout json
              (Printf.sprintf "aot: %s: guest execution cycles differ (cold %d, warm %d)" name xc
                 xw);
          if ratio > max_ratio then
            shout json
              (Printf.sprintf
                 "aot: %s: warm translate cycles %d are %.1f%% of cold %d (limit %.0f%%)" name tw
                 ratio tc max_ratio);
          if sw.CE.aot_rejects > 0 then
            shout json
              (Printf.sprintf "aot: %s: warm boot rejected %d cache entr(ies)" name
                 sw.CE.aot_rejects);
          if sw.CE.reloc_findings > 0 then begin
            shout json
              (Printf.sprintf "aot: %s: %d relocation finding(s)" name sw.CE.reloc_findings);
            List.iter
              (fun (f : Captive.Jit.finding) ->
                shout json
                  (Printf.sprintf "  %s %s\n    %s" name f.Captive.Jit.what f.Captive.Jit.detail))
              (CE.findings e_w)
          end
        end;
        if json then
          Printf.printf
            "{\"kind\":\"workload\",\"name\":%s,\"ok\":%b,\"exit_cold\":%s,\"exit_warm\":%s,\"cold_translate_cycles\":%d,\"warm_translate_cycles\":%d,\"warm_ratio_pct\":%.2f,\"cold_template_cycles\":%d,\"cold_pipeline_cycles\":%d,\"warm_template_cycles\":%d,\"warm_pipeline_cycles\":%d,\"template_blocks_cold\":%d,\"template_blocks_warm\":%d,\"exec_cycles_cold\":%d,\"exec_cycles_warm\":%d,\"exec_identical\":%b,\"aot_stores\":%d,\"aot_hits\":%d,\"aot_misses\":%d,\"aot_rejects\":%d,\"cache_entries\":%d}\n"
            (Dbt_util.Stats.json_string name)
            ok exit_c exit_w tc tw ratio sc.CE.translate_cycles_template
            sc.CE.translate_cycles_pipeline sw.CE.translate_cycles_template
            sw.CE.translate_cycles_pipeline sc.CE.template_blocks sw.CE.template_blocks xc xw
            (xc = xw) sc.CE.aot_stores sw.CE.aot_hits sw.CE.aot_misses sw.CE.aot_rejects
            (CE.aot_entry_count e_w)
        else
          say json
            "%-16s cold translate %9d  warm %7d (%5.1f%%)  exec %11d %s  stored %3d, reloaded %3d%s\n"
            name tc tw ratio xc
            (if xc = xw then "==" else "!=")
            sc.CE.aot_stores sw.CE.aot_hits
            (if ok then "" else "  FAIL");
        if not keep then begin
          wipe wdir;
          rmdir_if_empty wdir
        end)
      workloads;
    if not keep then rmdir_if_empty root;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"failures\":%d,\"gate\":%s}\n"
        (List.length workloads) scale !failures
        (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"));
    shout json
      (Printf.sprintf "aot: warm-boot gate (<= %.0f%% of cold translate cycles, \
                       bit-identical execution): %s"
         max_ratio
         (if !failures = 0 then "PASS" else "FAIL"));
    verdict "aot" !failures
  in
  Cmd.v
    (Cmd.info "aot"
       ~doc:"Run each quick workload cold then warm against the same persistent AOT cache \
             and gate: warm translate cycles <= 10% of cold, guest execution cycles \
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
let mine_templates_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per (form, MMU regime) plus a summary per guest.")
  in
  let run json guests =
    List.iter
      (fun g ->
        let guest = R.ops g in
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
          say json "\n=== %s: %d forms mined (%d live, %d untemplatable) ===\n\n"
            guest.Guest.Ops.name (List.length report) (List.length live) (List.length dead);
          say json "%-28s %4s %9s %5s %11s %6s\n" "form" "mmu" "variants" "pins" "host-instrs"
            "holes";
          List.iter
            (fun (r : Hostir.Template.form_report) ->
              say json "%-28s %4s %9d %5d %11d %6d\n" r.Hostir.Template.fr_name
                (if r.Hostir.Template.fr_mmu then "on" else "off")
                r.Hostir.Template.fr_variants r.Hostir.Template.fr_pins
                r.Hostir.Template.fr_host_instrs r.Hostir.Template.fr_holes)
            live;
          if dead <> [] then begin
            say json "\nuntemplatable forms (cold-pipeline fallback):\n";
            List.iter
              (fun (r : Hostir.Template.form_report) ->
                say json "  %-28s %s\n" r.Hostir.Template.fr_name
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
          say json "\n%s: %d template variants live, %d witness encodings untemplatable\n"
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
    Term.(ret (const run $ json $ guests_arg [ "guest" ] "mine"))

(* --- templates (coverage report) ------------------------------------------------------- *)

(* Template-tier coverage: run the quick workloads (plus the two
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
    let config =
      { CE.default_config with
        CE.hot_threshold = Option.value hot_threshold ~default:CE.default_config.CE.hot_threshold;
      }
    in
    let workloads = W.select [ W.Quick ] @ W.select [ W.Mmu_stress ] in
    let failures = ref 0 in
    let fail line = incr failures; shout json line in
    let coverages = ref [] in
    say json "templates: coverage over %d workloads at scale %d%s\n%!" (List.length workloads)
      scale
      (match hot_threshold with
      | Some h -> Printf.sprintf " (hot threshold %d)" h
      | None -> "");
    List.iter
      (fun (w : W.entry) ->
        let o = W.boot ~scale (R.Captive config) w in
        let e = R.captive_of o in
        let s = e.CE.stats in
        let covered = s.CE.template_instrs in
        let total = s.CE.guest_instrs_translated in
        let pct = 100. *. float_of_int covered /. float_of_int (max 1 total) in
        coverages := pct :: !coverages;
        let misses = CE.template_miss_table e in
        let exit_ok = W.exit_ok ~scale w o.R.exit in
        let exit = R.exit_json o.R.exit in
        if not exit_ok then
          fail
            (Printf.sprintf "templates: %s: exit %s (expected %d at scale 1)" w.W.name exit
               w.W.expected);
        if pct < min_coverage then
          fail
            (Printf.sprintf "templates: %s: coverage %.1f%% below --min-coverage %.1f%%"
               w.W.name pct min_coverage);
        if json then begin
          let miss_json =
            String.concat ","
              (List.map
                 (fun (op, n) ->
                   Printf.sprintf "{\"op\":%s,\"count\":%d}" (Dbt_util.Stats.json_string op) n)
                 misses)
          in
          Printf.printf
            "{\"kind\":\"workload\",\"name\":%s,\"exit\":%s,\"coverage_pct\":%.2f,\"template_instrs\":%d,\"guest_instrs_translated\":%d,\"template_blocks\":%d,\"blocks_translated\":%d,\"template_fallback_blocks\":%d,\"template_misses\":%d,\"templates_mined\":%d,\"translate_cycles_template\":%d,\"translate_cycles_pipeline\":%d,\"misses\":[%s]}\n"
            (Dbt_util.Stats.json_string w.W.name)
            exit pct covered total s.CE.template_blocks s.CE.blocks_translated
            s.CE.template_fallback_blocks s.CE.template_misses s.CE.templates_mined
            s.CE.translate_cycles_template s.CE.translate_cycles_pipeline miss_json
        end
        else begin
          say json "%-16s coverage %5.1f%%  (%d/%d instrs, %d/%d blocks, %d mined)%s\n" w.W.name
            pct covered total s.CE.template_blocks s.CE.blocks_translated s.CE.templates_mined
            (if exit_ok then "" else "  WRONG EXIT");
          List.iteri (fun i (op, n) -> if i < 8 then say json "    miss %-24s x%d\n" op n) misses
        end)
      workloads;
    let min_pct = List.fold_left min 100. !coverages in
    if json then
      Printf.printf
        "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"min_coverage_pct\":%.2f,\"gate\":%s,\"failures\":%d}\n"
        (List.length workloads) scale min_pct
        (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"))
        !failures;
    shout json
      (Printf.sprintf "templates: min coverage %.1f%% over %d workloads: %s" min_pct
         (List.length workloads)
         (if !failures = 0 then "PASS" else "FAIL"));
    verdict "templates" !failures
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
      `Noblank; `P "$(mname) $(b,mmucheck) [$(b,--json)] [$(b,--guard)]";
      `Noblank; `P "$(mname) $(b,stress) [$(b,--json)] [$(b,--seeds) $(i,N)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,bench) [$(b,--quick)] [$(b,--json)] [$(b,--baseline) $(i,FILE)] [$(b,--exact)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,check) [$(b,--json)] [$(b,--workload) $(i,NAME)] [$(b,--level) $(i,N)]";
      `Noblank; `P "$(mname) $(b,aot) [$(b,--json)] [$(b,--dir) $(i,DIR)] [$(b,--keep)] [$(b,--max-ratio) $(i,PCT)]";
      `Noblank; `P "$(mname) $(b,mine-templates) [$(b,--json)] [$(b,--guest) $(i,GUEST)]";
      `Noblank; `P "$(mname) $(b,templates) [$(b,--json)] [$(b,--min-coverage) $(i,PCT)] [$(b,--hot-threshold) $(i,N)]";
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "captive_run" ~doc ~man)
          [ spec_cmd; simbench_cmd; boot_cmd; info_cmd; ssa_cmd; lint_cmd; mmucheck_cmd;
            stress_cmd; bench_cmd; check_cmd; aot_cmd;
            mine_templates_cmd; templates_cmd ]))
