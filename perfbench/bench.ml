(* Running guest programs through the public API, with the measurements
   and checks the benchmark reports.  Every Captive run uses
   [domains = 1], so its simulated counts are deterministic; each is
   printed with the program's result so that run.py can compare them
   across passes, processes and invocations. *)

let now = Unix.gettimeofday

(* --- JSON lines ------------------------------------------------------------ *)

type v = I of int | F of float | S of string | B of bool | O of (string * v) list

let rec to_json = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.17g" f
  | S s -> Spans.json_string s
  | B b -> string_of_bool b
  | O kvs ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> Spans.json_string k ^ ":" ^ to_json v) kvs) ^ "}"

(* Where result lines go; the self-test silences them. *)
let sink = ref print_endline
let emit kind kvs = !sink (to_json (O (("kind", S kind) :: kvs)))

let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* --- one guest program on Captive --------------------------------------------- *)

let config = { Captive.Engine.default_config with Captive.Engine.domains = 1 }

(* The simulated counts of one run: all deterministic at [domains = 1]. *)
let sim_counts (e : Captive.Engine.t) code =
  let s = e.Captive.Engine.stats in
  let ctx = e.Captive.Engine.ctx in
  let m = e.Captive.Engine.machine in
  let tlb = m.Hvm.Machine.tlb in
  [
    ("exit_code", I code);
    ("cycles", I (Captive.Engine.cycles e));
    ("exec_cycles", I (Captive.Engine.exec_cycles e));
    ("jit_cycles", I (Captive.Engine.jit_cycles e));
    ("host_instrs", I ctx.Hostir.Exec.instrs_executed);
    ("rf_loads", I ctx.Hostir.Exec.rf_loads);
    ("rf_stores", I ctx.Hostir.Exec.rf_stores);
    ("blocks_executed", I s.blocks_executed);
    ("chain_hits", I s.chain_hits);
    ("promotions", I s.promotions);
    ("regions_formed", I s.regions_formed);
    ("region_block_execs", I s.region_block_execs);
    ("smc_invalidations", I s.smc_invalidations);
    ("blocks_translated", I s.blocks_translated);
    ("guest_instrs_translated", I s.guest_instrs_translated);
    ("host_instrs_emitted", I s.host_instrs_emitted);
    ("spills", I s.spills);
    ("translate_cycles", I s.translate_cycles);
    ("template_instrs", I s.template_instrs);
    ("templates_mined", I s.templates_mined);
    ("tlb_hits", I tlb.Hvm.Tlb.hits);
    ("tlb_misses", I tlb.Hvm.Tlb.misses);
    ("tlb_flushes", I tlb.Hvm.Tlb.flushes);
    ("faults", I m.Hvm.Machine.faults);
    ("mem_ops", I m.Hvm.Machine.mem_ops);
  ]

(* The engine's own JIT phase timers (wall seconds).  decode, translate,
   regalloc, encode and checkers are disjoint; template/tier0/region
   split the translate phase by tier.  checkers is validate + analyze +
   reloc: the checkers are off by default, but the analyze timer also
   carries the region absint-simplify pass.  [jit_total] sums the
   disjoint ones. *)
let jit_timers (e : Captive.Engine.t) =
  let s = e.Captive.Engine.stats in
  [
    ("decode_s", s.t_decode);
    ("translate_s", s.t_translate);
    ("template_s", s.t_template);
    ("tier0_s", s.t_tier0);
    ("region_s", s.t_region);
    ("regalloc_s", s.t_regalloc);
    ("encode_s", s.t_encode);
    ("checkers_s", s.t_validate +. s.t_analyze +. s.t_reloc);
  ]

let jit_total timers =
  List.fold_left
    (fun acc (k, v) ->
      match k with
      | "decode_s" | "translate_s" | "regalloc_s" | "encode_s" | "checkers_s" -> acc +. v
      | _ -> acc)
    0. timers

(* Set up, run, shut down and check one program.  The four set-up and
   run timestamps are taken the same way traced or not; spans (no-ops
   when tracing is off) wrap each public call. *)
let run_program ~pass ~traced ~(expected : Oracle.t) (p : Suite.program) =
  let id = Spans.fresh_id () in
  let span cat name f = Spans.with_span ~cat ~id ~program:p.Suite.name name f in
  span "bench" "program" (fun () ->
      let ops = Suite.guest_ops p.Suite.guest in
      let t0 = now () in
      let image = span "workloads" "image_build" p.Suite.build in
      let t1 = now () in
      let e = span "hvm" "engine_create" (fun () -> Captive.Engine.create ~config ops) in
      let t2 = now () in
      span "workloads" "install" (fun () -> Suite.install (Workloads.Kernel.captive_target e) image);
      let t3 = now () in
      let minor0 = Gc.minor_words () in
      let exit =
        span "core" "engine_run" (fun () ->
            let x =
              match Captive.Engine.run ~max_cycles:Suite.max_cycles e with
              | Captive.Engine.Poweroff c -> Suite.Poweroff c
              | Captive.Engine.Cycle_limit | Captive.Engine.Block_limit -> Suite.Limit
              | exception ex -> Suite.Crash (Printexc.to_string ex)
            in
            if traced then Spans.annotate (jit_timers e);
            x)
      in
      let t4 = now () in
      let minor = Gc.minor_words () -. minor0 in
      let timers = jit_timers e in
      span "core" "shutdown" (fun () -> Captive.Engine.shutdown e);
      let outcome = { Suite.exit; uart = Captive.Engine.uart_output e } in
      let expect = Oracle.find expected p.Suite.name in
      let verdict = span "bench" "oracle_check" (fun () -> Oracle.check expect outcome) in
      let code = match exit with Suite.Poweroff c -> c | Suite.Limit -> -1 | Suite.Crash _ -> -2 in
      let wall =
        [
          ("image_s", F (t1 -. t0));
          ("create_s", F (t2 -. t1));
          ("install_s", F (t3 -. t2));
          ("run_s", F (t4 -. t3));
          ("jit_s", F (jit_total timers));
          ("minor_words", F minor);
        ]
        @ List.map (fun (k, v) -> (k, F v)) timers
      in
      emit "prog"
        ([
           ("pass", I pass);
           ("traced", B traced);
           ("program", S p.Suite.name);
           ("ok", B (Result.is_ok verdict));
           ("why", S (match verdict with Ok () -> "" | Error m -> m));
           ("retired", I expect.Oracle.retired);
           ("sim", O (sim_counts e code));
         ]
        @ wall);
      Result.is_ok verdict)

(* One program whose set-up raised still counts as attempted and failed. *)
let run_program_safe ~pass ~traced ~expected (p : Suite.program) =
  try run_program ~pass ~traced ~expected p
  with ex ->
    emit "prog"
      [
        ("pass", I pass);
        ("traced", B traced);
        ("program", S p.Suite.name);
        ("ok", B false);
        ("why", S ("exception " ^ Printexc.to_string ex));
      ];
    false

(* One pass over the workload; returns (attempted, failed), which are
   also printed with the pass. *)
let run_pass ~pass ~traced ~expected progs =
  Spans.enabled := traced;
  let st0 = Gc.quick_stat () in
  let oks = List.map (run_program_safe ~pass ~traced ~expected) progs in
  let st1 = Gc.quick_stat () in
  Spans.enabled := false;
  let attempted = List.length oks and failed = List.length (List.filter not oks) in
  emit "pass"
    [
      ("pass", I pass);
      ("traced", B traced);
      ("attempted", I attempted);
      ("failed", I failed);
      ("major_collections", I (st1.Gc.major_collections - st0.Gc.major_collections));
      ("top_heap_mb", F (float_of_int (st1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
    ];
  (attempted, failed)

(* The process-once guest model build, one per guest the workload uses. *)
let build_models ~traced progs =
  Spans.enabled := traced;
  List.iter
    (fun g ->
      let t0 = now () in
      ignore
        (Spans.with_span ~cat:"ssa" ~id:0 ~program:"" ("model_build:" ^ Suite.guest_name g) (fun () ->
             Suite.guest_ops g));
      emit "model" [ ("guest", S (Suite.guest_name g)); ("build_s", F (now () -. t0)) ])
    (Suite.guests progs);
  Spans.enabled := false

(* --- the QEMU-style engine ------------------------------------------------------- *)

let run_qemu ~(expected : Oracle.t) (p : Suite.program) =
  let id = Spans.fresh_id () in
  let span cat name f = Spans.with_span ~cat ~id ~program:p.Suite.name name f in
  span "bench" "qemu_program" (fun () ->
      let ops = Suite.guest_ops p.Suite.guest in
      let q = span "qemu" "qemu_create" (fun () -> Qemu_ref.Qemu_engine.create ops) in
      Suite.install (Workloads.Kernel.qemu_target q) (p.Suite.build ());
      let t0 = now () in
      let exit =
        span "qemu" "qemu_run" (fun () ->
            match Qemu_ref.Qemu_engine.run ~max_cycles:Suite.max_cycles q with
            | Qemu_ref.Qemu_engine.Poweroff c -> Suite.Poweroff c
            | Qemu_ref.Qemu_engine.Cycle_limit | Qemu_ref.Qemu_engine.Block_limit -> Suite.Limit
            | exception ex -> Suite.Crash (Printexc.to_string ex))
      in
      let run_s = now () -. t0 in
      let outcome = { Suite.exit; uart = Qemu_ref.Qemu_engine.uart_output q } in
      let verdict = Oracle.check (Oracle.find expected p.Suite.name) outcome in
      emit "qemu"
        [
          ("program", S p.Suite.name);
          ("ok", B (Result.is_ok verdict));
          ("why", S (match verdict with Ok () -> "" | Error m -> m));
          ("cycles", I (Qemu_ref.Qemu_engine.cycles q));
          ("run_s", F run_s);
        ])

