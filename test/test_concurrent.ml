(* Concurrent JIT and sharded code cache tests.

   Cache-level: a QCheck model test checks random publish / lookup /
   invalidate / conditional-publish sequences against a reference model
   — in particular that [publish_if] with a generation token taken
   before an [invalidate_page] is always refused (the SMC tombstone),
   and that no lookup ever serves a tombstoned entry.  A multi-domain
   test hammers one page from writer domains while the main domain
   invalidates, and asserts the linearizability invariant: any entry
   found after an invalidation was published with a generation token at
   least as new as that invalidation.

   Engine-level: SMC between job capture and install must reject the
   install (both the generation-tombstone path and the guest-byte-hash
   path); a multi-domain run of the MMU-stress workload must be
   guest-visibly equivalent to a single-domain run with zero sanitizer
   findings; and a single-domain engine must stay cycle-deterministic.

   Stats: the per-domain Counters shards must merge to exact totals. *)

module CC = Captive.Codecache
module CE = Captive.Engine
module J = Captive.Jit
module K = Workloads.Kernel
module MS = Workloads.Mmu_stress
module San = Hvm.Sanitize

(* --- model-based cache property ---------------------------------------- *)

(* Reference model: association table plus per-page generation counters.
   Keys live on 4 pages x 4 slots; each op is decoded from one int. *)
let test_cache_model =
  QCheck2.Test.make ~name:"sharded cache matches sequential model" ~count:300
    QCheck2.Gen.(pair (int_range 0 5) (list_size (int_range 1 150) (int_range 0 100_000)))
    (fun (shard_sel, ops) ->
      let cc = CC.create ~shards:(1 lsl shard_sel) () in
      let model : (CC.key, int) Hashtbl.t = Hashtbl.create 16 in
      let page_addr p = Int64.of_int (0x10000 + (p * 4096)) in
      let key_of p s = (Int64.add (page_addr p) (Int64.of_int (s * 64)), 1, false) in
      let model_drop_page p =
        let pg = page_addr p in
        Hashtbl.iter
          (fun ((pa, _, _) as k) _ ->
            if Int64.equal (Int64.logand pa (Int64.lognot 0xFFFL)) pg then
              Hashtbl.remove model k)
          (Hashtbl.copy model)
      in
      List.iter
        (fun x ->
          let p = x / 5 mod 4 and s = x / 20 mod 4 in
          let k = key_of p s in
          match x mod 5 with
          | 0 ->
            CC.publish cc k x;
            Hashtbl.replace model k x
          | 1 ->
            let n_model =
              Hashtbl.fold
                (fun ((pa, _, _) : CC.key) _ n ->
                  if Int64.equal (Int64.logand pa (Int64.lognot 0xFFFL)) (page_addr p) then
                    n + 1
                  else n)
                model 0
            in
            let removed = CC.invalidate_page cc (page_addr p) in
            if List.length removed <> n_model then
              QCheck2.Test.fail_report "invalidate removed wrong count";
            model_drop_page p
          | 2 ->
            if CC.lookup cc k <> Hashtbl.find_opt model k then
              QCheck2.Test.fail_report "lookup disagrees with model"
          | 3 ->
            (* fresh token: taken now, used now — must install *)
            let g = CC.page_gen cc (page_addr p) in
            if not (CC.publish_if cc k ~gen:g x) then
              QCheck2.Test.fail_report "fresh publish_if refused";
            Hashtbl.replace model k x
          | _ ->
            (* stale token: page invalidated between take and use — the
               SMC tombstone must refuse the install *)
            let g = CC.page_gen cc (page_addr p) in
            ignore (CC.invalidate_page cc (page_addr p));
            model_drop_page p;
            if CC.publish_if cc k ~gen:g x then
              QCheck2.Test.fail_report "stale publish_if installed";
            if CC.lookup cc k <> None then
              QCheck2.Test.fail_report "tombstoned entry served")
        ops;
      if CC.length cc <> Hashtbl.length model then
        QCheck2.Test.fail_report "length disagrees with model";
      Hashtbl.iter
        (fun k v ->
          if CC.lookup cc k <> Some v then
            QCheck2.Test.fail_report "final lookup disagrees with model")
        model;
      true)

(* --- multi-domain cache interleavings ----------------------------------- *)

(* Writer domains race [page_gen]+[publish_if] against the main domain's
   [invalidate_page]; each published value is the generation token it
   was installed under.  Because the token check and the map update are
   one CAS, any entry observed after an invalidation that bumped the
   generation to G must carry a token >= G — i.e. no interleaving
   publishes pre-invalidation (pre-SMC) code past the tombstone.  One
   shard maximizes contention. *)
let test_cache_domains () =
  let cc : int CC.t = CC.create ~shards:1 () in
  let page = 0x7000L in
  let key = (Int64.add page 0x40L, 1, false) in
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let g = CC.page_gen cc page in
              ignore (CC.publish_if cc key ~gen:g g)
            done))
  in
  let violations = ref 0 in
  for _ = 1 to 20_000 do
    let g_before = CC.page_gen cc page in
    ignore (CC.invalidate_page cc page);
    (* generation is now at least g_before + 1 *)
    match CC.lookup cc key with
    | Some token when token < g_before + 1 -> incr violations
    | _ -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  Alcotest.(check int) "no pre-invalidation token ever served" 0 !violations

(* --- engine: SMC between job capture and install ------------------------ *)

let run_arm_stress config =
  let code, e = Harness.workload ~config "armv8-a-mmu" in
  (e, code)

(* A populated engine plus one plain tier-0 block to build a job from. *)
let engine_with_head () =
  let e, code = run_arm_stress CE.default_config in
  Alcotest.check Harness.exit_t "workload ran" (Workloads.Runner.Poweroff MS.arm_expected_exit)
    code;
  let head =
    CC.fold
      (fun _ tr acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if tr.CE.t_n_guest > 1 && tr.CE.t_members = 1 && Array.length tr.CE.t_exits = 0
          then Some tr
          else None)
      e.CE.cache None
  in
  match head with
  | Some head -> (e, head)
  | None -> Alcotest.fail "no tier-0 block in cache"

(* A region job headed by [head], captured as the engine would enqueue it. *)
let region_job e head =
  let members, _ = CE.select_members e head in
  CE.make_region_job e ~req:(CE.region_request e ~head ~members) ~members

(* Generation path: the page is invalidated (SMC) while the job is
   notionally on a worker; the install must be refused by the
   [publish_if] tombstone even though the bytes were restored
   identically (the generation, not the content, is authoritative for
   entries removed from the cache). *)
let test_smc_in_flight_generation () =
  let e, head = engine_with_head () in
  let job = region_job e head in
  let pa_page = job.CE.j_req.J.rq_pa_page in
  let stale0 = e.CE.stats.CE.jobs_stale in
  CE.invalidate_page e pa_page;
  let res = J.run e.CE.jenv job.CE.j_req in
  CE.install_job e job res;
  Alcotest.(check int) "install counted stale" (stale0 + 1) e.CE.stats.CE.jobs_stale;
  Alcotest.(check bool) "stale region not served" true
    (CC.lookup e.CE.cache head.CE.t_key = None);
  Alcotest.(check int) "head demoted for re-profiling" 0 head.CE.t_tier

(* Hash path: the guest bytes under the job change without an
   invalidation reaching the cache (generation unchanged), so only the
   enqueue-time guest-byte hash can catch it — a translation of pre-SMC
   bytes must never install. *)
let test_smc_in_flight_hash () =
  let e, head = engine_with_head () in
  let job = region_job e head in
  let res = J.run e.CE.jenv job.CE.j_req in
  let pa_head, _, _ = head.CE.t_key in
  (* raw write: bypasses phys_write and thus the invalidate hook *)
  let mem = e.CE.machine.Hvm.Machine.mem in
  Hvm.Mem.write8 mem pa_head (Int64.logxor (Hvm.Mem.read8 mem pa_head) 0xFFL);
  let stale0 = e.CE.stats.CE.jobs_stale in
  CE.install_job e job res;
  Alcotest.(check int) "install counted stale" (stale0 + 1) e.CE.stats.CE.jobs_stale

(* Control: with neither SMC path triggered, the same job installs. *)
let test_in_flight_clean_installs () =
  let e, head = engine_with_head () in
  let job = region_job e head in
  let members = job.CE.j_members in
  let res = J.run e.CE.jenv job.CE.j_req in
  let installed0 = e.CE.stats.CE.jobs_installed in
  CE.install_job e job res;
  Alcotest.(check int) "install counted" (installed0 + 1) e.CE.stats.CE.jobs_installed;
  (match CC.lookup e.CE.cache head.CE.t_key with
  | Some tr -> Alcotest.(check int) "region published" (List.length members) tr.CE.t_members
  | None -> Alcotest.fail "region not published")

(* --- engine: block and template jobs are pure ----------------------------- *)

(* A run that never promotes: every block stays a template-stitched
   tier -1 record, each a ready-made block or template request. *)
let cold_config = { CE.default_config with CE.hot_threshold = max_int }

let find_record e pred =
  match CC.fold (fun _ tr acc -> if acc = None && pred tr then Some tr else acc) e.CE.cache None with
  | Some tr -> tr
  | None -> Alcotest.fail "no matching record in the cache"

(* The stats delta minus its wall-clock timers. *)
let counters (s : CE.phase_stats) =
  { s with
    CE.t_decode = 0.;
    t_translate = 0.;
    t_regalloc = 0.;
    t_encode = 0.;
    t_template = 0.;
    t_tier0 = 0.;
    t_region = 0.;
    t_validate = 0.;
    t_analyze = 0.;
    t_reloc = 0.;
  }

let test_block_job_purity () =
  let e, _ = run_arm_stress { cold_config with CE.validate_translations = true } in
  let tr = find_record e (fun tr -> tr.CE.t_tier = -1 && tr.CE.t_n_guest > 1) in
  let pa, el, mmu_on = tr.CE.t_key in
  List.iter
    (fun (name, kind) ->
      let req = CE.block_request e ~kind ~va:tr.CE.t_va ~pa ~el ~mmu_on in
      let r1 = J.run e.CE.jenv req in
      Alcotest.(check int) (name ^ ": validated") 1 r1.J.r_stats.CE.blocks_validated;
      let r2 = J.run e.CE.jenv req in
      let same what (r : J.result) =
        Alcotest.(check bool) (name ^ ": " ^ what ^ ": same code") true (Bytes.equal r1.J.r_code r.J.r_code);
        Alcotest.(check bool) (name ^ ": " ^ what ^ ": same stats delta") true
          (counters r1.J.r_stats = counters r.J.r_stats)
      in
      same "rerun" r2;
      (* raw write: the request's snapshot, not guest memory, is what
         the job translates *)
      let mem = e.CE.machine.Hvm.Machine.mem in
      let old = Hvm.Mem.read8 mem pa in
      Hvm.Mem.write8 mem pa (Int64.logxor old 0xFFL);
      same "after a guest write" (J.run e.CE.jenv req);
      Hvm.Mem.write8 mem pa old)
    [ ("block", J.Block); ("template", J.Template) ]

(* --- engine: chain edges stay coherent across replace and remove ---------- *)

(* A loop whose body spans two guest pages, so its blocks chain into
   each other across a page boundary. *)
let two_page_loop () =
  let module A = Guest_arm.Arm_asm in
  let a = A.create ~base:K.user_va () in
  A.movz a A.x1 200;
  A.label a "loop";
  A.sub_imm a A.x1 A.x1 1;
  A.b a "far";
  while Int64.logand (A.here a) 0xFFFL <> 0L do
    A.nop a
  done;
  A.label a "far";
  A.cbnz a A.x1 "loop";
  A.movz a A.x0 0;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let run_two_page config =
  let code, e = Harness.captive ~config (Harness.user (two_page_loop ())) in
  Alcotest.check Harness.exit_t "loop ran" (Workloads.Runner.Poweroff 0) code;
  e

let live e (tgt : CE.translation) =
  match CC.lookup e.CE.cache tgt.CE.t_key with Some cur -> cur == tgt | None -> false

(* Every chain edge of every published record must target the record
   currently published under the target's key: a chain hit bypasses the
   cache, so an edge into a replaced or invalidated record runs stale
   code. *)
let check_edges what e =
  let ok = function None -> true | Some (_, _, tgt) -> live e tgt in
  CC.iter
    (fun _ tr ->
      if not (ok tr.CE.t_chain && Array.for_all ok tr.CE.t_exits) then
        Alcotest.failf "%s: an edge of va 0x%Lx targets a stale record" what tr.CE.t_va)
    e.CE.cache

let page_of (tr : CE.translation) =
  let pa, _, _ = tr.CE.t_key in
  Int64.logand pa (Int64.lognot 0xFFFL)

(* A published record matching [pred] that another record chains into
   (from another page with [cross_page]: one an invalidation of the
   target's page leaves published), so the event replacing or removing
   it has an edge to unlink. *)
let edge_target ?(cross_page = false) e pred =
  let targets =
    CC.fold
      (fun _ tr acc ->
        List.fold_left
          (fun acc edge ->
            match edge with
            | Some (_, _, tgt)
              when pred tgt && tgt != tr && live e tgt
                   && ((not cross_page) || page_of tgt <> page_of tr) ->
              tgt :: acc
            | _ -> acc)
          acc
          (tr.CE.t_chain :: Array.to_list tr.CE.t_exits))
      e.CE.cache []
  in
  match targets with tgt :: _ -> tgt | [] -> Alcotest.fail "no chained-into record"

let plain tr = tr.CE.t_members = 1 && Array.length tr.CE.t_exits = 0 && tr.CE.t_n_guest > 0

let install_region_sync e ~head ~members =
  let req = CE.region_request e ~head ~members in
  ignore (CE.install e ~members req (J.run e.CE.jenv req))

let with_aot_dir f =
  let dir = Filename.temp_file "captive_chain_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* One row per event that replaces or removes a published record: each
   runs the workload without promotion, applies the event to a record
   other pages chain into, and returns the engine to check. *)
let chain_edge_events =
  let on_target ?cross_page pred event () =
    let e = run_two_page cold_config in
    event e (edge_target ?cross_page e pred);
    e
  in
  [
    ( "region install (sync)",
      on_target plain (fun e head ->
          let members, _ = CE.select_members e head in
          install_region_sync e ~head ~members) );
    ( "region install (async)",
      on_target plain (fun e head ->
          let job = region_job e head in
          CE.install_job e job (J.run e.CE.jenv job.CE.j_req);
          Alcotest.(check int) "async install published" 1 e.CE.stats.CE.jobs_installed) );
    ( "AOT region install",
      fun () ->
        with_aot_dir (fun dir ->
            let config = { cold_config with CE.aot_dir = Some dir } in
            (* a first boot persists a region unit... *)
            let a = run_two_page config in
            let head = edge_target a plain in
            let members, _ = CE.select_members a head in
            install_region_sync a ~head ~members;
            (* ...which a second boot reinstalls from disk over the same
               blocks *)
            let b = run_two_page config in
            let members =
              List.map
                (fun m ->
                  match CC.lookup b.CE.cache m.CE.t_key with
                  | Some tr -> tr
                  | None -> Alcotest.fail "member not translated on the second boot")
                members
            in
            let head = List.hd members in
            Alcotest.(check bool) "head chained into" true (edge_target b (fun tr -> tr == head) == head);
            let req = CE.region_request b ~head ~members in
            match CE.aot_probe b req with
            | Some res ->
              Alcotest.(check bool) "loaded from disk" true res.J.r_aot;
              ignore (CE.install b ~members req res);
              b
            | None -> Alcotest.fail "no AOT region entry") );
    ( "repipeline of a hot template head",
      on_target (fun tr -> plain tr && tr.CE.t_tier = -1) (fun e head ->
          ignore (CE.repipeline e head)) );
    ( "SMC invalidation",
      on_target ~cross_page:true plain (fun e head -> CE.invalidate_page e (page_of head)) );
  ]

let test_chain_edges () =
  List.iter (fun (name, event) -> check_edges name (event ())) chain_edge_events

(* --- engine: multi-domain equivalence and determinism ------------------- *)

let stress_config ~domains ~seed =
  {
    CE.default_config with
    CE.sanitize = true;
    sanitize_every = 32;
    hot_threshold = 4;
    domains;
    stress_seed = seed;
  }

let test_multi_domain_equivalence () =
  let e1, code1 = run_arm_stress (stress_config ~domains:1 ~seed:None) in
  List.iter
    (fun seed ->
      let e3, code3 =
        run_arm_stress (stress_config ~domains:3 ~seed:(Some (Int64.of_int seed)))
      in
      Fun.protect
        ~finally:(fun () -> CE.shutdown e3)
        (fun () ->
          Alcotest.check Harness.exit_t "same exit code" code1 code3;
          Alcotest.(check string) "same uart output" (CE.uart_output e1) (CE.uart_output e3);
          CE.sanitize_check e3 ~reason:"final";
          match e3.CE.sanitizer with
          | Some s ->
            List.iter (fun f -> print_endline (San.string_of_finding f)) (San.findings s);
            Alcotest.(check bool) "no sanitizer findings" true (San.ok s)
          | None -> Alcotest.fail "sanitizer missing"))
    [ 1; 2; 3 ]

let test_single_domain_determinism () =
  let e_a, code_a = run_arm_stress CE.default_config in
  let e_b, code_b = run_arm_stress CE.default_config in
  Alcotest.check Harness.exit_t "same exit" code_a code_b;
  Alcotest.(check int) "same cycles" (CE.cycles e_a) (CE.cycles e_b);
  Alcotest.(check int) "same exec cycles" (CE.exec_cycles e_a) (CE.exec_cycles e_b);
  Alcotest.(check int) "same jit cycles" (CE.jit_cycles e_a) (CE.jit_cycles e_b);
  Alcotest.(check int) "no async jit cycles at domains=1" 0 (CE.async_jit_cycles e_a)

(* --- stats: per-domain counter shards merge exactly --------------------- *)

let test_counters_merge () =
  let c = Dbt_util.Stats.Counters.create () in
  Dbt_util.Stats.Counters.bump c "hits";
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Dbt_util.Stats.Counters.bump c "hits"
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "merged total" 40_001 (Dbt_util.Stats.Counters.get c "hits")

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "concurrent",
    [
      q test_cache_model;
      Alcotest.test_case "cache under domain contention" `Slow test_cache_domains;
      Alcotest.test_case "SMC in flight: generation tombstone" `Slow
        test_smc_in_flight_generation;
      Alcotest.test_case "SMC in flight: guest-byte hash" `Slow test_smc_in_flight_hash;
      Alcotest.test_case "clean in-flight install" `Slow test_in_flight_clean_installs;
      Alcotest.test_case "block and template jobs are pure" `Slow test_block_job_purity;
      Alcotest.test_case "chain edges target published records" `Slow test_chain_edges;
      Alcotest.test_case "multi-domain equivalence" `Slow test_multi_domain_equivalence;
      Alcotest.test_case "single-domain determinism" `Slow test_single_domain_determinism;
      Alcotest.test_case "counters merge across domains" `Quick test_counters_merge;
    ] )
