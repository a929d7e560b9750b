(* Tiered-translation tests: hot-block promotion fires exactly once,
   regions are invalidated (and re-formed) on self-modifying code, the
   tier-0-only path is cycle-identical with tiering compiled out, and a
   randomised property checks region units are observationally equivalent
   to per-block translation. *)

open Harness

let run ?config image = captive ?config (bare image)

let untiered = { CE.default_config with tiering = false }

(* A single self-looping block: the hot-path shape SPEC-style kernels
   reduce to, and the one that exercises self-loop region formation. *)
let counted_loop iters =
  bare_metal (fun a ->
      A.movz a A.x0 0;
      A.mov_const a A.x19 (Int64.of_int iters);
      A.label a "loop";
      A.add_imm a A.x0 A.x0 1;
      A.subs_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "loop")

let test_promotion_exactly_once () =
  let image = counted_loop 2000 in
  let config = { CE.default_config with hot_threshold = 8 } in
  let code, e = run ~config image in
  let code_u, _ = run ~config:untiered image in
  Alcotest.check exit_t "tiered exit matches untiered" code_u code;
  Alcotest.check exit_t "loop counted to completion" (R.Poweroff (2000 land 0xFF)) code;
  (* Only the loop body crosses the threshold, and once promoted its
     tier-1 region must never be re-promoted. *)
  Alcotest.(check int) "exactly one promotion" 1 e.CE.stats.CE.promotions;
  Alcotest.(check int) "exactly one region formed" 1 e.CE.stats.CE.regions_formed;
  Alcotest.(check bool) "region actually entered" true (e.CE.stats.CE.region_entries > 0);
  Alcotest.(check bool)
    "region executed member blocks" true
    (e.CE.stats.CE.region_block_execs >= 1000)

(* A call-snippet made hot enough to sit inside a region, patched in
   place, then run hot again: the write must demote the region (SMC
   invalidation) and the re-formed region must execute the new code. *)
let smc_image () =
  bare_metal (fun a ->
        A.movz a A.x20 0;
        A.adr a A.x21 "snippet";
        A.movz a A.x19 8;
        A.label a "phase1";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.subs_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "phase1";
        (* patch: rewrite snippet's first instruction to movz x0,#2 *)
        (let w = (0b110100101 lsl 23) lor (2 lsl 5) lor 0 in
         A.mov_const a A.x22 (Int64.of_int w));
        A.str32 a A.x22 A.x21;
        A.movz a A.x19 8;
        A.label a "phase2";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.subs_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "phase2";
        A.mov_reg a A.x0 A.x20;
        A.b a "done";
        A.label a "snippet";
        A.movz a A.x0 1;
        A.ret a;
        A.label a "done")

let test_smc_invalidates_region () =
  let image = smc_image () in
  let config = { CE.default_config with hot_threshold = 2 } in
  let code, e = run ~config image in
  Alcotest.check exit_t "patched snippet observed hot (8*1 + 8*2)" (R.Poweroff 24) code;
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0);
  Alcotest.(check bool)
    "demoted code re-promoted after the patch" true
    (e.CE.stats.CE.promotions >= 2);
  let code_u, _ = run ~config:untiered image in
  Alcotest.check exit_t "untiered agrees" code_u code

let test_smc_reanalysis () =
  (* Staleness audit for the analysis layer: abstract facts are consumed
     at translate time and never cached per-translation, so an SMC
     invalidation has nothing to drop — the demoted code's re-formed
     region must be re-analyzed from scratch (the region counter keeps
     growing past the first formation) and every obligation must still
     prove. *)
  let config =
    { CE.default_config with hot_threshold = 2; analyze_translations = true }
  in
  let code, e = run ~config (smc_image ()) in
  Alcotest.check exit_t "exit unchanged under analysis" (R.Poweroff 24) code;
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0);
  Alcotest.(check bool) "re-formed region re-analyzed" true (e.CE.stats.CE.regions_analyzed >= 2);
  Alcotest.(check bool) "tier-0 blocks analyzed" true (e.CE.stats.CE.blocks_analyzed > 0);
  Alcotest.(check int) "no obligation findings across demote/re-form" 0
    e.CE.stats.CE.obligation_findings

let test_tier0_cycle_identity () =
  (* With the threshold unreachable and the template tier disabled, the
     tiering machinery must be free: identical cycle counts to a build
     with tiering off.  (Templates are switched off because the template
     tier deliberately changes translate cost — and slightly changes
     emitted code — below the threshold; test_template.ml covers its
     equivalence.) *)
  let image = counted_loop 5000 in
  let cold =
    { CE.default_config with tiering = true; templates = false; hot_threshold = max_int }
  in
  let code_c, e_c = run ~config:cold image in
  let code_u, e_u = run ~config:untiered image in
  Alcotest.check exit_t "exit codes agree" code_u code_c;
  Alcotest.(check int)
    "cycle-identical when no block ever gets hot"
    (CE.cycles e_u) (CE.cycles e_c);
  Alcotest.(check int) "no promotions below threshold" 0 e_c.CE.stats.CE.promotions

(* Randomised loop bodies, sometimes multi-block (a data-dependent forward
   skip), executed hot: region translation must be observationally
   equivalent to per-block tier-0 translation. *)
let random_loop_program seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 77L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 8 in
  let a = A.create ~base:0x80000L () in
  A.mov_const a A.x20 0x200000L;
  for i = 0 to 7 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  A.movz a A.x19 40;
  A.label a "loop";
  let body n =
    for _ = 1 to n do
      match r 12 with
      | 0 -> A.add_reg a (reg ()) (reg ()) (reg ())
      | 1 -> A.subs_reg a (reg ()) (reg ()) (reg ())
      | 2 -> A.eor_reg a (reg ()) (reg ()) (reg ())
      | 3 -> A.and_reg a (reg ()) (reg ()) (reg ())
      | 4 -> A.orr_reg a (reg ()) (reg ()) (reg ())
      | 5 -> A.mul a (reg ()) (reg ()) (reg ())
      | 6 -> A.udiv a (reg ()) (reg ()) (reg ())
      | 7 -> A.add_imm a (reg ()) (reg ()) (r 4096)
      | 8 -> A.csel a (reg ()) (reg ()) (reg ()) (List.nth [ A.EQ; A.LT; A.HI; A.VS ] (r 4))
      | 9 -> A.clz a (reg ()) (reg ())
      | 10 -> A.str ~off:(8 * r 32) a (reg ()) A.x20
      | _ -> A.ldr ~off:(8 * r 32) a (reg ()) A.x20
    done
  in
  body (2 + r 5);
  (* data-dependent forward skip: makes the loop multi-block and gives the
     region's side exits something to do *)
  A.tbz a (reg ()) (r 8) "skip";
  body (1 + r 4);
  A.label a "skip";
  body (1 + r 3);
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  (* dump x0..x7 *)
  dump_and_halt a ~regs:8 ~flags:[ A.EQ; A.CS ]

let prop_region_vs_block =
  QCheck2.Test.make ~name:"random hot loops: region unit = per-block translation" ~count:20
    QCheck2.Gen.int64 (fun seed ->
      let image = bare (random_loop_program seed) in
      let hot = { CE.default_config with hot_threshold = 2 } in
      let o_t = Harness.run (R.Captive hot) image in
      let o_u = Harness.run (R.Captive untiered) image in
      let d_t = dump 10 o_t in
      d_t <> [] && d_t = dump 10 o_u && (R.captive_of o_t).CE.stats.CE.regions_formed >= 1)

let suite =
  ( "tiered",
    [
      Alcotest.test_case "promotion exactly once" `Quick test_promotion_exactly_once;
      Alcotest.test_case "SMC demotes and re-forms regions" `Quick test_smc_invalidates_region;
      Alcotest.test_case "SMC re-translation re-analyzes, no stale facts" `Quick
        test_smc_reanalysis;
      Alcotest.test_case "tier-0-only cycle identity" `Quick test_tier0_cycle_identity;
      QCheck_alcotest.to_alcotest prop_region_vs_block;
    ] )
