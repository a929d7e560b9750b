(* Register-promotion tests: the Promote pass rewrites synthetic
   streams as specified (promotion, rf forwarding, identity-ALU
   canonicalization), the writeback verifier rejects the documented bad
   shapes, and two differential properties check that promoted regions are observationally
   equivalent to per-block tier-0 execution — including when guest
   faults are delivered from the middle of a promoted region. *)

module H = Hostir.Hir
module P = Hostir.Promote
module V = Hostir.Verify
module A = Guest_arm.Arm_asm
module CE = Captive.Engine
module K = Workloads.Kernel

let v n = H.Vreg n

(* --- Promote.run on synthetic streams ---------------------------------------------- *)

let count p instrs = Array.fold_left (fun a i -> if p i then a + 1 else a) 0 instrs

let test_promotion_rewrite () =
  (* A two-offset loop body: both offsets are loop-weighted well past
     the promotion threshold, so both get cached and the stream ends in
     a writeback map covering the dirty pair. *)
  let stream =
    [|
      H.Label 0;
      H.Ldrf (v 0, 8);
      H.Alu (H.Aadd, v 0, v 0, H.Imm 1L);
      H.Strf (8, v 0);
      H.Ldrf (v 1, 16);
      H.Alu (H.Asub, v 1, v 1, H.Imm 1L);
      H.Strf (16, v 1);
      H.Br (v 1, 0, 1);
      H.Label 1;
      H.Exit 1;
    |]
  in
  let out, promoted, st = P.run stream in
  Alcotest.(check int) "both offsets promoted" 2 (List.length promoted);
  Alcotest.(check int) "2 loads rewritten" 2 st.P.loads_rewritten;
  Alcotest.(check int) "2 stores rewritten" 2 st.P.stores_rewritten;
  Alcotest.(check int) "both dirty offsets in the map" 2 st.P.wb_entries;
  Alcotest.(check int) "one writeback map"
    1 (count (function H.Wbmap _ -> true | _ -> false) out);
  (* Interior accesses are gone: the only Ldrfs left are the two
     prologue loads, and no Strf survives (the map covers exits). *)
  Alcotest.(check int) "only prologue rf loads remain"
    2 (count (function H.Ldrf _ -> true | _ -> false) out);
  Alcotest.(check int) "no interior rf stores remain"
    0 (count (function H.Strf _ -> true | _ -> false) out);
  Alcotest.(check_raises) "verifier accepts the rewrite" Not_found (fun () ->
      V.check_wb_exn ~promoted out;
      raise Not_found)

let test_rf_forward_and_canonicalize () =
  (* Below the promotion threshold, a register-file store still forwards
     into the next load of the same offset. *)
  let out, promoted, st =
    P.run [| H.Strf (24, v 0); H.Ldrf (v 1, 24); H.Exit 0 |]
  in
  Alcotest.(check int) "cold offset not promoted" 0 (List.length promoted);
  Alcotest.(check int) "rf load forwarded" 1 st.P.rf_loads_forwarded;
  Alcotest.(check int) "the store still executes"
    1 (count (function H.Strf _ -> true | _ -> false) out);
  (* Identity ALUs become moves and propagate through to address uses. *)
  let out, _, _ =
    P.run
      [|
        H.Alu (H.Aadd, v 1, v 0, H.Imm 0L);
        H.Alu (H.Aand, v 2, v 1, H.Imm (-1L));
        H.Mem_ld (64, v 3, v 2);
        H.Exit 0;
      |]
  in
  Alcotest.(check int) "identity ALUs canonicalized away"
    0 (count (function H.Alu _ -> true | _ -> false) out);
  Alcotest.(check int) "load address propagated to the original vreg"
    1 (count (function H.Mem_ld (64, _, H.Vreg 0) -> true | _ -> false) out)

(* --- Verify.check_wb fixtures ------------------------------------------------------ *)

let promoted = [ (10, 8) ]

let msgs vs = String.concat "; " (List.map (fun x -> x.V.v_msg) vs)
let has sub vs =
  let m = msgs vs in
  let n = String.length sub in
  let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
  go 0

let test_wb_fixtures () =
  let ok =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Exit 0;
      H.Wbmap [| (v 10, 8) |];
    |]
  in
  Alcotest.(check (list pass)) "consistent stream accepted" [] (V.check_wb ~promoted ok);
  (* Dirty at the exit with no covering entry. *)
  let missing =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Exit 0;
      H.Wbmap [||];
    |]
  in
  Alcotest.(check bool) "missing writeback entry rejected" true
    (has "no writeback entry" (V.check_wb ~promoted missing));
  (* Map entry naming the wrong offset for its register. *)
  let stale =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Strf (8, v 10);
      H.Exit 0;
      H.Wbmap [| (v 10, 16) |];
    |]
  in
  Alcotest.(check bool) "stale writeback entry rejected" true
    (has "stale writeback entry" (V.check_wb ~promoted stale));
  (* A helper call is a mandatory flush point. *)
  let call =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Call (0, [||], None);
      H.Ldrf (v 10, 8);
      H.Exit 0;
      H.Wbmap [| (v 10, 8) |];
    |]
  in
  Alcotest.(check bool) "dirty value across a call rejected" true
    (has "helper call reachable" (V.check_wb ~promoted call));
  (* A reachable safepoint with a dirty register and no map entry. *)
  let poll =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Poll 0;
      H.Strf (8, v 10);
      H.Exit 0;
      H.Wbmap [||];
    |]
  in
  Alcotest.(check bool) "uncovered dirty safepoint rejected" true
    (has "safepoint" (V.check_wb ~promoted poll));
  match V.check_wb_exn ~promoted missing with
  | () -> Alcotest.fail "check_wb_exn did not raise"
  | exception V.Invalid _ -> ()

(* --- differential properties ------------------------------------------------------- *)


(* Random loop bodies dense in memory traffic through one base register:
   the shape store-to-load forwarding and promotion both fire on.  Final
   x0..x7 plus the flags are dumped to memory and compared. *)
let random_mem_loop seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 91L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 8 in
  let a = A.create ~base:0x80000L () in
  A.mov_const a A.x20 0x200000L;
  for i = 0 to 7 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  A.movz a A.x19 50;
  A.label a "loop";
  for _ = 1 to 4 + r 6 do
    match r 10 with
    | 0 | 1 | 2 -> A.str ~off:(8 * r 8) a (reg ()) A.x20
    | 3 | 4 | 5 -> A.ldr ~off:(8 * r 8) a (reg ()) A.x20
    | 6 -> A.add_reg a (reg ()) (reg ()) (reg ())
    | 7 -> A.eor_reg a (reg ()) (reg ()) (reg ())
    | 8 -> A.add_imm a (reg ()) (reg ()) (r 4096)
    | _ -> A.subs_reg a (reg ()) (reg ()) (reg ())
  done;
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  Harness.dump_and_halt a ~regs:8 ~flags:[ A.EQ ]

let run_dump config image =
  let o = Harness.run (Workloads.Runner.Captive config) (Harness.bare image) in
  (Harness.dump 9 o, Workloads.Runner.captive_of o)

let prop_promoted_vs_block =
  QCheck2.Test.make
    ~name:"random hot loops: promoted region = tier-0 per-block execution" ~count:20
    QCheck2.Gen.int64 (fun seed ->
      let image = random_mem_loop seed in
      let hot = { CE.default_config with hot_threshold = 2 } in
      let unpromoted = { hot with promote = false } in
      let untiered = { CE.default_config with tiering = false } in
      let d_p, e_p = run_dump hot image in
      let d_n, _ = run_dump unpromoted image in
      let d_u, _ = run_dump untiered image in
      d_p <> [] && d_p = d_n && d_p = d_u
      && e_p.CE.stats.CE.regions_formed >= 1)

(* Mid-region guest faults: a hot user loop increments promoted
   register state and then performs a load of an unmapped user VA every
   iteration.  The kernel's abort handler counts the fault and skips
   the instruction, so execution re-enters the (promoted) region
   constantly across fault deliveries.  If writeback maps were missing
   or stale, the increments sitting in promoted host registers at the
   fault point would be lost or doubled and the final sum would differ
   from the tier-0 engines. *)
let fault_loop_user iters =
  let a = A.create ~base:K.user_va () in
  A.movz a A.x1 5;
  A.movz a A.x5 0;
  (* just past the 2 MiB user block: translation fault on every access *)
  A.mov_const a A.x3 (Int64.add K.user_va 0x210000L);
  A.mov_const a A.x19 (Int64.of_int iters);
  A.label a "loop";
  A.add_imm a A.x1 A.x1 1;
  A.ldr a A.x4 A.x3;
  A.add_reg a A.x5 A.x5 A.x1;
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  (* x0 = faults() + x1, truncated to the 8-bit exit code *)
  A.movz a A.x8 4;
  A.svc a 0;
  A.add_reg a A.x0 A.x0 A.x1;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let test_fault_mid_region () =
  let iters = 300 in
  let user = fault_loop_user iters in
  let run config = Harness.captive ~config (Harness.user user) in
  let code_p, e_p = run CE.default_config in
  let code_n, _ = run { CE.default_config with promote = false } in
  let code_u, _ = run { CE.default_config with tiering = false } in
  let expect = (iters + 5 + iters) land 0xFF in
  Alcotest.check Harness.exit_t "faults counted and increments preserved"
    (Workloads.Runner.Poweroff expect) code_p;
  Alcotest.check Harness.exit_t "promotion-off agrees" code_n code_p;
  Alcotest.check Harness.exit_t "tier-0 agrees" code_u code_p;
  Alcotest.(check bool) "a region was entered" true (e_p.CE.stats.CE.region_entries > 0);
  Alcotest.(check bool) "registers were promoted" true (e_p.CE.stats.CE.rf_promoted > 0);
  Alcotest.(check bool) "faults were delivered" true
    (e_p.CE.machine.Hvm.Machine.faults >= iters)

let suite =
  ( "promote",
    [
      Alcotest.test_case "promotion rewrite + writeback map" `Quick test_promotion_rewrite;
      Alcotest.test_case "rf forwarding + canonicalize" `Quick test_rf_forward_and_canonicalize;
      Alcotest.test_case "writeback verifier fixtures" `Quick test_wb_fixtures;
      Alcotest.test_case "guest faults mid-region" `Quick test_fault_mid_region;
      QCheck_alcotest.to_alcotest prop_promoted_vs_block;
    ] )
