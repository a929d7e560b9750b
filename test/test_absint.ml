(* Tests for the abstract-interpretation layer: the shared domain
   (Dbt_util.Absval) — lattice laws and every shared transfer against
   concrete arithmetic — then Ssa.Absint's transfer soundness against the
   concrete evaluator, the precision both absint layers now share, whole-action soundness against the SSA interpreter, the
   translation validator, the out-of-range access checker, and the
   analysis-driven absint-simplify pass. *)

open Ssa
module A = Absint
module Av = Dbt_util.Absval

let toy_arch () = Lazy.force Toy_arch.arch
let model () = Lazy.force Toy_arch.model

let build_unopt name =
  let arch = toy_arch () in
  Build.execute arch (Option.get (Adl.Ast.find_execute arch name))

let build_opt level name =
  let action = build_unopt name in
  let ctx = Offline.opt_context (toy_arch ()) name in
  Opt.optimize ~ctx ~level action;
  action

(* --- random abstract values paired with a concrete member ----------------- *)

(* Concrete values biased toward the edges transfers get wrong: small
   values, 2^k and its neighbours, and bit 63 set. *)
let rand64 prng =
  let k = Dbt_util.Prng.int prng 64 in
  let p = Int64.shift_left 1L k in
  match Dbt_util.Prng.int prng 8 with
  | 0 -> Int64.of_int (Dbt_util.Prng.int prng 256)
  | 1 -> Int64.of_int (Dbt_util.Prng.int prng 65536)
  | 2 -> Dbt_util.Prng.int64 prng
  | 3 -> Int64.neg (Int64.of_int (1 + Dbt_util.Prng.int prng 256))
  | 4 -> p
  | 5 -> Int64.sub p 1L
  | 6 -> Int64.add p 1L
  | _ -> Int64.logor Int64.min_int (Dbt_util.Prng.int64 prng)

let sample prng : Av.t * int64 =
  let c = rand64 prng in
  match Dbt_util.Prng.int prng 6 with
  | 0 -> (Av.const c, c)
  | 1 -> (Av.top, c)
  | 2 ->
    let d = rand64 prng in
    let lo, hi = if Int64.unsigned_compare c d <= 0 then (c, d) else (d, c) in
    (Av.range lo hi, c)
  | 3 -> (Av.join (Av.const c) (Av.const (rand64 prng)), c)
  | 4 ->
    (* Known bits: a random subset of [c]'s bits pinned. *)
    let m = Dbt_util.Prng.int64 prng in
    (Av.make (Int64.logand (Int64.lognot c) m) (Int64.logand c m) 0L (-1L), c)
  | _ ->
    let w = 1 + Dbt_util.Prng.int prng 64 in
    let mask = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L in
    let c = Int64.logand c mask in
    (Av.of_width w, c)

let test_lattice_basics () =
  Alcotest.(check bool) "bot is bot" true (Av.is_bot Av.bot);
  Alcotest.(check bool) "top not bot" false (Av.is_bot Av.top);
  Alcotest.(check (option int64)) "const singleton" (Some 42L) (Av.is_const (Av.const 42L));
  Alcotest.(check bool) "top contains -1" true (Av.contains Av.top (-1L));
  Alcotest.(check bool) "bot leq const" true (Av.leq Av.bot (Av.const 7L));
  Alcotest.(check bool) "const leq top" true (Av.leq (Av.const 7L) Av.top);
  Alcotest.(check bool) "range membership" true (Av.contains (Av.range 10L 20L) 15L);
  Alcotest.(check bool) "range exclusion" false (Av.contains (Av.range 10L 20L) 21L);
  (* of_width carries both halves of the product domain *)
  Alcotest.(check bool) "width-8 excludes 256" false (Av.contains (Av.of_width 8) 256L);
  Alcotest.(check int64) "width-8 known zeros" (Int64.lognot 0xFFL) (Av.known_zeros (Av.of_width 8));
  Alcotest.(check int64) "const known ones" 0x5L (Av.known_ones (Av.const 5L))

let test_lattice_random () =
  let prng = Dbt_util.Prng.create 101L in
  for _ = 1 to 2000 do
    let a, x = sample prng in
    let b, y = sample prng in
    let j = Av.join a b in
    if not (Av.contains j x && Av.contains j y) then
      Alcotest.failf "join %s %s = %s loses a member" (Av.to_string a) (Av.to_string b)
        (Av.to_string j);
    if not (Av.leq a j && Av.leq b j) then
      Alcotest.failf "join %s %s = %s is not an upper bound" (Av.to_string a) (Av.to_string b)
        (Av.to_string j);
    let w = Av.widen a b in
    if not (Av.leq j w) then
      Alcotest.failf "widen %s %s = %s below join %s" (Av.to_string a) (Av.to_string b)
        (Av.to_string w) (Av.to_string j);
    (if Av.contains a y && Av.contains b y then
       let m = Av.meet a b in
       if not (Av.contains m y) then
         Alcotest.failf "meet %s %s = %s loses shared member %Ld" (Av.to_string a)
           (Av.to_string b) (Av.to_string m) y);
    if not (Av.leq a a) then Alcotest.failf "leq not reflexive on %s" (Av.to_string a)
  done

let test_widen_converges () =
  (* Ascending chains stabilize: widening climbs the 2^k-1 ladder, so at
     most ~64 strict increases are possible. *)
  let v = ref (Av.const 0L) in
  let steps = ref 0 in
  (try
     for i = 1 to 200 do
       let next = Av.widen !v (Av.range 0L (Int64.of_int (2 * i))) in
       if Av.leq next !v then raise Exit;
       v := next;
       incr steps
     done;
     Alcotest.fail "widening chain did not stabilize in 200 steps"
   with Exit -> ());
  Alcotest.(check bool) "stabilized within 70 strict steps" true (!steps <= 70)

let test_transfer_soundness () =
  let prng = Dbt_util.Prng.create 202L in
  let binops =
    [ Adl.Ast.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ]
  in
  for _ = 1 to 3000 do
    let a, x = sample prng in
    let b, y = sample prng in
    let op = List.nth binops (Dbt_util.Prng.int prng (List.length binops)) in
    let signed = Dbt_util.Prng.int prng 2 = 0 in
    let concrete = Adl.Eval.binop op ~signed x y in
    let abstract = A.binary op ~signed a b in
    if not (Av.contains abstract concrete) then
      Alcotest.failf "unsound binary %s: %Ld op %Ld = %Ld not in %s (from %s, %s)"
        (Ir.string_of_binop op) x y concrete (Av.to_string abstract) (Av.to_string a)
        (Av.to_string b)
  done;
  let unops = [ Adl.Ast.Neg; Adl.Ast.Not; Adl.Ast.Lnot ] in
  for _ = 1 to 1000 do
    let a, x = sample prng in
    let op = List.nth unops (Dbt_util.Prng.int prng 3) in
    let concrete = Adl.Eval.unop op x in
    let abstract = A.unary op a in
    if not (Av.contains abstract concrete) then
      Alcotest.failf "unsound unary: %Ld -> %Ld not in %s" x concrete (Av.to_string abstract)
  done

(* Every shared transfer and the comparison decider against concrete
   64-bit arithmetic, under the rule x / 0 = 0 and x rem 0 = x. *)
let test_absval_transfers () =
  let prng = Dbt_util.Prng.create 404L in
  let sh y = Int64.to_int (Int64.logand y 63L) in
  let binops =
    [
      ("add", Av.add, Int64.add);
      ("sub", Av.sub, Int64.sub);
      ("mul", Av.mul, Int64.mul);
      ("and", Av.logand, Int64.logand);
      ("or", Av.logor, Int64.logor);
      ("xor", Av.logxor, Int64.logxor);
      ("shl", Av.shl, fun x y -> Dbt_util.Bits.shl x (sh y));
      ("lshr", Av.lshr, fun x y -> Dbt_util.Bits.shr x (sh y));
      ("ashr", Av.ashr, fun x y -> Dbt_util.Bits.sar x (sh y));
      ("udiv", Av.udiv, fun x y -> if y = 0L then 0L else Int64.unsigned_div x y);
      ("urem", Av.urem, fun x y -> if y = 0L then x else Int64.unsigned_rem x y);
    ]
  in
  let cmps =
    let u f x y = f (Int64.unsigned_compare x y) 0 and s f x y = f (Int64.compare x y) 0 in
    [
      (Av.Eq, "eq", ( = ), ( = ));
      (Av.Ne, "ne", ( <> ), ( <> ));
      (Av.Lt, "lt", u ( < ), s ( < ));
      (Av.Le, "le", u ( <= ), s ( <= ));
      (Av.Gt, "gt", u ( > ), s ( > ));
      (Av.Ge, "ge", u ( >= ), s ( >= ));
    ]
  in
  let fail what x y r v = Alcotest.failf "unsound %s %Ld %Ld = %Ld not in %s" what x y r v in
  for _ = 1 to 5000 do
    let a, x = sample prng and b, y = sample prng in
    List.iter
      (fun (name, f, g) ->
        let r = g x y and v = f a b in
        if not (Av.contains v r) then
          fail (Printf.sprintf "%s (%s, %s)" name (Av.to_string a) (Av.to_string b)) x y r
            (Av.to_string v))
      binops;
    (let v = Av.lognot a in
     if not (Av.contains v (Int64.lognot x)) then
       fail ("not " ^ Av.to_string a) x 0L (Int64.lognot x) (Av.to_string v));
    List.iter
      (fun (op, name, ucmp, scmp) ->
        List.iter
          (fun signed ->
            let r = (if signed then scmp else ucmp) x y in
            (match Av.decide op ~signed a b with
            | Some d when d <> r ->
              Alcotest.failf "decide %s signed=%b (%s, %s) = %b but %Ld, %Ld gives %b" name signed
                (Av.to_string a) (Av.to_string b) d x y r
            | _ -> ());
            if not (Av.contains (Av.cmp_value op ~signed a b) (if r then 1L else 0L)) then
              Alcotest.failf "cmp_value %s signed=%b (%s, %s) excludes %b" name signed
                (Av.to_string a) (Av.to_string b) r)
          [ false; true ])
      cmps;
    let bits = 1 + Dbt_util.Prng.int prng 64 in
    List.iter
      (fun signed ->
        let r =
          if signed then Dbt_util.Bits.sign_extend x ~width:bits
          else Dbt_util.Bits.zero_extend x ~width:bits
        in
        let v = Av.normalize ~bits ~signed a in
        if not (Av.contains v r) then
          Alcotest.failf "unsound normalize %d/%b: %Ld -> %Ld not in %s (from %s)" bits signed x
            r (Av.to_string v) (Av.to_string a))
      [ false; true ]
  done

(* The precision both layers share for ashr, udiv/urem and signed
   equality.  Each check covers one case on every layer whose IR has
   the operation. *)
let test_precision_unified () =
  let module H = Hostir.Hir in
  let module HA = Hostir.Absint in
  let host ins srcs =
    let s =
      List.fold_left (fun s (r, v) -> HA.write s (H.Vreg r) v) HA.state_top srcs
    in
    HA.read (HA.transfer ~classify:(fun _ -> Hostir.Effects.C_pure) s ins) (H.Vreg 9)
  in
  let a = Av.range 100L 200L in
  (* 1. ashr of a non-negative value by an unknown amount is [0, hi]. *)
  let amt = Av.range 0L 63L in
  let ssa1 = A.binary Adl.Ast.Shr ~signed:true a amt in
  let host1 = host (H.Alu (H.Asar, H.Vreg 9, H.Vreg 0, H.Vreg 1)) [ (0, a); (1, amt) ] in
  Alcotest.(check (list string)) "ashr by unknown amount of a non-negative value"
    [ "[0,200]"; "[0,200]" ] [ Av.to_string ssa1; Av.to_string host1 ];
  (* 2. udiv's low bound when the divisor excludes 0, and x urem {0} = x. *)
  let d = Av.range 2L 4L in
  let ssa_div = A.binary Adl.Ast.Div ~signed:false a d in
  let host_div = host (H.Divrem (false, false, H.Vreg 9, H.Vreg 0, H.Vreg 1)) [ (0, a); (1, d) ] in
  let ssa_rem = A.binary Adl.Ast.Rem ~signed:false a (Av.const 0L) in
  let host_rem =
    host (H.Divrem (false, true, H.Vreg 9, H.Vreg 0, H.Imm 0L)) [ (0, a) ]
  in
  Alcotest.(check (list string)) "udiv bounds and urem by zero"
    [ "[25,100]"; "[25,100]"; Av.to_string a; Av.to_string a ]
    (List.map Av.to_string [ ssa_div; host_div; ssa_rem; host_rem ]);
  (* 3. signed Eq/Ne decided from disjoint known bits, even when an
     operand may be negative (HostIR's equality has no signedness). *)
  let odd = Av.make 0L 1L 0L (-1L) and even = Av.make 1L 0L 0L (-1L) in
  Alcotest.(check (list (option int64))) "signed eq/ne of disjoint values"
    [ Some 0L; Some 1L ]
    [
      Av.is_const (A.binary Adl.Ast.Eq ~signed:true odd even);
      Av.is_const (A.binary Adl.Ast.Ne ~signed:true odd even);
    ]

(* --- whole-action soundness against the interpreter ----------------------- *)

let encodings prng =
  let r n = Dbt_util.Prng.int prng n in
  [
    Toy_arch.enc_add ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~imm:(r 4096);
    Toy_arch.enc_addi ~rd:(r 16) ~ra:(r 16) ~imm:(r 65536);
    Toy_arch.enc_beq ~ra:(r 16) ~rb:(r 16) ~off:(r 65536);
    Toy_arch.enc_ld ~rd:(r 16) ~ra:(r 16) ~off:(r 256 * 8);
    Toy_arch.enc_st ~rs:(r 16) ~ra:(r 16) ~off:(r 256 * 8);
    Toy_arch.enc_halt;
    Toy_arch.enc_csel ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~cond:(r 16);
    Toy_arch.enc_shl ~rd:(r 16) ~ra:(r 16) ~sh:(r 128);
    Toy_arch.enc_fadd ~rd:(r 16) ~ra:(r 16) ~rb:(r 16);
    Toy_arch.enc_loopy ~rd:(r 16) ~n:(r 16);
  ]

(* Every value the concrete interpreter computes must be contained in
   the abstract value the analysis assigned to the same statement; the
   analysis sees only the field *widths*, so one summary covers every
   decoding of the class.  Run on unoptimized and O4 actions alike,
   >=1000 (action, input) pairs. *)
let test_action_soundness () =
  let prng = Dbt_util.Prng.create 303L in
  let m = model () in
  let cache = Hashtbl.create 32 in
  let analyzed name opt =
    match Hashtbl.find_opt cache (name, opt) with
    | Some av -> av
    | None ->
      let action = if opt then build_opt 4 name else build_unopt name in
      let summary = A.analyze ~ctx:(Offline.opt_context (toy_arch ()) name) action in
      Hashtbl.replace cache (name, opt) (action, summary);
      (action, summary)
  in
  let pairs = ref 0 and checked = ref 0 in
  for _ = 1 to 50 do
    List.iter
      (fun word ->
        match Offline.decode m word with
        | None -> Alcotest.failf "undecodable test encoding %Lx" word
        | Some d ->
          List.iter
            (fun opt ->
              let action, summary = analyzed d.Adl.Decode.name opt in
              let state = Toy_arch.fresh_state () in
              for i = 0 to 15 do
                state.Toy_arch.gpr.(i) <- Dbt_util.Prng.int64 prng
              done;
              state.Toy_arch.slots.(0) <- 0x1000L;
              state.Toy_arch.slots.(1) <- Int64.of_int (Dbt_util.Prng.int prng 16);
              let st = Toy_arch.interp_state state in
              incr pairs;
              Interp.run
                ~trace:(fun id v ->
                  incr checked;
                  let av = A.value summary id in
                  if not (Av.contains av v) then
                    Alcotest.failf "unsound: %s%s s_%d = %Ld not in %s (word %Lx)"
                      d.Adl.Decode.name
                      (if opt then " (O4)" else "")
                      id v (Av.to_string av) word)
                st action
                ~field:(fun n -> List.assoc n d.Adl.Decode.field_values))
            [ false; true ])
      (encodings prng)
  done;
  Alcotest.(check bool) ">=1000 action/input pairs" true (!pairs >= 1000);
  Alcotest.(check bool) "traced a large value sample" true (!checked > 10_000)

(* --- translation validator ------------------------------------------------ *)

let test_validator_clean () =
  List.iter
    (fun (x : Adl.Ast.execute) ->
      let name = x.Adl.Ast.x_name in
      let ctx = Offline.opt_context (toy_arch ()) name in
      List.iter
        (fun level ->
          let reference = build_unopt name in
          let optimized = build_opt level name in
          let findings, compared = A.validate ~ctx ~reference ~optimized () in
          Alcotest.(check int)
            (Printf.sprintf "no findings for %s at O%d" name level)
            0 (List.length findings);
          Alcotest.(check bool)
            (Printf.sprintf "%s at O%d compared statements" name level)
            true (compared > 0))
        [ 1; 2; 3; 4 ])
    (toy_arch ()).Adl.Ast.a_executes

let test_validator_catches_wrong_const () =
  (* Deliberately corrupt an optimized action: changing any surviving
     constant changes the abstract value at that id to a disjoint
     singleton, which the validator must flag as incomparable. *)
  let name = "beq" in
  let ctx = Offline.opt_context (toy_arch ()) name in
  let reference = build_unopt name in
  let optimized = build_opt 4 name in
  let corrupted = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Const c when not !corrupted ->
            i.Ir.desc <- Ir.Const (Int64.add c 1L);
            corrupted := true
          | _ -> ())
        b.Ir.insts)
    optimized.Ir.blocks;
  Alcotest.(check bool) "fixture found a constant to corrupt" true !corrupted;
  let findings, _ = A.validate ~ctx ~reference ~optimized () in
  Alcotest.(check bool) "corrupted constant caught" true (List.length findings > 0)

let test_validator_catches_shape_change () =
  (* Retargeting an effectful statement to another bank is a shape
     change: abstract values cannot expose it, the structural check
     must. *)
  let name = "add" in
  let ctx = Offline.opt_context (toy_arch ()) name in
  let reference = build_unopt name in
  let optimized = build_opt 4 name in
  let corrupted = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Bank_write (bank, idx, v) when not !corrupted ->
            i.Ir.desc <- Ir.Bank_write (bank + 1, idx, v);
            corrupted := true
          | _ -> ())
        b.Ir.insts)
    optimized.Ir.blocks;
  Alcotest.(check bool) "fixture found a bank write to corrupt" true !corrupted;
  let findings, _ = A.validate ~ctx ~reference ~optimized () in
  Alcotest.(check bool) "bank retarget caught" true (List.length findings > 0)

(* --- out-of-range access checker ------------------------------------------ *)

let test_ranges_clean () =
  List.iter
    (fun (x : Adl.Ast.execute) ->
      let name = x.Adl.Ast.x_name in
      let ctx = Offline.opt_context (toy_arch ()) name in
      let action = build_opt 4 name in
      let findings, _ = A.check_ranges ~ctx action in
      Alcotest.(check int) (Printf.sprintf "%s accesses in range" name) 0
        (List.length findings))
    (toy_arch ()).Adl.Ast.a_executes

let test_ranges_catches_overflow () =
  (* A 4-bit field indexing a 4-element bank: [0,15] cannot be proved
     within [0,3]. *)
  let src =
    {|
arch "t" { wordsize 64; endian little; bank R : uint64[4]; reg PC : uint64; }
decode k "00000000 rd:4 00000000000000000000";
execute(k) { write_register_bank(R, inst.rd, 1); }
|}
  in
  let m = Offline.build ~opt_level:1 src in
  let arch = m.Offline.arch in
  let action = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
  let ctx = Offline.opt_context arch "k" in
  let findings, checked = A.check_ranges ~ctx action in
  Alcotest.(check bool) "checked the access" true (checked > 0);
  Alcotest.(check bool) "overflow flagged" true (List.length findings > 0)

(* --- hardened replace_uses ------------------------------------------------- *)

let test_replace_uses_errors () =
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0
  in
  let action = build_unopt "add" in
  let some_id =
    List.find_map
      (fun b ->
        List.find_map
          (fun i -> if Ir.produces_value i.Ir.desc then Some i.Ir.id else None)
          b.Ir.insts)
      action.Ir.blocks
    |> Option.get
  in
  (match Opt.replace_uses action ~from:some_id ~to_:some_id with
  | () -> Alcotest.fail "self-replacement accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "self-replacement names action" true (contains msg "add"));
  match Opt.replace_uses action ~from:some_id ~to_:999999 with
  | () -> Alcotest.fail "undefined replacement accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "undefined replacement names id" true (contains msg "999999");
    Alcotest.(check bool) "undefined replacement names action" true (contains msg "add")

(* --- the absint-simplify pass ---------------------------------------------- *)

let test_simplify_folds () =
  (* inst.w is a 3-bit field: the analysis proves w < 8 always true and
     w & 7 redundant; value propagation alone can prove neither. *)
  let src =
    {|
arch "t" { wordsize 64; endian little; bank R : uint64[8]; reg PC : uint64; }
decode k "00000000 d:3 w:3 000000000000000000";
execute(k) {
  uint64 x = read_register_bank(R, inst.d);
  if (inst.w < 8) {
    write_register_bank(R, inst.d, x + (inst.w & 7));
  } else {
    write_register_bank(R, inst.d, 0);
  }
}
|}
  in
  let m = Offline.build ~opt_level:1 src in
  let arch = m.Offline.arch in
  let build level =
    let action = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
    Opt.optimize ~ctx:(Offline.opt_context arch "k") ~level action;
    action
  in
  let at2 = build 2 in
  A.reset_simplify_stats ();
  let at3 = build 3 in
  let st = A.simplify_stats in
  Alcotest.(check bool) "O3 folded the always-true branch" true (st.A.branches_folded >= 1);
  Alcotest.(check bool) "O3 dropped the redundant mask or folded it" true
    (st.A.masks_dropped + st.A.stmts_folded >= 1);
  Alcotest.(check bool) "O3 has fewer blocks than O2" true
    (List.length at3.Ir.blocks < List.length at2.Ir.blocks);
  (* The folded action must still be semantically intact. *)
  let reference = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
  let findings, _ =
    A.validate ~ctx:(Offline.opt_context arch "k") ~reference ~optimized:at3 ()
  in
  Alcotest.(check int) "folded action validates" 0 (List.length findings)

let suite =
  ( "absint",
    [
      Alcotest.test_case "lattice basics" `Quick test_lattice_basics;
      Alcotest.test_case "lattice random soundness" `Quick test_lattice_random;
      Alcotest.test_case "widening converges" `Quick test_widen_converges;
      Alcotest.test_case "Absval transfers contain concrete results" `Quick test_absval_transfers;
      Alcotest.test_case "absint precision unified" `Quick test_precision_unified;
      Alcotest.test_case "transfer soundness vs Eval" `Quick test_transfer_soundness;
      Alcotest.test_case "whole-action soundness vs Interp" `Quick test_action_soundness;
      Alcotest.test_case "validator passes real optimizations" `Quick test_validator_clean;
      Alcotest.test_case "validator catches wrong constant" `Quick test_validator_catches_wrong_const;
      Alcotest.test_case "validator catches shape change" `Quick test_validator_catches_shape_change;
      Alcotest.test_case "range checker passes toy model" `Quick test_ranges_clean;
      Alcotest.test_case "range checker catches overflow" `Quick test_ranges_catches_overflow;
      Alcotest.test_case "replace_uses errors are descriptive" `Quick test_replace_uses_errors;
      Alcotest.test_case "absint-simplify folds on field facts" `Quick test_simplify_folds;
    ] )
