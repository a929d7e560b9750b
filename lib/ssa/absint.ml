(* Forward abstract interpretation over SSA actions (the semantic layer on
   top of the syntactic verifiers).

   Values live in the shared known-bits x unsigned-interval domain
   (Dbt_util.Absval); this module maps SSA opcodes onto its transfers,
   folds singleton operands through Adl.Eval, and runs the fixpoint.
   Decode-instruction fields are seeded from the optimization context: a
   field of width w starts as [0, 2^w-1] with the high 64-w bits
   known-zero, so the analysis can prove facts that hold for *every*
   decoding of the instruction class, not just one concrete instance.
   Widening at loop heads keeps the width information the range checker
   needs (e.g. the toy `loopy` action's induction variable widens to
   exactly [0, 15] for a 4-bit bound).

   Three consumers live below the engine:
   - [simplify]: the O3 `absint-simplify` pass body (fold always/never
     branches, rewrite fully-known results to constants, drop masks and
     normalizations proved redundant);
   - [validate]: per-statement translation validation of an optimized
     action against its unoptimized form (statement ids are stable across
     the pass pipeline, which only removes statements or rewrites
     operands in place);
   - [check_ranges]: proof that every bank/slot access index is within
     the bounds the architecture declares. *)

module Ast = Adl.Ast
module Eval = Adl.Eval
module Av = Dbt_util.Absval

(* --- architecture context -------------------------------------------------- *)

type ctx = {
  field_widths : (string * int) list; (* decode-pattern field widths *)
  bank_widths : (int * int) list; (* bank index -> element width *)
  slot_widths : (int * int) list;
  bank_counts : (int * int) list; (* bank index -> number of elements *)
  slot_indices : int list; (* declared slot indices *)
}

let no_ctx =
  { field_widths = []; bank_widths = []; slot_widths = []; bank_counts = []; slot_indices = [] }

(* --- transfer functions: SSA opcodes onto the shared domain --------------- *)

let binary op ~signed a b =
  if Av.is_bot a || Av.is_bot b then Av.bot
  else
    match (Av.is_const a, Av.is_const b, op) with
    (* Exact evaluation through the shared concrete semantics whenever both
       operands are singletons (Land/Lor never reach the SSA). *)
    | Some x, Some y, (Ast.Land | Ast.Lor) ->
      Av.of_bool ((x <> 0L && y <> 0L) || (op = Ast.Lor && (x <> 0L || y <> 0L)))
    | Some x, Some y, _ -> Av.const (Eval.binop op ~signed x y)
    | _ -> (
      let cmp c = Av.cmp_value c ~signed a b in
      match op with
      | Ast.Add -> Av.add a b
      | Ast.Sub -> Av.sub a b
      | Ast.Mul -> Av.mul a b
      | Ast.Div -> if signed then Av.top else Av.udiv a b
      | Ast.Rem -> if signed then Av.top else Av.urem a b
      | Ast.And -> Av.logand a b
      | Ast.Or -> Av.logor a b
      | Ast.Xor -> Av.logxor a b
      | Ast.Shl -> Av.shl a b
      | Ast.Shr -> if signed then Av.ashr a b else Av.lshr a b
      | Ast.Eq -> cmp Av.Eq
      | Ast.Ne -> cmp Av.Ne
      | Ast.Lt -> cmp Av.Lt
      | Ast.Le -> cmp Av.Le
      | Ast.Gt -> cmp Av.Gt
      | Ast.Ge -> cmp Av.Ge
      | Ast.Land | Ast.Lor -> Av.bool_unknown)

let unary op a =
  match Av.is_const a with
  | Some x -> Av.const (Eval.unop op x)
  | None -> (
    match op with
    | _ when Av.is_bot a -> Av.bot
    | Ast.Neg -> Av.top
    | Ast.Not -> Av.lognot a
    | Ast.Lnot -> if not (Av.contains a 0L) then Av.const 0L else Av.bool_unknown)

(* Width bound (in significant unsigned bits) of intrinsic results; shared
   with the optimizer's width analysis so both layers assume identical
   facts about builtins. *)
let intrinsic_width = function
  | "add_flags64" | "add_flags32" | "logic_flags64" | "logic_flags32" | "fp64_cmp_flags"
  | "fp32_cmp_flags" ->
    4
  | "clz32" | "clz64" | "popcount64" -> 7
  | "udiv32" | "ror32" | "rbit32" | "rev32" | "adc32" | "fp32_add" | "fp32_sub" | "fp32_mul"
  | "fp32_div" | "fp32_sqrt" | "fp32_min" | "fp32_max" | "fp64_to_fp32" | "fp32_to_sint32"
  | "sint32_to_fp32" | "sint64_to_fp32" ->
    32
  | "rev16" -> 16
  | _ -> 64

let is_pure_builtin name =
  match Adl.Builtins.find name with
  | Some { Adl.Builtins.bi_kind = Adl.Builtins.Pure; _ } -> true
  | _ -> false

let intrinsic name args =
  if List.exists Av.is_bot args then Av.bot
  else
    let consts = List.map Av.is_const args in
    if is_pure_builtin name && List.for_all Option.is_some consts then
      match Eval.builtin name (List.map Option.get consts) with
      | Some v -> Av.const v
      | None -> Av.of_width (intrinsic_width name)
    else Av.of_width (intrinsic_width name)

(* --- the fixpoint engine --------------------------------------------------- *)

type verdict = Always | Never | Unknown

type summary = {
  values : (Ir.id, Av.t) Hashtbl.t;
  reached : (int, unit) Hashtbl.t;
  verdicts : (int, verdict) Hashtbl.t; (* block id -> branch verdict *)
}

let value s id = match Hashtbl.find_opt s.values id with Some v -> v | None -> Av.bot
let block_reachable s bid = Hashtbl.mem s.reached bid
let branch_verdict s bid =
  match Hashtbl.find_opt s.verdicts bid with Some v -> v | None -> Unknown

(* Reverse postorder over the CFG, and the set of DFS back-edge targets
   (loop heads, where widening applies). *)
let rpo_and_loop_heads (action : Ir.action) =
  let state = Hashtbl.create 16 in (* 1 = on stack, 2 = done *)
  let heads = Hashtbl.create 4 in
  let order = ref [] in
  let rec visit bid =
    match Hashtbl.find_opt state bid with
    | Some 1 -> Hashtbl.replace heads bid ()
    | Some _ -> ()
    | None ->
      Hashtbl.replace state bid 1;
      let b = Ir.find_block action bid in
      List.iter visit (Ir.successors b);
      Hashtbl.replace state bid 2;
      order := bid :: !order
  in
  (match action.Ir.blocks with [] -> () | b :: _ -> visit b.Ir.bid);
  (!order, heads)

(* Refine [v]'s interval for the given comparison outcome against [bound]. *)
let refine_var_by_cmp op ~outcome v bound =
  match (v, bound) with
  | Av.Bot, _ | _, Av.Bot -> Av.bot
  | Av.V _, Av.V vb -> (
    (* Normalize to one of: v < k, v <= k, v > k, v >= k, v = b. *)
    let lt_hi k = if k = 0L then Av.bot else Av.meet v (Av.range 0L (Int64.sub k 1L)) in
    let le_hi k = Av.meet v (Av.range 0L k) in
    let ge_lo k = Av.meet v (Av.range k (-1L)) in
    let gt_lo k = if k = -1L then Av.bot else Av.meet v (Av.range (Int64.add k 1L) (-1L)) in
    match (op, outcome) with
    | Ast.Lt, true -> lt_hi vb.hi
    | Ast.Lt, false -> ge_lo vb.lo
    | Ast.Le, true -> le_hi vb.hi
    | Ast.Le, false -> gt_lo vb.lo
    | Ast.Gt, true -> gt_lo vb.lo
    | Ast.Gt, false -> le_hi vb.hi
    | Ast.Ge, true -> ge_lo vb.lo
    | Ast.Ge, false -> lt_hi vb.hi
    | Ast.Eq, true -> Av.meet v bound
    | Ast.Ne, false -> Av.meet v bound
    | _ -> v)

let analyze ?(ctx = no_ctx) (action : Ir.action) : summary =
  let nvars = action.Ir.next_var in
  let values : (Ir.id, Av.t) Hashtbl.t = Hashtbl.create 64 in
  let value_of id = match Hashtbl.find_opt values id with Some v -> v | None -> Av.top in
  let instates : (int, Av.t array) Hashtbl.t = Hashtbl.create 8 in
  let visits : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let order, heads = rpo_and_loop_heads action in
  let defs = Hashtbl.create 64 in
  List.iter
    (fun b -> List.iter (fun i -> Hashtbl.replace defs i.Ir.id i.Ir.desc) b.Ir.insts)
    action.Ir.blocks;
  let changed = ref false in
  (* Merge an edge's variable state into [target]'s in-state. *)
  let flow target (vars : Av.t array) =
    match Hashtbl.find_opt instates target with
    | None ->
      Hashtbl.replace instates target (Array.copy vars);
      changed := true
    | Some cur ->
      let vcount = (Hashtbl.find_opt visits target |> Option.value ~default:0) + 1 in
      Hashtbl.replace visits target vcount;
      let op = if Hashtbl.mem heads target && vcount > 2 then Av.widen else Av.join in
      for v = 0 to nvars - 1 do
        let merged = op cur.(v) vars.(v) in
        if merged <> cur.(v) then begin
          cur.(v) <- merged;
          changed := true
        end
      done
  in
  let eval_desc (vars : Av.t array) desc =
    match desc with
    | Ir.Const c -> Av.const c
    | Ir.Struct f -> (
      match List.assoc_opt f ctx.field_widths with Some w -> Av.of_width w | None -> Av.top)
    | Ir.Binary (op, signed, a, b) -> binary op ~signed (value_of a) (value_of b)
    | Ir.Unary (op, a) -> unary op (value_of a)
    | Ir.Normalize (w, signed, a) -> Av.normalize ~bits:w ~signed (value_of a)
    | Ir.Select (c, t, f) ->
      let vc = value_of c in
      if Av.is_bot vc then Av.bot
      else if not (Av.contains vc 0L) then value_of t
      else if Av.is_const vc = Some 0L then value_of f
      else Av.join (value_of t) (value_of f)
    | Ir.Bank_read (bank, _) -> (
      match List.assoc_opt bank ctx.bank_widths with Some w -> Av.of_width w | None -> Av.top)
    | Ir.Reg_read slot -> (
      match List.assoc_opt slot ctx.slot_widths with Some w -> Av.of_width w | None -> Av.top)
    | Ir.Var_read v -> if v >= 0 && v < nvars then vars.(v) else Av.top
    | Ir.Mem_read (w, _) -> Av.of_width w
    | Ir.Pc_read -> Av.top
    | Ir.Coproc_read _ -> Av.top
    | Ir.Intrinsic (name, args) -> intrinsic name (List.map value_of args)
    | Ir.Phi arms ->
      List.fold_left
        (fun acc (pred, x) ->
          if Hashtbl.mem instates pred then Av.join acc (value_of x) else acc)
        Av.bot arms
    | Ir.Bank_write _ | Ir.Reg_write _ | Ir.Var_write _ | Ir.Mem_write _ | Ir.Pc_write _
    | Ir.Coproc_write _ | Ir.Effect _ ->
      Av.top
  in
  (* Transfer one block: returns the out-state and the set of still-fresh
     Var_read ids (read id, var) usable for branch-edge refinement. *)
  let transfer (b : Ir.block) (in_vars : Av.t array) =
    let vars = Array.copy in_vars in
    let fresh_reads = ref [] in
    List.iter
      (fun (i : Ir.inst) ->
        let v = eval_desc vars i.Ir.desc in
        if Ir.produces_value i.Ir.desc then Hashtbl.replace values i.Ir.id v;
        match i.Ir.desc with
        | Ir.Var_write (x, src) ->
          if x >= 0 && x < nvars then vars.(x) <- value_of src;
          fresh_reads := List.filter (fun (_, var) -> var <> x) !fresh_reads
        | Ir.Var_read x -> if x >= 0 && x < nvars then fresh_reads := (i.Ir.id, x) :: !fresh_reads
        | _ -> ())
      b.Ir.insts;
    (vars, !fresh_reads)
  in
  (* Seed the entry block: variables read before any write yield 0 in the
     concrete interpreter, so they start as the {0} singleton. *)
  (match action.Ir.blocks with
  | [] -> ()
  | entry :: _ -> Hashtbl.replace instates entry.Ir.bid (Array.make nvars (Av.const 0L)));
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    if !rounds > 1000 then
      invalid_arg (Printf.sprintf "Absint.analyze: no fixpoint in %s" action.Ir.name);
    changed := false;
    List.iter
      (fun bid ->
        match Hashtbl.find_opt instates bid with
        | None -> ()
        | Some in_vars -> (
          let b = Ir.find_block action bid in
          let out_vars, fresh_reads = transfer b in_vars in
          match b.Ir.term with
          | Ir.Ret -> ()
          | Ir.Jump t -> flow t out_vars
          | Ir.Branch (c, t, f) ->
            let vc = value_of c in
            (* On each feasible edge, refine variables whose fresh read
               feeds an unsigned comparison condition. *)
            let refined outcome =
              let vars = Array.copy out_vars in
              (match Hashtbl.find_opt defs c with
              | Some (Ir.Binary (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), false, x, y)) ->
                let refine_side id other_v op' =
                  match List.assoc_opt id fresh_reads with
                  | Some var -> vars.(var) <- refine_var_by_cmp op' ~outcome vars.(var) other_v
                  | None -> ()
                in
                let swap = function
                  | Ast.Lt -> Ast.Gt | Ast.Le -> Ast.Ge | Ast.Gt -> Ast.Lt | Ast.Ge -> Ast.Le
                  | o -> o
                in
                refine_side x (value_of y) op;
                refine_side y (value_of x) (swap op)
              | _ -> ());
              vars
            in
            if Av.is_bot vc then ()
            else begin
              if Av.contains vc 0L then flow f (refined false);
              if Av.is_const vc <> Some 0L then flow t (refined true)
            end))
      order;
    continue_ := !changed
  done;
  (* Final verdicts and reachability. *)
  let reached = Hashtbl.create 8 in
  Hashtbl.iter (fun bid _ -> Hashtbl.replace reached bid ()) instates;
  let verdicts = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Branch (c, _, _) when Hashtbl.mem reached b.Ir.bid ->
        let vc = match Hashtbl.find_opt values c with Some v -> v | None -> Av.top in
        let v =
          if Av.is_const vc = Some 0L then Never
          else if (not (Av.is_bot vc)) && not (Av.contains vc 0L) then Always
          else Unknown
        in
        Hashtbl.replace verdicts b.Ir.bid v
      | _ -> ())
    action.Ir.blocks;
  { values; reached; verdicts }

(* --- findings (validator and range checker) -------------------------------- *)

type finding = { f_action : string; f_stmt : Ir.id option; f_block : int option; f_msg : string }

let string_of_finding f =
  Printf.sprintf "%s%s%s: %s" f.f_action
    (match f.f_block with Some b -> Printf.sprintf " b_%d" b | None -> "")
    (match f.f_stmt with Some s -> Printf.sprintf " s_%d" s | None -> "")
    f.f_msg

(* Structural identity of an effectful statement up to operand ids: a pass
   may rewrite operands (to equal values) but must not change what state
   the statement touches. *)
let same_shape d1 d2 =
  match (d1, d2) with
  | Ir.Bank_write (b1, _, _), Ir.Bank_write (b2, _, _) -> b1 = b2
  | Ir.Reg_write (r1, _), Ir.Reg_write (r2, _) -> r1 = r2
  | Ir.Var_write (v1, _), Ir.Var_write (v2, _) -> v1 = v2
  | Ir.Mem_write (w1, _, _), Ir.Mem_write (w2, _, _) -> w1 = w2
  | Ir.Pc_write _, Ir.Pc_write _ -> true
  | Ir.Coproc_write _, Ir.Coproc_write _ -> true
  | Ir.Effect (n1, a1), Ir.Effect (n2, a2) -> n1 = n2 && List.length a1 = List.length a2
  | _ -> false

(* Translation validation: compare the optimized action against its
   unoptimized reference statement-by-statement.  Pass pipeline invariant:
   statement ids are never renumbered (passes remove statements and
   rewrite operands in place), so a surviving id denotes the same program
   point in both forms.  For every surviving value-producing statement the
   two abstract results must be *comparable* (one contains the other);
   for every surviving effectful statement the shapes must match and the
   operands' abstract values must be pairwise comparable.  Incomparable
   (disjoint) approximations of the same statement prove the optimizer
   changed its semantics. *)
let validate ?(ctx = no_ctx) ?ref_summary ?opt_summary ~reference ~optimized () =
  let s_ref = match ref_summary with Some s -> s | None -> analyze ~ctx reference in
  let s_opt = match opt_summary with Some s -> s | None -> analyze ~ctx optimized in
  let ref_descs = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.inst) -> Hashtbl.replace ref_descs i.Ir.id i.Ir.desc) b.Ir.insts)
    reference.Ir.blocks;
  let findings = ref [] in
  let add ?stmt ?block msg =
    findings :=
      { f_action = optimized.Ir.name; f_stmt = stmt; f_block = block; f_msg = msg } :: !findings
  in
  let compared = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      if block_reachable s_opt b.Ir.bid then
        List.iter
          (fun (i : Ir.inst) ->
            match Hashtbl.find_opt ref_descs i.Ir.id with
            | None ->
              add ~stmt:i.Ir.id ~block:b.Ir.bid
                "statement not present in the unoptimized reference"
            | Some rdesc ->
              incr compared;
              if Ir.produces_value i.Ir.desc then begin
                let vr = value s_ref i.Ir.id and vo = value s_opt i.Ir.id in
                if not (Av.comparable vr vo) then
                  add ~stmt:i.Ir.id ~block:b.Ir.bid
                    (Printf.sprintf "incomparable abstract results: %s (reference) vs %s (optimized)"
                       (Av.to_string vr) (Av.to_string vo))
              end
              else begin
                if not (same_shape rdesc i.Ir.desc) then
                  add ~stmt:i.Ir.id ~block:b.Ir.bid
                    "effectful statement changed shape under optimization"
                else
                  List.iter2
                    (fun oref oopt ->
                      let vr = value s_ref oref and vo = value s_opt oopt in
                      if not (Av.comparable vr vo) then
                        add ~stmt:i.Ir.id ~block:b.Ir.bid
                          (Printf.sprintf
                             "incomparable operand: s_%d %s (reference) vs s_%d %s (optimized)"
                             oref (Av.to_string vr) oopt (Av.to_string vo)))
                    (Ir.operands rdesc) (Ir.operands i.Ir.desc)
              end)
          b.Ir.insts)
    optimized.Ir.blocks;
  (List.rev !findings, !compared)

(* Out-of-range access checker: every bank index must be provably within
   the declared element count, and every slot access must name a declared
   slot.  Statements in unreachable blocks are vacuously in range. *)
let check_ranges ?(ctx = no_ctx) ?summary (action : Ir.action) =
  let s = match summary with Some s -> s | None -> analyze ~ctx action in
  let findings = ref [] in
  let checked = ref 0 in
  let add ?stmt ?block msg =
    findings := { f_action = action.Ir.name; f_stmt = stmt; f_block = block; f_msg = msg } :: !findings
  in
  let check_bank bid stmt bank idx =
    match List.assoc_opt bank ctx.bank_counts with
    | None ->
      if ctx.bank_counts <> [] then
        add ~stmt ~block:bid (Printf.sprintf "access to undeclared bank %d" bank)
    | Some count ->
      incr checked;
      let v = value s idx in
      if not (Av.leq v (Av.range 0L (Int64.of_int (count - 1)))) then
        add ~stmt ~block:bid
          (Printf.sprintf "bank %d index %s not provably within [0,%d)" bank (Av.to_string v) count)
  in
  let check_slot bid stmt slot =
    if ctx.slot_indices <> [] then begin
      incr checked;
      if not (List.mem slot ctx.slot_indices) then
        add ~stmt ~block:bid (Printf.sprintf "access to undeclared slot %d" slot)
    end
  in
  List.iter
    (fun (b : Ir.block) ->
      if block_reachable s b.Ir.bid then
        List.iter
          (fun (i : Ir.inst) ->
            match i.Ir.desc with
            | Ir.Bank_read (bank, idx) -> check_bank b.Ir.bid i.Ir.id bank idx
            | Ir.Bank_write (bank, idx, _) -> check_bank b.Ir.bid i.Ir.id bank idx
            | Ir.Reg_read slot | Ir.Reg_write (slot, _) -> check_slot b.Ir.bid i.Ir.id slot
            | _ -> ())
          b.Ir.insts)
    action.Ir.blocks;
  (List.rev !findings, !checked)

(* --- the absint-simplify pass body ----------------------------------------- *)

type simplify_stats = {
  mutable branches_folded : int;
  mutable stmts_folded : int;
  mutable masks_dropped : int;
}

let simplify_stats = { branches_folded = 0; stmts_folded = 0; masks_dropped = 0 }

let reset_simplify_stats () =
  simplify_stats.branches_folded <- 0;
  simplify_stats.stmts_folded <- 0;
  simplify_stats.masks_dropped <- 0

(* Analysis-driven simplification (registered as the O3 pass
   `absint-simplify` in {!Opt.passes}):
   - statements whose abstract result is a singleton become constants
     (strictly stronger than local constant folding: facts flow through
     field seeds, selects, variable states and comparisons);
   - masks and normalizations proved redundant by known-bits are dropped
     (aliased to their operand, where value propagation only reasons
     about a local width bound);
   - branches with an Always/Never verdict become jumps, with stale phi
     arms on the abandoned edge pruned.
   [replace_uses] is passed in by {!Opt} to avoid a dependency cycle. *)
let simplify ~replace_uses ctx (action : Ir.action) =
  let s = analyze ~ctx action in
  let changed = ref false in
  let foldable = function
    | Ir.Const _ -> false (* already folded *)
    | Ir.Struct _ -> false (* fields are per-instance, not per-class *)
    | Ir.Binary _ | Ir.Unary _ | Ir.Normalize _ | Ir.Select _ | Ir.Var_read _ | Ir.Phi _ -> true
    | Ir.Intrinsic (name, _) -> is_pure_builtin name
    | _ -> false
  in
  List.iter
    (fun (b : Ir.block) ->
      if block_reachable s b.Ir.bid then
        List.iter
          (fun (i : Ir.inst) ->
            let aval op = value s op in
            match i.Ir.desc with
            (* Fully-known result: rewrite to a constant. *)
            | d when foldable d && Av.is_const (value s i.Ir.id) <> None ->
              let v = Option.get (Av.is_const (value s i.Ir.id)) in
              i.Ir.desc <- Ir.Const v;
              simplify_stats.stmts_folded <- simplify_stats.stmts_folded + 1;
              changed := true
            (* Redundant mask: every possibly-set bit of [a] is kept. *)
            | Ir.Binary (Ast.And, _, a, m)
              when (match Av.is_const (aval m) with
                   | Some mv -> Int64.logand (Int64.lognot (Av.known_zeros (aval a))) (Int64.lognot mv) = 0L
                   | None -> false) ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.masks_dropped <- simplify_stats.masks_dropped + 1;
              changed := true
            | Ir.Binary (Ast.And, _, m, a)
              when (match Av.is_const (aval m) with
                   | Some mv -> Int64.logand (Int64.lognot (Av.known_zeros (aval a))) (Int64.lognot mv) = 0L
                   | None -> false) ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.masks_dropped <- simplify_stats.masks_dropped + 1;
              changed := true
            (* Abstract identities: adding/oring/xoring/shifting a proved
               zero, even when the operand is not a literal constant. *)
            | Ir.Binary ((Ast.Add | Ast.Or | Ast.Xor | Ast.Shl | Ast.Shr | Ast.Sub), _, a, z)
              when Av.is_const (aval z) = Some 0L ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.stmts_folded <- simplify_stats.stmts_folded + 1;
              changed := true
            | Ir.Binary ((Ast.Add | Ast.Or | Ast.Xor), _, z, a)
              when Av.is_const (aval z) = Some 0L ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.stmts_folded <- simplify_stats.stmts_folded + 1;
              changed := true
            (* A truncation that provably cannot change the value. *)
            | Ir.Normalize (w, false, a) when w < 64 && Av.leq (aval a) (Av.of_width w) ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.masks_dropped <- simplify_stats.masks_dropped + 1;
              changed := true
            (* A sign extension of a value proved to fit in bits-1. *)
            | Ir.Normalize (w, true, a)
              when w > 1 && w < 64 && Av.leq (aval a) (Av.of_width (w - 1)) ->
              replace_uses action ~from:i.Ir.id ~to_:a;
              simplify_stats.masks_dropped <- simplify_stats.masks_dropped + 1;
              changed := true
            (* A select whose condition is decided. *)
            | Ir.Select (c, t, f) when Av.is_const (aval c) <> None || not (Av.contains (aval c) 0L) ->
              let target = if Av.is_const (aval c) = Some 0L then f else t in
              replace_uses action ~from:i.Ir.id ~to_:target;
              simplify_stats.stmts_folded <- simplify_stats.stmts_folded + 1;
              changed := true
            | _ -> ())
          b.Ir.insts)
    action.Ir.blocks;
  (* Fold decided branches.  The abandoned target may keep other
     predecessors, so only its phi arms for *this* edge are pruned. *)
  List.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Branch (_, t, f) when t <> f -> (
        let fold keep drop =
          b.Ir.term <- Ir.Jump keep;
          (match List.find_opt (fun blk -> blk.Ir.bid = drop) action.Ir.blocks with
          | Some dropped when drop <> keep ->
            List.iter
              (fun (i : Ir.inst) ->
                match i.Ir.desc with
                | Ir.Phi arms ->
                  i.Ir.desc <- Ir.Phi (List.filter (fun (p, _) -> p <> b.Ir.bid) arms)
                | _ -> ())
              dropped.Ir.insts
          | _ -> ());
          simplify_stats.branches_folded <- simplify_stats.branches_folded + 1;
          changed := true
        in
        match branch_verdict s b.Ir.bid with
        | Always -> fold t f
        | Never -> fold f t
        | Unknown -> ())
      | _ -> ())
    action.Ir.blocks;
  !changed
