(* Evaluation of *fixed* ADL expressions and pure builtins over concrete
   64-bit values.

   This is the single implementation of operator semantics shared by the
   decoder's `when` predicates, the offline constant folder, and the online
   generator's fixed-operation evaluation (the paper's translation-time
   partial evaluation). *)

open Ast
module Bits = Dbt_util.Bits

let normalize ty v =
  match ty with
  | Tint { bits; signed } ->
    if bits >= 64 then v
    else if signed then Bits.sign_extend v ~width:bits
    else Bits.zero_extend v ~width:bits
  | Tfloat _ | Tvoid -> v

let bool_ b = if b then 1L else 0L

(* Operands are already normalized to the unified (64-bit) operand type;
   [signed] is the signedness of that type. *)
let binop op ~signed a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div ->
    if b = 0L then 0L (* ARM-style: checked separately where it matters *)
    else if signed then Int64.div a b
    else Int64.unsigned_div a b
  | Rem -> if b = 0L then a else if signed then Int64.rem a b else Int64.unsigned_rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Bits.shl a (Int64.to_int (Int64.logand b 63L))
  | Shr ->
    if signed then Bits.sar a (Int64.to_int (Int64.logand b 63L))
    else Bits.shr a (Int64.to_int (Int64.logand b 63L))
  | Eq -> bool_ (a = b)
  | Ne -> bool_ (a <> b)
  | Lt -> bool_ (if signed then a < b else Bits.ult a b)
  | Le -> bool_ (if signed then a <= b else Bits.ule a b)
  | Gt -> bool_ (if signed then a > b else Bits.ult b a)
  | Ge -> bool_ (if signed then a >= b else Bits.ule b a)
  | Land | Lor -> invalid_arg "Eval.binop: && and || are rewritten by the type checker"

let unop op a =
  match op with
  | Neg -> Int64.neg a
  | Not -> Int64.lognot a
  | Lnot -> bool_ (a = 0L)

(* Pure builtins evaluable at translation time.  FP builtins are evaluated
   with softfloat, so offline folding of FP constants is bit-accurate. *)
let builtin name (args : int64 list) : int64 option =
  let open Softfloat in
  let f = Sf_types.new_flags () in
  let w32 v = Bits.zero_extend v ~width:32 in
  match (name, args) with
  | "sign_extend", [ v; bits ] -> Some (Bits.sign_extend v ~width:(Int64.to_int bits))
  | "clz32", [ v ] -> Some (Int64.of_int (Bits.clz ~width:32 (w32 v)))
  | "clz64", [ v ] -> Some (Int64.of_int (Bits.clz v))
  | "popcount64", [ v ] -> Some (Int64.of_int (Bits.popcount v))
  | "ror32", [ v; n ] -> Some (Bits.rotate_right (w32 v) (Int64.to_int (Int64.logand n 31L)) ~width:32)
  | "ror64", [ v; n ] -> Some (Bits.rotate_right v (Int64.to_int (Int64.logand n 63L)) ~width:64)
  | "rbit32", [ v ] -> Some (Bits.bit_reverse (w32 v) ~width:32)
  | "rbit64", [ v ] -> Some (Bits.bit_reverse v ~width:64)
  | "rev16", [ v ] -> Some (Bits.byte_swap v ~width:16)
  | "rev32", [ v ] -> Some (Bits.byte_swap (w32 v) ~width:32)
  | "rev64", [ v ] -> Some (Bits.byte_swap v ~width:64)
  | "umulh64", [ a; b ] -> Some (fst (Sf_core.mul64_wide a b))
  | "smulh64", [ a; b ] ->
    (* signed high part from the unsigned one *)
    let hi, _ = Sf_core.mul64_wide a b in
    let hi = if a < 0L then Int64.sub hi b else hi in
    let hi = if b < 0L then Int64.sub hi a else hi in
    Some hi
  | "udiv64", [ a; b ] -> Some (if b = 0L then 0L else Int64.unsigned_div a b)
  | "sdiv64", [ a; b ] ->
    Some
      (if b = 0L then 0L
       else if a = Int64.min_int && b = -1L then Int64.min_int
       else Int64.div a b)
  | "udiv32", [ a; b ] ->
    let a = w32 a and b = w32 b in
    Some (if b = 0L then 0L else Int64.unsigned_div a b)
  | "sdiv32", [ a; b ] ->
    let a = Bits.sign_extend a ~width:32 and b = Bits.sign_extend b ~width:32 in
    Some
      (w32 (if b = 0L then 0L else if a = -2147483648L && b = -1L then -2147483648L else Int64.div a b))
  | "select", [ c; a; b ] -> Some (if c <> 0L then a else b)
  | "add_flags64", [ a; b; cin ] -> Some (Bits.add_nzcv a b (cin <> 0L))
  | "add_flags32", [ a; b; cin ] -> Some (Bits.add_nzcv ~width:32 a b (cin <> 0L))
  | "adc64", [ a; b; cin ] -> Some (Bits.add_with_carry a b (cin <> 0L))
  | "adc32", [ a; b; cin ] -> Some (Bits.add_with_carry ~width:32 a b (cin <> 0L))
  | "logic_flags64", [ r ] ->
    Some (Int64.logor (if r < 0L then 8L else 0L) (if r = 0L then 4L else 0L))
  | "logic_flags32", [ r ] ->
    Some
      (Int64.logor (if Bits.bit r 31 then 8L else 0L) (if Bits.zero_extend r ~width:32 = 0L then 4L else 0L))
  | "fp64_add", [ a; b ] -> Some (F64.add f a b)
  | "fp64_sub", [ a; b ] -> Some (F64.sub f a b)
  | "fp64_mul", [ a; b ] -> Some (F64.mul f a b)
  | "fp64_div", [ a; b ] -> Some (F64.div f a b)
  | "fp64_sqrt", [ a ] -> Some (F64.sqrt f a)
  | "fp64_min", [ a; b ] -> Some (F64.min_ f a b)
  | "fp64_max", [ a; b ] -> Some (F64.max_ f a b)
  | "fp32_add", [ a; b ] -> Some (F32.add f (w32 a) (w32 b))
  | "fp32_sub", [ a; b ] -> Some (F32.sub f (w32 a) (w32 b))
  | "fp32_mul", [ a; b ] -> Some (F32.mul f (w32 a) (w32 b))
  | "fp32_div", [ a; b ] -> Some (F32.div f (w32 a) (w32 b))
  | "fp32_sqrt", [ a ] -> Some (F32.sqrt f (w32 a))
  | "fp32_min", [ a; b ] -> Some (F32.min_ f (w32 a) (w32 b))
  | "fp32_max", [ a; b ] -> Some (F32.max_ f (w32 a) (w32 b))
  | "fp64_cmp_flags", [ a; b ] -> (
    match F64.compare_ f a b with
    | Sf_core.Cmp_lt -> Some 8L (* N *)
    | Sf_core.Cmp_eq -> Some 6L (* ZC *)
    | Sf_core.Cmp_gt -> Some 2L (* C *)
    | Sf_core.Cmp_unordered -> Some 3L (* CV *))
  | "fp32_cmp_flags", [ a; b ] -> (
    match F32.compare_ f (w32 a) (w32 b) with
    | Sf_core.Cmp_lt -> Some 8L
    | Sf_core.Cmp_eq -> Some 6L
    | Sf_core.Cmp_gt -> Some 2L
    | Sf_core.Cmp_unordered -> Some 3L)
  | "fp32_to_fp64", [ a ] -> Some (F32.to_f64 f (w32 a))
  | "fp64_to_fp32", [ a ] -> Some (F64.to_f32 f a)
  | "fp64_to_sint64", [ a ] -> Some (F64.to_int64 f a)
  | "fp64_to_uint64", [ a ] -> Some (Sf_core.to_uint64 Sf_core.f64_fmt f a)
  | "fp32_to_sint32", [ a ] ->
    let v = F32.to_int64 f (w32 a) in
    let v = if v > 2147483647L then 2147483647L else if v < -2147483648L then -2147483648L else v in
    Some (w32 v)
  | "sint64_to_fp64", [ a ] -> Some (F64.of_int64 f a)
  | "uint64_to_fp64", [ a ] -> Some (F64.of_uint64 f a)
  | "sint32_to_fp32", [ a ] -> Some (F32.of_int64 f (Bits.sign_extend a ~width:32))
  | "sint64_to_fp32", [ a ] -> Some (F32.of_int64 f a)
  | "fp64_muladd", [ a; b; c ] ->
    (* fused behaviour approximated as mul-then-add; documented in DESIGN.md *)
    Some (F64.add f (F64.mul f a b) c)
  | _ -> None

(* Evaluate a typed, fixed expression.  [field] resolves instruction fields;
   raises if the expression contains anything dynamic. *)
let rec expr ~(field : string -> int64) (e : expr) : int64 =
  match e.e with
  | Int_lit v -> v
  | Float_lit _ -> error ~pos:e.pos "float literal in fixed expression"
  | Var v -> error ~pos:e.pos "variable %S in fixed expression" v
  | Field fname -> field fname
  | Binop (op, a, b) ->
    let signed = match a.ty with Tint i -> i.signed | _ -> false in
    binop op ~signed (expr ~field a) (expr ~field b)
  | Unop (op, a) -> unop op (expr ~field a)
  | Cast (ty, a) -> normalize ty (expr ~field a)
  | Ternary (c, t, f) -> if expr ~field c <> 0L then expr ~field t else expr ~field f
  | Call (name, args) -> (
    let vals = List.map (expr ~field) args in
    match builtin name vals with
    | Some v -> v
    | None -> error ~pos:e.pos "call to %S in fixed expression" name)
