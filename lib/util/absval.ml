(* The abstract value shared by both abstract interpreters (Ssa.Absint
   over SSA actions, Hostir.Absint over HostIR streams): a product of
   *known-bits* (each of the 64 bits known-0, known-1 or unknown) and an
   *unsigned interval* [lo, hi].  The two halves refine each other on
   construction: an interval upper bound forces the high bits to
   known-zero, and known bits tighten the interval bounds.

   Widening: interval upper bounds climb the 2^k-1 ladder (at most 64
   rungs), lower bounds drop to 0, and the known-bits half needs no
   widening (its lattice has finite height).

   The transfers below are the ones both IRs share.  Each is sound for
   every input, singletons included; the layers fold singleton operands
   through their own concrete semantics first, so the transfers only
   decide what a partially-known result looks like.  Division follows
   the rule both IRs use: x / 0 = 0 and x rem 0 = x. *)

type av = { zeros : int64; ones : int64; lo : int64; hi : int64 }
type t = Bot | V of av

let umin a b = if Bits.ule a b then a else b
let umax a b = if Bits.ule a b then b else a

(* Number of significant bits of an unsigned value. *)
let sigbits v = 64 - Bits.clz v

let make zeros ones lo hi =
  if Int64.logand zeros ones <> 0L then Bot
  else begin
    (* Mutual refinement of the two halves, to a fixed point: interval
       bounds clamp to what the bits allow, and the interval's high bound
       forces leading known-zeros. *)
    let zeros = ref zeros and lo = ref (umax lo ones) and hi = ref (umin hi (Int64.lognot zeros)) in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let z = Int64.lognot (Bits.mask (sigbits !hi)) in
      if Int64.logand z (Int64.lognot !zeros) <> 0L then begin
        zeros := Int64.logor !zeros z;
        continue_ := true
      end;
      let hi' = umin !hi (Int64.lognot !zeros) in
      if hi' <> !hi then begin
        hi := hi';
        continue_ := true
      end
    done;
    if Int64.logand !zeros ones <> 0L then Bot
    else if Bits.ult !hi !lo then Bot
    else V { zeros = !zeros; ones; lo = !lo; hi = !hi }
  end

let bot = Bot
let top = make 0L 0L 0L (-1L)
let const c = make (Int64.lognot c) c c c
let range lo hi = make 0L 0L lo hi
let of_width w = if w >= 64 then top else if w <= 0 then const 0L else range 0L (Bits.mask w)
let is_bot v = v = Bot
let is_top v = v = top

let is_const = function
  | Bot -> None
  | V { lo; hi; _ } -> if lo = hi then Some lo else None

let known_zeros = function Bot -> -1L | V { zeros; _ } -> zeros
let known_ones = function Bot -> 0L | V { ones; _ } -> ones

let contains v c =
  match v with
  | Bot -> false
  | V { zeros; ones; lo; hi } ->
    Int64.logand c zeros = 0L
    && Int64.logand c ones = ones
    && Bits.ule lo c && Bits.ule c hi

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | V a, V b ->
    make (Int64.logand a.zeros b.zeros) (Int64.logand a.ones b.ones) (umin a.lo b.lo)
      (umax a.hi b.hi)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | V a, V b ->
    make (Int64.logor a.zeros b.zeros) (Int64.logor a.ones b.ones) (umax a.lo b.lo)
      (umin a.hi b.hi)

(* Smallest all-ones value >=u v: the widening ladder. *)
let next_mask v = if v = 0L then 0L else Bits.mask (sigbits v)

let widen a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | V a, V b ->
    let lo = if Bits.ult b.lo a.lo then 0L else a.lo in
    let hi = if Bits.ult a.hi b.hi then next_mask b.hi else a.hi in
    make (Int64.logand a.zeros b.zeros) (Int64.logand a.ones b.ones) lo hi

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | V a, V b ->
    Int64.logand b.zeros (Int64.lognot a.zeros) = 0L
    && Int64.logand b.ones (Int64.lognot a.ones) = 0L
    && Bits.ule b.lo a.lo && Bits.ule a.hi b.hi

let comparable a b = leq a b || leq b a

let to_string = function
  | Bot -> "bot"
  | V { zeros; ones; lo; hi } ->
    if lo = hi then Printf.sprintf "{%Lu}" lo
    else
      Printf.sprintf "[%Lu,%Lu]%s" lo hi
        (if zeros = Int64.lognot (Bits.mask (sigbits hi)) && ones = 0L then ""
         else Printf.sprintf " bits(z=%Lx,o=%Lx)" zeros ones)

let bool_unknown = make (Int64.lognot 1L) 0L 0L 1L
let of_bool b = const (if b then 1L else 0L)

(* --- comparisons ----------------------------------------------------------- *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Equality is decided from disjointness whatever the signedness; the
   orderings are decided in unsigned terms, and for signed comparisons
   only when both operands are provably non-negative (bit 63
   known-zero), where the two orders coincide. *)
let decide op ~signed a b =
  match (a, b) with
  | Bot, _ | _, Bot -> None
  | V va, V vb -> (
    let nonneg v = Bits.bit v.zeros 63 in
    let equal () =
      match (is_const a, is_const b) with
      | Some x, Some y -> Some (x = y)
      | _ ->
        if Bits.ult va.hi vb.lo || Bits.ult vb.hi va.lo
           || Int64.logand va.ones vb.zeros <> 0L
           || Int64.logand va.zeros vb.ones <> 0L
        then Some false
        else None
    in
    let lt x y = if Bits.ult x.hi y.lo then Some true else if Bits.ule y.hi x.lo then Some false else None in
    let le x y = if Bits.ule x.hi y.lo then Some true else if Bits.ult y.hi x.lo then Some false else None in
    match op with
    | Eq -> equal ()
    | Ne -> Option.map not (equal ())
    | _ when signed && not (nonneg va && nonneg vb) -> None
    | Lt -> lt va vb
    | Le -> le va vb
    | Gt -> lt vb va
    | Ge -> le vb va)

let cmp_value op ~signed a b =
  match decide op ~signed a b with Some r -> of_bool r | None -> bool_unknown

(* --- arithmetic and logic -------------------------------------------------- *)

let lift2 f a b = match (a, b) with Bot, _ | _, Bot -> Bot | V va, V vb -> f va vb

let add =
  lift2 (fun va vb ->
      let lo = Int64.add va.lo vb.lo and hi = Int64.add va.hi vb.hi in
      if Bits.ult lo va.lo || Bits.ult hi va.hi then top else range lo hi)

let sub =
  lift2 (fun va vb ->
      if Bits.ule vb.hi va.lo then range (Int64.sub va.lo vb.hi) (Int64.sub va.hi vb.lo) else top)

let mul =
  lift2 (fun va vb ->
      if Bits.ule va.hi 0xFFFFFFFFL && Bits.ule vb.hi 0xFFFFFFFFL then
        range (Int64.mul va.lo vb.lo) (Int64.mul va.hi vb.hi)
      else top)

let logand =
  lift2 (fun va vb ->
      make (Int64.logor va.zeros vb.zeros) (Int64.logand va.ones vb.ones) 0L (umin va.hi vb.hi))

let logor =
  lift2 (fun va vb ->
      make (Int64.logand va.zeros vb.zeros) (Int64.logor va.ones vb.ones) (umax va.lo vb.lo)
        (Bits.mask (max (sigbits va.hi) (sigbits vb.hi))))

let logxor =
  lift2 (fun va vb ->
      make
        (Int64.logor (Int64.logand va.zeros vb.zeros) (Int64.logand va.ones vb.ones))
        (Int64.logor (Int64.logand va.zeros vb.ones) (Int64.logand va.ones vb.zeros))
        0L
        (Bits.mask (max (sigbits va.hi) (sigbits vb.hi))))

let lognot = function
  | Bot -> Bot
  | V va -> make va.ones va.zeros (Int64.lognot va.hi) (Int64.lognot va.lo)

(* A known shift amount (masked to 6 bits, as in both IRs) moves both
   halves; [unknown] bounds a shift by an unknown amount. *)
let shift known ~unknown =
  lift2 (fun va vb ->
      match is_const (V vb) with
      | Some k -> known va (Int64.to_int (Int64.logand k 63L))
      | None -> unknown va)

let shl =
  shift ~unknown:(fun _ -> top) (fun va k ->
      let zeros = Int64.logor (Int64.shift_left va.zeros k) (Bits.mask k) in
      let ones = Int64.shift_left va.ones k in
      if va.hi = 0L || sigbits va.hi + k <= 64 then
        make zeros ones (Bits.shl va.lo k) (Bits.shl va.hi k)
      else make zeros ones 0L (-1L))

(* Any logical right shift shrinks the value unsignedly. *)
let lshr =
  shift ~unknown:(fun va -> range 0L va.hi) (fun va k ->
      let zeros =
        Int64.logor (Bits.shr va.zeros k)
          (if k = 0 then 0L else Int64.shift_left (Bits.mask k) (64 - k))
      in
      make zeros (Bits.shr va.ones k) (Bits.shr va.lo k) (Bits.shr va.hi k))

(* A provably non-negative value shifts arithmetically as it does
   logically. *)
let ashr a b =
  match a with
  | V va when not (Bits.bit va.zeros 63) -> if is_bot b then Bot else top
  | _ -> lshr a b

let udiv =
  lift2 (fun va vb ->
      let lo = if contains (V vb) 0L then 0L else Bits.udiv va.lo vb.hi in
      range lo (Bits.udiv va.hi (umax vb.lo 1L)))

let urem =
  lift2 (fun va vb ->
      if vb.hi = 0L then V va
      else if contains (V vb) 0L then range 0L va.hi
      else range 0L (umin va.hi (Int64.sub vb.hi 1L)))

(* Zero/sign extension of the low [bits] bits, matching
   Bits.zero_extend / Bits.sign_extend. *)
let normalize ~bits ~signed a =
  match a with
  | Bot -> Bot
  | V va ->
    if bits >= 64 then a
    else begin
      let m = Bits.mask bits in
      if not signed then
        if Bits.ule va.hi m then a
        else make (Int64.logor va.zeros (Int64.lognot m)) (Int64.logand va.ones m) 0L m
      else if Bits.bit va.zeros (bits - 1) then begin
        (* Sign bit known clear: sext = zext of the low bits. *)
        if Bits.ule va.hi (Bits.mask (bits - 1)) then a
        else
          make
            (Int64.logor (Int64.logand va.zeros m) (Int64.lognot m))
            (Int64.logand va.ones m) 0L
            (Bits.mask (bits - 1))
      end
      else if Bits.bit va.ones (bits - 1) then
        (* Sign bit known set: the high bits all become ones. *)
        make (Int64.logand va.zeros m)
          (Int64.logor (Int64.logand va.ones m) (Int64.lognot m))
          0L (-1L)
      else
        make
          (Int64.logand va.zeros (Bits.mask (bits - 1)))
          (Int64.logand va.ones (Bits.mask (bits - 1)))
          0L (-1L)
    end
