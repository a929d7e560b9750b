(* 64-bit manipulation helpers used throughout the DBT.

   All values are carried as [int64]; narrower widths are represented
   zero-extended in the low bits unless stated otherwise. *)

let ( +% ) = Int64.add
let ( -% ) = Int64.sub
let ( *% ) = Int64.mul
let ( &% ) = Int64.logand
let ( |% ) = Int64.logor
let ( ^% ) = Int64.logxor
let lnot64 = Int64.lognot

(* Shift amounts are masked to 0..63 as on real hardware. *)
let shl x n = Int64.shift_left x (n land 63)
let shr x n = Int64.shift_right_logical x (n land 63)
let sar x n = Int64.shift_right x (n land 63)

(* A mask of [n] ones in the low bits. [mask 64] is all-ones, [mask 0] zero. *)
let mask n =
  if n <= 0 then 0L
  else if n >= 64 then -1L
  else Int64.shift_left 1L n -% 1L

(* Extract [len] bits of [x] starting at bit [lo] (LSB = 0). *)
let extract x ~lo ~len = shr x lo &% mask len

(* Insert the low [len] bits of [v] into [x] at position [lo]. *)
let insert x ~lo ~len v =
  let m = shl (mask len) lo in
  x &% lnot64 m |% (shl v lo &% m)

let bit x i = extract x ~lo:i ~len:1 <> 0L

(* Sign-extend the low [width] bits of [x] to 64 bits. *)
let sign_extend x ~width =
  if width <= 0 || width >= 64 then x
  else
    let shift = 64 - width in
    sar (shl x shift) shift

(* Truncate [x] to [width] bits (zero-extended representation). *)
let zero_extend x ~width = x &% mask width

let rotate_right x n ~width =
  let n = n mod width in
  if n = 0 then zero_extend x ~width
  else
    let x = zero_extend x ~width in
    zero_extend (shr x n |% shl x (width - n)) ~width

let rotate_left x n ~width = rotate_right x (width - (n mod width)) ~width

(* Unsigned comparison on int64. *)
let ucompare = Int64.unsigned_compare
let ult a b = ucompare a b < 0
let ule a b = ucompare a b <= 0
let udiv = Int64.unsigned_div
let urem = Int64.unsigned_rem

(* Kernels on 32-bit values held in native ints (zero-extended, below
   2^32).  Immediate arguments and results: a caller in another module
   allocates nothing, which is what lets the host executor use them on
   its hot path.  The int64 versions below split into two halves. *)
let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let[@inline] clz32 x =
  if x = 0 then 32
  else begin
    let n = ref 0 and x = ref x in
    if !x land 0xFFFF0000 = 0 then begin n := 16; x := !x lsl 16 end;
    if !x land 0xFF000000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
    if !x land 0xF0000000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
    if !x land 0xC0000000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
    if !x land 0x80000000 = 0 then !n + 1 else !n
  end

let[@inline] ctz32 x = if x = 0 then 32 else popcount32 ((x land -x) - 1)

let[@inline] bswap32 x =
  ((x land 0xFF) lsl 24)
  lor ((x land 0xFF00) lsl 8)
  lor ((x lsr 8) land 0xFF00)
  lor ((x lsr 24) land 0xFF)

let[@inline] rbit32 x =
  let x = ((x lsr 1) land 0x55555555) lor ((x land 0x55555555) lsl 1) in
  let x = ((x lsr 2) land 0x33333333) lor ((x land 0x33333333) lsl 2) in
  let x = ((x lsr 4) land 0x0F0F0F0F) lor ((x land 0x0F0F0F0F) lsl 4) in
  bswap32 x

let[@inline] lo32 x = Int64.to_int x land 0xFFFFFFFF
let[@inline] hi32 x = Int64.to_int (Int64.shift_right_logical x 32)
let[@inline] join32 ~hi ~lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let popcount x = popcount32 (lo32 x) + popcount32 (hi32 x)

let clz ?(width = 64) x =
  let x = zero_extend x ~width in
  if x = 0L then width
  else
    let h = hi32 x in
    (if h <> 0 then clz32 h else 32 + clz32 (lo32 x)) - (64 - width)

let ctz ?(width = 64) x =
  let x = zero_extend x ~width in
  if x = 0L then width
  else
    let l = lo32 x in
    if l <> 0 then ctz32 l else 32 + ctz32 (hi32 x)

(* Reverse the low [width] bits (1..64). *)
let bit_reverse x ~width =
  if width <= 0 then 0L
  else
    let x = zero_extend x ~width in
    shr (join32 ~hi:(rbit32 (lo32 x)) ~lo:(rbit32 (hi32 x))) (64 - width)

(* Byte-swap the low [width] bits (8, 16, 32 or 64; a multiple of 8). *)
let byte_swap x ~width =
  let x = zero_extend x ~width:(width land lnot 7) in
  shr (join32 ~hi:(bswap32 (lo32 x)) ~lo:(bswap32 (hi32 x))) (64 - (width land lnot 7))

(* Align [x] down/up to a power-of-two [align]. *)
let align_down x align = x &% lnot64 (Int64.of_int (align - 1))
let align_up x align = align_down (x +% Int64.of_int (align - 1)) align
let is_aligned x align = x &% Int64.of_int (align - 1) = 0L

(* ARM's AddWithCarry on [width]-bit operands: [add_with_carry] is the
   zero-extended result, [add_nzcv] the flags nibble N=8, Z=4, C=2, V=1.
   Two functions rather than one tuple, so neither allocates. *)
let add_with_carry ?(width = 64) a b carry_in =
  zero_extend (a +% b +% if carry_in then 1L else 0L) ~width

let add_nzcv ?(width = 64) a b carry_in =
  let a = zero_extend a ~width and b = zero_extend b ~width in
  let r = zero_extend (a +% b +% if carry_in then 1L else 0L) ~width in
  (* Carry-out of a + b + cin in [width] bits: with cin=0 the sum wrapped iff
     it is strictly below [a]; with cin=1 it wrapped iff it is <= [a]. *)
  let c = if carry_in then ule r a else ult r a in
  let sa = bit a (width - 1) and sb = bit b (width - 1) and sr = bit r (width - 1) in
  let v = sa = sb && sr <> sa in
  Int64.of_int
    ((if sr then 8 else 0) lor (if r = 0L then 4 else 0) lor (if c then 2 else 0) lor if v then 1 else 0)

let hex x = Printf.sprintf "0x%Lx" x
let hex_w width x = Printf.sprintf "0x%0*Lx" (width / 4) (zero_extend x ~width)
