open Dbt_util

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_mask () =
  check_i64 "mask 0" 0L (Bits.mask 0);
  check_i64 "mask 1" 1L (Bits.mask 1);
  check_i64 "mask 8" 0xFFL (Bits.mask 8);
  check_i64 "mask 63" Int64.max_int (Bits.mask 63);
  check_i64 "mask 64" (-1L) (Bits.mask 64)

let test_extract_insert () =
  check_i64 "extract mid" 0xCDL (Bits.extract 0xABCDEFL ~lo:8 ~len:8);
  check_i64 "extract top" 1L (Bits.extract Int64.min_int ~lo:63 ~len:1);
  check_i64 "insert" 0xAB12EFL (Bits.insert 0xABCDEFL ~lo:8 ~len:8 0x12L);
  check_i64 "insert truncates" 0xAB12EFL (Bits.insert 0xABCDEFL ~lo:8 ~len:8 0xF12L)

let test_sign_extend () =
  check_i64 "sext8 neg" (-1L) (Bits.sign_extend 0xFFL ~width:8);
  check_i64 "sext8 pos" 0x7FL (Bits.sign_extend 0x7FL ~width:8);
  check_i64 "sext32" (-2147483648L) (Bits.sign_extend 0x80000000L ~width:32);
  check_i64 "sext64 identity" (-5L) (Bits.sign_extend (-5L) ~width:64)

let test_rotate () =
  check_i64 "ror32" 0x80000000L (Bits.rotate_right 1L 1 ~width:32);
  check_i64 "ror64" Int64.min_int (Bits.rotate_right 1L 1 ~width:64);
  check_i64 "rol inverse" 0x12345678L (Bits.rotate_left (Bits.rotate_right 0x12345678L 13 ~width:32) 13 ~width:32)

let test_count () =
  check_int "popcount" 32 (Bits.popcount 0x5555555555555555L);
  check_int "clz 1" 63 (Bits.clz 1L);
  check_int "clz 0" 64 (Bits.clz 0L);
  check_int "clz32" 31 (Bits.clz ~width:32 1L);
  check_int "ctz" 4 (Bits.ctz 0x10L);
  check_int "ctz 0" 64 (Bits.ctz 0L)

let test_byte_swap () =
  check_i64 "bswap32" 0x78563412L (Bits.byte_swap 0x12345678L ~width:32);
  check_i64 "bswap16" 0x3412L (Bits.byte_swap 0x1234L ~width:16)

let test_add_with_carry () =
  let carry ?width a b cin = Int64.logand (Bits.add_nzcv ?width a b cin) 2L <> 0L in
  let overflow ?width a b cin = Int64.logand (Bits.add_nzcv ?width a b cin) 1L <> 0L in
  check_i64 "wrap result" 0L (Bits.add_with_carry (-1L) 1L false);
  check_bool "wrap carry" true (carry (-1L) 1L false);
  check_bool "wrap overflow" false (overflow (-1L) 1L false);
  check_i64 "wrap nzcv" 6L (Bits.add_nzcv (-1L) 1L false);
  check_i64 "ovf result" Int64.min_int (Bits.add_with_carry Int64.max_int 1L false);
  check_bool "ovf carry" false (carry Int64.max_int 1L false);
  check_bool "ovf overflow" true (overflow Int64.max_int 1L false);
  check_i64 "ovf nzcv" 9L (Bits.add_nzcv Int64.max_int 1L false);
  check_bool "carry-in wrap" true (carry (-1L) 0L true);
  check_i64 "w32 result" 0L (Bits.add_with_carry ~width:32 0xFFFFFFFFL 0L true);
  check_bool "w32 carry" true (carry ~width:32 0xFFFFFFFFL 0L true)

let test_align () =
  check_i64 "align_down" 0x1000L (Bits.align_down 0x1FFFL 4096);
  check_i64 "align_up" 0x2000L (Bits.align_up 0x1001L 4096);
  check_bool "is_aligned" true (Bits.is_aligned 0x3000L 4096);
  check_bool "not aligned" false (Bits.is_aligned 0x3001L 4096)

(* Property tests *)
let prop_extract_insert =
  QCheck2.Test.make ~name:"insert then extract is identity" ~count:500
    QCheck2.Gen.(triple (int_range 0 56) (int_range 1 8) int64)
    (fun (lo, len, v) ->
      let v' = Bits.extract v ~lo:0 ~len in
      Bits.extract (Bits.insert 0L ~lo ~len v') ~lo ~len = v')

let prop_rotate_inverse =
  QCheck2.Test.make ~name:"rotate_left inverts rotate_right" ~count:500
    QCheck2.Gen.(pair (int_range 0 63) int64)
    (fun (n, x) ->
      Bits.rotate_left (Bits.rotate_right x n ~width:64) n ~width:64 = x)

let prop_popcount_split =
  QCheck2.Test.make ~name:"popcount splits at bit 32" ~count:500 QCheck2.Gen.int64
    (fun x ->
      Bits.popcount x
      = Bits.popcount (Bits.extract x ~lo:0 ~len:32) + Bits.popcount (Bits.extract x ~lo:32 ~len:32))

let prop_sign_extend_idempotent =
  QCheck2.Test.make ~name:"sign_extend is idempotent" ~count:500
    QCheck2.Gen.(pair (int_range 1 63) int64)
    (fun (w, x) ->
      let once = Bits.sign_extend x ~width:w in
      Bits.sign_extend once ~width:w = once)

let prop_add_with_carry_matches_int64 =
  QCheck2.Test.make ~name:"add_with_carry result matches Int64.add" ~count:500
    QCheck2.Gen.(pair int64 int64)
    (fun (a, b) ->
      Bits.add_with_carry a b false = Int64.add a b)

(* Naive bit-at-a-time definitions, the reference for the word-parallel
   kernels in [Bits]. *)
module Naive = struct
  let bit x i = Int64.logand (Int64.shift_right_logical x i) 1L <> 0L
  let zext x w = if w >= 64 then x else Int64.logand x (Int64.pred (Int64.shift_left 1L w))

  let popcount x =
    let n = ref 0 in
    for i = 0 to 63 do
      if bit x i then incr n
    done;
    !n

  let clz ~width x =
    let x = zext x width in
    let r = ref width in
    for i = 0 to width - 1 do
      if bit x i then r := width - 1 - i
    done;
    !r

  let ctz ~width x =
    let x = zext x width in
    let r = ref width in
    for i = width - 1 downto 0 do
      if bit x i then r := i
    done;
    !r

  let bit_reverse x ~width =
    let r = ref 0L in
    for i = 0 to width - 1 do
      if bit x i then r := Int64.logor !r (Int64.shift_left 1L (width - 1 - i))
    done;
    !r

  let byte_swap x ~width =
    let n = width / 8 in
    let r = ref 0L in
    for i = 0 to n - 1 do
      let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL in
      r := Int64.logor !r (Int64.shift_left byte (8 * (n - 1 - i)))
    done;
    !r

  (* AddWithCarry through an explicit 65-bit sum: bit by bit. *)
  let add_nzcv ~width a b cin =
    let a = zext a width and b = zext b width in
    let carry = ref (if cin then 1 else 0) and r = ref 0L in
    for i = 0 to width - 1 do
      let s = (if bit a i then 1 else 0) + (if bit b i then 1 else 0) + !carry in
      if s land 1 = 1 then r := Int64.logor !r (Int64.shift_left 1L i);
      carry := s lsr 1
    done;
    let top x = bit x (width - 1) in
    let v = top a = top b && top !r <> top a in
    Int64.of_int
      ((if top !r then 8 else 0) lor (if !r = 0L then 4 else 0) lor (!carry lsl 1) lor if v then 1 else 0)
end

(* Every width the DBT uses, over zero, all-ones and every single-bit
   value, plus random values. *)
let test_kernels_match_naive () =
  List.iter
    (fun width ->
      let ones = Naive.zext (-1L) width in
      let values =
        (0L :: ones :: -1L :: List.init 64 (fun i -> Int64.shift_left 1L i))
        @ List.init 200 (fun i -> Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 1)))
      in
      List.iter
        (fun x ->
          let what f = Printf.sprintf "%s width %d of 0x%Lx" f width x in
          let z = Naive.zext x width in
          check_int (what "popcount") (Naive.popcount z) (Bits.popcount z);
          check_int (what "clz") (Naive.clz ~width x) (Bits.clz ~width x);
          check_int (what "ctz") (Naive.ctz ~width x) (Bits.ctz ~width x);
          check_i64 (what "bit_reverse") (Naive.bit_reverse x ~width) (Bits.bit_reverse x ~width);
          check_i64 (what "byte_swap") (Naive.byte_swap x ~width) (Bits.byte_swap x ~width);
          List.iter
            (fun (y, cin) ->
              check_i64 (what "add_nzcv") (Naive.add_nzcv ~width x y cin) (Bits.add_nzcv ~width x y cin);
              check_i64 (what "add_with_carry")
                (Naive.zext (Int64.add (Int64.add x y) (if cin then 1L else 0L)) width)
                (Bits.add_with_carry ~width x y cin))
            [ (0L, false); (0L, true); (ones, false); (ones, true); (1L, false); (x, true) ])
        values)
    [ 8; 16; 32; 64 ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "bits",
    [
      Alcotest.test_case "mask" `Quick test_mask;
      Alcotest.test_case "extract/insert" `Quick test_extract_insert;
      Alcotest.test_case "sign_extend" `Quick test_sign_extend;
      Alcotest.test_case "rotate" `Quick test_rotate;
      Alcotest.test_case "popcount/clz/ctz" `Quick test_count;
      Alcotest.test_case "byte_swap" `Quick test_byte_swap;
      Alcotest.test_case "add_with_carry" `Quick test_add_with_carry;
      Alcotest.test_case "kernels match naive definitions" `Quick test_kernels_match_naive;
      Alcotest.test_case "align" `Quick test_align;
      q prop_extract_insert;
      q prop_rotate_inverse;
      q prop_popcount_split;
      q prop_sign_extend_idempotent;
      q prop_add_with_carry_matches_int64;
    ] )
