(* Physical memory of the host virtual machine.

   Little-endian, byte addressable.  Out-of-range accesses raise
   [Bus_error], which the machine surfaces like a hardware machine-check.
   The exception carries the access width and direction so that memory
   diagnostics (e.g. `captive_run mmucheck` findings) are actionable.

   RAM is demand-paged, as a KVM host backs its guest's memory: a
   directory of 4 KiB frames whose entries all start as one shared,
   read-only zero frame.  A frame gets storage on its first write.  A
   [zero_range] that covers a whole frame points its entry back at the
   zero frame, so frames that [Palloc] frees and reuses stop counting as
   resident.  Their storage goes on a spare list that first writes take
   from before allocating: page-table churn (a guest that flushes its
   TLB in a loop) would otherwise allocate a fresh frame per reuse and
   pay for it in major collections.  An access inside one frame is one
   directory load plus one [Bytes.get/set_*_le]; only an access that
   straddles a frame boundary goes byte by byte.  The last frame of a
   size that is not a multiple of 4096 is still a whole frame; the
   bounds check keeps its tail unreachable.

   Only the vCPU domain touches a [t]: [Jit.run] is pure and decodes
   from request snapshots, which the vCPU takes.  The directory and the
   resident counter are therefore unsynchronised. *)

exception Bus_error of { addr : int64; bits : int; write : bool }

let () =
  Printexc.register_printer (function
    | Bus_error { addr; bits; write } ->
      Some
        (Printf.sprintf "Mem.Bus_error(%s of %d bits at 0x%Lx)"
           (if write then "write" else "read")
           bits addr)
    | _ -> None)

let frame_bits = 12
let frame_size = 1 lsl frame_bits
let frame_mask = frame_size - 1

(* Shared by every directory entry that was never written, or was zeroed
   whole since; [frame_for_write] replaces it before any store. *)
let zero_frame = Bytes.make frame_size '\000'

type t = {
  dir : Bytes.t array;
  size : int;
  mutable resident : int; (* entries that are not [zero_frame] *)
  mutable spare : Bytes.t list; (* storage of frames zeroed whole *)
}

let create size =
  let frames = (size + frame_mask) lsr frame_bits in
  { dir = Array.make frames zero_frame; size; resident = 0; spare = [] }

let resident_frames t = t.resident

let[@inline] check t addr len ~write =
  let a = Int64.to_int addr in
  if addr < 0L || Int64.compare addr (Int64.of_int t.size) >= 0 || a + len > t.size then
    raise (Bus_error { addr; bits = 8 * len; write });
  a

(* Give directory entry [i] its own storage. *)
let own_frame t i =
  let f =
    match t.spare with
    | f :: rest ->
      t.spare <- rest;
      Bytes.fill f 0 frame_size '\000';
      f
    | [] -> Bytes.make frame_size '\000'
  in
  t.dir.(i) <- f;
  t.resident <- t.resident + 1;
  f

(* [i] is a checked frame index. *)
let[@inline] frame_for_write t i =
  let f = Array.unsafe_get t.dir i in
  if f != zero_frame then f else own_frame t i

(* The byte-wise paths for an access of [len] bytes at checked address
   [a] that straddles a frame boundary. *)
let read_straddle t a len =
  let v = ref 0L in
  for k = len - 1 downto 0 do
    let b = a + k in
    let byte = Bytes.get (Array.unsafe_get t.dir (b lsr frame_bits)) (b land frame_mask) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code byte))
  done;
  !v

let write_straddle t a len v =
  for k = 0 to len - 1 do
    let b = a + k in
    Bytes.set (frame_for_write t (b lsr frame_bits)) (b land frame_mask)
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
  done

let read8 t addr =
  let a = check t addr 1 ~write:false in
  Int64.of_int (Char.code (Bytes.get (Array.unsafe_get t.dir (a lsr frame_bits)) (a land frame_mask)))

let write8 t addr v =
  let a = check t addr 1 ~write:true in
  Bytes.set (frame_for_write t (a lsr frame_bits)) (a land frame_mask)
    (Char.unsafe_chr (Int64.to_int v land 0xFF))

let read16 t addr =
  let a = check t addr 2 ~write:false in
  let off = a land frame_mask in
  if off <= frame_size - 2 then
    Int64.of_int (Bytes.get_uint16_le (Array.unsafe_get t.dir (a lsr frame_bits)) off)
  else read_straddle t a 2

let write16 t addr v =
  let a = check t addr 2 ~write:true in
  let off = a land frame_mask in
  if off <= frame_size - 2 then
    Bytes.set_uint16_le (frame_for_write t (a lsr frame_bits)) off (Int64.to_int v land 0xFFFF)
  else write_straddle t a 2 v

let read32 t addr =
  let a = check t addr 4 ~write:false in
  let off = a land frame_mask in
  if off <= frame_size - 4 then
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_le (Array.unsafe_get t.dir (a lsr frame_bits)) off))
      0xFFFFFFFFL
  else read_straddle t a 4

let write32 t addr v =
  let a = check t addr 4 ~write:true in
  let off = a land frame_mask in
  if off <= frame_size - 4 then
    Bytes.set_int32_le (frame_for_write t (a lsr frame_bits)) off (Int64.to_int32 v)
  else write_straddle t a 4 v

let read64 t addr =
  let a = check t addr 8 ~write:false in
  let off = a land frame_mask in
  if off <= frame_size - 8 then Bytes.get_int64_le (Array.unsafe_get t.dir (a lsr frame_bits)) off
  else read_straddle t a 8

let write64 t addr v =
  let a = check t addr 8 ~write:true in
  let off = a land frame_mask in
  if off <= frame_size - 8 then Bytes.set_int64_le (frame_for_write t (a lsr frame_bits)) off v
  else write_straddle t a 8 v

let read t ~bits addr =
  match bits with
  | 8 -> read8 t addr
  | 16 -> read16 t addr
  | 32 -> read32 t addr
  | 64 -> read64 t addr
  | _ -> invalid_arg "Mem.read: bad width"

let write t ~bits addr v =
  match bits with
  | 8 -> write8 t addr v
  | 16 -> write16 t addr v
  | 32 -> write32 t addr v
  | 64 -> write64 t addr v
  | _ -> invalid_arg "Mem.write: bad width"

(* Visit [a, a + len) frame by frame: [f index offset count pos], where
   [pos] is the running offset from [a]. *)
let iter_frames a len f =
  let pos = ref 0 in
  while !pos < len do
    let b = a + !pos in
    let off = b land frame_mask in
    let n = min (len - !pos) (frame_size - off) in
    f (b lsr frame_bits) off n !pos;
    pos := !pos + n
  done

(* Bulk load (e.g. kernel images). *)
let blit_in t ~addr (src : Bytes.t) =
  let len = Bytes.length src in
  let a = check t addr len ~write:true in
  iter_frames a len (fun i off n pos -> Bytes.blit src pos (frame_for_write t i) off n)

let zero_range t ~addr ~len =
  let a = check t addr len ~write:true in
  iter_frames a len (fun i off n _ ->
      let f = t.dir.(i) in
      if f != zero_frame then
        if n = frame_size then begin
          t.dir.(i) <- zero_frame;
          t.resident <- t.resident - 1;
          t.spare <- f :: t.spare
        end
        else Bytes.fill f off n '\000')
