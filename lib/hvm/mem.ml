(* Physical memory of the host virtual machine.

   Little-endian, byte addressable.  Out-of-range accesses raise
   [Bus_error], which the machine surfaces like a hardware machine-check.
   The exception carries the access width and direction so that memory
   diagnostics (e.g. `captive_run mmucheck` findings) are actionable.

   RAM is demand-paged, as a KVM host backs its guest's memory: a
   two-level directory of 4 KiB frames whose entries all start as one
   shared, read-only zero frame.  The top level has one entry per 4 MiB;
   every top entry starts as one shared all-zero second level, copied on
   the first write into its span, so creating a 256 MiB machine costs a
   64-entry array rather than a 65,536-entry one.  A frame gets storage on its first write.  A
   [zero_range] that covers a whole frame points its entry back at the
   zero frame, so frames that [Palloc] frees and reuses stop counting as
   resident.  Their storage goes on a spare list that first writes take
   from before allocating: page-table churn (a guest that flushes its
   TLB in a loop) would otherwise allocate a fresh frame per reuse and
   pay for it in major collections.  An access inside one frame is two
   directory loads plus one [Bytes.get/set_*_le]; only an access that
   straddles a frame boundary goes byte by byte, through a small
   [straddle] buffer.  The last frame of a
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

(* The directory has two levels: a top entry per 4 MiB, each pointing at
   a level of 1024 frame entries. *)
let level_bits = 10
let level_size = 1 lsl level_bits
let level_mask = level_size - 1

(* Shared by every directory entry that was never written, or was zeroed
   whole since; [frame_for_write] replaces it before any store. *)
let zero_frame = Bytes.make frame_size '\000'

(* Shared by every top entry whose 4 MiB was never written; the first
   write copies it. *)
let zero_level = Array.make level_size zero_frame

type t = {
  dir : Bytes.t array array;
  size : int;
  mutable resident : int; (* frame entries that are not [zero_frame] *)
  mutable spare : Bytes.t list; (* storage of frames zeroed whole *)
  straddle : Bytes.t; (* assembles an access that straddles frames *)
}

let create size =
  let frames = (size + frame_mask) lsr frame_bits in
  let levels = max 1 ((frames + level_mask) lsr level_bits) in
  {
    dir = Array.make levels zero_level;
    size;
    resident = 0;
    spare = [];
    straddle = Bytes.create 8;
  }

let resident_frames t = t.resident

(* The frame holding checked address [a], for reading. *)
let[@inline] frame t a =
  Array.unsafe_get (Array.unsafe_get t.dir (a lsr (frame_bits + level_bits)))
    ((a lsr frame_bits) land level_mask)

let[@inline] check t addr len ~write =
  let a = Int64.to_int addr in
  if addr < 0L || Int64.compare addr (Int64.of_int t.size) >= 0 || a + len > t.size then
    raise (Bus_error { addr; bits = 8 * len; write });
  a

let[@inline] check_int t a len ~write =
  if a < 0 || a + len > t.size then
    raise (Bus_error { addr = Int64.of_int a; bits = 8 * len; write })

(* Give frame [j] of [level] its own storage. *)
let own_frame t level j =
  let f =
    match t.spare with
    | f :: rest ->
      t.spare <- rest;
      Bytes.fill f 0 frame_size '\000'; f
    | [] -> Bytes.make frame_size '\000'
  in
  level.(j) <- f;
  t.resident <- t.resident + 1;
  f

(* [i] is a checked frame index. *)
let[@inline] frame_for_write t i =
  let k = i lsr level_bits in
  let level = Array.unsafe_get t.dir k in
  let level =
    if level != zero_level then level
    else begin
      let l = Array.copy zero_level in
      t.dir.(k) <- l;
      l
    end
  in
  let f = Array.unsafe_get level (i land level_mask) in
  if f != zero_frame then f else own_frame t level (i land level_mask)

(* A read of [len] bytes at checked address [a] reads [src t a len] at
   offset [at a len]: the frame itself, or, when the access straddles a
   frame boundary, [t.straddle] with the bytes gathered at offset 0.  A
   [Bytes.t] and an [int] rather than an [int64], so the caller's read
   stays unboxed.  A write goes to [dst t a len] at the same offset. *)
let gather t a len =
  for k = 0 to len - 1 do
    let b = a + k in
    Bytes.unsafe_set t.straddle k (Bytes.get (frame t b) (b land frame_mask))
  done;
  t.straddle

let[@inline] src t a len =
  let off = a land frame_mask in
  if off <= frame_size - len then frame t a else gather t a len

let[@inline] at a len =
  let off = a land frame_mask in
  if off <= frame_size - len then off else 0

let scatter t a len =
  for k = 0 to len - 1 do
    let b = a + k in
    Bytes.set (frame_for_write t (b lsr frame_bits)) (b land frame_mask) (Bytes.unsafe_get t.straddle k)
  done

(* [commit] moves a straddling write out of [t.straddle]. *)
let[@inline] dst t a len =
  let off = a land frame_mask in
  if off <= frame_size - len then frame_for_write t (a lsr frame_bits) else t.straddle

let[@inline] commit t a len = if a land frame_mask > frame_size - len then scatter t a len

let[@inline] get8 t a = Int64.of_int (Bytes.get_uint8 (src t a 1) (at a 1))
let[@inline] get16 t a = Int64.of_int (Bytes.get_uint16_le (src t a 2) (at a 2))

let[@inline] get32 t a =
  Int64.logand (Int64.of_int32 (Bytes.get_int32_le (src t a 4) (at a 4))) 0xFFFFFFFFL

let[@inline] get64 t a = Bytes.get_int64_le (src t a 8) (at a 8)

let[@inline] set8 t a v = Bytes.set_uint8 (frame_for_write t (a lsr frame_bits)) (a land frame_mask) (Int64.to_int v land 0xFF)

let[@inline] set16 t a v =
  Bytes.set_uint16_le (dst t a 2) (at a 2) (Int64.to_int v land 0xFFFF);
  commit t a 2

let[@inline] set32 t a v =
  Bytes.set_int32_le (dst t a 4) (at a 4) (Int64.to_int32 v);
  commit t a 4

let[@inline] set64 t a v =
  Bytes.set_int64_le (dst t a 8) (at a 8) v;
  commit t a 8

let read8 t addr = get8 t (check t addr 1 ~write:false)
let write8 t addr v = set8 t (check t addr 1 ~write:true) v
let read16 t addr = get16 t (check t addr 2 ~write:false)
let write16 t addr v = set16 t (check t addr 2 ~write:true) v
let read32 t addr = get32 t (check t addr 4 ~write:false)
let write32 t addr v = set32 t (check t addr 4 ~write:true) v
let read64 t addr = get64 t (check t addr 8 ~write:false)
let write64 t addr v = set64 t (check t addr 8 ~write:true) v

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

let load t ~bits a (regs : Bytes.t) dst =
  match bits with
  | 8 -> check_int t a 1 ~write:false; Bytes.set_int64_le regs dst (get8 t a)
  | 16 -> check_int t a 2 ~write:false; Bytes.set_int64_le regs dst (get16 t a)
  | 32 -> check_int t a 4 ~write:false; Bytes.set_int64_le regs dst (get32 t a)
  | 64 -> check_int t a 8 ~write:false; Bytes.set_int64_le regs dst (get64 t a)
  | _ -> invalid_arg "Mem.read: bad width"

let store t ~bits a (regs : Bytes.t) src =
  match bits with
  | 8 -> check_int t a 1 ~write:true; set8 t a (Bytes.get_int64_le regs src)
  | 16 -> check_int t a 2 ~write:true; set16 t a (Bytes.get_int64_le regs src)
  | 32 -> check_int t a 4 ~write:true; set32 t a (Bytes.get_int64_le regs src)
  | 64 -> check_int t a 8 ~write:true; set64 t a (Bytes.get_int64_le regs src)
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
      let level = t.dir.(i lsr level_bits) in
      let j = i land level_mask in
      let f = level.(j) in
      if f != zero_frame then
        if n = frame_size then begin
          level.(j) <- zero_frame;
          t.resident <- t.resident - 1;
          t.spare <- f :: t.spare
        end
        else Bytes.fill f off n '\000')
