(** Physical memory of the host virtual machine: little-endian, byte
    addressable.  Out-of-range accesses raise {!Bus_error}, surfaced by
    the machine like a hardware machine-check.  The payload carries the
    access width (in bits) and direction so memory diagnostics are
    actionable; a [Printexc] printer renders it readably.

    Storage is demand-paged in 4 KiB frames behind a two-level directory
    (one top entry per 4 MiB): unwritten memory shares one zero frame and
    unwritten 4 MiB spans share one all-zero second level, so a large
    machine costs only what its guest touches.
    Only the vCPU domain may access a [t]. *)

exception Bus_error of { addr : int64; bits : int; write : bool }

type t

(** [create size]: [size] bytes, all zero; any size, not only a multiple
    of the frame size. *)
val create : int -> t

(** Frames currently backed by their own storage (not the shared zero
    frame).  O(1). *)
val resident_frames : t -> int

val read8 : t -> int64 -> int64
val write8 : t -> int64 -> int64 -> unit
val read16 : t -> int64 -> int64
val write16 : t -> int64 -> int64 -> unit
val read32 : t -> int64 -> int64
val write32 : t -> int64 -> int64 -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit

(** Width-dispatched access; [bits] is 8, 16, 32 or 64. *)
val read : t -> bits:int -> int64 -> int64

val write : t -> bits:int -> int64 -> int64 -> unit

(** [load t ~bits pa regs dst] reads [bits] at physical address [pa]
    into [regs] at byte offset [dst] (a little-endian qword, zero-extended);
    [store t ~bits pa regs src] writes the low [bits] of the qword at
    [src].  The address is an [int] and the value stays in [regs], so an
    access from another compilation unit allocates nothing.  Same
    [Bus_error]s as {!read}/{!write}. *)
val load : t -> bits:int -> int -> Bytes.t -> int -> unit

val store : t -> bits:int -> int -> Bytes.t -> int -> unit

(** Bulk load (kernel and user images). *)
val blit_in : t -> addr:int64 -> Bytes.t -> unit

(** Zero [len] bytes at [addr]; a frame covered whole goes back to the
    shared zero frame and stops counting as resident. *)
val zero_range : t -> addr:int64 -> len:int -> unit
