(** Model of the host CPU's hardware TLB, with PCID tags.

    Direct-mapped by virtual page number.  Entries carry the PCID they
    were filled under; lookups hit only entries of the current PCID (or
    global ones), so switching page-table sets under PCIDs (paper
    Sec. 2.7.5) keeps both address spaces resident. *)

type entry = {
  mutable valid : bool;
  mutable vpn : int;  (** virtual page number: [va lsr 12] *)
  mutable pcid : int;
  mutable frame : int64;
  mutable writable : bool;
  mutable user : bool;
  mutable executable : bool;
  mutable global : bool;
}

type t = {
  entries : entry array;
  size : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

val create : ?size:int -> unit -> t

(** Lookup; counts a hit or miss.  A miss returns an entry whose [valid]
    is false: an entry rather than an option, so a lookup allocates
    nothing. *)
val lookup : t -> pcid:int -> int -> entry

val insert : t -> pcid:int -> vpn:int -> frame:int64 -> flags:Pagetable.flags -> global:bool -> unit

(** The slot [vpn] maps to, without counting a hit: the entry that
    {!insert} just filled. *)
val lookup_filled : t -> int -> entry

val flush_all : t -> unit

(** Flush one PCID's non-global entries (a plain CR3 write). *)
val flush_pcid : t -> int -> unit

(** Invalidate any resident translation of one virtual page number —
    [invlpg] semantics: matches under {e every} PCID and also drops
    global entries.  (The TLB is direct-mapped, so the single slot for
    the VPN covers all PCIDs; aliasing entries for other VPNs in the
    same slot survive.) *)
val flush_page : t -> int -> unit
val reset_stats : t -> unit
