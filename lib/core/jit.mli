(** The pure translator: one four-phase pipeline (decode, translate,
    register-allocate, encode) for every translation the engine
    installs — tier-0 blocks, template-stitched blocks and hot regions.

    A job reads only its {!jit_env} and its {!request}, which carries a
    snapshot of the guest bytes it may decode; it never sees the engine,
    the machine or live guest memory.  [Engine] depends on this module,
    never the reverse, so the compiler enforces that a worker domain
    cannot touch engine state. *)

(** The configuration and stats records, re-exported by [Engine]. *)
module Decls = Jit_decls

include module type of struct
  include Decls
end

val now : unit -> float

(** Immutable configuration captured at engine creation, plus the
    per-guest template table: a memo that template jobs extend as they
    mine, touched only by the vCPU (template jobs never run on a worker). *)
type jit_env = {
  je_guest : Guest.Ops.ops;
  je_config : config;
  je_n_helpers : int;  (** helper symbol table size, for Reloc env bounds *)
  je_rf_bytes : int;  (** guest register file size, for Reloc env bounds *)
  je_templates : Hostir.Template.t;
}

val env : config:config -> n_helpers:int -> rf_bytes:int -> Guest.Ops.ops -> jit_env

type member_desc = {
  md_va : int64;
  md_off : int;  (** byte offset of the member's code in its guest page *)
  md_len : int;  (** guest code bytes its tier-0 record covers (regions; 0 for blocks) *)
  md_succs : int64 list;  (** profiled successor VAs, hottest first *)
}

type kind =
  | Block  (** tier 0: the generator-function pipeline *)
  | Template  (** tier -1: template stitching; may raise {!Fallback} *)
  | Region  (** tier 1: members as one unit, region passes, promotion *)

(** A translation site: guest-PA + EL/MMU regime, the members to
    translate, and the guest bytes they are decoded from.  A block
    request has one member and snapshots from its PA to the page end or
    [max_block] instructions, whichever comes first; a region request
    snapshots the head's whole page. *)
type request = {
  rq_kind : kind;
  rq_head_va : int64;
  rq_pa_page : int64;
  rq_el : int;
  rq_mmu : bool;
  rq_members : member_desc list;
  rq_snapshot : bytes;
  rq_snap_off : int;  (** page offset of the snapshot's first byte *)
  rq_validate : bool;  (** the vCPU's Equiv sampling verdict *)
}

(** An encoded, possibly certified unit plus the stats delta and capped
    finding logs accumulated producing it, merged at install. *)
type result = {
  r_program : Hostir.Encode.program;
  r_code : bytes;
  r_cert : Hostir.Reloc.certificate option;
  r_aot : bool;  (** reloaded from the AOT cache rather than translated *)
  r_n_guest : int;
  r_n_host : int;
  r_n_slots : int;
  r_n_exits : int;
  r_members : (int64 * int) array;  (** (VA, guest bytes) spans the unit covers *)
  r_stats : phase_stats;
  r_validation_log : (string * string) list;
  r_analysis_log : (string * string) list;
  r_reloc_log : (string * string) list;
}

exception Fallback of phase_stats * string option
(** A template request that cannot be stitched: the stats delta so far
    and the opcode with no usable template, if one missed. *)

val run : jit_env -> request -> result
(** Decode, the kind's translate step, then the shared tail: sampled
    Equiv validation, register allocation, Absint obligations, encode,
    Reloc certification.  Raises {!Fallback} (template requests) or a
    writeback-discipline violation from [Verify.check_wb_exn]. *)

val head_pa : request -> int64
val describe : request -> string

val member_spans : request -> (int64 * int) array
(** The (VA, guest bytes) spans of a region request's members. *)

val guest_bytes : request -> (int64 * int) array -> bytes
(** The snapshot bytes under the given (VA, length) spans, concatenated. *)

val field_of : el:int -> Adl.Decode.decoded -> string -> int64
val append_capped : (string * string) list -> (string * string) list -> (string * string) list

(** {1 AOT cache} *)

val aot_kind : kind -> int
val cfg_sig : jit_env -> int64

val persistable : jit_env -> result -> bool
(** A freshly translated result covering real guest bytes, whose members
    re-decoded to exactly the spans their tier-0 records cover. *)

val aot_entry : jit_env -> request -> result -> Hostir.Reloc.certificate -> Aotcache.entry

type loaded =
  | Loaded of result
  | Mismatch  (** another site's entry: try the next candidate *)
  | Rejected of phase_stats * (string * string) list  (** counted in [aot_rejects] *)

val load : jit_env -> request -> Aotcache.entry -> loaded
(** Turn a candidate entry into the result a fresh translation of the
    request would produce.  A block entry must span a whole number of
    instructions inside the request's snapshot (checked before any
    guest byte is compared); a region entry must cover the members
    profiling selected.  Its bytes must match the snapshot and its code
    must re-certify. *)
