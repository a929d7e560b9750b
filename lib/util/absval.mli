(** The abstract value of both abstract interpreters ([Ssa.Absint] and
    [Hostir.Absint]): a set of 64-bit values approximated by the product
    of known-bits (each bit known-0, known-1 or unknown) and an unsigned
    interval, the two halves refining each other on construction.

    The module owns the lattice, one comparison decider and the value
    transfers both IRs share.  Every transfer is sound for all inputs:
    for members [x] of [a] and [y] of [b], the concrete result is a
    member of the abstract one.  Division follows both IRs' rule:
    [x / 0 = 0] and [x rem 0 = x]. *)

type av = { zeros : int64; ones : int64; lo : int64; hi : int64 }

(** Bottom (no value) or a known-bits × interval pair.  Invariants of
    [V], established by {!make}: [zeros land ones = 0] and
    [ones <=u lo <=u hi <=u lognot zeros]. *)
type t = private Bot | V of av

(** {1 Lattice} *)

(** [make zeros ones lo hi], refining the two halves to a fixed point;
    [Bot] when they contradict. *)
val make : int64 -> int64 -> int64 -> int64 -> t

val bot : t
val top : t
val const : int64 -> t

(** [range lo hi] is the unsigned interval [lo..hi]. *)
val range : int64 -> int64 -> t

(** [of_width w]: all values representable in [w] unsigned bits. *)
val of_width : int -> t

val is_bot : t -> bool
val is_top : t -> bool

(** [Some c] iff the abstraction is the singleton [{c}]. *)
val is_const : t -> int64 option

(** Mask of bits proved zero (all-ones for bottom). *)
val known_zeros : t -> int64

(** Mask of bits proved one (zero for bottom). *)
val known_ones : t -> int64

(** Concretization membership. *)
val contains : t -> int64 -> bool

val join : t -> t -> t
val meet : t -> t -> t

(** [widen old next] over-approximates [join old next] and guarantees
    convergence of ascending chains: the upper bound climbs the
    [2^k-1] ladder and a falling lower bound drops to 0. *)
val widen : t -> t -> t

(** Lattice order: [leq a b] iff every value of [a] is a value of [b]. *)
val leq : t -> t -> bool

(** [comparable a b] iff one abstraction contains the other.  Two sound
    approximations of the same concrete value share a member; disjoint
    ones prove a semantic change. *)
val comparable : t -> t -> bool

val to_string : t -> string

(** {1 Booleans and comparisons} *)

val of_bool : bool -> t

(** [{0, 1}]. *)
val bool_unknown : t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Decide a comparison from the facts; [None] = unknown.  [Eq]/[Ne]
    are decided from disjoint facts whatever [signed] says; signed
    orderings only when both operands are provably non-negative. *)
val decide : cmp -> signed:bool -> t -> t -> bool option

(** The comparison's abstract result: a singleton when {!decide}
    decides it, else {!bool_unknown}. *)
val cmp_value : cmp -> signed:bool -> t -> t -> t

(** {1 Shared transfers} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** Shifts; the amount masks to 6 bits.  A known amount shifts both
    halves; an unknown one gives [top] ([shl]) or [[0, hi]] ([lshr],
    and [ashr] of a provably non-negative value). *)
val shl : t -> t -> t

val lshr : t -> t -> t
val ashr : t -> t -> t

(** Unsigned division and remainder. *)
val udiv : t -> t -> t

val urem : t -> t -> t

(** Zero ([signed = false]) or sign extension of the low [bits] bits,
    matching [Bits.zero_extend] / [Bits.sign_extend]. *)
val normalize : bits:int -> signed:bool -> t -> t
