(* Execution of encoded host machine code against the HVM.

   A decoded program (Encode.program) is compiled once to threaded code
   ({!compile}) and run with per-instruction cycle charging from
   Hvm.Cost.  Host page faults raised by the MMU are
   delivered to the engine-installed fault handler; [Retry] re-executes
   the faulting instruction once the handler has populated the host page
   tables, [Mmio_*] completes the access by device emulation, and guest
   exceptions simply propagate as OCaml exceptions to the engine's run
   loop. *)

(* What the engine-installed fault handler tells the executor to do with
   a faulting access. *)
type fault_response =
  | Retry
  | Mmio_value of int64 (* a load serviced by device emulation *)
  | Mmio_done (* a store serviced by device emulation *)

(* The simulated host machine state a translation executes against.  The
   record is transparent: the engine sets the poll budgets directly
   between translations, and helpers receive the ctx to reach the guest
   system state.  Host registers, spill slots and the guest PC are
   little-endian qwords in [Bytes.t]; reach them through {!reg},
   {!set_reg}, {!pc} and {!set_pc}. *)
type ctx = {
  machine : Hvm.Machine.t;
  regfile : Bytes.t; (* guest register file (lives in HVM memory space) *)
  regs : Bytes.t; (* host GPRs r0..r15, then two scratch qwords *)
  pc_reg : Bytes.t; (* the dedicated guest-PC host register *)
  helpers : helper array;
  fault_handler :
    ctx -> Hvm.Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response;
  mutable slots : Bytes.t; (* current translation frame *)
  (* region safepoint budgets, set by the engine before entering a
     tier-1 region translation; [Poll] exits when either is exhausted *)
  mutable poll_deadline : int; (* machine-cycle ceiling (run's max_cycles) *)
  mutable poll_budget : int; (* remaining block executions (run's max_blocks) *)
  (* Precise-state writeback map of the running translation ([Hir.Wbmap],
     installed from the code's map on entry): dirty promoted guest
     registers flushed to the register file before anything outside the
     translation can observe it. *)
  mutable wb_map : (Hir.operand * int) array;
  (* statistics *)
  mutable instrs_executed : int;
  mutable rf_loads : int; (* dynamic register-file reads ([Ldrf]) *)
  mutable rf_stores : int; (* dynamic register-file writes ([Strf] + writebacks) *)
}

and helper = {
  fn : ctx -> int64 array -> int64;
  cost : int; (* charged in addition to the call overhead *)
}

val create :
  machine:Hvm.Machine.t ->
  helpers:helper array ->
  fault_handler:
    (ctx -> Hvm.Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response) ->
  ctx

(* Guest register-file access (little-endian qwords at byte offsets). *)
val rf_read : ctx -> int -> int64
val rf_write : ctx -> int -> int64 -> unit

(* Host register [r] (0..15) and the guest-PC register. *)
val reg : ctx -> int -> int64
val set_reg : ctx -> int -> int64 -> unit
val pc : ctx -> int64
val set_pc : ctx -> int64 -> unit

(* Shared concrete semantics of the HostIR opcodes, exposed for the
   symbolic executor (Symexec) and the abstract interpreter (Absint) so
   their constant folds are this executor by construction. *)
val alu : Hir.aluop -> int64 -> int64 -> int64
val mulhi : bool -> int64 -> int64 -> int64
val divrem : bool -> bool -> int64 -> int64 -> int64
val ext : bool -> int -> int64 -> int64
val bit1 : Hir.bit1op -> int64 -> int64
val bit2 : Hir.bit2op -> int64 -> int64 -> int64
val exec_fp2 : Hir.fp2op -> int64 -> int64 -> int64
val exec_fp1 : Hir.fp1op -> int64 -> int64
val fcmp_nzcv : int -> int64 -> int64 -> int64

(* [flags_add ~width a b cin] is the NZCV nibble of the [width]-bit
   [a + b + cin], carry-in [cin] non-zero for 1 ([Bits.add_nzcv]). *)
val flags_add : width:int -> int64 -> int64 -> int64 -> int64

val flags_logic : width:int -> int64 -> int64
val cond_holds : Hir.cond -> int64 -> int64 -> bool

(* Per-instruction cycle cost (Hvm.Cost model). *)
val instr_cost : Hir.instr -> int

(* Threaded code: one closure per instruction of a decoded program, with
   operands, cost, jump targets and successor resolved.  Built once, when
   a translation is installed. *)
type code

val compile : Encode.program -> code

(* Run compiled code; returns the chain-slot id of the exit taken. *)
val run : ctx -> code -> int
