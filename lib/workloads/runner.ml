(* One way to run a guest image on any of the three engines.

   Every harness (the CLI subcommands, the figure harness, the tests and
   the examples) runs a guest the same way: create an engine for a guest
   model, load an image, run it to power-off or a limit, and stop the
   engine's JIT workers.  [boot] does all four.  The outcome carries the
   guest-visible result (how the run ended and the UART output), the
   simulated cycle count and the engine handle, from which a harness
   reads whatever statistics it reports. *)

type engine =
  | Captive of Captive.Engine.config
  | Qemu of Qemu_ref.Qemu_engine.config
  | Reference (* the interpreter: the correctness oracle, nominal time only *)

let captive = Captive Captive.Engine.default_config
let qemu = Qemu Qemu_ref.Qemu_engine.default_config

type guest = Arm | Riscv

let ops ?opt_level = function
  | Arm -> Guest_arm.Arm.ops ?opt_level ()
  | Riscv -> Guest_riscv.Riscv.ops ?opt_level ()

type image =
  | User of { user : bytes; timer : bool } (* EL0 program under the ARM mini-OS *)
  | Bare of { addr : int64; code : bytes } (* loaded at [addr], entered there *)

type handle =
  | Captive_h of Captive.Engine.t
  | Qemu_h of Qemu_ref.Qemu_engine.t
  | Reference_h of Captive.Reference.t

type exit = Poweroff of int | Limit

type outcome = {
  exit : exit;
  uart : string;
  cycles : int; (* simulated cycles; the interpreter's are nominal *)
  handle : handle;
}

let create ?opt_level engine guest =
  let ops = ops ?opt_level guest in
  match engine with
  | Captive config -> Captive_h (Captive.Engine.create ~config ops)
  | Qemu config -> Qemu_h (Qemu_ref.Qemu_engine.create ~config ops)
  | Reference -> Reference_h (Captive.Reference.create ops)

let load h image =
  let tgt =
    match h with
    | Captive_h e -> Kernel.captive_target e
    | Qemu_h e -> Kernel.qemu_target e
    | Reference_h r -> Kernel.reference_target r
  in
  match image with
  | User { user; timer } -> Kernel.install ~enable_timer:timer tgt ~user
  | Bare { addr; code } ->
    tgt.Kernel.load ~addr code;
    tgt.Kernel.set_entry addr

let machine = function
  | Captive_h e -> e.Captive.Engine.machine
  | Qemu_h e -> e.Qemu_ref.Qemu_engine.machine
  | Reference_h r -> r.Captive.Reference.machine

(* Run to power-off, [max_cycles] simulated cycles (the DBT engines) or
   [max_instrs] interpreted instructions (the interpreter), then stop
   the engine's worker domains. *)
let run ?(max_cycles = 50_000_000_000) ?(max_instrs = 500_000_000) h =
  let exit =
    match h with
    | Captive_h e -> (
      match
        Fun.protect
          ~finally:(fun () -> Captive.Engine.shutdown e)
          (fun () -> Captive.Engine.run ~max_cycles e)
      with
      | Captive.Engine.Poweroff c -> Poweroff c
      | Captive.Engine.Cycle_limit | Captive.Engine.Block_limit -> Limit)
    | Qemu_h e -> (
      match Qemu_ref.Qemu_engine.run ~max_cycles e with
      | Qemu_ref.Qemu_engine.Poweroff c -> Poweroff c
      | Qemu_ref.Qemu_engine.Cycle_limit | Qemu_ref.Qemu_engine.Block_limit -> Limit)
    | Reference_h r -> (
      match Captive.Reference.run ~max_instrs r with
      | Captive.Reference.Poweroff c -> Poweroff c
      | Captive.Reference.Step_limit -> Limit)
  in
  let uart =
    match h with
    | Captive_h e -> Captive.Engine.uart_output e
    | Qemu_h e -> Qemu_ref.Qemu_engine.uart_output e
    | Reference_h r -> Captive.Reference.uart_output r
  in
  { exit; uart; cycles = (machine h).Hvm.Machine.cycles; handle = h }

let boot ?opt_level ?max_cycles ?max_instrs engine guest image =
  let h = create ?opt_level engine guest in
  load h image;
  run ?max_cycles ?max_instrs h

(* The Captive engine behind an outcome, for harnesses that ran one. *)
let captive_of o =
  match o.handle with
  | Captive_h e -> e
  | Qemu_h _ | Reference_h _ -> invalid_arg "Runner.captive_of: not a Captive run"

let exit_to_string = function Poweroff c -> string_of_int c | Limit -> "limit"
let exit_json = function Poweroff c -> string_of_int c | Limit -> "null"
