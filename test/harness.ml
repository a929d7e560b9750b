(* Scaffolding shared by the engine-level tests: bare-metal ARM images
   that power off with x0 as the exit code, and runs through
   Workloads.Runner with limits low enough that a hung guest fails its
   test quickly. *)

module A = Guest_arm.Arm_asm
module CE = Captive.Engine
module R = Workloads.Runner

let exit_t = Alcotest.testable (fun ppf x -> Format.pp_print_string ppf (R.exit_to_string x)) ( = )

let syscon = 0x0930_0000L
let uart = 0x0910_0000L

(* EL1 at 0x80000 with the MMU off: [body], then power off with x0. *)
let bare_metal body =
  let a = A.create ~base:0x80000L () in
  body a;
  A.mov_const a A.x25 syscon;
  A.str a A.x0 A.x25;
  A.label a "__hang";
  A.b a "__hang";
  A.assemble a

(* The epilogue of the differential programs: store x0..x(regs-1), then
   d0..d(fp-1), then one 0/1 word per flag condition from 0x300000 on
   (what [dump] reads back), and power off. *)
let dump_and_halt ?(fp = 0) ~regs ~flags a =
  A.mov_const a A.x21 0x300000L;
  for i = 0 to regs - 1 do
    A.str ~off:(8 * i) a i A.x21
  done;
  for i = 0 to fp - 1 do
    A.fmov_d_to_x a A.x22 i;
    A.str ~off:(8 * (regs + i)) a A.x22 A.x21
  done;
  List.iteri (fun k c -> A.cset a (A.x22 + k) c) flags;
  List.iteri (fun k _ -> A.str ~off:(8 * (regs + fp + k)) a (A.x22 + k) A.x21) flags;
  A.mov_const a A.x28 syscon;
  A.str a A.xzr A.x28;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

(* An EL0 program for the mini-OS, assembled at the user base. *)
let el0_program body =
  let a = A.create ~base:Workloads.Kernel.user_va () in
  body a;
  A.assemble a

let bare code = R.Bare { addr = 0x80000L; code }
let user code = R.User { user = code; timer = true }

let run ?(guest = R.Arm) ?opt_level engine image =
  R.boot ?opt_level ~max_cycles:2_000_000_000 ~max_instrs:30_000_000 engine guest image

(* A Captive run: how the guest ended, and the engine. *)
let captive ?(config = CE.default_config) ?guest ?opt_level image =
  let o = run ?guest ?opt_level (R.Captive config) image in
  (o.R.exit, R.captive_of o)

(* A registry workload on Captive. *)
let workload ?config ?opt_level name =
  let w = Workloads.Registry.find name in
  captive ?config ~guest:w.Workloads.Registry.guest ?opt_level (w.Workloads.Registry.build ~scale:1)

(* The [n] words a guest stored from 0x300000 on, or [] if it never
   powered off. *)
let dump n (o : R.outcome) =
  match o.R.exit with
  | R.Poweroff _ ->
    let mem = (R.machine o.R.handle).Hvm.Machine.mem in
    List.init n (fun i -> Hvm.Mem.read64 mem (Int64.of_int (0x300000 + (8 * i))))
  | R.Limit -> []

(* [f dir] with a fresh directory that is removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "captive_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)
