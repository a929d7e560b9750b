(* The benchmark's workloads: named sets of guest programs, each built
   from its inputs and installed through the engine-agnostic
   [Workloads.Kernel.target], so Captive, the QEMU-style engine and the
   Reference interpreter all receive the same image. *)

type guest = Arm | Riscv

type image =
  | User of { user : bytes; timer : bool } (* EL0 program under the mini-OS kernel *)
  | Bare of { addr : int64; code : bytes } (* bare-metal image, entry at its base *)

type program = { name : string; guest : guest; build : unit -> image }

let guest_ops = function Arm -> Guest_arm.Arm.ops () | Riscv -> Guest_riscv.Riscv.ops ()
let guest_name = function Arm -> "armv8-a" | Riscv -> "rv64im"

let install (tgt : Workloads.Kernel.target) = function
  | User { user; timer } -> Workloads.Kernel.install ~enable_timer:timer tgt ~user
  | Bare { addr; code } ->
    tgt.Workloads.Kernel.load ~addr code;
    tgt.Workloads.Kernel.set_entry addr

(* The seven proxies of the repository's full [bench] set. *)
let spec_int_names =
  [ "400.perlbench"; "429.mcf"; "445.gobmk"; "458.sjeng"; "462.libquantum"; "471.omnetpp";
    "483.xalancbmk" ]

let spec name =
  let b = Workloads.Spec.find name in
  let build () = User { user = b.Workloads.Spec.build ~scale:1; timer = true } in
  { name; guest = Arm; build }

let simbench name body ~mmu =
  let build () =
    if mmu then Bare { addr = 0x80000L; code = Simbench.bare_mmu body }
    else User { user = Simbench.user body; timer = false }
  in
  { name; guest = Arm; build }

let system =
  [
    simbench "Mem-Cold-MMU" Simbench.mem_cold ~mmu:true;
    simbench "Data-Fault" Simbench.data_fault ~mmu:false;
    simbench "Instruction-Fault" Simbench.insn_fault ~mmu:false;
    simbench "Syscall" Simbench.syscall ~mmu:false;
    simbench "Undef-Instruction" Simbench.undef_insn ~mmu:false;
    simbench "TLB-Flush" Simbench.tlb_flush ~mmu:true;
    simbench "TLB-Evict" Simbench.tlb_evict ~mmu:true;
    {
      name = "mmu-stress-arm";
      guest = Arm;
      build = (fun () -> User { user = Workloads.Mmu_stress.arm_user (); timer = true });
    };
    {
      name = "mmu-stress-riscv";
      guest = Riscv;
      build =
        (fun () ->
          Bare { addr = Workloads.Mmu_stress.riscv_entry; code = Workloads.Mmu_stress.riscv_image () });
    };
  ]

(* Per-image seeds derived from the workload seed; the engine sees only
   the built bytes. *)
let cold_code ~seed =
  let sub i = Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int i) in
  List.concat_map
    (fun i ->
      [
        {
          name = Printf.sprintf "cold-arm-%d" i;
          guest = Arm;
          build =
            (fun () -> Bare { addr = Coldgen.arm_base; code = Coldgen.arm_image ~seed:(sub i) });
        };
        {
          name = Printf.sprintf "cold-riscv-%d" i;
          guest = Riscv;
          build =
            (fun () ->
              Bare { addr = Coldgen.riscv_base; code = Coldgen.riscv_image ~seed:(sub (100 + i)) });
        };
      ])
    [ 0; 1 ]

(* The seed the self-test checks the generated workload at. *)
let default_seed = 1

let workloads = [ "spec-int"; "spec-fp"; "cold-code"; "system" ]

let programs ~workload ~seed =
  match workload with
  | "spec-int" -> List.map spec spec_int_names
  | "spec-fp" -> List.map (fun b -> spec b.Workloads.Spec.name) Workloads.Spec.fp_benchmarks
  | "cold-code" -> cold_code ~seed
  | "system" -> system
  | w -> invalid_arg ("unknown workload " ^ w)

let guests progs = List.sort_uniq compare (List.map (fun p -> p.guest) progs)

(* --- what a guest program did ------------------------------------------- *)

type exit = Poweroff of int | Limit | Crash of string

type outcome = { exit : exit; uart : string }

let max_cycles = 50_000_000_000
let max_instrs = 200_000_000

let exit_to_string = function
  | Poweroff c -> Printf.sprintf "poweroff(%d)" c
  | Limit -> "limit"
  | Crash m -> "exception(" ^ m ^ ")"
