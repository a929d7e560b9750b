(* The workload registry: every guest program a harness runs, listed once.

   Each entry names a guest program, the guest model it runs on, an image
   builder for [Runner.load], the exit code the program powers off with at
   scale 1, and tags.  Harnesses select by tag and keep registry order:
   the bench and check rows, the figure tables and the gates all come from
   these entries.  Exit codes depend on the scale (462.libquantum exits 8
   at scale 1 and 16 at scale 2), so at any other scale a harness checks
   that engines agree instead. *)

module A = Guest_arm.Arm_asm

type tag =
  | Quick (* the loop-heavy SPECint subset: bench --quick, aot, templates *)
  | Sweep (* the SPECint subset the full bench and the check sweep boot *)
  | Spec_int (* Fig. 17 *)
  | Spec_fp (* Fig. 18 *)
  | Os_boot (* the mini-OS demo program of `boot` *)
  | Mmu_stress (* SMC, demand paging, faults, ring transitions: mmucheck, stress *)
  | Simbench (* Fig. 19 *)

type entry = {
  name : string;
  guest : Runner.guest;
  build : scale:int -> Runner.image;
  expected : int; (* exit code at scale 1 *)
  tags : tag list;
}

(* Prints a banner through the putchar syscall and exits 0. *)
let demo_user () =
  let a = A.create ~base:Kernel.user_va () in
  String.iter
    (fun ch ->
      A.movz a A.x0 (Char.code ch);
      A.movz a A.x8 1;
      A.svc a 0)
    "captive mini-OS: up at EL0 with paging, syscalls and a timer\n";
  A.movz a A.x0 0;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let user ?(tags = []) name expected build =
  { name; guest = Runner.Arm; expected; tags;
    build = (fun ~scale -> Runner.User { user = build ~scale; timer = true }) }

let spec ?(tags = []) name expected =
  let b = Spec.find name in
  user name expected b.Spec.build ~tags:((if b.Spec.fp then Spec_fp else Spec_int) :: tags)

(* SimBench categories power off with 0: bare-metal ones at EL1 from
   0x80000 (MMU off, or on over an identity map), the rest at EL0 under
   the mini-OS with its timer off. *)
let simbench name env body =
  let image ~scale:_ =
    match env with
    | `Bare -> Runner.Bare { addr = 0x80000L; code = Simbench.bare body }
    | `Bare_mmu -> Runner.Bare { addr = 0x80000L; code = Simbench.bare_mmu body }
    | `User -> Runner.User { user = Simbench.user body; timer = false }
  in
  { name; guest = Runner.Arm; build = image; expected = 0; tags = [ Simbench ] }

let all =
  let q = [ Quick; Sweep ] in
  [
    user "armv8-a-boot" 0 (fun ~scale:_ -> demo_user ()) ~tags:[ Os_boot ];
    user "armv8-a-mmu" Mmu_stress.arm_expected_exit (fun ~scale:_ -> Mmu_stress.arm_user ())
      ~tags:[ Mmu_stress ];
    spec "462.libquantum" 8 ~tags:q;
    spec "429.mcf" 0 ~tags:q;
    spec "400.perlbench" 212 ~tags:q;
    spec "458.sjeng" 35 ~tags:q;
    spec "445.gobmk" 64 ~tags:[ Sweep ];
    spec "471.omnetpp" 220 ~tags:[ Sweep ];
    spec "483.xalancbmk" 0 ~tags:[ Sweep ];
    {
      name = "rv64im-mmu";
      guest = Runner.Riscv;
      build =
        (fun ~scale:_ ->
          Runner.Bare { addr = Mmu_stress.riscv_entry; code = Mmu_stress.riscv_image () });
      expected = Mmu_stress.riscv_expected_exit;
      tags = [ Mmu_stress ];
    };
    spec "401.bzip2" 0;
    spec "403.gcc" 224;
    spec "456.hmmer" 32;
    spec "464.h264ref" 232;
    spec "473.astar" 0;
    spec "482.sphinx3" 11;
    spec "433.milc" 1;
    spec "435.gromacs" 0;
    spec "444.namd" 0;
    spec "470.lbm" 235;
    simbench "Mem-Hot-MMU" `Bare_mmu Simbench.mem_hot;
    simbench "Mem-Hot-NoMMU" `Bare Simbench.mem_hot;
    simbench "Mem-Cold-MMU" `Bare_mmu Simbench.mem_cold;
    simbench "Mem-Cold-NoMMU" `Bare Simbench.mem_cold;
    simbench "Undef-Instruction" `User Simbench.undef_insn;
    simbench "Syscall" `User Simbench.syscall;
    simbench "Data-Fault" `User Simbench.data_fault;
    simbench "Instruction-Fault" `User Simbench.insn_fault;
    simbench "Small-Blocks" `Bare Simbench.small_blocks;
    simbench "Large-Blocks" `Bare Simbench.large_blocks;
    simbench "Same-Page-Indirect" `Bare (Simbench.indirect_chain ~page_stride:false);
    simbench "Inter-Page-Indirect" `Bare (Simbench.indirect_chain ~page_stride:true);
    simbench "Same-Page-Direct" `Bare (Simbench.direct_chain ~page_stride:false);
    simbench "Inter-Page-Direct" `Bare (Simbench.direct_chain ~page_stride:true);
    simbench "TLB-Flush" `Bare_mmu Simbench.tlb_flush;
    simbench "TLB-Evict" `Bare_mmu Simbench.tlb_evict;
  ]

(* Entries carrying any of [tags], in registry order. *)
let select tags = List.filter (fun w -> List.exists (fun t -> List.mem t tags) w.tags) all

let find name = List.find (fun w -> w.name = name) all
let names = List.map (fun w -> w.name)

(* Whether a run of [w] at [scale] ended as it must: powered off, and at
   scale 1 with the registry's exit code. *)
let exit_ok ~scale w = function
  | Runner.Poweroff c -> scale <> 1 || c = w.expected
  | Runner.Limit -> false

let boot ?opt_level ?max_cycles ?(scale = 1) engine w =
  Runner.boot ?opt_level ?max_cycles engine w.guest (w.build ~scale)
