(* Retargeting walkthrough: define a brand-new guest ISA in the ADL,
   inspect the offline pipeline (optimized SSA), and execute a program
   through the full generator -> DAG -> register allocator -> encoder ->
   executor chain.

     dune exec examples/custom_isa.exe

   The ISA is a tiny accumulator machine ("ACC-8"): 8 registers, 16-bit
   immediate loads, add/xor, a decrementing branch, and halt. *)

let acc8 =
  {|
arch "acc8" {
  wordsize 64;
  endian little;
  bank R : uint64[8];
  reg PC : uint64;
}

decode ldi  "0001 rd:3 0 imm16:16 00000000";
decode add  "0010 rd:3 0 ra:3 0 rb:3 0 0000000000000000";
decode xor  "0011 rd:3 0 ra:3 0 rb:3 0 0000000000000000";
decode dbnz "0100 rd:3 0 off16:16 00000000" ends_block;
decode halt "1111 0000 0000 0000 0000 0000 0000 0000" ends_block;

execute(ldi)  { write_register_bank(R, inst.rd, inst.imm16); }
execute(add)  {
  write_register_bank(R, inst.rd,
    read_register_bank(R, inst.ra) + read_register_bank(R, inst.rb));
}
execute(xor)  {
  write_register_bank(R, inst.rd,
    read_register_bank(R, inst.ra) ^ read_register_bank(R, inst.rb));
}
execute(dbnz) {
  uint64 v = read_register_bank(R, inst.rd) - 1;
  write_register_bank(R, inst.rd, v);
  if (v != 0) { write_pc(read_pc() - (sign_extend(inst.off16, 16) << 2)); }
  else { write_pc(read_pc() + 4); }
}
execute(halt) { halt(); }
|}

(* Hand assembler for ACC-8. *)
let ldi rd imm = (0b0001 lsl 28) lor (rd lsl 25) lor ((imm land 0xFFFF) lsl 8)
let add rd ra rb = (0b0010 lsl 28) lor (rd lsl 25) lor (ra lsl 21) lor (rb lsl 17)
let _xor rd ra rb = (0b0011 lsl 28) lor (rd lsl 25) lor (ra lsl 21) lor (rb lsl 17)
let dbnz rd off = (0b0100 lsl 28) lor (rd lsl 25) lor ((off land 0xFFFF) lsl 8)
let halt = 0xF0000000

let () =
  (* Offline stage: parse, type-check, optimize, build the decoder. *)
  let model = Ssa.Offline.build ~opt_level:4 acc8 in
  Printf.printf "offline: %d decode entries, %d SSA statements at O4\n\n"
    (List.length model.Ssa.Offline.arch.Adl.Ast.a_decodes)
    (Ssa.Offline.total_size model);
  print_endline "optimized SSA for `add` (paper Fig. 6 analogue):";
  print_string (Ssa.Ir.to_string (Ssa.Offline.action model "add"));

  (* A program: r1 = 5; r2 = 7; loop r3 times { r1 = r1 + r2 }; halt. *)
  let program = [ ldi 1 5; ldi 2 7; ldi 3 10; add 1 1 2; dbnz 3 1; halt ] in

  (* Online stage, by hand: translate each instruction through the DAG
     backend and execute the host code. *)
  let machine = Hvm.Machine.create ~mem_size:(4 * 1024 * 1024) () in
  let ctx =
    Hostir.Exec.create ~machine
      ~helpers:
        [| { Hostir.Exec.fn = (fun _ _ -> raise (Hvm.Machine.Powered_off 0)); cost = 0 } |]
      ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Hostir.Exec.Retry)
  in
  let dag_config =
    {
      Hostir.Dag.bank_offset = (fun ~bank:_ ~index -> 8 * index);
      slot_offset = (fun s -> 64 + (8 * s));
      lower_intrinsic = (fun _ -> Hostir.Dag.L_inline);
      effect_helper = (fun _ -> 0 (* halt *));
      coproc_read_helper = 0;
      coproc_write_helper = 0;
      split_va_check = false;
      as_switch_helper = 0;
    }
  in
  let translate word =
    match Ssa.Offline.decode model (Int64.of_int word) with
    | None -> invalid_arg "undefined ACC-8 instruction"
    | Some d ->
      let action = Ssa.Offline.action model d.Adl.Decode.name in
      let dag = Hostir.Dag.create dag_config in
      let field n = if n = "__el" then 0L else Adl.Decode.field d n in
      let inc = if d.Adl.Decode.ends_block then None else Some 4 in
      Ssa.Gen.translate (Hostir.Dag.emitter dag) action ~field ~inc_pc:inc;
      Hostir.Dag.raw dag (Hostir.Hir.Exit 0);
      let ra = Hostir.Regalloc.run (Hostir.Dag.finish dag) in
      Hostir.Exec.compile
        (Hostir.Encode.decode_program ~n_slots:ra.Hostir.Regalloc.n_slots (Hostir.Encode.encode ra))
  in
  let code = Array.of_list (List.map translate program) in
  print_endline "\nexecuting through the host backend:";
  (try
     while true do
       let idx = Int64.to_int (Hostir.Exec.pc ctx) / 4 in
       ignore (Hostir.Exec.run ctx code.(idx))
     done
   with Hvm.Machine.Powered_off _ -> ());
  Printf.printf "r1 = %Ld (expected 5 + 10*7 = 75)\n" (Hostir.Exec.rf_read ctx 8);
  Printf.printf "simulated cycles: %d\n" machine.Hvm.Machine.cycles
