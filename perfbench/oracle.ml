(* The expected-output table: for every guest program of a workload, the
   exit code, an MD5 digest of the UART output and the number of guest
   instructions retired, all produced by the Reference interpreter and
   never by either DBT engine.  The retired count is what [guest_mips]
   divides by host seconds, so the work per run is fixed by the input. *)

type entry = { exit_code : int; uart_md5 : string; retired : int }

type t = (string * entry) list

let header = "# perfbench expected-output table v1: name exit_code uart_md5 retired"

let run_reference (p : Suite.program) : entry =
  let r = Captive.Reference.create (Suite.guest_ops p.Suite.guest) in
  Suite.install (Workloads.Kernel.reference_target r) (p.Suite.build ());
  match Captive.Reference.run ~max_instrs:Suite.max_instrs r with
  | Captive.Reference.Poweroff code ->
    {
      exit_code = code;
      uart_md5 = Digest.to_hex (Digest.string (Captive.Reference.uart_output r));
      retired = r.Captive.Reference.instrs_executed;
    }
  | Captive.Reference.Step_limit ->
    failwith (p.Suite.name ^ ": the Reference interpreter hit its step limit")

let build progs : t = List.map (fun (p : Suite.program) -> (p.Suite.name, run_reference p)) progs

let save file (t : t) =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (header ^ "\n");
  List.iter
    (fun (name, e) -> Printf.fprintf oc "%s\t%d\t%s\t%d\n" name e.exit_code e.uart_md5 e.retired)
    t;
  close_out oc;
  Sys.rename tmp file

let load file : t =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | l when l = "" || l.[0] = '#' -> go acc
    | l -> (
      match String.split_on_char '\t' l with
      | [ name; code; md5; retired ] ->
        let e = { exit_code = int_of_string code; uart_md5 = md5; retired = int_of_string retired } in
        go ((name, e) :: acc)
      | _ -> failwith (file ^ ": malformed line: " ^ l))
  in
  go []

let find (t : t) name =
  match List.assoc_opt name t with
  | Some e -> e
  | None -> failwith ("no expected output for " ^ name)

(* [Ok ()] when the program powered off with the expected exit code and
   UART output; otherwise what differed.  A cycle limit or an exception
   is a mismatch like any other. *)
let check (e : entry) (o : Suite.outcome) : (unit, string) result =
  match o.Suite.exit with
  | Suite.Poweroff c when c <> e.exit_code ->
    Error (Printf.sprintf "exit code %d, expected %d" c e.exit_code)
  | Suite.Poweroff _ ->
    let md5 = Digest.to_hex (Digest.string o.Suite.uart) in
    if md5 = e.uart_md5 then Ok ()
    else Error (Printf.sprintf "UART output %S has digest %s, expected %s" o.Suite.uart md5 e.uart_md5)
  | (Suite.Limit | Suite.Crash _) as x ->
    Error (Printf.sprintf "exit reason %s, expected poweroff(%d)" (Suite.exit_to_string x) e.exit_code)
