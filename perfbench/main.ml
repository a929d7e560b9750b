(* The benchmark's worker: runs one workload's guest programs through the
   public API and prints one JSON object per line.  [run.py] starts it,
   aggregates what it prints and reports the metrics.

     main.exe prepare --workload W --seed N --dir D
       Expected-output table from the Reference interpreter
       (D/expected.tsv), then each program once on the QEMU-style engine
       (one "qemu" line per program).  Nothing here is timed.
     main.exe measure --workload W --seed N --seconds S --dir D
       Untraced passes over the workload for S seconds.
     main.exe trace --workload W --seed N --seconds S --dir D
       Untraced and traced passes alternately for S seconds, then each
       program once on the QEMU-style engine, traced; writes the spans
       to D/trace-<N>.json.

   What each line holds is described in README.md. *)

open Bench

let usage () =
  prerr_endline
    "usage: main.exe (prepare|measure|trace) --workload W --seed N [--seconds S] --dir D";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> usage () in
  let rec opts acc = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) r
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int_of_string (get "seed") and dir = get "dir" in
  if not (List.mem workload Suite.workloads) then usage ();
  let progs = Suite.programs ~workload ~seed in
  let table = Filename.concat dir "expected.tsv" in
  match cmd with
  | "prepare" ->
    let expected = Oracle.build progs in
    Oracle.save table expected;
    List.iter (run_qemu ~expected) progs
  | "measure" | "trace" ->
    let seconds = float_of_string (get "seconds") in
    let expected = Oracle.load table in
    let traced_run = cmd = "trace" in
    build_models ~traced:traced_run progs;
    let t0 = now () in
    let pass = ref 0 in
    (* trace alternates untraced (even) and traced (odd) passes and needs
       one of each *)
    let min_passes = if traced_run then 2 else 1 in
    while !pass < min_passes || now () -. t0 < seconds do
      ignore (run_pass ~pass:!pass ~traced:(traced_run && !pass mod 2 = 1) ~expected progs);
      incr pass
    done;
    if traced_run then begin
      Spans.enabled := true;
      List.iter (run_qemu ~expected) progs;
      Spans.enabled := false;
      Spans.write_chrome (Filename.concat dir (Printf.sprintf "trace-%d.json" seed))
    end;
    emit "end" [ ("vmhwm_kb", I (vmhwm_kb ())) ]
  | _ -> usage ()
