(* In-memory spans for the traced run, written out at exit as Chrome
   trace-event JSON (the plain "X" complete-event format; load it in
   chrome://tracing or Perfetto).

   Spans are recorded only by the benchmark's own code, around each call
   into a layer of the system.  Each span knows its parent, so a layer's
   self time is its duration minus the time its children cover.  Spans
   of one run of a guest program share an id and carry the program's
   name. *)

type span = {
  name : string;
  cat : string; (* the layer: a lib/ directory name, or "bench" *)
  id : int; (* one run of a guest program; 0 for process-wide work *)
  program : string;
  idx : int; (* position in recording order *)
  parent : int; (* index of the enclosing span, or -1 *)
  t0 : float;
  mutable t1 : float;
  mutable args : (string * float) list;
}

let enabled = ref false
let spans : span list ref = ref [] (* newest first *)
let count = ref 0
let stack : span list ref = ref [] (* open spans, innermost first *)
let origin = Unix.gettimeofday ()
let last_id = ref 0

(* A new id for one run of a guest program. *)
let fresh_id () =
  incr last_id;
  !last_id

let now = Unix.gettimeofday

(* Run [f] inside a span.  With tracing off this is just [f ()]. *)
let with_span ~cat ~id ~program name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.idx | [] -> -1 in
    let s = { name; cat; id; program; idx = !count; parent; t0 = now (); t1 = 0.; args = [] } in
    incr count;
    spans := s :: !spans;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

(* Attach numeric arguments to the innermost open span. *)
let annotate args = match !stack with s :: _ -> s.args <- s.args @ args | [] -> ()

let all () = Array.of_list (List.rev !spans)

(* Self time of every span: its duration minus its direct children's. *)
let self_times (a : span array) =
  let self = Array.map (fun s -> s.t1 -. s.t0) a in
  Array.iter (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.t1 -. s.t0)) a;
  self

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome file =
  let a = all () in
  let self = self_times a in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Array.iteri
    (fun i s ->
      let us t = (t -. origin) *. 1e6 in
      let args =
        [ ("id", float_of_int s.id); ("parent", float_of_int s.parent); ("self_us", self.(i) *. 1e6) ]
        @ s.args
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"program\":%s%s}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name) (json_string s.cat) (us s.t0) ((s.t1 -. s.t0) *. 1e6)
        (json_string s.program)
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ",%s:%.17g" (json_string k) v) args)))
    a;
  output_string oc "\n]}\n";
  close_out oc
