(* In-memory span recorder for the traced replay.

   Spans are recorded around calls into the library's public layer
   functions from this benchmark's own code; nothing inside the
   library is instrumented. Each span carries its name ("layer.what"),
   the request it belongs to, its parent span, wall-clock start/stop
   and the words the calling domain allocated while it was open.
   Everything stays in memory until {!write} dumps it at the end of the
   run. When recording is off, {!span} is a plain call. *)

type t = {
  name : string;
  request : int;
  parent : int;  (* index into the span table, -1 for a request root *)
  start : float;
  mutable stop : float;
  alloc0 : float;
  mutable alloc : float;  (* words allocated while open, inclusive *)
}

let enabled = ref false
let table : t array ref = ref [||]
let count = ref 0
let open_spans : int list ref = ref []
let request = ref (-1)

let reset () =
  table := [||];
  count := 0;
  open_spans := [];
  request := -1

(* Words this domain has allocated on the minor heap: every block of up
   to 256 words. Blocks allocated straight in the major heap are left
   out, because OCaml 5 folds them into its counters only at GC slices,
   which would make the count depend on GC timing. *)
let allocated () = Gc.minor_words ()

let push s =
  if !count = Array.length !table then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !table 0 bigger 0 !count;
    table := bigger
  end;
  !table.(!count) <- s;
  incr count;
  !count - 1

let close i =
  let s = !table.(i) in
  s.stop <- Unix.gettimeofday ();
  s.alloc <- allocated () -. s.alloc0;
  open_spans := List.tl !open_spans

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let i =
      push
        {
          name;
          request = !request;
          parent;
          start = Unix.gettimeofday ();
          stop = 0.;
          alloc0 = allocated ();
          alloc = 0.;
        }
    in
    open_spans := i :: !open_spans;
    match f () with
    | v ->
      close i;
      v
    | exception e ->
      close i;
      raise e
  end

(* A request's root span; its children are the layer calls. *)
let request_span id f =
  request := id;
  span "request" f

let spans () = Array.sub !table 0 !count

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* One line per span: request, index, parent, name, start, duration in
   microseconds, allocated words. *)
let write path =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.3f\t%.0f\n" s.request i
        s.parent s.name s.start
        (1e6 *. (s.stop -. s.start))
        s.alloc)
    (spans ());
  close_out oc
