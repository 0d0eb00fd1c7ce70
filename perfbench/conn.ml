(* One newline-delimited JSON connection to the daemon. *)

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;  (* bytes of the reply line read so far *)
  mutable lines : string list;  (* complete lines not yet taken *)
}

let of_fd fd =
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; chunk = Bytes.create 65536; pending = Buffer.create 4096; lines = [] }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then
    match Unix.single_write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let send t line =
  let b = Bytes.of_string (line ^ "\n") in
  write_all t.fd b 0 (Bytes.length b)

(* One read; splits off every completed line. Raises End_of_file when
   the daemon closed the connection. *)
let fill t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> raise End_of_file
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get t.chunk i = '\n' then begin
        Buffer.add_subbytes t.pending t.chunk !start (i - !start);
        t.lines <- t.lines @ [ Buffer.contents t.pending ];
        Buffer.clear t.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes t.pending t.chunk !start (n - !start)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let take t =
  match t.lines with
  | l :: rest ->
    t.lines <- rest;
    Some l
  | [] -> None
