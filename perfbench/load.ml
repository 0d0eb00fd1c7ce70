(* Closed-loop load generator: each connection sends its next request
   only once the previous reply has arrived, as a caller that waits for
   its answer does. All connections are driven from this one process
   through select. *)

type stop = Seconds of float | Requests of int

(* Kept in reply order, which is the daemon's processing order. *)
type record = {
  conn : int;
  line : string;
  tag : string;
  reply : string;
  latency : float;  (* seconds, send to complete reply *)
}

(* A stretch of whole cycles lasting at least [window_seconds] of
   active time; the end-to-end figures are medians over windows, so a
   transient stall of the machine moves one window, not the result. *)
type window = {
  requests : int;
  seconds : float;
  cpu_seconds : float;  (* daemon CPU over the window *)
  window_latencies : float array;
}

let window_seconds = 1.0

type result = {
  windows : window list;
  steal_share : float;  (* machine CPU time stolen during the run *)
  latencies : float array;
  elapsed : float;
  attempted : int;
  failed : int;
  failures : string list;  (* first few, for the log *)
  digests : (string * int) array;  (* per connection: reply-stream MD5, replies *)
  kept : record list;  (* send order *)
}

(* Every reply must be a success, and a line seen before must get the
   byte-identical reply it got the first time. *)
type checker = { seen : (Digest.t, Digest.t) Hashtbl.t }

let checker () = { seen = Hashtbl.create 1024 }

let short s = if String.length s > 120 then String.sub s 0 120 ^ "..." else s

let check c ~line ~reply =
  let ok_prefix = {|{"ok":true,|} in
  if
    String.length reply < String.length ok_prefix
    || String.sub reply 0 (String.length ok_prefix) <> ok_prefix
  then Error ("error reply: " ^ short reply)
  else
    let k = Digest.string line and v = Digest.string reply in
    match Hashtbl.find_opt c.seen k with
    | Some first when first <> v -> Error ("warm reply differs from first for " ^ short line)
    | Some _ -> Ok ()
    | None ->
      Hashtbl.replace c.seen k v;
      Ok ()

type conn_state = {
  id : int;
  conn : Conn.t;
  upcoming : Workload.request Queue.t;
  mutable generated : int;
  mutable index : int;  (* requests sent *)
  mutable current : Workload.request option;
  mutable sent_at : float;
  mutable digest : Digest.t;
  mutable replies : int;
  mutable active : bool;
}

(* Requests are built a whole cycle at a time, outside the timed window:
   building a wide netlist costs about as much as the daemon's work on
   it, and would otherwise compete with the daemon for the cores. *)
let generate (workload : Workload.t) c =
  for _ = 1 to workload.cycle do
    Queue.push (workload.next ~conn:c.id c.generated) c.upcoming;
    c.generated <- c.generated + 1
  done

let run ~(workload : Workload.t) ~daemon ~checker ~stop ~keep =
  let conns =
    Array.init workload.connections (fun id ->
        let c =
          {
            id;
            conn = Daemon.connect daemon;
            upcoming = Queue.create ();
            generated = 0;
            index = 0;
            current = None;
            sent_at = 0.;
            digest = Digest.string "";
            replies = 0;
            active = true;
          }
        in
        generate workload c;
        c)
  in
  let latencies = ref [] and kept = ref [] in
  let failed = ref 0 and failures = ref [] in
  let paused = ref 0. in
  let send c =
    if Queue.is_empty c.upcoming then begin
      let g0 = Unix.gettimeofday () in
      generate workload c;
      paused := !paused +. (Unix.gettimeofday () -. g0)
    end;
    let r = Queue.pop c.upcoming in
    c.current <- Some r;
    c.sent_at <- Unix.gettimeofday ();
    Conn.send c.conn r.Workload.line;
    c.index <- c.index + 1
  in
  let cpu0 = Daemon.cpu_seconds daemon in
  let steal0, total0 = Daemon.steal_and_total () in
  let t0 = Unix.gettimeofday () in
  Array.iter send conns;
  let more c now =
    match stop with
    | Requests n -> c.index < n
    | Seconds s -> now -. t0 -. !paused < s || c.index mod workload.cycle <> 0
  in
  let finished = ref t0 in
  let active now = now -. t0 -. !paused in
  let windows = ref [] and win_start = ref 0. and win_cpu = ref cpu0 in
  let win_lat = ref [] and completed = ref 0 in
  let close_window now =
    let cpu = Daemon.cpu_seconds daemon in
    let lat = Array.of_list (List.rev !win_lat) in
    windows :=
      { requests = Array.length lat; seconds = active now -. !win_start;
        cpu_seconds = cpu -. !win_cpu; window_latencies = lat }
      :: !windows;
    win_start := active now;
    win_cpu := cpu;
    win_lat := []
  in
  while Array.exists (fun c -> c.active) conns do
    let fds =
      Array.to_list conns
      |> List.filter (fun c -> c.active)
      |> List.map (fun c -> c.conn.Conn.fd)
    in
    let ready =
      match Unix.select fds [] [] 5.0 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c =
          List.find (fun c -> c.conn.Conn.fd = fd) (Array.to_list conns)
        in
        (* A closed connection loses its in-flight reply, which then
           counts as failed (attempted minus replied). *)
        (try Conn.fill c.conn with End_of_file ->
           c.active <- false;
           failures := "connection closed by the daemon" :: !failures);
        match Conn.take c.conn with
        | None -> ()
        | Some reply ->
          let now = Unix.gettimeofday () in
          let current = Option.get c.current in
          let line = current.Workload.line in
          latencies := (now -. c.sent_at) :: !latencies;
          win_lat := (now -. c.sent_at) :: !win_lat;
          incr completed;
          if
            !completed mod (workload.cycle * workload.connections) = 0
            && active now -. !win_start >= window_seconds
          then close_window now;
          c.digest <- Digest.string (c.digest ^ reply);
          c.replies <- c.replies + 1;
          (match check checker ~line ~reply with
          | Ok () -> ()
          | Error msg ->
            incr failed;
            if List.length !failures < 5 then failures := msg :: !failures);
          if keep (c.index - 1) then
            kept :=
              {
                conn = c.id;
                line;
                tag = current.Workload.tag;
                reply;
                latency = now -. c.sent_at;
              }
              :: !kept;
          finished := now;
          if more c now then send c else c.active <- false)
      ready
  done;
  (* A short tail joins the last full window. *)
  (match (!win_lat, !windows) with
  | [], _ -> ()
  | _, [] -> close_window !finished
  | _, last :: rest ->
    let cpu = Daemon.cpu_seconds daemon in
    windows :=
      {
        requests = last.requests + List.length !win_lat;
        seconds = last.seconds +. (active !finished -. !win_start);
        cpu_seconds = last.cpu_seconds +. (cpu -. !win_cpu);
        window_latencies =
          Array.append last.window_latencies (Array.of_list (List.rev !win_lat));
      }
      :: rest);
  let steal1, total1 = Daemon.steal_and_total () in
  Array.iter (fun c -> Conn.close c.conn) conns;
  let attempted = Array.fold_left (fun a c -> a + c.index) 0 conns in
  {
    windows = List.rev !windows;
    steal_share =
      float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0));
    latencies = Array.of_list (List.rev !latencies);
    elapsed = !finished -. t0 -. !paused;
    attempted;
    failed = !failed + (attempted - List.length !latencies);
    failures = List.rev !failures;
    digests = Array.map (fun c -> (Digest.to_hex c.digest, c.replies)) conns;
    kept = List.rev !kept;
  }
