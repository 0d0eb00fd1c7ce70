(* The real daemon: `nanobound serve --tcp 127.0.0.1:PORT`, default
   cache size and --jobs, spawned from the binary the wrapper script
   built in this checkout. *)

let exe = "_build/default/bin/nanobound.exe"

module Client = Nano_service.Client

type t = { pid : int; port : int; control : Client.t }

let live : int list ref = ref []

(* Any daemon still running when the benchmark exits is killed and
   reaped, whatever the exit path. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let call t line =
  match Client.request_line t.control line with
  | Ok reply -> reply
  | Error msg -> failwith ("daemon: " ^ msg)

(* Spawn a daemon and wait for its first ping reply. Returns the daemon
   and the seconds from spawn to that reply. Readiness is polled every
   0.2 ms (for up to 10 s), so the time is known to well under a
   millisecond instead of on the client's default 50 ms retry grid. A
   daemon that does not come up (say, its port was taken in between)
   is retried on a fresh port. *)
let rec start ?journal ~log ?(attempts = 3) () =
  let port = free_port () in
  let args =
    [ exe; "serve"; "--tcp"; Printf.sprintf "127.0.0.1:%d" port ]
    @ match journal with Some p -> [ "--journal"; p ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe (Array.of_list args) devnull logfd logfd in
  Unix.close devnull;
  Unix.close logfd;
  live := pid :: !live;
  match
    Client.connect ~retries:50_000 ~retry_interval:0.0002
      (Client.Tcp ("127.0.0.1", port))
  with
  | Error _ when attempts > 1 ->
    kill pid;
    start ?journal ~log ~attempts:(attempts - 1) ()
  | Error msg ->
    kill pid;
    failwith ("daemon did not come up (" ^ msg ^ "); see " ^ log)
  | Ok control ->
    let t = { pid; port; control } in
    let reply = call t {|{"kind":"ping"}|} in
    let setup = Unix.gettimeofday () -. t0 in
    if reply <> {|{"ok":true,"result":"pong"}|} then
      failwith ("unexpected ping reply: " ^ reply);
    (t, setup)

(* A load connection; the daemon is already listening. *)
let connect t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  Conn.of_fd fd

let stats t =
  match Nano_util.Json.parse (call t {|{"kind":"stats"}|}) with
  | Ok j -> (
    match Nano_util.Json.member "result" j with
    | Some r -> r
    | None -> failwith "stats reply without result")
  | Error _ -> failwith "unparseable stats reply"

(* Shut down over the protocol and reap; a daemon that does not exit
   within five seconds is killed. *)
let stop t =
  (try ignore (call t {|{"kind":"shutdown"}|}) with Failure _ -> ());
  Client.close t.control;
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (exited t.pid)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  kill t.pid

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread of the daemon, in seconds. *)
let cpu_seconds t =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" t.pid) in
  (* Fields after the parenthesized command name; utime and stime are
     fields 14 and 15 of the whole line. *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = String.split_on_char ' ' rest in
  let utime = float_of_string (List.nth fields 11)
  and stime = float_of_string (List.nth fields 12) in
  (utime +. stime) /. 100.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb t =
  let s = read_proc (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
  in
  kb /. 1024.

(* Machine-wide (steal, total) jiffies from /proc/stat: the share of
   CPU time the hypervisor gave to other guests. Recorded with each run
   because it, not the program, explains most run-to-run spread on a
   shared host. *)
let steal_and_total () =
  let line = List.hd (String.split_on_char '\n' (read_proc "/proc/stat")) in
  let fields =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0 in
  (steal, List.fold_left ( + ) 0 fields)
