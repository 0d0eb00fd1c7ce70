(* nanobound daemon benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
   perfbench --self-test [--workload NAME] [--seed N]

   --trace 0 drives a real `nanobound serve --tcp` daemon closed-loop
   and prints the end-to-end metrics; --trace 1 drives it the same way
   and then replays the recorded requests in process with per-layer
   spans, printing the per-layer metrics. The last line of standard
   output is the result object; the line before it records the run's
   context. Exit status 1 means a correctness check failed. *)

module Json = Nano_util.Json
module Compiled = Nano_netlist.Compiled
module Cache = Nano_service.Cache

let out_dir = ".perfbench"
let cache_capacity = 256  (* the daemon's default --cache-size *)
let setup_spawns = 11

(* ---------------------------------------------------------------- *)
(* Small helpers                                                     *)
(* ---------------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let rec path json = function
  | [] -> Some json
  | k :: rest -> Option.bind (Json.member k json) (fun j -> path j rest)

let int_at json keys =
  match Option.bind (path json keys) Json.to_int with Some i -> i | None -> 0

let string_at json keys =
  match Option.bind (path json keys) Json.to_string_opt with Some s -> s | None -> "?"

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let remove path = try Sys.remove path with Sys_error _ -> ()

let fresh_path name =
  let p = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove p;
  p

(* ---------------------------------------------------------------- *)
(* Daemon set-up                                                     *)
(* ---------------------------------------------------------------- *)

(* Spawn [spawns] daemons one after another, each timed from spawn to
   its first ping reply; keep the last one running. *)
let start_daemon (w : Workload.t) ~spawns =
  let log = Filename.concat out_dir ("daemon-" ^ w.name ^ ".log") in
  let journals = ref [] in
  let spawn () =
    let journal =
      if w.journal then begin
        let p = fresh_path (Printf.sprintf "journal-%d" (List.length !journals)) in
        journals := p :: !journals;
        Some p
      end
      else None
    in
    Daemon.start ?journal ~log ()
  in
  let rec go k acc =
    let d, s = spawn () in
    if k = 1 then (d, List.rev (s :: acc))
    else begin
      Daemon.stop d;
      go (k - 1) (s :: acc)
    end
  in
  let d, setups = go spawns [] in
  let cleanup () = List.iter remove !journals in
  (d, setups, cleanup)

let warm_up (w : Workload.t) d checker =
  List.map
    (fun line ->
      let reply = Daemon.call d line in
      (match Load.check checker ~line ~reply with
      | Ok () -> ()
      | Error msg -> failwith ("warm-up: " ^ msg));
      reply)
    w.warmup

let context (w : Workload.t) ~seed ~seconds ~trace stats =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"nproc\": %d, \
     \"jobs\": %d, \"connections\": %d, \"cache_size\": %d, \"simd_level\": %S, \
     \"default_block_width\": %d, \"ocaml_version\": %S}"
    w.name seed seconds trace
    (Domain.recommended_domain_count ())
    (Nano_util.Par.default_jobs ())
    w.connections cache_capacity
    (string_at stats [ "compiled_programs"; "simd_level" ])
    (int_at stats [ "compiled_programs"; "default_block_width" ])
    Sys.ocaml_version

let digests_json (r : Load.result) =
  String.concat ", "
    (Array.to_list
       (Array.mapi
          (fun i (md5, n) ->
            Printf.sprintf "{\"conn\": %d, \"md5\": %S, \"replies\": %d}" i md5 n)
          r.Load.digests))

(* ---------------------------------------------------------------- *)
(* --trace 0: end-to-end metrics                                     *)
(* ---------------------------------------------------------------- *)

(* A few replies per connection are recomputed by an in-process
   service and must match the daemon's bytes. *)
let spot_checked = 6

let run_plain (w : Workload.t) ~seed ~seconds =
  let d, setups, cleanup = start_daemon w ~spawns:setup_spawns in
  Fun.protect ~finally:cleanup (fun () ->
      let checker = Load.checker () in
      ignore (warm_up w d checker);
      let r =
        Load.run ~workload:w ~daemon:d ~checker
          ~stop:(Load.Seconds (float_of_int seconds))
          ~keep:(fun i -> i < spot_checked)
      in
      let rss = Daemon.peak_rss_mb d in
      let stats = Daemon.stats d in
      Daemon.stop d;
      let svc = Nano_service.Service.create () in
      let spot_failures =
        List.filter
          (fun (k : Load.record) -> Nano_service.Service.handle_line svc k.line <> k.reply)
          r.Load.kept
      in
      let failed = r.Load.failed + List.length spot_failures in
      List.iter (prerr_endline) r.Load.failures;
      List.iter
        (fun (k : Load.record) -> prerr_endline ("in-process reply differs: " ^ k.tag))
        spot_failures;
      let completed = Array.length r.Load.latencies in
      (* The host's speed swings in stretches of several seconds, set by
         other guests, so each figure is the median over windows: one
         window caught in a slow stretch does not move it. *)
      let windows = r.Load.windows in
      let median_of f = quantile 0.5 (Array.of_list (List.map f windows)) in
      let window_ms q (win : Load.window) =
        quantile q (Array.map (fun l -> 1e3 *. l) win.Load.window_latencies)
      in
      Printf.printf
        "{\"context\": %s, \"samples\": {\"latency\": %d, \"windows\": %d, \"setup\": %d, \"spot_checked\": %d}, \
         \"elapsed_s\": %s, \"steal_share\": %s, \"windows_rps_p50_p90_cpu\": [%s], \"reply_digests\": [%s]}\n"
        (context w ~seed ~seconds ~trace:0 stats)
        completed (List.length windows) (List.length setups)
        (List.length r.Load.kept)
        (number r.Load.elapsed) (number r.Load.steal_share)
        (String.concat ", "
           (List.map
              (fun (win : Load.window) ->
                Printf.sprintf "[%s, %s, %s, %s]"
                  (number (float_of_int win.Load.requests /. win.Load.seconds))
                  (number (window_ms 0.5 win)) (number (window_ms 0.9 win))
                  (number (1e3 *. win.Load.cpu_seconds /. float_of_int win.Load.requests)))
              windows))
        (digests_json r);
      let attempted = max 1 r.Load.attempted in
      print_result ~correct:(failed = 0) ~attempted ~failed
        [
          ("setup_s", quantile 0.5 (Array.of_list setups), "s");
          ( "throughput_rps",
            median_of (fun win -> float_of_int win.Load.requests /. win.Load.seconds),
            "1/s" );
          ("latency_p50_ms", median_of (window_ms 0.5), "ms");
          ("latency_p90_ms", median_of (window_ms 0.9), "ms");
          ( "cpu_ms_per_req",
            median_of (fun win ->
                1e3 *. win.Load.cpu_seconds /. float_of_int win.Load.requests),
            "ms" );
          ("peak_rss_mb", rss, "MiB");
          ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted, "ratio");
        ];
      failed = 0)

(* ---------------------------------------------------------------- *)
(* --trace 1: replay with spans, per-layer metrics                   *)
(* ---------------------------------------------------------------- *)

let timed_layers =
  [
    "service.handle"; "service.decode"; "service.encode"; "service.transport";
    "journal.append"; "circuits.build"; "synth.digest"; "synth.rugged_lite";
    "synth.collapse"; "synth.qm"; "blif.parse"; "sim.sensitivity"; "sim.activity";
    "bounds.profile"; "bounds.rows"; "bounds.measured_grid"; "netlist.compile";
    "faults.profile_grid"; "static.analyze"; "lint.preflight"; "tech.report";
    "trace.unattributed";
  ]

let alloc_layers =
  [ "service"; "journal"; "circuits"; "synth"; "blif"; "sim"; "bounds"; "netlist";
    "faults"; "static"; "lint"; "tech" ]

type traced = {
  records : Load.record array;  (* daemon phase, processing order *)
  dispositions : Replay.disposition option array;
  spans : Span.t array;
  replay : Replay.t;
  baseline : Replay.snapshot;  (* counters after the warm-up replay *)
  memo_hits : int;
  memo_misses : int;
  overhead_ratio : float;
  fidelity_failures : string list;
  daemon : Load.result;
  stats0 : Json.t;
  stats1 : Json.t;
}

let replay_state (w : Workload.t) name =
  Replay.create ~jobs:1 ~capacity:cache_capacity
    ?journal:(if w.journal then Some (fresh_path name) else None)
    ()

(* The warm-up lines, untraced, so the mirror caches start where the
   daemon's did; their replies are checked too. *)
let replay_warmup (w : Workload.t) st warm_replies failures =
  List.iter2
    (fun line reply ->
      if fst (Replay.handle st line) <> reply then
        failures := ("replayed warm-up reply differs: " ^ Load.short line) :: !failures)
    w.warmup warm_replies

let run_traced (w : Workload.t) ~stop =
  let d, _, cleanup = start_daemon w ~spawns:1 in
  Fun.protect ~finally:cleanup (fun () ->
      let checker = Load.checker () in
      let warm_replies = warm_up w d checker in
      let stats0 = Daemon.stats d in
      let daemon = Load.run ~workload:w ~daemon:d ~checker ~stop ~keep:(fun _ -> true) in
      let stats1 = Daemon.stats d in
      Daemon.stop d;
      let records = Array.of_list daemon.Load.kept in
      let failures = ref [] in
      (* Traced replay. *)
      let st = replay_state w "replay-traced.journal" in
      Span.enabled := false;
      replay_warmup w st warm_replies failures;
      let baseline = Replay.snapshot st in
      Span.reset ();
      let memo0 = Compiled.memo_stats () in
      Span.enabled := true;
      let dispositions =
        Array.mapi
          (fun i (r : Load.record) ->
            match Span.request_span i (fun () -> Replay.handle st r.Load.line) with
            | reply, disposition ->
              if reply <> r.Load.reply then
                failures := Printf.sprintf "replay differs (%s)" r.Load.tag :: !failures;
              Some disposition
            | exception Failure msg ->
              failures := ("replay failed: " ^ msg) :: !failures;
              None)
          records
      in
      Span.enabled := false;
      let memo1 = Compiled.memo_stats () in
      let spans = Span.spans () in
      Span.write (Filename.concat out_dir ("spans-" ^ w.name ^ ".tsv"));
      Replay.close st;
      (* Untraced replay of the prefix that took the first quarter of
         the traced time (at most two seconds), for the overhead ratio. *)
      let roots = Array.make (Array.length records) 0. in
      Array.iter
        (fun s -> if s.Span.parent < 0 then roots.(s.Span.request) <- s.Span.stop -. s.Span.start)
        spans;
      let budget = Float.min 2. (Array.fold_left ( +. ) 0. roots /. 4.) in
      let prefix = ref 0 and traced_prefix = ref 0. in
      while !prefix < Array.length records && !traced_prefix < budget do
        traced_prefix := !traced_prefix +. roots.(!prefix);
        incr prefix
      done;
      let st2 = replay_state w "replay-plain.journal" in
      replay_warmup w st2 warm_replies (ref []);
      let t0 = Unix.gettimeofday () in
      for i = 0 to !prefix - 1 do
        ignore (Replay.handle st2 records.(i).Load.line)
      done;
      let plain = Unix.gettimeofday () -. t0 in
      Replay.close st2;
      {
        records;
        dispositions;
        spans;
        replay = st;
        baseline;
        memo_hits = memo1.Compiled.memo_hits - memo0.Compiled.memo_hits;
        memo_misses = memo1.Compiled.memo_misses - memo0.Compiled.memo_misses;
        overhead_ratio = (if plain > 0. then !traced_prefix /. plain else 0.);
        fidelity_failures = List.rev !failures;
        daemon;
        stats0;
        stats1;
      })

(* Per-request sums of span durations by name, self allocation by
   layer, and the self time of every span. *)
type aggregate = {
  per_request : (string, float) Hashtbl.t array;  (* ms *)
  self_ms : float array;  (* per span *)
  alloc : (string, float) Hashtbl.t;  (* words, by layer *)
}

let aggregate (t : traced) =
  let spans = t.spans in
  let n = Array.length spans in
  let child_time = Array.make n 0. and child_alloc = Array.make n 0. in
  let dur s = s.Span.stop -. s.Span.start in
  Array.iter
    (fun s ->
      if s.Span.parent >= 0 then begin
        child_time.(s.Span.parent) <- child_time.(s.Span.parent) +. dur s;
        child_alloc.(s.Span.parent) <- child_alloc.(s.Span.parent) +. s.Span.alloc
      end)
    spans;
  let per_request = Array.init (Array.length t.records) (fun _ -> Hashtbl.create 16) in
  let alloc = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  Array.iteri
    (fun i s ->
      let req = per_request.(s.Span.request) in
      let self_alloc = s.Span.alloc -. child_alloc.(i) in
      if s.Span.parent < 0 then begin
        add req "service.handle" (1e3 *. dur s);
        add req "trace.unattributed" (1e3 *. (dur s -. child_time.(i)));
        add alloc "service" self_alloc
      end
      else begin
        add req s.Span.name (1e3 *. dur s);
        add alloc (Span.layer s.Span.name) self_alloc
      end)
    spans;
  Array.iteri
    (fun i (r : Load.record) ->
      match Hashtbl.find_opt per_request.(i) "service.handle" with
      | Some h -> Hashtbl.replace per_request.(i) "service.transport" ((1e3 *. r.Load.latency) -. h)
      | None -> ())
    t.records;
  {
    per_request;
    self_ms = Array.mapi (fun i s -> 1e3 *. (dur s -. child_time.(i))) spans;
    alloc;
  }

let samples agg name =
  Array.to_list agg.per_request
  |> List.filter_map (fun tbl -> Hashtbl.find_opt tbl name)
  |> Array.of_list

(* Deterministic counters: identical on every replay of the same
   request stream. *)
let counters (t : traced) agg =
  let d = Replay.diff (Replay.snapshot t.replay) t.baseline in
  List.map (fun (k, v) -> (k, float_of_int v)) d
  @ List.map
      (fun l ->
        (l ^ ".alloc_mwords", Option.value ~default:0. (Hashtbl.find_opt agg.alloc l) /. 1e6))
      alloc_layers

(* The hotspots this benchmark was written to expose. *)
let hotspots (t : traced) agg =
  let largest_child i =
    let best = ref ("-", neg_infinity) in
    Array.iteri
      (fun j s ->
        if s.Span.request = i && s.Span.parent >= 0 && agg.self_ms.(j) > snd !best then
          best := (s.Span.name, agg.self_ms.(j)))
      t.spans;
    fst !best
  in
  let ids tag =
    List.filter (fun i -> t.records.(i).Load.tag = tag)
      (List.init (Array.length t.records) Fun.id)
  in
  let handle i = Option.value ~default:0. (Hashtbl.find_opt agg.per_request.(i) "service.handle") in
  let get i k = Option.value ~default:0. (Hashtbl.find_opt agg.per_request.(i) k) in
  let narrow = ids "narrow" in
  let qm_first = List.filter (fun i -> largest_child i = "synth.qm") narrow in
  let wide = List.sort (fun a b -> compare (handle a) (handle b)) (ids "wide") in
  let median_wide =
    match wide with [] -> "-" | _ -> largest_child (List.nth wide (List.length wide / 2))
  in
  let mult16_hits =
    List.filter
      (fun i ->
        let tag = t.records.(i).Load.tag in
        String.starts_with ~prefix:"hot:" tag
        && String.ends_with ~suffix:":mult16" tag
        && t.dispositions.(i) = Some Replay.Hit)
      (List.init (Array.length t.records) Fun.id)
  in
  let share =
    Array.of_list
      (List.map (fun i -> (get i "circuits.build" +. get i "synth.digest") /. handle i) mult16_hits)
  in
  Printf.sprintf
    "{\"narrow_requests\": %d, \"narrow_qm_largest\": %d, \"median_wide_largest\": %S, \
     \"mult16_hits\": %d, \"mult16_hit_build_digest_share_p50\": %s}"
    (List.length narrow) (List.length qm_first) median_wide (List.length mult16_hits)
    (number (quantile 0.5 share))

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let per_layer_metrics (t : traced) agg =
  let delta keys = int_at t.stats1 keys - int_at t.stats0 keys in
  let timings =
    List.concat_map
      (fun name ->
        let xs = samples agg name in
        [
          (name ^ "_ms.p50", quantile 0.5 xs, "ms");
          (name ^ "_ms.p90", quantile 0.9 xs, "ms");
          (name ^ "_ms.n", float_of_int (Array.length xs), "count");
        ])
      timed_layers
  in
  let det = counters t agg in
  let find k = List.assoc k det in
  let grid_words = find "faults.lane_gate_words" in
  timings
  @ [
      ( "service.response_hit_ratio",
        ratio (delta [ "caches"; "responses"; "hits" ]) (delta [ "caches"; "responses"; "misses" ]),
        "ratio" );
      ( "service.profile_hit_ratio",
        ratio (delta [ "caches"; "profiles"; "hits" ]) (delta [ "caches"; "profiles"; "misses" ]),
        "ratio" );
      ( "service.evictions",
        float_of_int
          (delta [ "caches"; "responses"; "evictions" ] + delta [ "caches"; "profiles"; "evictions" ]),
        "count" );
      ("service.coalesced", float_of_int (delta [ "coalesced" ]), "count");
      ("journal.appended", float_of_int (delta [ "journal"; "appended" ]), "count");
      ("netlist.memo_hit_ratio", ratio t.memo_hits t.memo_misses, "ratio");
      ("faults.lane_gate_words", find "faults.lane_gate_words", "count");
      ( "faults.lane_gate_words_per_s",
        (let ms = Array.fold_left ( +. ) 0. (samples agg "faults.profile_grid") in
         if ms > 0. then 1e3 *. grid_words /. ms else 0.),
        "1/s" );
      ("static.bdd_nodes", find "static.bdd_nodes", "count");
      ("static.exact_nodes", find "static.exact_nodes", "count");
      ("static.vacuous_outputs", find "static.vacuous_outputs", "count");
      ("trace.overhead_ratio", t.overhead_ratio, "ratio");
    ]
  @ List.map (fun l -> (l ^ ".alloc_mwords", find (l ^ ".alloc_mwords"), "Mword")) alloc_layers

let report_traced (w : Workload.t) ~seed ~seconds (t : traced) =
  let agg = aggregate t in
  List.iter prerr_endline t.daemon.Load.failures;
  List.iteri (fun i m -> if i < 5 then prerr_endline m) t.fidelity_failures;
  let failed = t.daemon.Load.failed + List.length t.fidelity_failures in
  Printf.printf
    "{\"context\": %s, \"samples\": {\"requests\": %d, \"spans\": %d}, \"hotspots\": %s, \
     \"reply_digests\": [%s]}\n"
    (context w ~seed ~seconds ~trace:1 t.stats1)
    (Array.length t.records) (Array.length t.spans) (hotspots t agg) (digests_json t.daemon);
  print_result ~correct:(failed = 0)
    ~attempted:(t.daemon.Load.attempted + List.length w.warmup)
    ~failed
    (per_layer_metrics t agg);
  failed = 0

(* ---------------------------------------------------------------- *)
(* Self-test: two traced runs of one fixed request stream must give  *)
(* identical deterministic counters.                                 *)
(* ---------------------------------------------------------------- *)

(* Compiled.of_netlist memoizes in an ephemeron table whose insertions
   allocate according to how much the GC has already cleared, so the
   netlist layer's allocation count is not deterministic and is
   reported but not compared. *)
let not_compared = [ "netlist.alloc_mwords" ]

let self_test names ~seed =
  List.map
    (fun name ->
      let w = Option.get (Workload.find name ~seed) in
      let stop = Load.Requests w.cycle in
      (* Each run happens in a child forked from the same state, as two
         separate traced processes would start from the same state. *)
      let once () =
        let r, w_fd = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close r;
          let t = run_traced w ~stop in
          let agg = aggregate t in
          let oc = Unix.out_channel_of_descr w_fd in
          Marshal.to_channel oc
            ( counters t agg,
              hotspots t agg,
              Array.length t.records,
              t.fidelity_failures,
              t.daemon.Load.failed )
            [];
          close_out oc;
          Unix._exit 0
        | pid ->
          Unix.close w_fd;
          let ic = Unix.in_channel_of_descr r in
          let result =
            (Marshal.from_channel ic
              : (string * float) list * string * int * string list * int)
          in
          close_in ic;
          ignore (Unix.waitpid [] pid);
          result
      in
      let c1, h1, n1, f1, d1 = once () in
      let c2, _, _, f2, d2 = once () in
      let same =
        List.for_all2
          (fun (k, a) (_, b) ->
            if a <> b then
              Printf.printf "  %s: %s <> %s%s\n" k (number a) (number b)
                (if List.mem k not_compared then " (not compared)" else "");
            a = b || List.mem k not_compared)
          c1 c2
      in
      let faithful = f1 = [] && f2 = [] in
      List.iter print_endline (f1 @ f2);
      Printf.printf "self-test %s: counters %s, replay %s, requests %d, hotspots %s\n%!" name
        (if same then "identical" else "DIFFER")
        (if faithful then "faithful" else "DIFFERS FROM DAEMON")
        n1 h1;
      same && faithful && d1 = 0 && d2 = 0)
    names
  |> List.for_all Fun.id

(* ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " check that traced runs repeat their counters");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists Daemon.exe) then begin
    prerr_endline ("perfbench: " ^ Daemon.exe ^ " is missing; run perfbench/run.sh");
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ok =
    if !self then
      self_test (if !workload = "" then Workload.names else [ !workload ]) ~seed:!seed
    else
      match Workload.find !workload ~seed:!seed with
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
      | Some w ->
        if !trace = 0 then run_plain w ~seed:!seed ~seconds:!seconds
        else
          (* The daemon phase of a traced run takes a third of the
             budget (still whole cycles): the single-domain replay and
             the overhead replay that follow take about as long again. *)
          report_traced w ~seed:!seed ~seconds:!seconds
            (run_traced w ~stop:(Load.Seconds (float_of_int !seconds /. 3.)))
  in
  exit (if ok then 0 else 1)
