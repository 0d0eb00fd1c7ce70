module Json = Nano_util.Json
module Cache = Nano_service.Cache
module Protocol = Nano_service.Protocol
module Service = Nano_service.Service
module Metrics = Nano_bounds.Metrics

(* ------------------------------------------------------------------ *)
(* LRU cache.                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Touch "a" so "b" is the LRU entry when "c" arrives. *)
  Alcotest.(check bool) "hit a" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "a kept" true (Cache.mem c "a");
  Alcotest.(check bool) "c kept" true (Cache.mem c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

let test_cache_counters () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check bool) "miss" true (Cache.find c "x" = None);
  Cache.add c "x" 10;
  Alcotest.(check bool) "hit" true (Cache.find c "x" = Some 10);
  Cache.add c "x" 11;
  Alcotest.(check bool) "replaced" true (Cache.find c "x" = Some 11);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "replacement is not eviction" 0 s.Cache.evictions

let test_cache_capacity_zero () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check bool) "nothing stored" true (Cache.find c "a" = None);
  let s = Cache.stats c in
  Alcotest.(check int) "misses counted" 1 s.Cache.misses;
  Helpers.check_invalid "negative capacity" (fun () ->
      ignore (Cache.create ~capacity:(-1)))

(* ------------------------------------------------------------------ *)
(* Protocol round-trips.                                                *)
(* ------------------------------------------------------------------ *)

let scenario =
  {
    Metrics.epsilon = 0.01;
    delta = 0.01;
    fanin = 2;
    sensitivity = 10;
    error_free_size = 21;
    inputs = 10;
    sw0 = 0.5;
    leakage_share0 = 0.5;
  }

let roundtrip env =
  match Protocol.request_of_json (Protocol.request_to_json env) with
  | Ok env' -> env' = env
  | Error _ -> false

let test_protocol_roundtrip () =
  List.iter
    (fun env ->
      Alcotest.(check bool)
        (Protocol.kind_name env.Protocol.request ^ " round-trips")
        true (roundtrip env))
    [
      { Protocol.request = Protocol.Ping; timeout_ms = None };
      { Protocol.request = Protocol.Stats; timeout_ms = Some 250 };
      { Protocol.request = Protocol.Shutdown; timeout_ms = None };
      { Protocol.request = Protocol.Bounds scenario; timeout_ms = None };
      {
        Protocol.request =
          Protocol.Profile
            { circuit = Protocol.Named "c17"; no_map = true };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Profile
            {
              circuit = Protocol.Blif ".model m\n.inputs a\n.outputs o\n";
              no_map = false;
            };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Analyze
            {
              circuit = Protocol.Named "rca8";
              delta = 0.02;
              leakage_share0 = 0.4;
              epsilons = [ 0.001; 0.01 ];
              no_map = false;
              measure = true;
              vectors = 2048;
              tech = None;
            };
        timeout_ms = Some 1000;
      };
      {
        Protocol.request = Protocol.Sweep { figure = "fig3" };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Static
            {
              circuit = Protocol.Named "rca8";
              epsilon = 0.02;
              input_probability = 0.25;
              cone_budget = 128;
              tech = Some (Protocol.Tech_named "nanodev");
            };
        timeout_ms = None;
      };
    ]

let test_protocol_defaults () =
  match Json.parse {|{"kind":"analyze","circuit":"c17"}|} with
  | Error _ -> Alcotest.fail "parse"
  | Ok json -> (
    match Protocol.request_of_json json with
    | Ok
        {
          Protocol.request =
            Protocol.Analyze { delta; leakage_share0; epsilons; no_map; _ };
          timeout_ms = None;
        } ->
      Helpers.check_float "default delta" 0.01 delta;
      Helpers.check_float "default leakage" 0.5 leakage_share0;
      Alcotest.(check bool) "paper epsilons" true
        (epsilons = Nano_bounds.Benchmark_eval.paper_epsilons);
      Alcotest.(check bool) "mapping on" false no_map
    | Ok _ -> Alcotest.fail "decoded the wrong shape"
    | Error msg -> Alcotest.fail msg)

let test_protocol_rejects () =
  let reject msg line =
    match Json.parse line with
    | Error _ -> Alcotest.failf "%s: should parse as JSON" msg
    | Ok json -> (
      match Protocol.request_of_json json with
      | Ok _ -> Alcotest.failf "%s: expected a decode error" msg
      | Error _ -> ())
  in
  reject "unknown kind" {|{"kind":"frobnicate"}|};
  reject "missing kind" {|{"circuit":"c17"}|};
  reject "both circuit and blif" {|{"kind":"profile","circuit":"a","blif":"b"}|};
  reject "wrong type" {|{"kind":"analyze","circuit":"c17","delta":"x"}|};
  reject "zero vectors" {|{"kind":"analyze","circuit":"c17","vectors":0}|};
  reject "negative vectors"
    {|{"kind":"analyze","circuit":"c17","measure":true,"vectors":-64}|};
  reject "non-object" {|[1,2]|}

(* ------------------------------------------------------------------ *)
(* Service handler.                                                     *)
(* ------------------------------------------------------------------ *)

let make_service ?(jobs = 1) ?(cache = 64) ?(max_bytes = 1 lsl 20) () =
  let config =
    {
      (Service.default_config ()) with
      Service.jobs;
      cache_capacity = cache;
      max_request_bytes = max_bytes;
    }
  in
  Service.create ~config ()

let reply_ok reply =
  match Json.parse reply with
  | Ok v -> Json.member "ok" v = Some (Json.Bool true)
  | Error _ -> false

let error_code reply =
  match Json.parse reply with
  | Ok v ->
    Option.bind (Json.member "error" v) (fun e ->
        Option.bind (Json.member "code" e) Json.to_string_opt)
  | Error _ -> None

let stats_of_service t =
  match Json.parse (Service.handle_line t {|{"kind":"stats"}|}) with
  | Ok v -> Option.get (Json.member "result" v)
  | Error _ -> Alcotest.fail "stats reply unparseable"

let cache_counter stats ~cache ~field =
  Option.get
    (Option.bind (Json.member "caches" stats) (fun c ->
         Option.bind (Json.member cache c) (fun c ->
             Option.bind (Json.member field c) Json.to_int)))

let analyze_line = {|{"kind":"analyze","circuit":"c17","epsilons":[0.01]}|}

let test_bounds_matches_direct_evaluation () =
  let t = make_service () in
  let reply = Service.handle_line t {|{"kind":"bounds"}|} in
  let expected =
    Protocol.ok_reply (Protocol.bounds_to_json (Metrics.evaluate scenario))
  in
  Alcotest.(check string) "service = Metrics.evaluate" expected reply

let test_cache_hit_is_byte_identical () =
  let t = make_service () in
  let cold = Service.handle_line t analyze_line in
  let warm = Service.handle_line t analyze_line in
  Alcotest.(check bool) "cold succeeds" true (reply_ok cold);
  Alcotest.(check string) "warm bytes = cold bytes" cold warm;
  let stats = stats_of_service t in
  Alcotest.(check int) "one response hit" 1
    (cache_counter stats ~cache:"responses" ~field:"hits");
  Alcotest.(check int) "one response miss" 1
    (cache_counter stats ~cache:"responses" ~field:"misses")

let test_jobs_independent_replies () =
  let t1 = make_service ~jobs:1 () in
  let t4 = make_service ~jobs:4 () in
  let line =
    {|{"kind":"analyze","circuit":"rca8","epsilons":[0.001,0.01,0.1]}|}
  in
  Alcotest.(check string) "jobs=1 and jobs=4 agree byte-for-byte"
    (Service.handle_line t1 line)
    (Service.handle_line t4 line)

let test_profile_core_shared_with_analyze () =
  let t = make_service () in
  let p = Service.handle_line t {|{"kind":"profile","circuit":"c17"}|} in
  Alcotest.(check bool) "profile ok" true (reply_ok p);
  let a = Service.handle_line t analyze_line in
  Alcotest.(check bool) "analyze ok" true (reply_ok a);
  let stats = stats_of_service t in
  (* Distinct response entries, but the Monte-Carlo profile is reused. *)
  Alcotest.(check int) "profile core hit" 1
    (cache_counter stats ~cache:"profiles" ~field:"hits");
  Alcotest.(check int) "profile core measured once" 1
    (cache_counter stats ~cache:"profiles" ~field:"misses")

let test_rename_only_blif_shares_profile_core () =
  let blif name =
    Printf.sprintf
      ".model %s\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n" name
  in
  let req name =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "profile");
           ("blif", Json.String (blif name));
         ])
  in
  let t = make_service () in
  let r1 = Service.handle_line t (req "first") in
  let r2 = Service.handle_line t (req "second") in
  Alcotest.(check bool) "both ok" true (reply_ok r1 && reply_ok r2);
  Alcotest.(check bool) "replies differ (name is reported)" true (r1 <> r2);
  let stats = stats_of_service t in
  Alcotest.(check int) "one shared profile measurement" 1
    (cache_counter stats ~cache:"profiles" ~field:"misses");
  Alcotest.(check int) "second request reused it" 1
    (cache_counter stats ~cache:"profiles" ~field:"hits")

let test_structured_errors () =
  let t = make_service ~max_bytes:4096 () in
  let check msg code line =
    let reply = Service.handle_line t line in
    Alcotest.(check bool) (msg ^ " is a failure") false (reply_ok reply);
    Alcotest.(check (option string)) (msg ^ " code") (Some code)
      (error_code reply)
  in
  check "garbage" "parse_error" "this is not json";
  check "wrong shape" "bad_request" {|{"kind":"frobnicate"}|};
  check "unknown circuit" "unknown_circuit"
    {|{"kind":"profile","circuit":"nosuch"}|};
  check "bad blif" "blif_parse_error"
    {|{"kind":"profile","blif":".model m\n.latch a b\n.end\n"}|};
  check "invalid scenario" "invalid_scenario"
    {|{"kind":"bounds","epsilon":0.9}|};
  check "unknown figure" "unknown_figure"
    {|{"kind":"sweep","figure":"fig99"}|};
  check "oversized" "oversized"
    (Printf.sprintf {|{"kind":"profile","blif":"%s"}|}
       (String.make 8192 'x'));
  check "timeout" "timeout"
    {|{"kind":"analyze","circuit":"rca8","timeout_ms":0}|};
  check "zero vectors" "bad_request"
    {|{"kind":"analyze","circuit":"c17","measure":true,"vectors":0}|};
  let message =
    match
      Json.parse
        (Service.handle_line t
           {|{"kind":"analyze","circuit":"c17","measure":true,"vectors":0}|})
    with
    | Ok v ->
      Option.bind (Json.member "error" v) (fun e ->
          Option.bind (Json.member "message" e) Json.to_string_opt)
    | Error _ -> None
  in
  Alcotest.(check (option string))
    "zero vectors message" (Some "field \"vectors\" must be >= 1, got 0")
    message

let test_static_request () =
  let t = make_service () in
  let line = {|{"kind":"static","circuit":"rca8","epsilon":0.02}|} in
  let cold = Service.handle_line t line in
  let warm = Service.handle_line t line in
  Alcotest.(check bool) "cold succeeds" true (reply_ok cold);
  Alcotest.(check string) "warm bytes = cold bytes" cold warm;
  (* The reply is exactly the analyzer's encoding — no simulation
     anywhere, so it needs no seed in the key and no jobs caveat. *)
  let netlist =
    (Option.get (Nano_circuits.Suite.find "rca8")).Nano_circuits.Suite.build
      ()
  in
  let expected =
    Protocol.ok_reply
      (Nano_static.Static.to_json
         (Nano_static.Static.analyze ~epsilon:0.02 netlist)
         netlist)
  in
  Alcotest.(check string) "service = Static.to_json" expected cold;
  let stats = stats_of_service t in
  let static_counter field =
    Option.get
      (Option.bind (Json.member "static_cache" stats) (fun c ->
           Option.bind (Json.member field c) Json.to_int))
  in
  Alcotest.(check int) "one static hit" 1 (static_counter "hits");
  Alcotest.(check int) "one static miss" 1 (static_counter "misses");
  (* The reply bytes echo the requested epsilon, not a float-summed
     mean over the gates. *)
  let reply =
    Service.handle_line t {|{"kind":"static","circuit":"alu8","epsilon":0.01}|}
  in
  let key = {|"epsilon":|} in
  let rec value_at i =
    if String.sub reply i (String.length key) = key then
      let start = i + String.length key in
      String.sub reply start (String.index_from reply start ',' - start)
    else value_at (i + 1)
  in
  Alcotest.(check string) "alu8 echoes epsilon" "0.01" (value_at 0)

let test_static_tech_floor () =
  (* nanodev's intrinsic eps = 0.02 floors the requested 0.001: the
     reply must match a direct analysis at the floored value, and key
     on it (same reply bytes for any requested eps under the floor). *)
  let t = make_service () in
  let reply eps =
    Service.handle_line t
      (Printf.sprintf
         {|{"kind":"static","circuit":"c17","epsilon":%g,"tech":"nanodev"}|}
         eps)
  in
  let floored = reply 0.001 in
  Alcotest.(check bool) "ok" true (reply_ok floored);
  let netlist =
    (Option.get (Nano_circuits.Suite.find "c17")).Nano_circuits.Suite.build ()
  in
  let expected =
    Protocol.ok_reply
      (Nano_static.Static.to_json
         (Nano_static.Static.analyze ~epsilon:0.02 netlist)
         netlist)
  in
  Alcotest.(check string) "floored at intrinsic eps" expected floored;
  Alcotest.(check string) "sub-floor requests coalesce" floored (reply 0.005);
  Alcotest.(check (option string))
    "bad pack is an error reply" (Some "unknown_tech")
    (error_code
       (Service.handle_line t
          {|{"kind":"static","circuit":"c17","tech":"nosuch"}|}))

(* analyze with a technology pack: the warm reply comes from the
   pack-digest-keyed response cache and must equal the cold one. *)
let test_tech_cache_hit_byte_identical () =
  let t = make_service () in
  List.iteri
    (fun i pack ->
      let line =
        Printf.sprintf {|{"kind":"analyze","circuit":"rca8","tech":"%s"}|} pack
      in
      let cold = Service.handle_line t line in
      Alcotest.(check bool) (pack ^ " cold succeeds") true (reply_ok cold);
      Alcotest.(check string)
        (pack ^ " warm bytes = cold bytes")
        cold (Service.handle_line t line);
      let stats = stats_of_service t in
      Alcotest.(check int) (pack ^ " response hit") (i + 1)
        (cache_counter stats ~cache:"responses" ~field:"hits");
      Alcotest.(check int) (pack ^ " response miss") (i + 1)
        (cache_counter stats ~cache:"responses" ~field:"misses"))
    [ "cmos55"; "nanodev" ]

let test_error_then_service_still_up () =
  let t = make_service () in
  ignore (Service.handle_line t "garbage");
  Alcotest.(check bool) "still serving" true
    (reply_ok (Service.handle_line t {|{"kind":"ping"}|}));
  Alcotest.(check bool) "not stopping" false (Service.shutdown_requested t)

let test_batch_coalescing () =
  let t = make_service () in
  let replies =
    Service.handle_batch t [ analyze_line; analyze_line; analyze_line ]
  in
  (match replies with
  | [ a; b; c ] ->
    Alcotest.(check bool) "ok" true (reply_ok a);
    Alcotest.(check string) "duplicate 1 fanned out" a b;
    Alcotest.(check string) "duplicate 2 fanned out" a c
  | _ -> Alcotest.fail "expected three replies");
  let stats = stats_of_service t in
  Alcotest.(check int) "evaluated once" 1
    (cache_counter stats ~cache:"responses" ~field:"misses");
  Alcotest.(check int) "no cache hits needed" 0
    (cache_counter stats ~cache:"responses" ~field:"hits");
  Alcotest.(check bool) "coalesced counted" true
    (Option.bind (Json.member "coalesced" stats) Json.to_int = Some 2)

let test_shutdown_flag () =
  let t = make_service () in
  Alcotest.(check bool) "initially up" false (Service.shutdown_requested t);
  let reply = Service.handle_line t {|{"kind":"shutdown"}|} in
  Alcotest.(check bool) "acknowledged" true (reply_ok reply);
  Alcotest.(check bool) "stopping" true (Service.shutdown_requested t)

(* ------------------------------------------------------------------ *)
(* Elaboration memo: built-in circuits are elaborated once per service. *)
(* ------------------------------------------------------------------ *)

(* Two structurally identical AND gates: the lint pre-flight warns, so
   the reply carries a "lint" block. *)
let duplicate_blif =
  ".model dup\n.inputs a b c\n.outputs o\n.names a b t1\n11 1\n\
   .names a b t2\n11 1\n.names t1 t2 c o\n111 1\n.end\n"

let memo_lines =
  [
    {|{"kind":"analyze","circuit":"c17","epsilons":[0.01,0.05],"measure":true,"vectors":512}|};
    {|{"kind":"analyze","circuit":"rca8","epsilons":[0.01],"tech":"cmos55"}|};
    {|{"kind":"analyze","circuit":"rca8","epsilons":[0.01],"no_map":true}|};
    (* alu8's pre-flight has warnings, so its reply has a "lint" block. *)
    {|{"kind":"profile","circuit":"alu8"}|};
    {|{"kind":"static","circuit":"rca8","epsilon":0.02}|};
    {|{"kind":"static","circuit":"c17","epsilon":0.001,"tech":"nanodev"}|};
    {|{"kind":"lint","circuit":"rca8"}|};
  ]

let test_warm_memo_replies_byte_identical () =
  (* One response entry: every request below misses the response cache
     (and nearly always the profile cache) while the elaboration table
     stays warm, so each reply is computed from the shared elaboration
     and must equal a cold service's bytes. *)
  let warm = make_service ~cache:1 () in
  List.iter (fun line -> ignore (Service.handle_line warm line)) memo_lines;
  (* The BLIF request arrives only now, so it misses the profile cache
     and one rugged_lite feeds both the profile and the tech report. *)
  let blif_line =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "analyze");
           ("blif", Json.String duplicate_blif);
           ("epsilons", Json.List [ Json.Float 0.01 ]);
           ("tech", Json.String "cmos55");
         ])
  in
  List.iter
    (fun line ->
      let cold = Service.handle_line (make_service ~cache:1 ()) line in
      Alcotest.(check bool) ("cold ok: " ^ line) true (reply_ok cold);
      Alcotest.(check string) ("warm-memo bytes: " ^ line) cold
        (Service.handle_line warm line))
    (memo_lines @ [ blif_line ]);
  let stats = stats_of_service warm in
  Alcotest.(check int) "no response hits" 0
    (cache_counter stats ~cache:"responses" ~field:"hits");
  let has_preflight line =
    match Json.parse (Service.handle_line warm line) with
    | Ok v -> Option.bind (Json.member "result" v) (Json.member "lint") <> None
    | Error _ -> false
  in
  Alcotest.(check bool) "named reply carries the pre-flight" true
    (has_preflight {|{"kind":"profile","circuit":"alu8"}|});
  Alcotest.(check bool) "BLIF reply carries the pre-flight" true
    (has_preflight blif_line)

let test_journal_keys_and_restart () =
  let path = Filename.temp_file "nanobound-service" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let journaled () =
        Service.create
          ~config:
            {
              (Service.default_config ()) with
              Service.jobs = 1;
              journal = Some path;
            }
          ()
      in
      let lines =
        [
          {|{"kind":"analyze","circuit":"mult16","epsilons":[0.01]}|};
          {|{"kind":"profile","circuit":"mult16"}|};
          {|{"kind":"static","circuit":"mult16","epsilon":0.02}|};
          {|{"kind":"lint","circuit":"mult16"}|};
        ]
      in
      let first = journaled () in
      let replies = List.map (Service.handle_line first) lines in
      Service.close first;
      List.iter
        (fun r -> Alcotest.(check bool) "first boot ok" true (reply_ok r))
        replies;
      let keys = ref [] in
      Nano_service.Journal.close
        (Nano_service.Journal.load ~path (fun ~key ~value:_ ->
             keys := key :: !keys));
      let digest = List.assoc "mult16" Test_digest.pinned in
      List.iter
        (fun prefix ->
          let prefix = Printf.sprintf prefix digest in
          Alcotest.(check bool) ("journal key " ^ prefix ^ "...") true
            (List.exists
               (fun k -> String.starts_with ~prefix k)
               !keys))
        [
          "analyze|%s|mult16|";
          "profile|%s|mult16|";
          "static|%s|mult16|";
          "lint|net:%s|mult16|";
        ];
      let second = journaled () in
      Fun.protect
        ~finally:(fun () -> Service.close second)
        (fun () ->
          List.iter2
            (fun line reply ->
              Alcotest.(check string) ("restart bytes: " ^ line) reply
                (Service.handle_line second line))
            lines replies;
          let stats = stats_of_service second in
          Alcotest.(check int) "all four are response hits" 4
            (cache_counter stats ~cache:"responses" ~field:"hits");
          Alcotest.(check int) "nothing recomputed" 0
            (cache_counter stats ~cache:"responses" ~field:"misses")))

let test_one_elaboration_per_name () =
  let t = make_service () in
  let measure grid =
    Service.handle_line t
      (Printf.sprintf
         {|{"kind":"analyze","circuit":"rca8","epsilons":%s,"measure":true,"vectors":256}|}
         grid)
  in
  Alcotest.(check bool) "first measure ok" true
    (reply_ok (measure "[0.01,0.02]"));
  let before = Nano_netlist.Compiled.memo_stats () in
  Alcotest.(check bool) "second measure ok" true
    (reply_ok (measure "[0.03,0.04]"));
  let after = Nano_netlist.Compiled.memo_stats () in
  (* A fresh ε grid misses the response cache; the compiled program of
     the shared mapped netlist is reused rather than rebuilt. *)
  Alcotest.(check bool) "compiled memo hit" true
    (after.Nano_netlist.Compiled.memo_hits
    > before.Nano_netlist.Compiled.memo_hits);
  Alcotest.(check int) "no new compiled memo miss"
    before.Nano_netlist.Compiled.memo_misses
    after.Nano_netlist.Compiled.memo_misses;
  (* The table holds the mapping beside the unmapped netlist: a no_map
     request after a mapped one must still profile the unmapped gates. *)
  let profile_size no_map =
    match
      Json.parse
        (Service.handle_line t
           (Printf.sprintf {|{"kind":"profile","circuit":"sec32","no_map":%b}|}
              no_map))
    with
    | Ok v ->
      Option.bind (Json.member "result" v) (fun r ->
          Option.bind (Json.member "size" r) Json.to_int)
    | Error _ -> None
  in
  let mapped_size = profile_size false in
  let sec32 =
    (Option.get (Nano_circuits.Suite.find "sec32")).Nano_circuits.Suite.build
      ()
  in
  Alcotest.(check (option int)) "no_map profiles the unmapped netlist"
    (Some (Nano_netlist.Netlist.size sec32))
    (profile_size true);
  Alcotest.(check bool) "mapping changes sec32's size" true
    (mapped_size <> Some (Nano_netlist.Netlist.size sec32));
  List.iter
    (fun kind ->
      Alcotest.(check (option string))
        (kind ^ " on an unknown name") (Some "unknown_circuit")
        (error_code
           (Service.handle_line t
              (Printf.sprintf {|{"kind":"%s","circuit":"nosuch"}|} kind))))
    [ "analyze"; "profile"; "static"; "lint" ]

(* ------------------------------------------------------------------ *)
(* stdio transport.                                                     *)
(* ------------------------------------------------------------------ *)

let run_stdio_on_input ?(max_bytes = 1 lsl 20) input =
  let in_path = Filename.temp_file "nano_service" ".in" in
  let out_path = Filename.temp_file "nano_service" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      output_string oc input;
      close_out oc;
      let t = make_service ~max_bytes () in
      let ic = open_in in_path in
      let oc = open_out out_path in
      Service.run_stdio t ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      contents)

let test_stdio_transport () =
  let out =
    run_stdio_on_input
      ({|{"kind":"ping"}|} ^ "\n" ^ analyze_line ^ "\n" ^ analyze_line ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (match lines with
  | [ pong; cold; warm ] ->
    Alcotest.(check bool) "pong" true (reply_ok pong);
    Alcotest.(check string) "stdio warm = cold" cold warm
  | _ -> Alcotest.failf "expected 3 reply lines, got %d" (List.length lines))

let test_stdio_shutdown_stops_loop () =
  let out =
    run_stdio_on_input
      ({|{"kind":"shutdown"}|} ^ "\n" ^ {|{"kind":"ping"}|} ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "only the shutdown reply" 1 (List.length lines)

let test_stdio_oversized_line () =
  let out =
    run_stdio_on_input ~max_bytes:64
      (String.make 1000 'x' ^ "\n" ^ {|{"kind":"ping"}|} ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  match lines with
  | [ err; pong ] ->
    Alcotest.(check (option string)) "oversized error" (Some "oversized")
      (error_code err);
    Alcotest.(check bool) "next request still served" true (reply_ok pong)
  | _ -> Alcotest.failf "expected 2 reply lines, got %d" (List.length lines)

let suite =
  [
    Alcotest.test_case "cache: LRU eviction order" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "cache: hit/miss counters" `Quick test_cache_counters;
    Alcotest.test_case "cache: capacity zero" `Quick test_cache_capacity_zero;
    Alcotest.test_case "protocol: round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: defaults" `Quick test_protocol_defaults;
    Alcotest.test_case "protocol: rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "bounds = direct evaluation" `Quick
      test_bounds_matches_direct_evaluation;
    Alcotest.test_case "cache hit byte-identical" `Quick
      test_cache_hit_is_byte_identical;
    Alcotest.test_case "jobs-independent replies" `Quick
      test_jobs_independent_replies;
    Alcotest.test_case "profile core shared with analyze" `Quick
      test_profile_core_shared_with_analyze;
    Alcotest.test_case "rename-only BLIF shares profile core" `Quick
      test_rename_only_blif_shares_profile_core;
    Alcotest.test_case "structured errors" `Quick test_structured_errors;
    Alcotest.test_case "static request cached + exact" `Quick
      test_static_request;
    Alcotest.test_case "static tech floor" `Quick test_static_tech_floor;
    Alcotest.test_case "tech analyze cache hit byte-identical" `Quick
      test_tech_cache_hit_byte_identical;
    Alcotest.test_case "daemon survives errors" `Quick
      test_error_then_service_still_up;
    Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
    Alcotest.test_case "shutdown flag" `Quick test_shutdown_flag;
    Alcotest.test_case "warm memo replies byte-identical" `Quick
      test_warm_memo_replies_byte_identical;
    Alcotest.test_case "journal keys and restart" `Quick
      test_journal_keys_and_restart;
    Alcotest.test_case "one elaboration per name" `Quick
      test_one_elaboration_per_name;
    Alcotest.test_case "stdio transport" `Quick test_stdio_transport;
    Alcotest.test_case "stdio shutdown stops loop" `Quick
      test_stdio_shutdown_stops_loop;
    Alcotest.test_case "stdio oversized line" `Quick
      test_stdio_oversized_line;
  ]
