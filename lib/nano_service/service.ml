module Json = Nano_util.Json
module Par = Nano_util.Par
module Metrics = Nano_bounds.Metrics
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Figures = Nano_bounds.Figures
module Netlist = Nano_netlist.Netlist
module Lint = Nano_lint.Lint

type config = {
  jobs : int;
  cache_capacity : int;
  max_request_bytes : int;
  default_timeout_ms : int option;
  trace : bool;
  journal : string option;
  max_clients : int;
  max_pending : int;
  max_reply_bytes : int;
}

let default_config () =
  {
    jobs = Par.default_jobs ();
    cache_capacity = 256;
    max_request_bytes = 8 * 1024 * 1024;
    default_timeout_ms = None;
    trace = false;
    journal = None;
    max_clients = 960;
    max_pending = 1024;
    max_reply_bytes = 64 * 1024 * 1024;
  }

(* A circuit as every circuit-taking kind consumes it: the netlist, its
   strash content address (the root of every cache key), and the two
   derived products more than one kind needs — the rugged_lite mapping
   and the default-options lint pre-flight — computed on first use. *)
type elaboration = {
  name : string;
  netlist : Netlist.t;
  digest : string;
  mapped : Netlist.t Lazy.t;
  preflight : Json.t option Lazy.t;
}

let elaborate_netlist ~name netlist =
  let digest = Nano_synth.Strash.digest netlist in
  {
    name;
    netlist;
    digest;
    mapped = lazy (Nano_synth.Script.rugged_lite ~max_fanin:3 netlist);
    preflight = lazy (Lint.preflight_json (Lint.run_netlist ~digest netlist));
  }

type t = {
  config : config;
  suite : (string, elaboration Lazy.t) Hashtbl.t;
      (** one entry per built-in circuit, elaborated on first request
          and shared by every later one; built once at {!create} and
          never grown, and forced only on the serving domain *)
  responses : string Cache.t;  (** reply line per content-addressed key *)
  profiles : Profile.t Cache.t;  (** the expensive Monte-Carlo part *)
  metrics : Service_metrics.t;
  journal : Journal.t option;
      (** on-disk backing of [responses]; [None] when persistence is
          off *)
  mutable lint_hits : int;
      (** lint replies served from the response cache *)
  mutable lint_misses : int;  (** lint replies computed fresh *)
  mutable static_hits : int;
      (** static-analysis replies served from the response cache *)
  mutable static_misses : int;  (** static-analysis replies computed fresh *)
  mutable tech_reports : int;
      (** technology reports computed fresh (cache hits excluded) *)
  mutable stop : bool;
}

let create ?config () =
  let config = match config with Some c -> c | None -> default_config () in
  let responses = Cache.create ~capacity:config.cache_capacity in
  let journal =
    Option.map
      (fun path ->
        Journal.load ~path (fun ~key ~value -> Cache.add responses key value))
      config.journal
  in
  let suite = Hashtbl.create 32 in
  List.iter
    (fun (e : Nano_circuits.Suite.entry) ->
      Hashtbl.replace suite e.name
        (lazy (elaborate_netlist ~name:e.name (e.build ()))))
    Nano_circuits.Suite.all;
  {
    config;
    suite;
    responses;
    profiles = Cache.create ~capacity:config.cache_capacity;
    metrics = Service_metrics.create ~now:(Unix.gettimeofday ());
    journal;
    lint_hits = 0;
    lint_misses = 0;
    static_hits = 0;
    static_misses = 0;
    tech_reports = 0;
    stop = false;
  }

let close t = match t.journal with Some j -> Journal.close j | None -> ()

let shutdown_requested t = t.stop

(* Structured per-request failures; they become error replies, never
   daemon deaths. *)
exception Reply_error of string * string (* code, message *)
exception Timed_out

let check_deadline = function
  | Some d when Unix.gettimeofday () > d -> raise Timed_out
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Request evaluation.                                                  *)
(* ------------------------------------------------------------------ *)

(* Built-in circuits come from the per-daemon table: sharing one netlist
   across requests is safe because finished netlists are immutable.
   BLIF circuits get a fresh elaboration per request. *)
let elaborate t = function
  | Protocol.Named name -> (
    match Hashtbl.find_opt t.suite name with
    | Some e -> Lazy.force e
    | None ->
      raise
        (Reply_error
           ( "unknown_circuit",
             name ^ ": not a built-in benchmark (see `nanobound suite')" )))
  | Protocol.Blif text -> (
    match Nano_blif.Blif.parse_string text with
    | Ok netlist -> elaborate_netlist ~name:(Netlist.name netlist) netlist
    | Error e ->
      raise
        (Reply_error
           ( "blif_parse_error",
             Format.asprintf "%a" Nano_blif.Blif.pp_error e )))

let mapped_netlist e ~no_map = if no_map then e.netlist else Lazy.force e.mapped

(* Technology-pack resolution: a name looks up a built-in, an inline
   object goes through the JSON loader. Both failure shapes are error
   replies (never cached), and both spellings of the same pack share
   one canonical digest, so they coalesce onto one cache entry. *)
let resolve_tech = function
  | Protocol.Tech_named name -> (
    match Nano_tech.Builtin.find name with
    | Some pack -> pack
    | None ->
      raise
        (Reply_error
           ( "unknown_tech",
             name ^ ": not a built-in technology pack (see `nanobound tech')"
           )))
  | Protocol.Tech_inline json -> (
    match Nano_tech.Loader.of_json json with
    | Ok pack -> pack
    | Error diagnostics ->
      raise
        (Reply_error
           ( "invalid_tech",
             String.concat "; "
               (List.map
                  (fun d -> Format.asprintf "%a" Nano_lint.Diagnostic.pp d)
                  diagnostics) )))

(* Profile of the (optionally mapped) circuit, by content address: the
   Monte-Carlo activity + sensitivity measurement only depends on the
   strashed structure, so it is shared across requests — and across
   differing model names, which only relabel the result. *)
let profile_for t ~deadline ~no_map e =
  let core_key = Printf.sprintf "profile-core|%s|%b" e.digest no_map in
  let profile =
    match Cache.find t.profiles core_key with
    | Some p -> p
    | None ->
      check_deadline deadline;
      let p =
        Profile.of_netlist ~jobs:t.config.jobs (mapped_netlist e ~no_map)
      in
      Cache.add t.profiles core_key p;
      p
  in
  { profile with Profile.name = e.name }

let fr = Json.float_repr

(* Pre-flight: static-analysis findings on the input netlist (before
   any mapping), attached to analyze/profile replies only when there
   is something to say — clean circuits keep byte-identical replies
   with earlier releases. *)
let attach_preflight e json =
  match Lazy.force e.preflight with
  | None -> json
  | Some pj -> (
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("lint", pj) ])
    | other -> other)

(* The measured-δ̂ figure simulates a small set of suite circuits over
   the default ε grid — one batched multi-lane pass per circuit
   ({!Figures.measured_delta}), so the whole figure costs a few
   simulations rather than circuits × grid points. *)
let delta_figure_circuits = [ "c17"; "rca8"; "parity16" ]

let sweep_series ~jobs figure =
  match figure with
  | "fig2" -> Figures.fig2_activity_map ~jobs ()
  | "fig3" -> Figures.fig3_redundancy ~jobs ()
  | "fig4" -> Figures.fig4_leakage ~jobs ()
  | "fig5" -> Figures.fig5_delay_and_edp ~jobs ()
  | "fig6" -> Figures.fig6_average_power ~jobs ()
  | "omega" -> Figures.ablation_omega_models ~jobs ()
  | "delta" ->
    let circuits =
      List.filter_map
        (fun name ->
          Option.map
            (fun e -> (name, e.Nano_circuits.Suite.build ()))
            (Nano_circuits.Suite.find name))
        delta_figure_circuits
    in
    Figures.measured_delta ~jobs circuits
  | other ->
    raise
      (Reply_error
         ("unknown_figure", other ^ ": expected fig2..fig6, omega or delta"))

(* A request prepared for execution: its content-addressed key (when
   cacheable) is known before any expensive work runs, which is what
   both the response cache and in-flight coalescing hang off. *)
type prepared = { key : string option; run : unit -> Json.t }

let prepare t ~deadline (env : Protocol.envelope) =
  match env.Protocol.request with
  | Protocol.Ping -> { key = None; run = (fun () -> Json.String "pong") }
  | Protocol.Shutdown ->
    {
      key = None;
      run =
        (fun () ->
          t.stop <- true;
          Json.String "bye");
    }
  | Protocol.Stats ->
    {
      key = None;
      run =
        (fun () ->
          let memo = Nano_netlist.Compiled.memo_stats () in
          Service_metrics.to_json t.metrics
            ~extra:
              ([
                ( "compiled_programs",
                  Json.Obj
                    [
                      ( "memo_hits",
                        Json.Int memo.Nano_netlist.Compiled.memo_hits );
                      ( "memo_misses",
                        Json.Int memo.Nano_netlist.Compiled.memo_misses );
                      ( "default_block_width",
                        Json.Int (Nano_netlist.Compiled.default_block_width ())
                      );
                      ( "block_widths",
                        Json.List
                          (List.map
                             (fun w -> Json.Int w)
                             (Nano_netlist.Compiled.cached_block_widths ())) );
                      ( "simd_level",
                        Json.String (Nano_util.Prng.simd_level ()) );
                    ] );
                ( "lint_cache",
                  Json.Obj
                    [
                      ("hits", Json.Int t.lint_hits);
                      ("misses", Json.Int t.lint_misses);
                    ] );
                ( "static_cache",
                  Json.Obj
                    [
                      ("hits", Json.Int t.static_hits);
                      ("misses", Json.Int t.static_misses);
                    ] );
                ( "tech_packs",
                  Json.Obj
                    [
                      ( "builtin",
                        Json.List
                          (List.map
                             (fun p ->
                               Json.Obj
                                 [
                                   ( "name",
                                     Json.String p.Nano_tech.Pack.name );
                                   ( "digest",
                                     Json.String (Nano_tech.Pack.digest p) );
                                 ])
                             Nano_tech.Builtin.all) );
                      ("reports", Json.Int t.tech_reports);
                    ] );
              ]
              @ (match t.journal with
                | None -> []
                | Some j ->
                  [
                    ( "journal",
                      Json.Obj
                        [
                          ("path", Json.String (Journal.path j));
                          ("recovered", Json.Int (Journal.entries_recovered j));
                          ("appended", Json.Int (Journal.appended j));
                          ( "truncated_bytes",
                            Json.Int (Journal.bytes_truncated j) );
                        ] );
                  ]))
            ~caches:
              [
                ("responses", Cache.stats t.responses);
                ("profiles", Cache.stats t.profiles);
              ]
            ~now:(Unix.gettimeofday ()));
    }
  | Protocol.Bounds scenario ->
    if not (Metrics.scenario_valid scenario) then
      raise
        (Reply_error
           ("invalid_scenario", "parameters outside the theorems' domain"));
    let key =
      Printf.sprintf "bounds|%s|%s|%d|%d|%d|%d|%s|%s"
        (fr scenario.Metrics.epsilon)
        (fr scenario.Metrics.delta)
        scenario.Metrics.fanin scenario.Metrics.sensitivity
        scenario.Metrics.error_free_size scenario.Metrics.inputs
        (fr scenario.Metrics.sw0)
        (fr scenario.Metrics.leakage_share0)
    in
    {
      key = Some key;
      run = (fun () -> Protocol.bounds_to_json (Metrics.evaluate scenario));
    }
  | Protocol.Profile { circuit; no_map } ->
    let e = elaborate t circuit in
    let key = Printf.sprintf "profile|%s|%s|%b" e.digest e.name no_map in
    {
      key = Some key;
      run =
        (fun () ->
          attach_preflight e
            (Protocol.profile_to_json (profile_for t ~deadline ~no_map e)));
    }
  | Protocol.Analyze
      { circuit; delta; leakage_share0; epsilons; no_map; measure; vectors;
        tech } ->
    let e = elaborate t circuit in
    (* Resolved before the cache key so bad packs are error replies
       (never cached), and so named/inline spellings of one pack key
       on the same canonical digest. *)
    let tech = Option.map resolve_tech tech in
    let key =
      Printf.sprintf "analyze|%s|%s|%b|%s|%s|%s|%b|%d%s" e.digest e.name
        no_map (fr delta) (fr leakage_share0)
        (String.concat "," (List.map fr epsilons))
        measure vectors
        (* Appended only when present: pre-tech requests keep their
           exact pre-tech keys, so warm journals stay valid. *)
        (match tech with
        | None -> ""
        | Some pack -> "|tech:" ^ Nano_tech.Pack.digest pack)
    in
    {
      key = Some key;
      run =
        (fun () ->
          let profile = profile_for t ~deadline ~no_map e in
          check_deadline deadline;
          (* The absolute-energy block rides after "rows"; replies
             without --tech carry no block at all and stay
             byte-identical to earlier releases. *)
          let tech_fields () =
            match tech with
            | None -> []
            | Some pack ->
              let report =
                Nano_tech.Report.analyze ~delta ~epsilons ~pack ~profile
                  (mapped_netlist e ~no_map)
              in
              t.tech_reports <- t.tech_reports + 1;
              [ ("tech", Nano_tech.Report.to_json report) ]
          in
          if measure then begin
            (* The same mapped circuit the profile was measured on; one
               batched multi-ε pass covers the whole grid, with jobs
               sharding vectors inside it (jobs-independent). *)
            let rows =
              Benchmark_eval.measured_grid ~deltas:[ delta ] ~leakage_share0
                ~epsilons ~vectors ~jobs:t.config.jobs ~profile
                (mapped_netlist e ~no_map)
            in
            attach_preflight e
              (Json.Obj
                 ([
                    ("profile", Protocol.profile_to_json profile);
                    ( "rows",
                      Json.List (List.map Protocol.measured_row_to_json rows)
                    );
                  ]
                 @ tech_fields ()))
          end
          else begin
            (* The per-ε closed-form grid batches onto the domain pool;
               values are jobs-independent (Nano_util.Par contract). *)
            let rows =
              Par.map_list ~jobs:t.config.jobs
                (fun epsilon ->
                  Benchmark_eval.evaluate_profile ~delta ~leakage_share0
                    profile ~epsilon)
                epsilons
            in
            attach_preflight e
              (Json.Obj
                 ([
                    ("profile", Protocol.profile_to_json profile);
                    ("rows", Json.List (List.map Protocol.row_to_json rows));
                  ]
                 @ tech_fields ()))
          end);
    }
  | Protocol.Lint { circuit; max_fanin; epsilon; delta } ->
    let options = { Lint.max_fanin; epsilon; delta } in
    let params =
      Printf.sprintf "%d|%s|%s" max_fanin (fr epsilon) (fr delta)
    in
    (* Content address: the strash digest for circuits that elaborate
       (named benchmarks), the raw text digest for BLIF — front-end
       diagnostics depend on the text (line numbers, dead covers), not
       just the elaborated structure. Parse and lint failures are
       reports here, never error replies. *)
    (match circuit with
    | Protocol.Named _ ->
      let e = elaborate t circuit in
      {
        key = Some (Printf.sprintf "lint|net:%s|%s|%s" e.digest e.name params);
        run =
          (fun () ->
            Lint.report_to_json
              (Lint.run_netlist ~options ~digest:e.digest e.netlist));
      }
    | Protocol.Blif text ->
      {
        key =
          Some
            (Printf.sprintf "lint|blif:%s|%s"
               (Digest.to_hex (Digest.string text))
               params);
        run = (fun () -> Lint.report_to_json (Lint.run_blif_string ~options text));
      })
  | Protocol.Static { circuit; epsilon; input_probability; cone_budget; tech }
    ->
    let e = elaborate t circuit in
    (* Bad packs become error replies before any key exists (never
       cached); the effective ε is floored at the pack's intrinsic ε,
       matching both the tech report's bound rows and the CLI verb. *)
    let tech = Option.map resolve_tech tech in
    let epsilon =
      match tech with
      | None -> epsilon
      | Some pack -> Float.max epsilon pack.Nano_tech.Pack.intrinsic_epsilon
    in
    let key =
      Printf.sprintf "static|%s|%s|%s|%s|%d" e.digest e.name (fr epsilon)
        (fr input_probability) cone_budget
    in
    {
      key = Some key;
      run =
        (fun () ->
          check_deadline deadline;
          let analysis =
            Nano_static.Static.analyze ~input_probability ~cone_budget
              ~epsilon e.netlist
          in
          Nano_static.Static.to_json analysis e.netlist);
    }
  | Protocol.Sweep { figure } ->
    let key = Printf.sprintf "sweep|%s" figure in
    {
      key = Some key;
      run =
        (fun () ->
          check_deadline deadline;
          let series = sweep_series ~jobs:t.config.jobs figure in
          Protocol.series_to_json
            (List.map
               (fun s -> (s.Figures.label, s.Figures.points))
               series));
    }

(* ------------------------------------------------------------------ *)
(* The per-line scheduler step.                                         *)
(* ------------------------------------------------------------------ *)

let trace t fmt =
  Printf.ksprintf
    (fun s -> if t.config.trace then Printf.eprintf "[nanobound-serve] %s\n%!" s)
    fmt

let process t ?memo line =
  let start = Unix.gettimeofday () in
  let kind = ref "invalid" in
  let finish_ok disposition reply =
    let latency = Unix.gettimeofday () -. start in
    (match disposition with
    | `Coalesced -> Service_metrics.record_coalesced t.metrics ~kind:!kind
    | `Hit | `Miss | `Uncached ->
      Service_metrics.record t.metrics ~kind:!kind ~latency);
    if !kind = "lint" then begin
      match disposition with
      | `Hit -> t.lint_hits <- t.lint_hits + 1
      | `Miss -> t.lint_misses <- t.lint_misses + 1
      | `Coalesced | `Uncached -> ()
    end;
    if !kind = "static" then begin
      match disposition with
      | `Hit -> t.static_hits <- t.static_hits + 1
      | `Miss -> t.static_misses <- t.static_misses + 1
      | `Coalesced | `Uncached -> ()
    end;
    trace t "%s %s %.3fms" !kind
      (match disposition with
      | `Hit -> "hit"
      | `Miss -> "miss"
      | `Coalesced -> "coalesced"
      | `Uncached -> "eval")
      (1e3 *. latency);
    reply
  in
  let finish_error code message =
    Service_metrics.record_error t.metrics ~kind:!kind;
    trace t "%s error:%s" !kind code;
    Protocol.error_reply ~code ~message
  in
  if String.length line > t.config.max_request_bytes then
    finish_error "oversized"
      (Printf.sprintf "request exceeds %d bytes" t.config.max_request_bytes)
  else
    match Json.parse line with
    | Error e -> finish_error "parse_error" (Format.asprintf "%a" Json.pp_error e)
    | Ok json -> (
      match Protocol.request_of_json json with
      | Error msg -> finish_error "bad_request" msg
      | Ok env -> (
        kind := Protocol.kind_name env.Protocol.request;
        let deadline =
          let ms =
            match env.Protocol.timeout_ms with
            | Some ms -> Some ms
            | None -> t.config.default_timeout_ms
          in
          Option.map (fun ms -> start +. (float_of_int ms /. 1000.)) ms
        in
        match
          let p = prepare t ~deadline env in
          match p.key with
          | None -> finish_ok `Uncached (Protocol.ok_reply (p.run ()))
          | Some key -> (
            let memo_hit =
              match memo with
              | Some m -> Hashtbl.find_opt m key
              | None -> None
            in
            match memo_hit with
            | Some reply -> finish_ok `Coalesced reply
            | None -> (
              match Cache.find t.responses key with
              | Some reply ->
                (match memo with
                | Some m -> Hashtbl.replace m key reply
                | None -> ());
                finish_ok `Hit reply
              | None ->
                check_deadline deadline;
                let reply = Protocol.ok_reply (p.run ()) in
                Cache.add t.responses key reply;
                (match t.journal with
                | Some j -> Journal.append j ~key ~value:reply
                | None -> ());
                (match memo with
                | Some m -> Hashtbl.replace m key reply
                | None -> ());
                finish_ok `Miss reply))
        with
        | reply -> reply
        | exception Reply_error (code, message) -> finish_error code message
        | exception Timed_out ->
          finish_error "timeout" "deadline exceeded before evaluation finished"
        | exception Invalid_argument msg -> finish_error "bad_request" msg
        | exception e ->
          finish_error "internal_error" (Printexc.to_string e)))

let handle_line t line = process t line

let handle_batch t lines =
  let memo = Hashtbl.create 8 in
  List.map (fun line -> process t ~memo line) lines

(* ------------------------------------------------------------------ *)
(* stdio transport.                                                     *)
(* ------------------------------------------------------------------ *)

(* Bounded line read: never buffers more than [limit] bytes, so a
   newline-less flood cannot exhaust memory. *)
let read_line_bounded ic limit =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= limit then begin
        (* Skip the rest of the oversized line. *)
        let rec skip () =
          match input_char ic with
          | exception End_of_file -> ()
          | '\n' -> ()
          | _ -> skip ()
        in
        skip ();
        `Oversized
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let run_stdio t ic oc =
  let rec loop () =
    if not (shutdown_requested t) then
      match read_line_bounded ic t.config.max_request_bytes with
      | exception End_of_file -> ()
      | `Oversized ->
        output_string oc
          (Protocol.error_reply ~code:"oversized"
             ~message:
               (Printf.sprintf "request exceeds %d bytes"
                  t.config.max_request_bytes));
        output_char oc '\n';
        flush oc;
        loop ()
      | `Line "" -> loop ()
      | `Line line ->
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Socket transports: a nonblocking event loop over a Unix-domain or   *)
(* TCP listener, with a minimal HTTP/1.1 POST front end.               *)
(* ------------------------------------------------------------------ *)

(* A reply slot. One slot is queued per connection, in request-arrival
   order, the moment a request is parsed off the wire. Error slots
   (overload, oversized, bad HTTP) are filled at once; evaluated ones
   are filled when the round's batch finishes. Flushing only ever
   emits the filled prefix of the queue, so reply order on the wire
   always matches request order. *)
type slot = {
  mutable body : string option;  (* reply line, no trailing newline *)
  mutable status : string;  (* HTTP status, used only on HTTP conns *)
}

type proto = P_sniff | P_lines | P_http

type http_phase = H_headers | H_body of int

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* received but not yet parsed *)
  replies : slot Queue.t;  (* unflushed slots, request order *)
  outq : string Queue.t;  (* formatted bytes awaiting write *)
  mutable out_off : int;  (* bytes of [Queue.peek outq] already written *)
  mutable out_bytes : int;  (* total bytes buffered in [outq] *)
  mutable proto : proto;
  mutable http_phase : http_phase;
  mutable discarding : bool;  (* swallowing the rest of an oversized line *)
  mutable closing : bool;  (* no more reads; close once drained *)
  mutable dead : bool;  (* close now, drop any buffered output *)
}

let make_conn fd =
  {
    fd;
    inbuf = Buffer.create 256;
    replies = Queue.create ();
    outq = Queue.create ();
    out_off = 0;
    out_bytes = 0;
    proto = P_sniff;
    http_phase = H_headers;
    discarding = false;
    closing = false;
    dead = false;
  }

let oversized_reply max_bytes =
  Protocol.error_reply ~code:"oversized"
    ~message:(Printf.sprintf "request exceeds %d bytes" max_bytes)

let serve_listening t listen_fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock listen_fd;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 97 in
  let chunk = Bytes.create 65536 in

  (* ---- output side ------------------------------------------------ *)
  let enqueue_out c s =
    if not c.dead then begin
      if c.out_bytes + String.length s > t.config.max_reply_bytes then begin
        (* The peer stopped reading its replies; dropping it is the
           backpressure of last resort that keeps one slow reader from
           pinning daemon memory (no head-of-line blocking either way:
           the buffer is per-connection). *)
        trace t "dropping slow reader (%d bytes buffered)" c.out_bytes;
        c.dead <- true
      end
      else begin
        Queue.push s c.outq;
        c.out_bytes <- c.out_bytes + String.length s
      end
    end
  in
  let http_response ~status body =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: application/json\r\nContent-Length: \
       %d\r\nConnection: %s\r\n\r\n%s"
      status (String.length body)
      (if status = "200 OK" then "keep-alive" else "close")
      body
  in
  let flush_replies c =
    let rec go () =
      match Queue.peek_opt c.replies with
      | Some { body = Some body; status } ->
        ignore (Queue.pop c.replies);
        (match c.proto with
        | P_http -> enqueue_out c (http_response ~status body)
        | P_lines | P_sniff -> enqueue_out c (body ^ "\n"));
        go ()
      | _ -> ()
    in
    go ()
  in
  let pump_out c =
    let rec go () =
      match Queue.peek_opt c.outq with
      | None -> ()
      | Some head -> (
        let b = Bytes.unsafe_of_string head in
        match Net.write_fd c.fd b c.out_off (Bytes.length b - c.out_off) with
        | `Wrote n ->
          c.out_off <- c.out_off + n;
          c.out_bytes <- c.out_bytes - n;
          if c.out_off = Bytes.length b then begin
            ignore (Queue.pop c.outq);
            c.out_off <- 0
          end;
          go ()
        | `Again -> ()
        | `Closed -> c.dead <- true)
    in
    if not c.dead then go ()
  in

  (* ---- request intake --------------------------------------------- *)
  let push_slot c =
    let s = { body = None; status = "200 OK" } in
    Queue.push s c.replies;
    s
  in
  let reject_overloaded c =
    Service_metrics.record_rejected t.metrics;
    let s = push_slot c in
    s.status <- "503 Service Unavailable";
    s.body <- Some Protocol.overloaded_reply
  in
  (* The requests admitted this round, as (slot, line) pairs in reverse
     order, and their count. Every one is answered before the round
     ends, so the count is also the daemon's in-flight total. *)
  let round_batch = ref [] and pending = ref 0 in
  let emit_request c line =
    if !pending >= t.config.max_pending then reject_overloaded c
    else begin
      incr pending;
      round_batch := (push_slot c, line) :: !round_batch
    end
  in

  (* ---- input parsing ---------------------------------------------- *)
  let parse_lines c =
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let len = String.length data in
    let i = ref 0 in
    while !i < len do
      match String.index_from_opt data !i '\n' with
      | Some nl when c.discarding ->
        c.discarding <- false;
        i := nl + 1
      | None when c.discarding -> i := len
      | Some nl ->
        let line = String.sub data !i (nl - !i) in
        i := nl + 1;
        if line <> "" then emit_request c line
      | None ->
        let residue = len - !i in
        if residue > t.config.max_request_bytes then begin
          (* The line is already over budget before its newline even
             arrived: answer now, swallow the rest as it streams in,
             and keep the connection — the next line still works. *)
          let s = push_slot c in
          s.status <- "413 Content Too Large";
          s.body <- Some (oversized_reply t.config.max_request_bytes);
          c.discarding <- true
        end
        else Buffer.add_substring c.inbuf data !i residue;
        i := len
    done
  in
  let http_error c ~status ~code ~message =
    let s = push_slot c in
    s.status <- status;
    s.body <- Some (Protocol.error_reply ~code ~message);
    c.closing <- true
  in
  let find_crlfcrlf data i0 =
    let n = String.length data in
    let rec go i =
      if i + 3 >= n then None
      else if
        data.[i] = '\r'
        && data.[i + 1] = '\n'
        && data.[i + 2] = '\r'
        && data.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go i0
  in
  (* Content-Length is 1*DIGIT (RFC 9110 §8.6); [int_of_string] would
     also take [0x10], [1_0] or [+5]. Values past [max_int] saturate,
     so they fail the size check rather than wrap. Repeats must agree. *)
  let digits_value v =
    if v = "" || not (String.for_all (fun ch -> ch >= '0' && ch <= '9') v)
    then None
    else
      Some
        (String.fold_left
           (fun n ch ->
             let d = Char.code ch - Char.code '0' in
             if n > (max_int - d) / 10 then max_int else (n * 10) + d)
           0 v)
  in
  let content_length headers =
    List.fold_left
      (fun acc line ->
        match (acc, String.index_opt line ':') with
        | `Invalid _, _ | _, None -> acc
        | _, Some i
          when String.lowercase_ascii (String.trim (String.sub line 0 i))
               <> "content-length" ->
          acc
        | _, Some i -> (
          let v =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          match (acc, digits_value v) with
          | _, None -> `Invalid "Content-Length must be decimal digits"
          | `Absent, Some n -> `Length n
          | `Length m, Some n when m = n -> acc
          | _, Some _ -> `Invalid "conflicting Content-Length headers"))
      `Absent headers
  in
  let parse_http c =
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let len = String.length data in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if c.closing || c.dead then begin
        pos := len;
        continue := false
      end
      else
        match c.http_phase with
        | H_headers -> (
          match find_crlfcrlf data !pos with
          | None ->
            if len - !pos > 16384 then begin
              http_error c ~status:"431 Request Header Fields Too Large"
                ~code:"bad_request" ~message:"HTTP header block too large";
              pos := len
            end;
            continue := false
          | Some hdr_end -> (
            let head = String.sub data !pos (hdr_end - !pos) in
            pos := hdr_end + 4;
            let lines =
              String.split_on_char '\n' head
              |> List.map (fun l ->
                     let n = String.length l in
                     if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1)
                     else l)
            in
            match lines with
            | [] ->
              http_error c ~status:"400 Bad Request" ~code:"bad_request"
                ~message:"empty HTTP request"
            | request_line :: headers -> (
              let meth =
                match String.index_opt request_line ' ' with
                | Some i -> String.sub request_line 0 i
                | None -> request_line
              in
              if String.uppercase_ascii meth <> "POST" then
                http_error c ~status:"405 Method Not Allowed"
                  ~code:"bad_request"
                  ~message:"only POST with a JSON request body is supported"
              else
                match content_length headers with
                | `Absent ->
                  http_error c ~status:"411 Length Required"
                    ~code:"bad_request" ~message:"Content-Length is required"
                | `Invalid message ->
                  http_error c ~status:"400 Bad Request" ~code:"bad_request"
                    ~message
                | `Length cl when cl > t.config.max_request_bytes ->
                  http_error c ~status:"413 Content Too Large"
                    ~code:"oversized"
                    ~message:
                      (Printf.sprintf "request exceeds %d bytes"
                         t.config.max_request_bytes)
                | `Length cl -> c.http_phase <- H_body cl)))
        | H_body cl ->
          if len - !pos >= cl then begin
            let body = String.sub data !pos cl in
            pos := !pos + cl;
            c.http_phase <- H_headers;
            emit_request c body
          end
          else continue := false
    done;
    Buffer.add_substring c.inbuf data !pos (len - !pos)
  in
  let parse_conn c =
    (match c.proto with
    | P_sniff ->
      if Buffer.length c.inbuf > 0 then begin
        (* Requests are JSON objects, so a line never starts with an
           uppercase letter; an HTTP method always does. One byte
           decides the connection's protocol for good. *)
        let first = Buffer.nth c.inbuf 0 in
        c.proto <- (if first >= 'A' && first <= 'Z' then P_http else P_lines)
      end
    | P_lines | P_http -> ());
    match c.proto with
    | P_sniff -> ()
    | P_lines -> parse_lines c
    | P_http -> parse_http c
  in
  let conn_read c =
    let continue = ref true in
    let rounds = ref 0 in
    while !continue && !rounds < 8 do
      incr rounds;
      match Net.read_fd c.fd chunk with
      | `Data n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        if n < Bytes.length chunk then continue := false
      | `Again -> continue := false
      | `Eof ->
        c.closing <- true;
        continue := false
      | `Closed ->
        c.dead <- true;
        continue := false
    done;
    if not c.dead then parse_conn c
  in
  let accept_new () =
    List.iter
      (fun (fd, _) ->
        let c = make_conn fd in
        Hashtbl.replace conns fd c;
        if Hashtbl.length conns > t.config.max_clients then begin
          (* Over capacity: answer with the structured overload error
             instead of silently stalling the backlog, then close. *)
          Service_metrics.record_rejected t.metrics;
          let s = push_slot c in
          s.status <- "503 Service Unavailable";
          s.body <- Some Protocol.overloaded_reply;
          c.closing <- true
        end)
      (Net.accept_ready listen_fd)
  in

  (* ---- one readiness round ---------------------------------------- *)
  let select_round ~accepting ~timeout =
    let reads = ref [] and writes = ref [] in
    if accepting then reads := [ listen_fd ];
    Hashtbl.iter
      (fun fd c ->
        if (not c.dead) && not c.closing then reads := fd :: !reads;
        if (not c.dead) && not (Queue.is_empty c.outq) then
          writes := fd :: !writes)
      conns;
    match Unix.select !reads !writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | r, _, _ -> r
  in
  let one_round ~accepting ~timeout =
    let ready_r = select_round ~accepting ~timeout in
    if accepting && List.memq listen_fd ready_r then accept_new ();
    Hashtbl.iter (fun fd c -> if List.memq fd ready_r then conn_read c) conns;
    (* One batch per readiness round, coalescing duplicates. *)
    (match List.rev !round_batch with
    | [] -> ()
    | batch ->
      let replies = handle_batch t (List.map snd batch) in
      List.iter2 (fun (slot, _) reply -> slot.body <- Some reply) batch replies);
    round_batch := [];
    pending := 0;
    let to_close = ref [] in
    Hashtbl.iter
      (fun fd c ->
        if not c.dead then begin
          flush_replies c;
          pump_out c
        end;
        if
          c.dead
          || (c.closing
             && Queue.is_empty c.replies
             && Queue.is_empty c.outq)
        then to_close := (fd, c) :: !to_close)
      conns;
    List.iter
      (fun (fd, c) ->
        Hashtbl.remove conns fd;
        c.dead <- true;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      !to_close
  in
  let rec main () =
    if not (shutdown_requested t) then begin
      one_round ~accepting:true ~timeout:(-1.);
      main ()
    end
  in
  main ();
  (* Drain: flush filled replies, bounded so a wedged peer cannot hold
     the daemon open forever. *)
  let pending_work () =
    let p = ref false in
    Hashtbl.iter
      (fun _ c ->
        if
          (not c.dead)
          && ((not (Queue.is_empty c.outq)) || not (Queue.is_empty c.replies))
        then p := true)
      conns;
    !p
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while pending_work () && Unix.gettimeofday () < deadline do
    one_round ~accepting:false ~timeout:0.05
  done;
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns

let serve_unix t ~socket_path =
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 256;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    (fun () -> serve_listening t listen_fd)

let serve_tcp t ~host ~port =
  let addr = Net.resolve_tcp host port in
  let listen_fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd addr;
  Unix.listen listen_fd 256;
  Fun.protect
    ~finally:(fun () ->
      try Unix.close listen_fd with Unix.Unix_error _ -> ())
    (fun () -> serve_listening t listen_fd)
