(* In-process replay of recorded request lines, with a span around every
   call into a library layer.

   The handlers below make the same public calls, in the same order,
   that the daemon's request preparation makes, and rebuild each reply
   with the same Protocol encoders. Their cache and journal mirror the
   daemon's (same capacity, same keys), so a replayed stream sees the
   same hits and misses the daemon saw. Every rebuilt reply is compared
   with the daemon's bytes by the caller: a mismatch means these spans
   no longer time the code that served the request, and fails the
   traced run. *)

module Json = Nano_util.Json
module Par = Nano_util.Par
module Netlist = Nano_netlist.Netlist
module Compiled = Nano_netlist.Compiled
module Protocol = Nano_service.Protocol
module Cache = Nano_service.Cache
module Journal = Nano_service.Journal
module Profile = Nano_bounds.Profile
module Metrics = Nano_bounds.Metrics
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Strash = Nano_synth.Strash
module Lint = Nano_lint.Lint
module Static = Nano_static.Static

let span = Span.span

type counters = {
  mutable lane_gate_words : int;  (* lanes x noisy gates x 64-vector words *)
  mutable bdd_nodes : int;
  mutable exact_nodes : int;
  mutable vacuous_outputs : int;
}

type t = {
  jobs : int;
  responses : string Cache.t;
  profiles : Profile.t Cache.t;
  journal : Journal.t option;
  counters : counters;
}

let create ~jobs ~capacity ?journal () =
  let responses = Cache.create ~capacity in
  {
    jobs;
    responses;
    profiles = Cache.create ~capacity;
    journal =
      Option.map
        (fun path -> Journal.load ~path (fun ~key ~value -> Cache.add responses key value))
        journal;
    counters =
      {
        lane_gate_words = 0;
        bdd_nodes = 0;
        exact_nodes = 0;
        vacuous_outputs = 0;
      };
  }

(* The mirror journal is scratch: closing also deletes it. *)
let close t =
  Option.iter
    (fun j ->
      Journal.close j;
      Sys.remove (Journal.path j))
    t.journal

(* Deterministic work counters, as (name, value) pairs. *)
type snapshot = (string * int) list

let snapshot t : snapshot =
  let c = t.counters in
  let rs = Cache.stats t.responses and ps = Cache.stats t.profiles in
  [
    ("faults.lane_gate_words", c.lane_gate_words);
    ("static.bdd_nodes", c.bdd_nodes);
    ("static.exact_nodes", c.exact_nodes);
    ("static.vacuous_outputs", c.vacuous_outputs);
    ("replay.response_hits", rs.Cache.hits);
    ("replay.response_misses", rs.Cache.misses);
    ("replay.response_evictions", rs.Cache.evictions);
    ("replay.profile_hits", ps.Cache.hits);
    ("replay.profile_misses", ps.Cache.misses);
    ( "replay.journal_appended",
      match t.journal with Some j -> Journal.appended j | None -> 0 );
  ]

let diff (a : snapshot) (b : snapshot) : snapshot =
  List.map2 (fun (k, x) (_, y) -> (k, x - y)) a b

let fr = Json.float_repr

let resolve = function
  | Protocol.Named name -> (
    match Nano_circuits.Suite.find name with
    | Some e -> (name, span "circuits.build" (fun () -> e.Nano_circuits.Suite.build ()))
    | None -> failwith ("unknown circuit " ^ name))
  | Protocol.Blif text -> (
    match span "blif.parse" (fun () -> Nano_blif.Blif.parse_string text) with
    | Ok net -> (Netlist.name net, net)
    | Error _ -> failwith "BLIF parse error")

let resolve_tech = function
  | Protocol.Tech_named name -> (
    match Nano_tech.Builtin.find name with
    | Some p -> p
    | None -> failwith ("unknown tech " ^ name))
  | Protocol.Tech_inline json -> (
    match Nano_tech.Loader.of_json json with
    | Ok p -> p
    | Error _ -> failwith "invalid tech pack")

(* Script.rugged_lite, one span per pass. *)
let rugged_lite net =
  let module S = Nano_synth in
  span "synth.rugged_lite" (fun () ->
      let simplified = span "synth.strash" (fun () -> S.Strash.run net) in
      let best =
        if Netlist.input_count simplified > 10 then simplified
        else
          match
            span "synth.collapse" (fun () ->
                S.Collapse.to_truth_tables ~max_inputs:10 simplified)
          with
          | None -> simplified
          | Some tables ->
            let covers =
              span "synth.qm" (fun () ->
                  List.map
                    (fun (name, tt) -> (name, S.Quine_mccluskey.minimize_table tt))
                    tables)
            in
            let input_names = Netlist.input_names simplified in
            let name = Netlist.name simplified in
            let two_level =
              span "synth.collapse" (fun () ->
                  S.Strash.run (S.Collapse.of_covers ~name ~input_names covers))
            in
            let factored =
              span "synth.factor" (fun () ->
                  S.Strash.run (S.Factor.netlist_of_covers ~name ~input_names covers))
            in
            let smallest a b = if Netlist.size b < Netlist.size a then b else a in
            smallest (smallest simplified two_level) factored
      in
      span "synth.map" (fun () -> S.Script.map_only ~max_fanin:3 best))

(* Profile.of_netlist: compile, activity, sensitivity. *)
let profile_of t mapped =
  span "bounds.profile" (fun () ->
      ignore (span "netlist.compile" (fun () -> Compiled.of_netlist mapped));
      let activity =
        span "sim.activity" (fun () ->
            match Profile.default_activity with
            | Profile.Monte_carlo { seed; vectors } ->
              Nano_sim.Activity.monte_carlo ~seed ~vectors mapped
            | Profile.Exact_bdd -> Nano_sim.Activity.exact mapped)
      in
      let sensitivity =
        span "sim.sensitivity" (fun () ->
            Nano_sim.Sensitivity.estimate ~jobs:t.jobs mapped)
      in
      {
        Profile.name = Netlist.name mapped;
        inputs = List.length (Netlist.inputs mapped);
        outputs = List.length (Netlist.outputs mapped);
        size = Netlist.size mapped;
        depth = Netlist.depth mapped;
        avg_fanin = Netlist.average_fanin mapped;
        max_fanin = Netlist.max_fanin mapped;
        sw0 = activity.Nano_sim.Activity.average_gate_activity;
        sensitivity;
      })

let profile_for t ~digest ~name ~no_map net =
  let core_key = Printf.sprintf "profile-core|%s|%b" digest no_map in
  let profile =
    match span "service.cache" (fun () -> Cache.find t.profiles core_key) with
    | Some p -> p
    | None ->
      let mapped = if no_map then net else rugged_lite net in
      let p = profile_of t mapped in
      span "service.cache" (fun () -> Cache.add t.profiles core_key p);
      p
  in
  { profile with Profile.name = name }

let attach_preflight ~digest net json =
  match
    span "lint.preflight" (fun () ->
        Lint.preflight_json (Lint.run_netlist ~digest net))
  with
  | None -> json
  | Some pj -> (
    match json with Json.Obj fields -> Json.Obj (fields @ [ ("lint", pj) ]) | j -> j)

(* Benchmark_eval.measured_grid with the Monte-Carlo pass and the
   analytic rows timed apart. Degenerate cells (ε = 0, δ >= 1/2) keep
   the library's own short-circuits. *)
let measured_grid t ~delta ~leakage_share0 ~epsilons ~vectors ~profile mapped =
  span "bounds.measured_grid" (fun () ->
      if delta >= 0.5 || List.exists (fun e -> not (e > 0.)) epsilons then
        Benchmark_eval.measured_grid ~deltas:[ delta ] ~leakage_share0 ~epsilons
          ~vectors ~jobs:t.jobs ~profile mapped
      else begin
        ignore (span "netlist.compile" (fun () -> Compiled.of_netlist mapped));
        let measured =
          span "faults.profile_grid" (fun () ->
              Nano_faults.Noisy_sim.profile_grid ~vectors ~jobs:t.jobs
                ~epsilons:(Array.of_list epsilons) mapped)
        in
        let c = t.counters in
        Array.iter
          (fun m ->
            c.lane_gate_words <-
              c.lane_gate_words
              + (Netlist.size mapped * ((m.Nano_faults.Noisy_sim.vectors + 63) / 64)))
          measured;
        span "bounds.rows" (fun () ->
            List.mapi
              (fun i epsilon ->
                let m = measured.(i) in
                {
                  Benchmark_eval.row =
                    Benchmark_eval.evaluate_profile ~delta ~leakage_share0 profile
                      ~epsilon;
                  measured_delta = m.Nano_faults.Noisy_sim.any_output_error;
                  measured_activity = m.Nano_faults.Noisy_sim.average_gate_activity;
                  vectors = m.Nano_faults.Noisy_sim.vectors;
                })
              epsilons)
      end)

type disposition = Hit | Miss

let lookup t key run =
  match span "service.cache" (fun () -> Cache.find t.responses key) with
  | Some reply -> (reply, Hit)
  | None ->
    let json = run () in
    let reply = span "service.encode" (fun () -> Protocol.ok_reply json) in
    span "service.cache" (fun () -> Cache.add t.responses key reply);
    Option.iter
      (fun j -> span "journal.append" (fun () -> Journal.append j ~key ~value:reply))
      t.journal;
    (reply, Miss)

let analyze t ~circuit ~delta ~leakage_share0 ~epsilons ~no_map ~measure ~vectors
    ~tech =
  let name, net = resolve circuit in
  let digest = span "synth.digest" (fun () -> Strash.digest net) in
  let tech = Option.map resolve_tech tech in
  let key =
    Printf.sprintf "analyze|%s|%s|%b|%s|%s|%s|%b|%d%s" digest name no_map (fr delta)
      (fr leakage_share0)
      (String.concat "," (List.map fr epsilons))
      measure vectors
      (match tech with None -> "" | Some p -> "|tech:" ^ Nano_tech.Pack.digest p)
  in
  lookup t key (fun () ->
      let profile = profile_for t ~digest ~name ~no_map net in
      let mapped () = if no_map then net else rugged_lite net in
      let tech_fields mapped_net =
        match tech with
        | None -> []
        | Some pack ->
          let report =
            span "tech.report" (fun () ->
                Nano_tech.Report.analyze ~delta ~epsilons ~pack ~profile mapped_net)
          in
          [ ("tech", span "service.encode" (fun () -> Nano_tech.Report.to_json report)) ]
      in
      if measure then begin
        let mapped = mapped () in
        let rows =
          measured_grid t ~delta ~leakage_share0 ~epsilons ~vectors ~profile mapped
        in
        let fields =
          span "service.encode" (fun () ->
              [
                ("profile", Protocol.profile_to_json profile);
                ("rows", Json.List (List.map Protocol.measured_row_to_json rows));
              ])
        in
        let tech = tech_fields mapped in
        attach_preflight ~digest net (Json.Obj (fields @ tech))
      end
      else begin
        let rows =
          span "bounds.rows" (fun () ->
              Par.map_list ~jobs:t.jobs
                (fun epsilon ->
                  Benchmark_eval.evaluate_profile ~delta ~leakage_share0 profile
                    ~epsilon)
                epsilons)
        in
        let tech = match tech with None -> [] | Some _ -> tech_fields (mapped ()) in
        let fields =
          span "service.encode" (fun () ->
              [
                ("profile", Protocol.profile_to_json profile);
                ("rows", Json.List (List.map Protocol.row_to_json rows));
              ])
        in
        attach_preflight ~digest net (Json.Obj (fields @ tech))
      end)

let static t ~circuit ~epsilon ~input_probability ~cone_budget ~tech =
  let name, net = resolve circuit in
  let digest = span "synth.digest" (fun () -> Strash.digest net) in
  let epsilon =
    match Option.map resolve_tech tech with
    | None -> epsilon
    | Some pack -> Float.max epsilon pack.Nano_tech.Pack.intrinsic_epsilon
  in
  let key =
    Printf.sprintf "static|%s|%s|%s|%s|%d" digest name (fr epsilon)
      (fr input_probability) cone_budget
  in
  lookup t key (fun () ->
      let a =
        span "static.analyze" (fun () ->
            Static.analyze ~input_probability ~cone_budget ~epsilon net)
      in
      let c = t.counters in
      c.bdd_nodes <- c.bdd_nodes + a.Static.bdd_nodes;
      c.exact_nodes <- c.exact_nodes + a.Static.exact_nodes;
      List.iter
        (fun (_, iv) -> if Static.vacuous iv then c.vacuous_outputs <- c.vacuous_outputs + 1)
        a.Static.per_output_error;
      span "service.encode" (fun () -> Static.to_json a net))

let lint t ~circuit ~max_fanin ~epsilon ~delta =
  let options = { Lint.max_fanin; epsilon; delta } in
  let params = Printf.sprintf "%d|%s|%s" max_fanin (fr epsilon) (fr delta) in
  match circuit with
  | Protocol.Named _ ->
    let name, net = resolve circuit in
    let digest = span "synth.digest" (fun () -> Strash.digest net) in
    lookup t (Printf.sprintf "lint|net:%s|%s|%s" digest name params) (fun () ->
        let report = span "lint.run" (fun () -> Lint.run_netlist ~options ~digest net) in
        span "service.encode" (fun () -> Lint.report_to_json report))
  | Protocol.Blif text ->
    lookup t
      (Printf.sprintf "lint|blif:%s|%s" (Digest.to_hex (Digest.string text)) params)
      (fun () ->
        let report = span "lint.run" (fun () -> Lint.run_blif_string ~options text) in
        span "service.encode" (fun () -> Lint.report_to_json report))

let profile t ~circuit ~no_map =
  let name, net = resolve circuit in
  let digest = span "synth.digest" (fun () -> Strash.digest net) in
  lookup t (Printf.sprintf "profile|%s|%s|%b" digest name no_map) (fun () ->
      let p = profile_for t ~digest ~name ~no_map net in
      attach_preflight ~digest net
        (span "service.encode" (fun () -> Protocol.profile_to_json p)))

let bounds t s =
  if not (Metrics.scenario_valid s) then failwith "invalid scenario";
  let key =
    Printf.sprintf "bounds|%s|%s|%d|%d|%d|%d|%s|%s" (fr s.Metrics.epsilon)
      (fr s.Metrics.delta) s.Metrics.fanin s.Metrics.sensitivity
      s.Metrics.error_free_size s.Metrics.inputs (fr s.Metrics.sw0)
      (fr s.Metrics.leakage_share0)
  in
  lookup t key (fun () ->
      let b = span "bounds.evaluate" (fun () -> Metrics.evaluate s) in
      span "service.encode" (fun () -> Protocol.bounds_to_json b))

(* One request line, answered as the daemon would: the reply bytes and
   whether the response cache held them. Raises [Failure] on a request
   the daemon would have answered with an error, and on the kinds the
   workloads never send (ping, stats, shutdown, sweep). *)
let handle t line =
  let env =
    span "service.decode" (fun () ->
        match Json.parse line with
        | Error _ -> failwith "unparseable request"
        | Ok j -> (
          match Protocol.request_of_json j with
          | Ok env -> env
          | Error msg -> failwith msg))
  in
  match env.Protocol.request with
  | Protocol.Analyze
      { circuit; delta; leakage_share0; epsilons; no_map; measure; vectors; tech } ->
    analyze t ~circuit ~delta ~leakage_share0 ~epsilons ~no_map ~measure ~vectors ~tech
  | Protocol.Static { circuit; epsilon; input_probability; cone_budget; tech } ->
    static t ~circuit ~epsilon ~input_probability ~cone_budget ~tech
  | Protocol.Lint { circuit; max_fanin; epsilon; delta } ->
    lint t ~circuit ~max_fanin ~epsilon ~delta
  | Protocol.Profile { circuit; no_map } -> profile t ~circuit ~no_map
  | Protocol.Bounds s -> bounds t s
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Sweep _ ->
    failwith ("not replayed: " ^ Protocol.kind_name env.Protocol.request)
