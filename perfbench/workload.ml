(* The three request mixes. Every request is a pure function of
   (seed, connection, index), so the same seed always yields the same
   lines; the daemon only ever sees the generated lines. *)

module Json = Nano_util.Json
module Netlist = Nano_netlist.Netlist
module Protocol = Nano_service.Protocol
module Metrics = Nano_bounds.Metrics
module C = Nano_circuits

type request = {
  line : string;
  tag : string;
      (* "narrow"/"wide" on cold-analyze, "measure"/"static" on
         reliability, "hot:<kind>:<circuit>"/"fresh" on warm-mix *)
}

type t = {
  name : string;
  connections : int;
  journal : bool;  (* daemon runs with --journal on a fresh file *)
  warmup : string list;
      (* sent once on one connection before timing starts *)
  cycle : int;
      (* a connection stops only after a whole number of cycles, so
         every run holds the same request mix *)
  next : conn:int -> int -> request;
}

let names = [ "cold-analyze"; "reliability"; "warm-mix" ]

let rng ~seed ~conn ~salt i = Random.State.make [| seed; conn; salt; i |]

let line_of request =
  Json.to_string (Protocol.request_to_json { Protocol.request; timeout_ms = None })

(* Uniform in [lo, hi] on a log scale, rounded to six significant
   digits so the wire text stays short. *)
let log_uniform st lo hi =
  let x = exp (log lo +. Random.State.float st (log hi -. log lo)) in
  float_of_string (Printf.sprintf "%.6g" x)

let uniform st lo hi =
  float_of_string (Printf.sprintf "%.6g" (lo +. Random.State.float st (hi -. lo)))

(* Copy [net] under a new model name, declaring its inputs in the order
   [perm] and inverting input [i] when bit [i] of [mask] is set. The
   function is the original one up to input renaming and polarity, so
   the two-level minimizer does the same amount of work while the
   circuit's content address is new. *)
let relabel ~name ~perm ~mask net =
  let module B = Netlist.Builder in
  let b = B.create ~name () in
  let ids = Netlist.input_ids net in
  let names = Array.of_list (Netlist.input_names net) in
  let n = Array.length ids in
  let map = Array.make (Netlist.node_count net) (-1) in
  let declared = Array.make n (-1) in
  Array.iter (fun i -> declared.(i) <- B.input b names.(i)) perm;
  Array.iteri
    (fun i id ->
      map.(id) <-
        (if (mask lsr i) land 1 = 1 then B.not_ b declared.(i)
         else declared.(i)))
    ids;
  Netlist.iter net (fun id info ->
      match info.Netlist.kind with
      | Nano_netlist.Gate.Input -> ()
      | Nano_netlist.Gate.Const v -> map.(id) <- B.const b v
      | kind ->
        map.(id) <-
          B.add b kind (Array.to_list (Array.map (fun f -> map.(f)) info.fanins)));
  List.iter (fun (o, id) -> B.output b o map.(id)) (Netlist.outputs net);
  B.finish b

let shuffle st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------------------------------------------------------------- *)
(* cold-analyze                                                      *)
(* ---------------------------------------------------------------- *)

(* Narrow (<= 10 inputs: collapse + Quine-McCluskey) circuits, one per
   cycle, rotating. Structured functions keep the minimizer's cost the
   same for every seed; the seed only renames and re-polarizes them. *)
let narrow_families =
  [|
    ("rca4", fun () -> C.Adders.ripple_carry ~width:4);
    ("mult4", fun () -> C.Multipliers.array_multiplier ~width:4);
    ("cmp5", fun () -> C.Trees.comparator ~width:5);
    ("alu2", fun () -> C.Alu.make ~width:2);
  |]

(* Wide circuits: 11-12 inputs (exact sensitivity) and 13-40 inputs
   (sampled sensitivity). Like the narrow ones, they are structured, so
   the seed changes names, input order and polarity but not the cost:
   every seed gets the same mix of work. The 39 wide slots of a cycle
   are weighted so that the median and the 90th percentile each fall
   inside a block of one family (alu8 around rank 20 of 40, csmult8
   around rank 36) rather than on a gap between two families' costs,
   where a small shift would move the percentile a long way. *)
let wide_slots =
  let f name build n = List.init n (fun _ -> (name, build)) in
  Array.of_list
    (List.concat
       [
         f "mux3" (fun () -> C.Trees.mux_tree ~select_bits:3) 1;
         f "cla8" (fun () -> C.Adders.carry_lookahead ~width:8) 1;
         f "parity24" (fun () -> C.Trees.parity_tree ~inputs:24 ~fanin:2) 1;
         f "cmp6" (fun () -> C.Trees.comparator ~width:6) 1;
         f "rca8" (fun () -> C.Adders.ripple_carry ~width:8) 1;
         f "prio16" (fun () -> C.Datapath.priority_encoder ~width:16) 1;
         f "cmp12" (fun () -> C.Trees.comparator ~width:12) 1;
         f "shift16" (fun () -> C.Datapath.barrel_shifter ~width:16) 3;
         f "cla16" (fun () -> C.Adders.carry_lookahead ~width:16) 3;
         f "alu8" (fun () -> C.Alu.make ~width:8) 13;
         f "csel16" (fun () -> C.Adders.carry_select ~width:16 ~block:4) 3;
         f "prio32" (fun () -> C.Datapath.priority_encoder ~width:32) 3;
         f "mult6" (fun () -> C.Multipliers.array_multiplier ~width:6) 1;
         f "csmult8" (fun () -> C.Multipliers.carry_save_multiplier ~width:8) 5;
         f "mult8" (fun () -> C.Multipliers.array_multiplier ~width:8) 1;
       ])

let cold_cycle = 40

let cold_analyze ~seed =
  let next ~conn i =
    let st = rng ~seed ~conn ~salt:1 i in
    let cycle = i / cold_cycle and pos = i mod cold_cycle in
    let name fam = Printf.sprintf "%s_s%d_c%d_r%d" fam seed conn i in
    let narrow = pos = cold_cycle - 1 in
    let net =
      if narrow then begin
        let fam, build =
          narrow_families.(cycle mod Array.length narrow_families)
        in
        let net = build () in
        let n = Netlist.input_count net in
        relabel ~name:(name fam) ~perm:(shuffle st n)
          ~mask:(Random.State.bits st land ((1 lsl n) - 1))
          net
      end
      else begin
        let fam, build = wide_slots.(pos) in
        let net = build () in
        let n = Netlist.input_count net in
        relabel ~name:(name fam) ~perm:(shuffle st n)
          ~mask:(Random.State.bits st land ((1 lsl min n 30) - 1))
          net
      end
    in
    let tech =
      if narrow then None
      else
        match pos mod 8 with
        | 3 -> Some (Protocol.Tech_named "cmos55")
        | 7 -> Some (Protocol.Tech_named "nanodev")
        | _ -> None
    in
    let epsilons =
      List.init 4 (fun _ -> log_uniform st 1e-4 0.05)
    in
    {
      line =
        line_of
          (Protocol.Analyze
             {
               circuit = Protocol.Blif (Nano_blif.Blif.to_string net);
               delta = 0.01;
               leakage_share0 = 0.5;
               epsilons;
               no_map = false;
               measure = false;
               vectors = 4096;
               tech;
             });
      tag = (if narrow then "narrow" else "wide");
    }
  in
  {
    name = "cold-analyze";
    connections = 1;
    journal = false;
    (* One cycle's worth of wide slots on a separate stream, so the
       daemon's heap has grown before timing starts. *)
    warmup = List.init (cold_cycle - 1) (fun i -> (next ~conn:1 i).line);
    cycle = cold_cycle * Array.length narrow_families;
    next;
  }

(* ---------------------------------------------------------------- *)
(* reliability                                                       *)
(* ---------------------------------------------------------------- *)

let reliability_circuits =
  [| "rca32"; "sec32"; "alu8"; "secded16"; "intctl27"; "datapath32";
     "bcdadd8"; "mult16" |]

let reliability ~seed =
  let per_cycle = 2 * Array.length reliability_circuits in
  let next ~conn i =
    let st = rng ~seed ~conn ~salt:2 i in
    let circuit =
      Protocol.Named
        reliability_circuits.((i / 2) mod Array.length reliability_circuits)
    in
    if i mod 2 = 0 then
      {
        line =
          line_of
            (Protocol.Analyze
               {
                 circuit;
                 delta = 0.01;
                 leakage_share0 = 0.5;
                 epsilons = List.init 6 (fun _ -> log_uniform st 1e-3 0.05);
                 no_map = false;
                 measure = true;
                 vectors = 4096;
                 tech = None;
               });
        tag = "measure";
      }
    else
      {
        line =
          line_of
            (Protocol.Static
               {
                 circuit;
                 epsilon = log_uniform st 1e-3 0.05;
                 input_probability = uniform st 0.1 0.9;
                 cone_budget = Nano_static.Static.default_cone_budget;
                 tech = None;
               });
        tag = "static";
      }
  in
  (* Profile cores are computed before timing starts, so each timed
     analyze pays only for mapping and the Monte-Carlo grid. *)
  let warmup =
    Array.to_list
      (Array.map
         (fun c ->
           line_of (Protocol.Profile { circuit = Protocol.Named c; no_map = false }))
         reliability_circuits)
  in
  { name = "reliability"; connections = 1; journal = false; warmup;
    cycle = per_cycle; next }

(* ---------------------------------------------------------------- *)
(* warm-mix                                                          *)
(* ---------------------------------------------------------------- *)

let hot_set ~seed =
  let st = Random.State.make [| seed; 3 |] in
  let named c = Protocol.Named c in
  let analyze c =
    Protocol.Analyze
      {
        circuit = named c;
        delta = 0.01;
        leakage_share0 = 0.5;
        epsilons = List.init 3 (fun _ -> log_uniform st 1e-4 0.05);
        no_map = false;
        measure = false;
        vectors = 4096;
        tech = None;
      }
  in
  let static c =
    Protocol.Static
      {
        circuit = named c;
        epsilon = log_uniform st 1e-3 0.05;
        input_probability = 0.5;
        cone_budget = Nano_static.Static.default_cone_budget;
        tech = None;
      }
  in
  let lint c =
    Protocol.Lint { circuit = named c; max_fanin = 3; epsilon = 0.01; delta = 0.01 }
  in
  let profile c = Protocol.Profile { circuit = named c; no_map = false } in
  let bounds =
    Protocol.Bounds
      {
        Metrics.epsilon = log_uniform st 1e-4 0.01;
        delta = 0.01;
        fanin = 3;
        sensitivity = 16;
        error_free_size = 960;
        inputs = 32;
        sw0 = 0.3;
        leakage_share0 = 0.5;
      }
  in
  [|
    ("analyze", "mult16", analyze "mult16");
    ("analyze", "datapath32", analyze "datapath32");
    ("profile", "mult16", profile "mult16");
    ("profile", "datapath32", profile "datapath32");
    ("static", "mult16", static "mult16");
    ("static", "datapath32", static "datapath32");
    ("lint", "mult16", lint "mult16");
    ("lint", "datapath32", lint "datapath32");
    ("bounds", "-", bounds);
    ("analyze", "rca32", analyze "rca32");
    ("static", "alu8", static "alu8");
    ("lint", "sec32", lint "sec32");
  |]
  |> Array.map (fun (kind, circuit, r) ->
         { line = line_of r; tag = Printf.sprintf "hot:%s:%s" kind circuit })

(* A fresh, valid bounds scenario: a cache write. The size field
   carries the request's position, so no two are equal. *)
let fresh_bounds ~seed ~conn i =
  let st = rng ~seed ~conn ~salt:4 i in
  let rec draw () =
    let s =
      {
        Metrics.epsilon = log_uniform st 1e-4 0.02;
        delta = log_uniform st 1e-3 0.1;
        fanin = 2 + Random.State.int st 2;
        sensitivity = 1 + Random.State.int st 32;
        error_free_size = 16 + (2 * i) + conn;
        inputs = 2 + Random.State.int st 63;
        sw0 = uniform st 0.05 0.5;
        leakage_share0 = uniform st 0. 0.8;
      }
    in
    if Metrics.scenario_valid s then s else draw ()
  in
  { line = line_of (Protocol.Bounds (draw ())); tag = "fresh" }

let warm_mix ~seed =
  let hot = hot_set ~seed in
  let h = Array.length hot in
  let next ~conn i =
    if i mod 5 = 4 then fresh_bounds ~seed ~conn i
    else hot.((i - (i / 5) + (conn * h / 2)) mod h)
  in
  {
    name = "warm-mix";
    connections = 2;
    journal = true;
    warmup = Array.to_list (Array.map (fun r -> r.line) hot);
    cycle = h * 5 / 4;
    next;
  }

let find name ~seed =
  match name with
  | "cold-analyze" -> Some (cold_analyze ~seed)
  | "reliability" -> Some (reliability ~seed)
  | "warm-mix" -> Some (warm_mix ~seed)
  | _ -> None
