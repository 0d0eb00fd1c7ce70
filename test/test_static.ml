module Static = Nano_static.Static
module Reliability = Nano_faults.Reliability
module Noisy_sim = Nano_faults.Noisy_sim
module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder

(* Agresti–Coull half-width around an empirical error count, the same
   adjusted form the adaptive simulator freezes on. The deterministic
   fixed-seed tests use the 95% quantile; the QCheck properties draw
   fresh random seeds every run and perform ~100 containment checks, so
   they widen to z = 5 (~3e-7 one-sided) to keep the expected
   false-alarm count over the suite's lifetime negligible — a genuine
   soundness bug overshoots by far more than the interval width. *)
let ac_half_width ?(z = 1.96) ~vectors ~errors () =
  let n = float_of_int vectors in
  let pt = (float_of_int errors +. 2.) /. (n +. 4.) in
  z *. sqrt (pt *. (1. -. pt) /. n)

let check_contains ?z msg iv ~vectors estimate =
  let errors = int_of_float (Float.round (estimate *. float_of_int vectors)) in
  let slack = ac_half_width ?z ~vectors ~errors () in
  if not (Static.contains iv ~slack estimate) then
    Alcotest.failf "%s: MC %.6g outside [%.6g, %.6g] (+/- %.2g)" msg estimate
      iv.Static.lo iv.Static.hi slack

let inverter () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "o" (B.not_ b x);
  B.finish b

(* ------------------------------------------------------------------ *)
(* Exactness on trees: every interval must be a point and agree with   *)
(* the joint-pair reference (and its closed forms).                    *)
(* ------------------------------------------------------------------ *)

let test_single_gate_point () =
  let t = Static.analyze ~epsilon:0.05 (inverter ()) in
  let iv = List.assoc "o" t.Static.per_output_error in
  Alcotest.(check bool) "point" true (Static.is_point iv);
  Helpers.check_float "delta = eps" 0.05 iv.Static.lo

let test_parity_tree_exact () =
  let netlist = Nano_circuits.Trees.parity_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.02 in
  let t = Static.analyze ~epsilon netlist in
  let iv = List.assoc "parity" t.Static.per_output_error in
  Alcotest.(check bool) "point interval" true (Static.is_point iv);
  let gates = Netlist.size netlist in
  let expected =
    0.5 *. (1. -. ((1. -. (2. *. epsilon)) ** float_of_int gates))
  in
  Helpers.check_loose "closed form" expected iv.Static.lo;
  (* Exact everywhere: trees keep the whole pair propagation alive. *)
  Alcotest.(check int) "all nodes exact" (Netlist.node_count netlist)
    t.Static.exact_nodes

let test_tree_matches_reference () =
  let netlist = Nano_circuits.Trees.and_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.03 in
  let t = Static.analyze ~epsilon netlist in
  let r = Reliability.analyze ~epsilon netlist in
  List.iter2
    (fun (name, iv) (name', e) ->
      Alcotest.(check string) "output order" name name';
      Alcotest.(check bool) "point" true (Static.is_point iv);
      Helpers.check_loose ("exact " ^ name) e iv.Static.lo)
    t.Static.per_output_error r.Reliability.per_output_error

let test_tree_point_matches_mc () =
  let netlist = Nano_circuits.Trees.and_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.03 in
  let vectors = 65536 in
  let t = Static.analyze ~epsilon netlist in
  let mc = Noisy_sim.simulate ~vectors ~epsilon netlist in
  List.iter
    (fun (name, iv) ->
      check_contains ("tree point vs MC " ^ name) iv ~vectors
        (List.assoc name mc.Noisy_sim.per_output_error))
    t.Static.per_output_error

(* ------------------------------------------------------------------ *)
(* Signal probabilities: exact BDD path against the exact activity     *)
(* estimator on reconvergent circuits.                                 *)
(* ------------------------------------------------------------------ *)

let test_probability_matches_exact_bdd () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0. netlist in
  let exact = Nano_sim.Activity.exact netlist in
  Array.iteri
    (fun id p ->
      let iv = t.Static.nodes.(id).Static.probability in
      if not (Static.contains iv ~slack:1e-9 p) then
        Alcotest.failf "node %d: exact prob %.6g outside [%.6g, %.6g]" id p
          iv.Static.lo iv.Static.hi)
    exact.Nano_sim.Activity.node_probability;
  (* Small circuit: every probability should have come from a BDD. *)
  Alcotest.(check int) "all probabilities exact"
    (Netlist.node_count netlist) t.Static.bdd_nodes

let test_zero_epsilon_zero_error () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0. netlist in
  List.iter
    (fun (name, iv) ->
      Helpers.check_float ("no error lo " ^ name) 0. iv.Static.lo;
      Helpers.check_float ("no error hi " ^ name) 0. iv.Static.hi)
    t.Static.per_output_error

(* ------------------------------------------------------------------ *)
(* Containment: the sound interval must cover the Monte-Carlo point    *)
(* (within its confidence half-width) on arbitrary reconvergent        *)
(* circuits, at several epsilons, job counts and block widths.         *)
(* ------------------------------------------------------------------ *)

let containment_property =
  QCheck2.Test.make ~count:25
    ~name:"static interval contains profile-grid MC estimate"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let netlist =
        Helpers.random_netlist ~seed ~inputs:4 ~gates:(10 + (seed mod 15)) ()
      in
      let epsilon = [| 0.001; 0.01; 0.05 |].(seed mod 3) in
      let jobs = 1 + (seed mod 3) in
      let block = [| 1; 4; 8 |].(seed mod 3) in
      let vectors = 4096 in
      let t = Static.analyze ~epsilon netlist in
      let results =
        Noisy_sim.profile_grid ~vectors ~jobs ~block ~epsilons:[| epsilon |]
          netlist
      in
      List.iter
        (fun (name, iv) ->
          check_contains ~z:5.
            (Printf.sprintf "seed %d output %s" seed name)
            iv ~vectors
            (List.assoc name results.(0).Noisy_sim.per_output_error))
        t.Static.per_output_error;
      check_contains ~z:5.
        (Printf.sprintf "seed %d any-output" seed)
        t.Static.any_output_error ~vectors
        results.(0).Noisy_sim.any_output_error;
      true)

let heterogeneous_containment_property =
  QCheck2.Test.make ~count:10
    ~name:"static heterogeneous interval contains MC estimate"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let netlist = Helpers.random_netlist ~seed ~inputs:4 ~gates:15 () in
      let epsilon_of id = if id mod 2 = 0 then 0.002 else 0.03 in
      let vectors = 4096 in
      let t = Static.analyze ~epsilon_of ~epsilon:0.01 netlist in
      let mc =
        Noisy_sim.simulate_heterogeneous ~vectors ~epsilon_of netlist
      in
      List.iter
        (fun (name, iv) ->
          check_contains ~z:5.
            (Printf.sprintf "seed %d output %s" seed name)
            iv ~vectors
            (List.assoc name mc.Noisy_sim.per_output_error))
        t.Static.per_output_error;
      true)

let test_activity_contains_mc () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let epsilon = 0.01 in
  let t = Static.analyze ~epsilon netlist in
  let mc = Noisy_sim.simulate ~vectors:65536 ~epsilon netlist in
  (* Sampling slack only: the activity interval is not a confidence
     interval, so allow the MC mean a small tolerance. *)
  if
    not
      (Static.contains t.Static.average_gate_activity ~slack:0.02
         mc.Noisy_sim.average_gate_activity)
  then
    Alcotest.failf "avg activity %.6g outside [%.6g, %.6g]"
      mc.Noisy_sim.average_gate_activity t.Static.average_gate_activity.Static.lo
      t.Static.average_gate_activity.Static.hi

(* The suite circuits at one pinned draw (seed 0x5eed, 4096 vectors,
   eps = 1%). Soundness: every per-output interval, widened by a z = 3
   Agresti–Coull half-width (margin against this one fixed draw, not
   repeated sampling), contains the MC estimate, and parity16's exact
   points sit within one half-width of it. Tightness: the mean output
   width and the count of vacuous outputs may not grow past the values
   recorded here, so a tighter analyzer passes and a looser one fails. *)
let test_suite_containment_and_tightness () =
  let epsilon = 0.01 and vectors = 4096 and seed = 0x5eed in
  let half_width ?(z = 3.) estimate =
    let errors = int_of_float (Float.round (estimate *. float_of_int vectors)) in
    ac_half_width ~z ~vectors ~errors ()
  in
  let mean f l =
    List.fold_left (fun acc x -> acc +. f x) 0. l /. float_of_int (List.length l)
  in
  List.iter
    (fun (name, recorded_width, recorded_vacuous) ->
      let netlist =
        (Option.get (Nano_circuits.Suite.find name)).Nano_circuits.Suite.build ()
      in
      let t = Static.analyze ~epsilon netlist in
      let mc = Noisy_sim.simulate ~seed ~vectors ~epsilon netlist in
      List.iter2
        (fun (o, iv) (o', measured) ->
          Alcotest.(check string) "output order" o o';
          check_contains ~z:3. (name ^ " " ^ o) iv ~vectors measured;
          if name = "parity16" then begin
            Alcotest.(check bool) (o ^ " is a point") true (Static.is_point iv);
            Helpers.check_in_range (o ^ " point within one half-width")
              ~lo:(measured -. half_width measured)
              ~hi:(measured +. half_width measured) iv.Static.lo
          end)
        t.Static.per_output_error mc.Noisy_sim.per_output_error;
      let width = mean (fun (_, iv) -> Static.width iv) t.Static.per_output_error in
      let vacuous =
        List.length
          (List.filter (fun (_, iv) -> Static.vacuous iv) t.Static.per_output_error)
      in
      Printf.printf
        "%-9s static width %.4f (recorded %.4f)  vacuous %d (recorded %d)  \
         MC 95%% CI width %.4f\n"
        name width recorded_width vacuous recorded_vacuous
        (mean (fun (_, e) -> 2. *. half_width ~z:1.96 e)
           mc.Noisy_sim.per_output_error);
      Helpers.check_in_range (name ^ " mean width") ~lo:0.
        ~hi:(recorded_width +. 1e-3) width;
      Alcotest.(check bool)
        (Printf.sprintf "%s vacuous %d <= %d" name vacuous recorded_vacuous)
        true (vacuous <= recorded_vacuous))
    [
      ("c17", 0.0340, 0);
      ("rca8", 0.0452, 0);
      ("parity16", 0., 0);
      ("intctl27", 0.5717, 5);
      ("alu8", 0.8899, 10);
      ("mult16", 0.8545, 28);
    ]

(* The reply echoes the epsilon it was given, not a float-summed mean
   that drifts in the last bits; with [epsilon_of] it stays the mean. *)
let test_reported_epsilon () =
  List.iter
    (fun name ->
      let netlist =
        (Option.get (Nano_circuits.Suite.find name)).Nano_circuits.Suite.build ()
      in
      Alcotest.(check (float 0.)) (name ^ " epsilon") 0.01
        (Static.analyze ~epsilon:0.01 netlist).Static.epsilon)
    [ "alu8"; "mult16" ];
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let epsilon_of id = if id mod 2 = 0 then 0.0 else 0.04 in
  let gates = ref [] in
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Nano_netlist.Gate.Input | Nano_netlist.Gate.Const _
      | Nano_netlist.Gate.Buf -> ()
      | _ -> gates := epsilon_of id :: !gates);
  Helpers.check_float "heterogeneous mean"
    (List.fold_left ( +. ) 0. !gates /. float_of_int (List.length !gates))
    (Static.analyze ~epsilon_of ~epsilon:0.01 netlist).Static.epsilon

(* ------------------------------------------------------------------ *)
(* Criticality ranking and diagnostics.                                *)
(* ------------------------------------------------------------------ *)

let test_ranking_logic_gates_only () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0.01 netlist in
  let ranked = Static.ranked_gates t netlist in
  Alcotest.(check int) "one entry per logic gate" (Netlist.size netlist)
    (List.length ranked);
  List.iter
    (fun id ->
      match Netlist.kind netlist id with
      | Nano_netlist.Gate.Input | Nano_netlist.Gate.Const _
      | Nano_netlist.Gate.Buf ->
        Alcotest.failf "non-logic node %d in ranking" id
      | _ -> ())
    ranked;
  (* Deterministic: same analysis, same order. *)
  let t' = Static.analyze ~epsilon:0.01 netlist in
  Alcotest.(check (list int)) "stable order" ranked
    (Static.ranked_gates t' netlist)

let test_criticality_monotone_depth () =
  (* In a linear inverter chain, gates closer to the output carry
     (weakly) higher first-order criticality. *)
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.not_ b x in
  let n2 = B.not_ b n1 in
  let n3 = B.not_ b n2 in
  B.output b "o" n3;
  let netlist = B.finish b in
  let t = Static.analyze ~epsilon:0.1 netlist in
  let c id = t.Static.nodes.(id).Static.criticality in
  Helpers.check_in_range "deepest gate most critical" ~lo:(c n1) ~hi:infinity
    (c n3);
  Helpers.check_in_range "middle above head" ~lo:(c n1) ~hi:(c n3) (c n2)

let test_vacuous_diagnostics () =
  (* A long chain at a brutal epsilon must collapse to [_, >= 1/2] and
     say so deterministically. *)
  let b = B.create () in
  let x = B.input b "x" in
  let node = ref x in
  for _ = 1 to 64 do
    node := B.not_ b !node
  done;
  B.output b "o" !node;
  let netlist = B.finish b in
  let t = Static.analyze ~epsilon:0.45 netlist in
  let iv = List.assoc "o" t.Static.per_output_error in
  Alcotest.(check bool) "vacuous" true (Static.vacuous iv);
  let diags = Static.diagnostics t netlist in
  Alcotest.(check bool) "has diagnostics" true (diags <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "pass" "static" d.Nano_lint.Diagnostic.pass)
    diags;
  (* And a benign operating point reports nothing. *)
  let quiet = Static.analyze ~epsilon:0.0001 (inverter ()) in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Static.diagnostics quiet (inverter ())))

let test_invalid_arguments () =
  Helpers.check_invalid "epsilon > 1/2" (fun () ->
      Static.analyze ~epsilon:0.6 (inverter ()));
  Helpers.check_invalid "negative epsilon" (fun () ->
      Static.analyze ~epsilon:(-0.1) (inverter ()));
  Helpers.check_invalid "bad epsilon_of" (fun () ->
      Static.analyze ~epsilon_of:(fun _ -> 0.7) ~epsilon:0.1 (inverter ()))

let test_json_deterministic () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0.01 netlist in
  let a = Nano_util.Json.to_string (Static.to_json t netlist) in
  let b = Nano_util.Json.to_string (Static.to_json t netlist) in
  Alcotest.(check string) "byte-identical" a b

let suite =
  [
    Alcotest.test_case "single gate point" `Quick test_single_gate_point;
    Alcotest.test_case "parity tree exact" `Quick test_parity_tree_exact;
    Alcotest.test_case "tree matches reference" `Quick
      test_tree_matches_reference;
    Alcotest.test_case "tree point matches MC" `Slow test_tree_point_matches_mc;
    Alcotest.test_case "probabilities match exact BDD" `Quick
      test_probability_matches_exact_bdd;
    Alcotest.test_case "zero epsilon, zero error" `Quick
      test_zero_epsilon_zero_error;
    Helpers.qcheck containment_property;
    Helpers.qcheck heterogeneous_containment_property;
    Alcotest.test_case "activity contains MC" `Slow test_activity_contains_mc;
    Alcotest.test_case "suite containment and tightness" `Quick
      test_suite_containment_and_tightness;
    Alcotest.test_case "reported epsilon" `Quick test_reported_epsilon;
    Alcotest.test_case "ranking is logic gates only" `Quick
      test_ranking_logic_gates_only;
    Alcotest.test_case "criticality monotone in depth" `Quick
      test_criticality_monotone_depth;
    Alcotest.test_case "vacuous diagnostics" `Quick test_vacuous_diagnostics;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
    Alcotest.test_case "json deterministic" `Quick test_json_deterministic;
  ]
