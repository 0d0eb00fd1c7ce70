(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Figures 2-8, the headline claim) plus the ablations listed in
   DESIGN.md, then speed-profiles each figure driver with Bechamel.

   Run with: dune exec bench/main.exe [-- --jobs N] [-- --scaling-only]

   --jobs N sets the domain count used by the parallel figure drivers
   and the Monte-Carlo scaling table (default: all recommended cores).
   Results are bit-identical for every N — only wall-clock changes.
   --scaling-only skips the figures and Bechamel and prints just the
   domain-scaling table (for CI smoke runs). --engines-only prints just
   the kernel table — the interpretive reference vs the blocked
   wide-word kernel across input densities, with bit-identity and
   jobs-identity checks — and records it to BENCH_pr2.json;
   [--block-width N] overrides the blocked kernel's words-per-gate-visit
   width for that run. --grids-only prints the batched epsilon-grid vs per-point sweep
   table and the heterogeneous voter sweep (fused per-gate grid vs
   per-config passes) and records them to BENCH_pr4.json;
   [--block-width N] applies to the heterogeneous sweep. --load-only
   runs the TCP service load generator ([--clients N] concurrent
   connections, [--requests M] closed-loop requests each) against a
   forked daemon, prints p50/p99 latency and throughput, and records
   them to BENCH_pr6.json. It forks the server, so it runs before
   anything spawns a domain. --tech-only prints just the
   technology-pack absolute-energy report table (both built-in packs
   over the mapped suite circuits) plus the service analyze-with-tech
   cold-vs-warm cache identity, and records them to BENCH_pr8.json.
   --static-only prints the static-bounds-vs-Monte-Carlo soundness and
   latency table (per-output interval containment, >= 100x speedup
   over a cold 4096-vector simulation) and records it to
   BENCH_pr10.json. *)

module Figures = Nano_bounds.Figures
module Par = Nano_util.Par
module Metrics = Nano_bounds.Metrics
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Report = Nano_report.Report

(* Minimal flag parsing: [--jobs N] and [--scaling-only]. *)
let jobs =
  let rec find = function
    | "--jobs" :: n :: _ -> int_of_string n
    | _ :: rest -> find rest
    | [] -> Par.default_jobs ()
  in
  find (Array.to_list Sys.argv)

let scaling_only = Array.exists (( = ) "--scaling-only") Sys.argv

let engines_only = Array.exists (( = ) "--engines-only") Sys.argv

let grids_only = Array.exists (( = ) "--grids-only") Sys.argv

let load_only = Array.exists (( = ) "--load-only") Sys.argv

let tech_only = Array.exists (( = ) "--tech-only") Sys.argv

let static_only = Array.exists (( = ) "--static-only") Sys.argv

let int_flag name default =
  let rec find = function
    | flag :: n :: _ when flag = name ->
      (match int_of_string_opt n with Some v when v > 0 -> v | _ -> default)
    | _ :: rest -> find rest
    | [] -> default
  in
  find (Array.to_list Sys.argv)

let load_clients = int_flag "--clients" 1000

let load_requests = int_flag "--requests" 20

(* Absent means "use the engine default" (NANOBOUND_BLOCK_WIDTH or 8). *)
let bench_block =
  match int_flag "--block-width" 0 with 0 -> None | b -> Some b

let print_series ~title ~x_label ~y_label series =
  let data =
    List.map (fun s -> (s.Figures.label, s.Figures.points)) series
  in
  print_string (Report.Series.render ~title ~x_label ~y_label data);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Suite profiles (computed once through the full synthesis/simulation  *)
(* pipeline, exactly as Section 6 prescribes).                          *)
(* ------------------------------------------------------------------ *)

let suite_profiles =
  lazy
    (List.map
       (fun entry ->
         let circuit = entry.Nano_circuits.Suite.build () in
         let mapped = Nano_synth.Script.rugged_lite ~max_fanin:3 circuit in
         let profile = Profile.of_netlist mapped in
         (* Report under the suite name rather than the generator name. *)
         { profile with Profile.name = entry.Nano_circuits.Suite.name })
       Nano_circuits.Suite.all)

let num = Report.Table.number

let opt_num = function Some v -> num v | None -> "infeasible"

(* ------------------------------------------------------------------ *)
(* Figures 2-6: analytical curves.                                      *)
(* ------------------------------------------------------------------ *)

let fig2 () = Figures.fig2_activity_map ~jobs ()
let fig3 () = Figures.fig3_redundancy ~jobs ()
let fig4 () = Figures.fig4_leakage ~jobs ()
let fig5 () = Figures.fig5_delay_and_edp ~jobs ()
let fig6 () = Figures.fig6_average_power ~jobs ()

(* ------------------------------------------------------------------ *)
(* Figures 7-8: per-benchmark bounds.                                   *)
(* ------------------------------------------------------------------ *)

let fig7_rows profiles = Benchmark_eval.evaluate_suite ~jobs profiles

let print_fig7 profiles =
  let rows = fig7_rows profiles in
  let table_rows =
    List.map
      (fun r ->
        [
          r.Benchmark_eval.benchmark;
          num r.Benchmark_eval.epsilon;
          num r.Benchmark_eval.energy_ratio;
          opt_num r.Benchmark_eval.delay_ratio;
          num r.Benchmark_eval.size_ratio;
        ])
      rows
  in
  print_string "== Figure 7: normalized energy and delay lower bounds ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps"; "energy/E0"; "delay/D0"; "size/S0" ]
       ~rows:table_rows)

let print_fig8 profiles =
  let rows = fig7_rows profiles in
  let table_rows =
    List.map
      (fun r ->
        [
          r.Benchmark_eval.benchmark;
          num r.Benchmark_eval.epsilon;
          opt_num r.Benchmark_eval.average_power_ratio;
          opt_num r.Benchmark_eval.energy_delay_ratio;
        ])
      rows
  in
  print_string
    "== Figure 8: normalized average power and energy-delay lower bounds ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps"; "power/P0"; "EDP/EDP0" ]
       ~rows:table_rows)

let print_headline profiles =
  let verdict = Nano_bounds.Headline.check profiles in
  print_string "== Headline claim (abstract / Section 6) ==\n";
  Printf.printf
    "eps = %.2f, delta = %.2f (99%% resilience): energy overhead min %.1f%% \
     mean %.1f%% max %.1f%% -> claim ('at least 40%% more energy in some \
     cases') %s\n"
    verdict.Nano_bounds.Headline.epsilon verdict.Nano_bounds.Headline.delta
    (100. *. verdict.Nano_bounds.Headline.min_overhead)
    (100. *. verdict.Nano_bounds.Headline.mean_overhead)
    (100. *. verdict.Nano_bounds.Headline.max_overhead)
    (if verdict.Nano_bounds.Headline.holds then "HOLDS" else "FAILS");
  List.iter
    (fun (name, overhead) ->
      Printf.printf "  %-12s +%.1f%%\n" name (100. *. overhead))
    verdict.Nano_bounds.Headline.per_benchmark;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)
(* ------------------------------------------------------------------ *)

let print_ablation_omega () =
  print_series ~title:"Ablation A: omega model (Theorem 2)" ~x_label:"eps"
    ~y_label:"redundancy factor"
    (Figures.ablation_omega_models ())

let print_ablation_constructions () =
  (* Compare the lower bound against what NMR actually achieves on an
     8-bit ripple-carry adder at eps = 0.01. *)
  let epsilon = 0.01 in
  let base =
    Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
  in
  let base_profile = Profile.of_netlist base in
  let base_sim = Nano_faults.Noisy_sim.simulate ~vectors:16384 ~epsilon base in
  let rows =
    List.map
      (fun n ->
        let voted = Nano_redundancy.Nmr.make ~n base in
        let sim =
          Nano_faults.Noisy_sim.simulate ~vectors:16384 ~epsilon voted
        in
        let delta_hat = sim.Nano_faults.Noisy_sim.any_output_error in
        let construction_ratio =
          float_of_int (Nano_netlist.Netlist.size voted)
          /. float_of_int (Nano_netlist.Netlist.size base)
        in
        let bound_ratio =
          if delta_hat >= 0.5 then Float.nan
          else
            Nano_bounds.Redundancy_bound.redundancy_factor
              {
                Nano_bounds.Redundancy_bound.epsilon;
                delta = Float.max 1e-6 delta_hat;
                fanin = 2;
                sensitivity = base_profile.Profile.sensitivity;
              }
              ~error_free_size:base_profile.Profile.size
        in
        [
          Printf.sprintf "NMR-%d" n;
          num construction_ratio;
          num delta_hat;
          num bound_ratio;
        ])
      [ 3; 5; 7; 9 ]
  in
  print_string
    "== Ablation B: lower bound vs NMR construction (rca8, eps=0.01) ==\n";
  Printf.printf "unprotected delta_hat = %s\n"
    (num base_sim.Nano_faults.Noisy_sim.any_output_error);
  print_string
    (Report.Table.render
       ~header:
         [ "construction"; "size ratio"; "measured delta"; "bound size ratio" ]
       ~rows);
  (* Von Neumann multiplexing restoration level. *)
  let eps_list = [ 0.001; 0.01; 0.05 ] in
  let mux_rows =
    List.map
      (fun epsilon ->
        let fp = Nano_redundancy.Multiplexing.stimulated_fixed_point ~epsilon in
        let measured =
          Nano_redundancy.Multiplexing.measured_output_level ~trials:64
            ~epsilon ~bundle:33 ~restorative_stages:2 ~x_level:0.95
            ~y_level:0.05 ()
        in
        [
          num epsilon;
          num fp;
          num measured.Nano_util.Stats.mean;
          num measured.Nano_util.Stats.stddev;
        ])
      eps_list
  in
  print_string
    "== Ablation B': NAND multiplexing stimulated level (N=33, U=2, NAND of \
     x=0.95/y=0.05 bundles) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "eps"; "analytic fixed point"; "measured mean"; "sd" ]
       ~rows:mux_rows)

let print_ablation_activity () =
  (* Does the activity estimator change Corollary 2's bound? Compare
     Monte-Carlo and exact-BDD sw0 on the small benchmarks. *)
  let entries = [ "c17"; "mult4"; "rca8"; "parity16" ] in
  let rows =
    List.filter_map
      (fun name ->
        match Nano_circuits.Suite.find name with
        | None -> None
        | Some entry ->
          let mapped =
            Nano_synth.Script.rugged_lite (entry.Nano_circuits.Suite.build ())
          in
          let mc = Profile.of_netlist mapped in
          let ex = Profile.of_netlist ~activity:Profile.Exact_bdd mapped in
          let energy p =
            (Benchmark_eval.evaluate_profile p ~epsilon:0.01)
              .Benchmark_eval.energy_ratio
          in
          Some
            [
              name;
              num mc.Profile.sw0;
              num ex.Profile.sw0;
              num (energy mc);
              num (energy ex);
            ])
      entries
  in
  print_string
    "== Ablation C: activity estimator (Monte-Carlo vs exact BDD) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "benchmark"; "sw0 (MC)"; "sw0 (BDD)"; "E-bound (MC)"; "E-bound (BDD)";
         ]
       ~rows)

let print_substitution_check profiles =
  (* How close do the generated substitutes sit to the published
     ISCAS'85 shapes? The bounds consume scalars, so interface and size
     brackets are what matters (DESIGN.md section 2). *)
  let rows =
    List.filter_map
      (fun entry ->
        match entry.Nano_circuits.Suite.iscas_counterpart with
        | None -> None
        | Some counterpart ->
          Option.bind (Nano_circuits.Iscas_profiles.find counterpart)
            (fun published ->
              let profile =
                List.find_opt
                  (fun p -> p.Profile.name = entry.Nano_circuits.Suite.name)
                  profiles
              in
              Option.map
                (fun p ->
                  [
                    entry.Nano_circuits.Suite.name;
                    counterpart;
                    Printf.sprintf "%d/%d" p.Profile.inputs
                      published.Nano_circuits.Iscas_profiles.inputs;
                    Printf.sprintf "%d/%d" p.Profile.outputs
                      published.Nano_circuits.Iscas_profiles.outputs;
                    Printf.sprintf "%d/%d" p.Profile.size
                      published.Nano_circuits.Iscas_profiles.gates;
                    Printf.sprintf "%d/%d" p.Profile.depth
                      published.Nano_circuits.Iscas_profiles.depth;
                  ])
                profile))
      Nano_circuits.Suite.all
  in
  print_string
    "== Substitution check: generated vs published ISCAS'85 shapes \
     (ours/published) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "substitute"; "for"; "inputs"; "outputs"; "gates"; "depth" ]
       ~rows)

let print_voltage_tradeoff () =
  (* Section 5.2's compensation discussion, quantified. *)
  let tech = Nano_energy.Technology.nm90 in
  let rows =
    List.filter_map
      (fun epsilon ->
        let s = { Figures.parity10 with Metrics.epsilon } in
        match
          ( Nano_bounds.Voltage_tradeoff.iso_energy ~tech s,
            Nano_bounds.Voltage_tradeoff.iso_delay ~tech s )
        with
        | Some iso_e, Some iso_d ->
          let nominal = Nano_bounds.Voltage_tradeoff.nominal ~tech s in
          Some
            [
              num epsilon;
              num nominal.Nano_bounds.Voltage_tradeoff.energy_ratio;
              num nominal.Nano_bounds.Voltage_tradeoff.delay_ratio;
              num iso_e.Nano_bounds.Voltage_tradeoff.vdd;
              num iso_e.Nano_bounds.Voltage_tradeoff.delay_ratio;
              num iso_d.Nano_bounds.Voltage_tradeoff.vdd;
              num iso_d.Nano_bounds.Voltage_tradeoff.energy_ratio;
            ]
        | _ -> None)
      [ 0.001; 0.01; 0.05; 0.1 ]
  in
  print_string
    "== Extension: Vdd compensation (Section 5.2 discussion, parity-10, \
     switching-dominated) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "eps"; "E nom"; "D nom"; "Vdd isoE"; "D @isoE"; "Vdd isoD";
           "E @isoD";
         ]
       ~rows)

let print_crossovers profiles =
  let rows =
    List.map
      (fun p ->
        let scenario =
          Profile.to_scenario p ~epsilon:0.01 ~delta:0.01 ~leakage_share0:0.5
        in
        let cross =
          match Nano_bounds.Crossover.power_crossover scenario with
          | Some e -> num e
          | None -> "-"
        in
        let budget14 =
          match
            Nano_bounds.Crossover.max_epsilon_for_energy_budget ~budget:1.4
              scenario
          with
          | Some e -> num e
          | None -> "-"
        in
        [ p.Profile.name; cross; budget14 ])
      profiles
  in
  print_string
    "== Extension: crossover analysis (power parity; 40% energy budget) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps @ P=P0"; "max eps @ E<=1.4E0" ]
       ~rows)

let print_hardening () =
  (* Criticality-guided selective hardening, with von Neumann's caveat
     (equal-epsilon voters are useless) made explicit. *)
  let n = Nano_circuits.Trees.and_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.02 in
  let unprotected =
    (Nano_faults.Noisy_sim.simulate ~vectors:262144 ~epsilon n)
      .Nano_faults.Noisy_sim.any_output_error
  in
  let r = Nano_faults.Criticality.analyze ~vectors:4096 n in
  let ranked = Nano_faults.Criticality.ranked_gates n r in
  let k = 5 in
  let top = List.filteri (fun i _ -> i < k) ranked in
  let bottom = List.filteri (fun i _ -> i >= List.length ranked - k) ranked in
  let measure ~voter_scale gates =
    let hardened = Nano_redundancy.Selective.harden n ~gates in
    let epsilon_of =
      Nano_redundancy.Selective.voter_epsilon_of hardened
        ~gate_epsilon:epsilon ~voter_epsilon:(epsilon /. voter_scale)
    in
    ( (Nano_faults.Noisy_sim.simulate_heterogeneous ~vectors:262144
         ~epsilon_of hardened.Nano_redundancy.Selective.netlist)
        .Nano_faults.Noisy_sim.any_output_error,
      Nano_redundancy.Selective.size_overhead ~original:n ~hardened )
  in
  let d_top_eq, _ = measure ~voter_scale:1. top in
  let d_top, oh_top = measure ~voter_scale:10. top in
  let d_bottom, oh_bottom = measure ~voter_scale:10. bottom in
  print_string
    "== Extension: criticality-guided hardening (and-tree-16, eps=0.02) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "configuration"; "delta"; "size ratio" ]
       ~rows:
         [
           [ "unprotected"; num unprotected; "1" ];
           [ "top-5 gates, equal-eps voters"; num d_top_eq; num oh_top ];
           [ "top-5 gates, 10x-robust voters"; num d_top; num oh_top ];
           [ "bottom-5 gates, 10x-robust voters"; num d_bottom; num oh_bottom ];
         ]);
  (* analytic reliability cross-check *)
  let analytic = Nano_faults.Reliability.analyze ~epsilon n in
  Printf.printf
    "analytic (pair-propagation) delta of the unprotected tree: %s\n"
    (num (List.assoc "y" analytic.Nano_faults.Reliability.per_output_error))

let print_sequential () =
  let machines =
    [
      ("counter8", Nano_seq.Seq_circuits.counter ~bits:8);
      ("accum16", Nano_seq.Seq_circuits.accumulator ~width:16);
      ("lfsr16", Nano_seq.Seq_circuits.lfsr ~bits:16 ~taps:[ 15; 13; 12; 10 ]);
      (* shift registers are pure wiring (zero logic gates), so the
         per-cycle combinational bound is vacuous for them — a 16-bit
         counter stands in as the low-activity machine instead. *)
      ("counter16", Nano_seq.Seq_circuits.counter ~bits:16);
    ]
  in
  let rows =
    List.map
      (fun (name, m) ->
        let temporal =
          Nano_seq.Seq_netlist.average_gate_temporal_activity ~cycles:2048 m
        in
        let independent =
          (Nano_sim.Activity.monte_carlo ~vectors:2048
             (Nano_seq.Seq_netlist.core m))
            .Nano_sim.Activity.average_gate_activity
        in
        let profile = Nano_seq.Seq_netlist.profile ~cycles:2048 m in
        let bound =
          (Benchmark_eval.evaluate_profile profile ~epsilon:0.01)
            .Benchmark_eval.energy_ratio
        in
        [ name; num temporal; num independent; num bound ])
      machines
  in
  print_string
    "== Extension: sequential machines (future work of the paper) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [ "machine"; "sw (temporal)"; "sw (indep. model)"; "E/E0 @ eps=1%" ]
       ~rows)

let print_minimizer_ablation () =
  (* Exact Quine-McCluskey vs the Espresso-style heuristic on the
     collapsed outputs of the narrow suite circuits. *)
  let rows =
    List.filter_map
      (fun name ->
        Option.bind (Nano_circuits.Suite.find name) (fun entry ->
            let circuit =
              Nano_synth.Strash.run (entry.Nano_circuits.Suite.build ())
            in
            Option.map
              (fun tables ->
                let total f =
                  List.fold_left
                    (fun (c, l) (_, tt) ->
                      let cover = f tt in
                      let cubes, lits =
                        Nano_synth.Quine_mccluskey.cover_cost cover
                      in
                      (c + cubes, l + lits))
                    (0, 0) tables
                in
                let qc, ql = total Nano_synth.Quine_mccluskey.minimize_table in
                let ec, el = total Nano_synth.Espresso_lite.minimize_table in
                [
                  name;
                  Printf.sprintf "%d/%d" qc ql;
                  Printf.sprintf "%d/%d" ec el;
                ])
              (Nano_synth.Collapse.to_truth_tables ~max_inputs:10 circuit)))
      [ "c17"; "mult4" ]
  in
  print_string
    "== Ablation: exact (QM) vs heuristic (Espresso-lite) two-level \
     minimization (cubes/literals) ==\n";
  print_string
    (Report.Table.render ~header:[ "benchmark"; "QM"; "espresso" ] ~rows)

let print_glitch () =
  (* Unit-delay glitch multipliers: how much switching energy the
     zero-delay model (used by the paper and Corollary 2) leaves on the
     table per circuit family. *)
  let rows =
    List.map
      (fun name ->
        match Nano_circuits.Suite.find name with
        | None -> [ name; "-"; "-"; "-" ]
        | Some entry ->
          let mapped =
            Nano_synth.Script.rugged_lite (entry.Nano_circuits.Suite.build ())
          in
          let p = Nano_sim.Glitch.unit_delay ~pairs:2048 mapped in
          [
            name;
            num p.Nano_sim.Glitch.average_gate_settled;
            num p.Nano_sim.Glitch.average_gate_transitions;
            num p.Nano_sim.Glitch.glitch_factor;
          ])
      [ "parity16"; "rca8"; "csel16"; "mult4"; "mult8"; "alu8" ]
  in
  print_string
    "== Extension: glitch (unit-delay) switching vs the zero-delay model ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "settled sw"; "unit-delay sw"; "glitch factor" ]
       ~rows)

let print_noisy_sequential () =
  let machines =
    [
      ("counter8", Nano_seq.Seq_circuits.counter ~bits:8);
      ("accum8", Nano_seq.Seq_circuits.accumulator ~width:8);
      ("lfsr16", Nano_seq.Seq_circuits.lfsr ~bits:16 ~taps:[ 15; 13; 12; 10 ]);
    ]
  in
  let rows =
    List.map
      (fun (name, m) ->
        let t =
          Nano_seq.Noisy_seq.simulate ~epsilon:0.01 ~cycles:128 ~streams:256 m
        in
        [
          name;
          num t.Nano_seq.Noisy_seq.output_error_per_cycle.(0);
          num t.Nano_seq.Noisy_seq.output_error_per_cycle.(127);
          num t.Nano_seq.Noisy_seq.final_state_error;
          (match Nano_seq.Noisy_seq.state_halflife t with
          | Some h -> string_of_int h
          | None -> "> 128");
        ])
      machines
  in
  print_string
    "== Extension: error accumulation in clocked machines (eps=1%) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "machine"; "delta @cycle 0"; "delta @cycle 127"; "state err";
           "state halflife";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Parallel scaling of the Monte-Carlo drivers.                         *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let print_parallel_scaling () =
  (* Wall-clock scaling of the noisy-simulation hot path; the delta
     column double-checks that the job count never changes the result. *)
  let circuit =
    Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
  in
  let vectors = 1 lsl 18 in
  let run jobs =
    time (fun () ->
        Nano_faults.Noisy_sim.simulate ~vectors ~jobs ~epsilon:0.01 circuit)
  in
  let base_sim, base_t = run 1 in
  let rows =
    List.map
      (fun jobs ->
        let sim, t = run jobs in
        [
          string_of_int jobs;
          Printf.sprintf "%.3f s" t;
          Printf.sprintf "%.2fx" (base_t /. t);
          num sim.Nano_faults.Noisy_sim.any_output_error;
          string_of_bool
            (sim.Nano_faults.Noisy_sim.any_output_error
            = base_sim.Nano_faults.Noisy_sim.any_output_error);
        ])
      [ 1; 2; 4 ]
  in
  Printf.printf
    "== Parallel scaling: Noisy_sim on rca8, %d vectors (requested jobs %d)      ==\n"
    vectors jobs;
  print_string
    (Report.Table.render
       ~header:[ "jobs"; "time"; "speedup"; "delta"; "matches j=1" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Interp vs blocked simulation kernels.                                *)
(* ------------------------------------------------------------------ *)

(* The kernel table: the same Monte-Carlo job under the interpretive
   reference ([`Interp], a walk over [Netlist.iter] / [Gate.eval_word])
   and the blocked wide-word kernel ([`Compiled]: block_width words per
   gate visit, fused eval/inject/counter sweep over cache-blocked
   levels). At input density 1/2 each input word is one raw draw; at
   0.1 and 0.9 the blocked side draws stimulus through the SIMD stub
   while the interpreter keeps its pure-OCaml loop, so those rows also
   pin the stub to the reference. Each row re-checks the full result
   record against [`Interp] and a jobs=4 blocked run against jobs=1.
   Rows are (circuit, input densities, vectors): rand50k is deep enough
   that the level-aligned cache segments engage, and runs at p = 1/2
   with fewer vectors to bound the interpreter's cost. *)
let engine_circuits () =
  let suite name =
    match Nano_circuits.Suite.find name with
    | Some entry ->
      Nano_synth.Script.rugged_lite (entry.Nano_circuits.Suite.build ())
    | None -> failwith ("engines bench: unknown suite circuit " ^ name)
  in
  let densities = [ 0.5; 0.1; 0.9 ] in
  [
    ("c17", Nano_circuits.Iscas_like.c17 (), densities, 1 lsl 16);
    ( "rca8",
      Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8),
      densities,
      1 lsl 16 );
    ( "parity16",
      Nano_circuits.Trees.parity_tree ~inputs:16 ~fanin:2,
      densities,
      1 lsl 16 );
    ("mult8", suite "mult8", densities, 1 lsl 14);
    ("alu8", suite "alu8", densities, 1 lsl 14);
    ( "rand50k",
      Nano_circuits.Random_circuit.generate
        ~config:
          {
            Nano_circuits.Random_circuit.inputs = 64;
            gates = 50_000;
            outputs = 32;
            allow_majority = true;
            max_fanin = 3;
          }
        ~seed:0x50c4 (),
      [ 0.5 ],
      1 lsl 10 );
  ]

let print_engine_throughput () =
  let epsilon = 0.01 in
  let block = bench_block in
  let effective_block =
    match block with
    | Some b -> b
    | None -> Nano_netlist.Compiled.default_block_width ()
  in
  let simd = Nano_util.Prng.simd_level () in
  let simulate ?jobs ~vectors ~p engine circuit =
    Nano_faults.Noisy_sim.simulate ~vectors ~input_probability:p ?jobs ?block
      ~engine ~epsilon circuit
  in
  let measure ~vectors ~p engine circuit =
    (* One short run to warm the compile cache and code paths. *)
    ignore (simulate ~vectors:64 ~p engine circuit);
    let sim, t = time (fun () -> simulate ~vectors ~p engine circuit) in
    (sim, float_of_int (vectors / 64) /. t)
  in
  let entries =
    List.concat_map
      (fun (name, circuit, densities, vectors) ->
        List.map
          (fun p ->
            let sim_i, interp = measure ~vectors ~p `Interp circuit in
            let sim_b, blocked = measure ~vectors ~p `Compiled circuit in
            let sim_j = simulate ~jobs:4 ~vectors ~p `Compiled circuit in
            ( name,
              p,
              vectors,
              interp,
              blocked,
              blocked /. interp,
              sim_b = sim_i,
              sim_j = sim_b ))
          densities)
      (engine_circuits ())
  in
  Printf.printf
    "== Engine throughput: interpretive vs blocked Noisy_sim kernel (eps=%g, \
     block=%d, simd=%s) ==\n"
    epsilon effective_block simd;
  print_string
    (Report.Table.render
       ~header:
         [
           "circuit"; "p(in)"; "vectors"; "interp words/s"; "blocked words/s";
           "speedup"; "bit-identical"; "jobs-identical";
         ]
       ~rows:
         (List.map
            (fun (name, p, vectors, ir, br, speedup, same, same_jobs) ->
              [
                name;
                Printf.sprintf "%g" p;
                string_of_int vectors;
                Printf.sprintf "%.0f" ir;
                Printf.sprintf "%.0f" br;
                Printf.sprintf "%.2fx" speedup;
                string_of_bool same;
                string_of_bool same_jobs;
              ])
            entries));
  (* Machine-readable record of the same table, for tracking the
     speedup across revisions. *)
  let oc = open_out "BENCH_pr2.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"noisy_sim interp-vs-blocked\",\n  \"epsilon\": \
     %g,\n  \"block_width\": %d,\n  \"simd_level\": \"%s\",\n  \
     \"circuits\": [\n"
    epsilon effective_block simd;
  List.iteri
    (fun i (name, p, vectors, ir, br, speedup, same, same_jobs) ->
      Printf.fprintf oc
        "    {\"circuit\": \"%s\", \"input_probability\": %g, \"vectors\": \
         %d, \"interp_words_per_sec\": %.1f, \"blocked_words_per_sec\": \
         %.1f, \"speedup\": %.2f, \"bit_identical\": %b, \
         \"jobs_identical\": %b}%s\n"
        name p vectors ir br speedup same same_jobs
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_string "(written to BENCH_pr2.json)\n"

(* ------------------------------------------------------------------ *)
(* Static analysis vs Monte Carlo: the PR 10 soundness/latency table.   *)
(* ------------------------------------------------------------------ *)

(* Two claims. Soundness, checked on every circuit: each per-output
   static error interval, widened by the Agresti–Coull half-width of
   the measured point, contains the 4096-vector Monte-Carlo estimate
   (the seed is pinned, so a containment failure is a kernel or
   analyzer bug, not sampling luck). Latency: one static pass replaces
   the full 4096-vector MC profile — switching activity
   (Activity.monte_carlo), the output-error estimate
   (Noisy_sim.simulate) and the per-gate fault-injection criticality
   ranking (Criticality.analyze, what `harden_top` runs) — so the MC
   column prices all three, compile included, because that is what a
   cold caller actually pays. The >= 100x requirement is checked on
   the suite aggregate (total MC wall-time over total static
   wall-time); per-circuit ratios are recorded unsummarised, and on
   tiny circuits (c17) they legitimately sit below 100x because the
   SIMD kernel amortises nothing there. On tree circuits (parity16)
   the intervals are points that must sit within one confidence
   half-width of the measurement. *)
let print_static_analysis () =
  let module Static = Nano_static.Static in
  let epsilon = 0.01 in
  let vectors = 4096 in
  let seed = 0x5eed in
  (* Deterministic stream: z = 3 is margin against the one fixed draw,
     not against repeated sampling. *)
  let z = 3. in
  let half_width errors =
    let n = float_of_int vectors in
    let pt = (errors *. n +. 2.) /. (n +. 4.) in
    z *. sqrt (pt *. (1. -. pt) /. n)
  in
  let circuits =
    List.filter_map
      (fun name ->
        Option.map
          (fun e -> (name, e.Nano_circuits.Suite.build ()))
          (Nano_circuits.Suite.find name))
      [ "c17"; "rca8"; "parity16"; "intctl27"; "alu8"; "mult16" ]
  in
  let entries =
    List.map
      (fun (name, circuit) ->
        ignore (Static.analyze ~epsilon circuit);
        let analysis, t_static =
          time (fun () -> Static.analyze ~epsilon circuit)
        in
        (* Cold one-shots: compilation is charged to the simulation,
           because the static pass needs no compiled program at all. *)
        let _, t_activity =
          time (fun () ->
              Nano_sim.Activity.monte_carlo ~seed ~vectors circuit)
        in
        let sim, t_sim =
          time (fun () ->
              Nano_faults.Noisy_sim.simulate ~seed ~vectors ~epsilon circuit)
        in
        let _, t_crit =
          time (fun () ->
              Nano_faults.Criticality.analyze ~seed ~vectors circuit)
        in
        let t_mc = t_activity +. t_sim +. t_crit in
        let contained =
          List.for_all2
            (fun (o, iv) (o', measured) ->
              assert (o = o');
              Static.contains iv ~slack:(half_width measured) measured)
            analysis.Static.per_output_error
            sim.Nano_faults.Noisy_sim.per_output_error
        in
        let tree = List.for_all (fun (_, iv) -> Static.is_point iv)
            analysis.Static.per_output_error
        in
        let tree_within_ci =
          (not tree)
          || List.for_all2
               (fun (_, iv) (_, measured) ->
                 Float.abs (iv.Static.lo -. measured)
                 <= half_width measured)
               analysis.Static.per_output_error
               sim.Nano_faults.Noisy_sim.per_output_error
        in
        let vacuous =
          List.length
            (List.filter
               (fun (_, iv) -> Static.vacuous iv)
               analysis.Static.per_output_error)
        in
        let speedup = t_mc /. t_static in
        ( name,
          Array.length analysis.Static.nodes,
          analysis.Static.exact_nodes,
          vacuous,
          1e6 *. t_static,
          1e3 *. t_mc,
          speedup,
          contained,
          tree,
          tree_within_ci ))
      circuits
  in
  let total_static_us =
    List.fold_left (fun s (_, _, _, _, us, _, _, _, _, _) -> s +. us) 0.
      entries
  in
  let total_mc_ms =
    List.fold_left (fun s (_, _, _, _, _, ms, _, _, _, _) -> s +. ms) 0.
      entries
  in
  let total_speedup = 1e3 *. total_mc_ms /. total_static_us in
  Printf.printf
    "== Static bounds vs Monte Carlo (%d vectors, eps=%g, seed=%#x, \
     z=%g) ==\n"
    vectors epsilon seed z;
  print_string
    (Report.Table.render
       ~header:
         [
           "circuit"; "nodes"; "exact"; "vacuous"; "static us"; "mc ms";
           "speedup"; "contained"; "tree"; "tree_in_ci";
         ]
       ~rows:
         (List.map
            (fun (name, nodes, exact, vac, us, ms, speedup, contained,
                  tree, in_ci) ->
              [
                name;
                string_of_int nodes;
                string_of_int exact;
                string_of_int vac;
                Printf.sprintf "%.0f" us;
                Printf.sprintf "%.2f" ms;
                Printf.sprintf "%.0fx" speedup;
                string_of_bool contained;
                string_of_bool tree;
                string_of_bool in_ci;
              ])
            entries));
  Printf.printf
    "aggregate: static %.0fus, mc %.0fms, speedup %.0fx, ge_100x %b\n"
    total_static_us total_mc_ms total_speedup (total_speedup >= 100.);
  let oc = open_out "BENCH_pr10.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"static analysis vs Monte Carlo\",\n  \
     \"vectors\": %d,\n  \"epsilon\": %g,\n  \"seed\": %d,\n  \"z\": %g,\n  \
     \"circuits\": [\n"
    vectors epsilon seed z;
  List.iteri
    (fun i (name, nodes, exact, vac, us, ms, speedup, contained,
            tree, in_ci) ->
      Printf.fprintf oc
        "    {\"circuit\": \"%s\", \"nodes\": %d, \"exact_nodes\": %d, \
         \"vacuous_outputs\": %d, \"static_us\": %.1f, \"mc_ms\": %.2f, \
         \"speedup\": %.1f, \"contained\": %b, \
         \"tree\": %b, \"tree_within_ci\": %b}%s\n"
        name nodes exact vac us ms speedup contained tree in_ci
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc
    "  ],\n  \"aggregate\": {\"static_us\": %.1f, \"mc_ms\": %.2f, \
     \"speedup\": %.1f, \"speedup_ge_100x\": %b}\n}\n"
    total_static_us total_mc_ms total_speedup (total_speedup >= 100.);
  close_out oc;
  print_string "(written to BENCH_pr10.json)\n"

(* ------------------------------------------------------------------ *)
(* Technology packs: absolute-energy report cost + cache identity.      *)
(* ------------------------------------------------------------------ *)

(* The tech report re-simulates activity (pinned 4096 vectors), runs
   static timing under the pack's delays, integrates leakage over the
   critical path and re-expresses Corollary 2 in joules — all per
   request. The first table prices that per built-in pack on the mapped
   suite circuits. The second replays `analyze --tech rca8` through an
   in-process service: the warm reply comes from the pack-digest-keyed
   response cache and must be byte-identical to the cold evaluation. *)
let print_tech_report () =
  let module Service = Nano_service.Service in
  let circuits =
    List.filter_map
      (fun name ->
        Option.map
          (fun entry ->
            ( name,
              Nano_synth.Script.rugged_lite ~max_fanin:3
                (entry.Nano_circuits.Suite.build ()) ))
          (Nano_circuits.Suite.find name))
      [ "c17"; "rca8"; "alu8" ]
  in
  let iters = 25 in
  let report_rows =
    List.concat_map
      (fun (name, mapped) ->
        let profile = Nano_bounds.Profile.of_netlist mapped in
        List.map
          (fun pack ->
            (* One run to warm the simulator's compile cache. *)
            ignore (Nano_tech.Report.analyze ~pack ~profile mapped);
            let report = ref (Nano_tech.Report.analyze ~pack ~profile mapped) in
            let (), total =
              time (fun () ->
                  for _ = 1 to iters do
                    report := Nano_tech.Report.analyze ~pack ~profile mapped
                  done)
            in
            let r = !report in
            ( name,
              pack.Nano_tech.Pack.name,
              total /. float_of_int iters,
              r.Nano_tech.Report.total_j,
              r.Nano_tech.Report.leakage_share ))
          Nano_tech.Builtin.all)
      circuits
  in
  let config = { (Service.default_config ()) with Service.jobs } in
  let t = Service.create ~config () in
  let warm_iters = 200 in
  let service_rows =
    List.map
      (fun pack_name ->
        let line =
          Printf.sprintf {|{"kind":"analyze","circuit":"rca8","tech":"%s"}|}
            pack_name
        in
        let cold, cold_t = time (fun () -> Service.handle_line t line) in
        let warm = ref "" in
        let (), warm_total =
          time (fun () ->
              for _ = 1 to warm_iters do
                warm := Service.handle_line t line
              done)
        in
        let warm_t = warm_total /. float_of_int warm_iters in
        (pack_name, cold_t, warm_t, cold = !warm))
      [ "cmos55"; "nanodev" ]
  in
  Printf.printf
    "== Technology report: absolute-energy analyze per pack (%d iters) ==\n"
    iters;
  print_string
    (Report.Table.render
       ~header:[ "circuit"; "pack"; "report/run"; "total J"; "leak share" ]
       ~rows:
         (List.map
            (fun (name, pack, per, total_j, share) ->
              [
                name;
                pack;
                Printf.sprintf "%.2f ms" (1e3 *. per);
                Printf.sprintf "%.4g" total_j;
                Printf.sprintf "%.3f" share;
              ])
            report_rows));
  Printf.printf "== Service: analyze rca8 --tech, cold vs warm (jobs=%d) ==\n"
    jobs;
  print_string
    (Report.Table.render
       ~header:[ "pack"; "cold"; "warm"; "byte-identical" ]
       ~rows:
         (List.map
            (fun (pack, cold_t, warm_t, same) ->
              [
                pack;
                Printf.sprintf "%.2f ms" (1e3 *. cold_t);
                Printf.sprintf "%.1f us" (1e6 *. warm_t);
                string_of_bool same;
              ])
            service_rows));
  let oc = open_out "BENCH_pr8.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"tech-pack absolute-energy report\",\n  \"iters\": \
     %d,\n  \"reports\": [\n"
    iters;
  List.iteri
    (fun i (name, pack, per, total_j, share) ->
      Printf.fprintf oc
        "    {\"circuit\": \"%s\", \"pack\": \"%s\", \"report_ms\": %.3f, \
         \"total_j\": %.6g, \"leakage_share\": %.6g}%s\n"
        name pack (1e3 *. per) total_j share
        (if i = List.length report_rows - 1 then "" else ","))
    report_rows;
  Printf.fprintf oc "  ],\n  \"service\": [\n";
  List.iteri
    (fun i (pack, cold_t, warm_t, same) ->
      Printf.fprintf oc
        "    {\"pack\": \"%s\", \"cold_ms\": %.3f, \"warm_ms\": %.4f, \
         \"byte_identical\": %b}%s\n"
        pack (1e3 *. cold_t) (1e3 *. warm_t) same
        (if i = List.length service_rows - 1 then "" else ","))
    service_rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_string "(written to BENCH_pr8.json)\n"

(* ------------------------------------------------------------------ *)
(* Batched epsilon-grid engine vs per-point simulation.                 *)
(* ------------------------------------------------------------------ *)

(* The whole point of [Noisy_sim.profile_grid]: K epsilon lanes share
   one pass over the input stream and one fault-uniform draw per noisy
   gate word, so a K-point sweep stops costing K independent runs. Both
   sides below run on one domain so the ratio isolates batching; the
   jobs-identity column then re-checks that sharding the vector stream
   over 4 domains returns the byte-same results. *)
let grid_epsilons =
  [| 0.001; 0.002; 0.005; 0.01; 0.015; 0.02; 0.03; 0.05; 0.07; 0.1 |]

let grid_circuits () =
  List.filter_map
    (fun name ->
      Option.map
        (fun entry ->
          ( name,
            Nano_synth.Script.rugged_lite ~max_fanin:3
              (entry.Nano_circuits.Suite.build ()) ))
        (Nano_circuits.Suite.find name))
    [ "rca8"; "alu8" ]

let grid_bench_entry ~vectors ~seed (name, circuit) =
  let module Noisy_sim = Nano_faults.Noisy_sim in
  let epsilons = grid_epsilons in
  (* Warm the compile cache so neither side pays it. *)
  ignore (Noisy_sim.simulate ~seed ~vectors:1024 ~epsilon:0.01 circuit);
  let per_point, per_point_t =
    time (fun () ->
        Array.map
          (fun epsilon ->
            Noisy_sim.simulate ~seed ~vectors ~jobs:1 ~epsilon circuit)
          epsilons)
  in
  let batched, batched_t =
    time (fun () ->
        Noisy_sim.profile_grid ~seed ~vectors ~jobs:1 ~epsilons circuit)
  in
  let batched4 = Noisy_sim.profile_grid ~seed ~vectors ~jobs:4 ~epsilons circuit in
  let bit_identical = per_point = batched in
  let jobs_identical = batched = batched4 in
  (name, per_point_t, batched_t, per_point_t /. batched_t, bit_identical,
   jobs_identical)

(* 3x3 measured (eps x delta) grid, encoded through the service
   protocol: the batched engine against three single-lane runs (which
   delegate to the per-point simulator). Byte-equal JSON or bust. *)
let grid_json_smoke () =
  let module Protocol = Nano_service.Protocol in
  let circuit =
    match Nano_circuits.Suite.find "c17" with
    | Some entry ->
      Nano_synth.Script.rugged_lite ~max_fanin:3
        (entry.Nano_circuits.Suite.build ())
    | None -> failwith "suite circuit c17 missing"
  in
  let epsilons = [ 0.001; 0.01; 0.05 ] in
  let deltas = [ 0.01; 0.05; 0.1 ] in
  let vectors = 2048 in
  let seed = 42 in
  let profile = Profile.of_netlist circuit in
  let encode rows =
    String.concat "\n"
      (List.map
         (fun r -> Nano_util.Json.to_string (Protocol.measured_row_to_json r))
         rows)
  in
  let batched =
    Benchmark_eval.measured_grid ~deltas ~epsilons ~vectors ~seed ~profile
      circuit
  in
  let per_point =
    List.concat_map
      (fun epsilon ->
        Benchmark_eval.measured_grid ~deltas ~epsilons:[ epsilon ] ~vectors
          ~seed ~profile circuit)
      epsilons
  in
  (List.length batched, encode batched = encode per_point)

(* Heterogeneous voter sweep: the selective-hardening voter trade study
   run both ways — one simulate_heterogeneous pass per voter class vs a
   single fused profile_grid_heterogeneous sweep with common random
   numbers; each lane of the fused pass must reproduce its per-config
   run exactly. Prints its table and returns the voter classes, the gate
   epsilon and the rows. *)
let print_heterogeneous_sweep ~vectors =
  let words = vectors / 64 in
  let block = bench_block in
  let voter_epsilons = Array.init 8 (fun i -> 0.0005 *. float_of_int (i + 1)) in
  let lanes = Array.length voter_epsilons in
  let gate_epsilon = 0.01 in
  let entries =
    List.map
      (fun (name, circuit) ->
        let hardened =
          Nano_redundancy.Selective.harden_top ~seed:0x9e7e ~fraction:0.25
            circuit
        in
        let sweep ?jobs ?vectors () =
          Nano_redundancy.Selective.sweep_voter_epsilons ?jobs ?vectors ?block
            hardened ~gate_epsilon ~voter_epsilons
        in
        let per_config ?(vectors = vectors) () =
          Array.map
            (fun voter_epsilon ->
              Nano_faults.Noisy_sim.simulate_heterogeneous ~vectors ?block
                ~epsilon_of:
                  (Nano_redundancy.Selective.voter_epsilon_of hardened
                     ~gate_epsilon ~voter_epsilon)
                hardened.Nano_redundancy.Selective.netlist)
            voter_epsilons
        in
        ignore (sweep ~vectors:1024 ());
        ignore (per_config ~vectors:1024 ());
        let base, tb = time (fun () -> per_config ()) in
        let fused, tf = time (fun () -> sweep ~vectors ()) in
        let fused_j = sweep ~vectors ~jobs:4 () in
        ( name,
          float_of_int (lanes * words) /. tb,
          float_of_int (lanes * words) /. tf,
          tb /. tf,
          fused = base,
          fused_j = fused ))
      [
        ("c17", Nano_circuits.Iscas_like.c17 ());
        ( "rca8",
          Nano_synth.Script.rugged_lite
            (Nano_circuits.Adders.ripple_carry ~width:8) );
      ]
  in
  Printf.printf
    "\n== Heterogeneous epsilon sweep: per-config passes vs fused grid (%d \
     voter classes, %d vectors, gate eps=%g) ==\n"
    lanes vectors gate_epsilon;
  print_string
    (Report.Table.render
       ~header:
         [
           "circuit"; "per-config lane-words/s"; "fused lane-words/s";
           "speedup"; "bit-identical"; "jobs-identical";
         ]
       ~rows:
         (List.map
            (fun (name, br, fr, speedup, same, same_jobs) ->
              [
                name;
                Printf.sprintf "%.0f" br;
                Printf.sprintf "%.0f" fr;
                Printf.sprintf "%.2fx" speedup;
                string_of_bool same;
                string_of_bool same_jobs;
              ])
            entries));
  (lanes, gate_epsilon, entries)

let print_grid_throughput () =
  let vectors = 1 lsl 16 in
  let seed = 42 in
  let entries =
    List.map (grid_bench_entry ~vectors ~seed) (grid_circuits ())
  in
  Printf.printf
    "== Batched epsilon-grid engine: one pass vs %d per-point runs (%d \
     vectors, jobs=1) ==\n"
    (Array.length grid_epsilons) vectors;
  print_string
    (Report.Table.render
       ~header:
         [
           "circuit"; "per-point"; "batched"; "speedup"; "bit-identical";
           "jobs 1=4";
         ]
       ~rows:
         (List.map
            (fun (name, pp_t, b_t, speedup, same, jobs_same) ->
              [
                name;
                Printf.sprintf "%.3f s" pp_t;
                Printf.sprintf "%.3f s" b_t;
                Printf.sprintf "%.2fx" speedup;
                string_of_bool same;
                string_of_bool jobs_same;
              ])
            entries));
  let smoke_rows, smoke_identical = grid_json_smoke () in
  Printf.printf
    "3x3 measured grid (c17): %d rows, batched-vs-per-point JSON identical = \
     %b\n"
    smoke_rows smoke_identical;
  let voter_classes, gate_epsilon, hetero_entries =
    print_heterogeneous_sweep ~vectors
  in
  let oc = open_out "BENCH_pr4.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"noisy_sim batched epsilon-grid vs per-point\",\n\
    \  \"vectors\": %d,\n  \"lanes\": %d,\n  \"circuits\": [\n"
    vectors (Array.length grid_epsilons);
  List.iteri
    (fun i (name, pp_t, b_t, speedup, same, jobs_same) ->
      Printf.fprintf oc
        "    {\"circuit\": \"%s\", \"per_point_s\": %.3f, \"batched_s\": \
         %.3f, \"speedup\": %.2f, \"bit_identical\": %b, \"jobs_identical\": \
         %b}%s\n"
        name pp_t b_t speedup same jobs_same
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc
    "  ],\n  \"grid_smoke\": {\"rows\": %d, \"json_identical\": %b},\n  \
     \"heterogeneous\": {\n    \"voter_classes\": %d,\n    \
     \"gate_epsilon\": %g,\n    \"circuits\": [\n"
    smoke_rows smoke_identical voter_classes gate_epsilon;
  List.iteri
    (fun i (name, br, fr, speedup, same, same_jobs) ->
      Printf.fprintf oc
        "      {\"circuit\": \"%s\", \"per_config_lane_words_per_sec\": %.1f, \
         \"fused_lane_words_per_sec\": %.1f, \"speedup\": %.2f, \
         \"bit_identical\": %b, \"jobs_identical\": %b}%s\n"
        name br fr speedup same same_jobs
        (if i = List.length hetero_entries - 1 then "" else ","))
    hetero_entries;
  Printf.fprintf oc "    ]\n  }\n}\n";
  close_out oc;
  print_string "(written to BENCH_pr4.json)\n"

(* ------------------------------------------------------------------ *)
(* TCP service load generator.                                          *)
(* ------------------------------------------------------------------ *)

(* Closed-loop load against a forked daemon: N concurrent TCP clients,
   each cycling through M bounds requests (one outstanding per client),
   all driven from a single select loop. The request mix rotates over
   64 distinct epsilons, so the first pass over the key space is cold
   and the rest hit the response cache — the numbers measure the
   transport tier, not the evaluators. *)

module Net_bench = Nano_service.Net

type load_client = {
  lc_fd : Unix.file_descr;
  lc_idx : int;
  lc_inbuf : Buffer.t;
  mutable lc_out : string;
  mutable lc_out_off : int;
  mutable lc_remaining : int;
  mutable lc_sent_at : float;
  mutable lc_open : bool;
}

let load_request_line i =
  Printf.sprintf {|{"kind":"bounds","epsilon":%g}|}
    (0.001 +. (0.0005 *. float_of_int (i mod 64)))

let fork_load_server ~max_clients =
  let module Service = Nano_service.Service in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 256;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  match Unix.fork () with
  | 0 ->
    let config =
      {
        (Service.default_config ()) with
        Service.jobs = 1;
        max_clients;
        max_pending = 4096;
      }
    in
    let t = Service.create ~config () in
    (try Service.serve_listening t listen_fd with _ -> ());
    Service.close t;
    Unix._exit 0
  | pid ->
    Unix.close listen_fd;
    (pid, port)

let load_connect addr =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        Unix.Unix_error
          ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EAGAIN | Unix.EINTR
            | Unix.ETIMEDOUT ),
            _,
            _ )
      when attempt < 500 ->
      Unix.close fd;
      Net_bench.sleep 0.01;
      go (attempt + 1)
  in
  go 0

let load_shutdown_server pid port =
  let fd = load_connect (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) in
  ignore (Net_bench.write_all fd "{\"kind\":\"shutdown\"}\n");
  let buf = Bytes.create 256 in
  (match Net_bench.read_fd fd buf with _ -> ());
  Unix.close fd;
  (* The daemon drains and exits; reap it, escalating only if it
     wedges. *)
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Net_bench.sleep 0.05;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Net_bench.retry_intr (fun () -> Unix.waitpid [] pid))
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 100

let run_load ~clients ~requests_per_client =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pid, port = fork_load_server ~max_clients:(clients + 8) in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let conns =
    Array.init clients (fun lc_idx ->
        let fd = load_connect addr in
        Unix.set_nonblock fd;
        {
          lc_fd = fd;
          lc_idx;
          lc_inbuf = Buffer.create 512;
          lc_out = "";
          lc_out_off = 0;
          lc_remaining = requests_per_client;
          lc_sent_at = 0.;
          lc_open = true;
        })
  in
  let by_fd = Hashtbl.create (2 * clients) in
  Array.iter (fun c -> Hashtbl.replace by_fd c.lc_fd c) conns;
  let latencies = Array.make (clients * requests_per_client) 0. in
  let n_lat = ref 0 in
  let errors = ref 0 in
  let active = ref clients in
  let queue_next c now =
    (* Spread the key rotation across clients so the daemon sees a
       mixed stream rather than 64 synchronized waves. *)
    let seq = requests_per_client - c.lc_remaining in
    c.lc_out <- load_request_line ((c.lc_idx * 7) + seq) ^ "\n";
    c.lc_out_off <- 0;
    c.lc_sent_at <- now
  in
  let close_client c =
    if c.lc_open then (
      c.lc_open <- false;
      Hashtbl.remove by_fd c.lc_fd;
      (try Unix.close c.lc_fd with Unix.Unix_error _ -> ());
      decr active)
  in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun c -> queue_next c t0) conns;
  let scratch = Bytes.create 65536 in
  let deadline = t0 +. 300. in
  while !active > 0 && Unix.gettimeofday () < deadline do
    let rd, wr =
      Hashtbl.fold
        (fun fd c (rd, wr) ->
          if String.length c.lc_out > c.lc_out_off then (rd, fd :: wr)
          else (fd :: rd, wr))
        by_fd ([], [])
    in
    let readable, writable, _ =
      match Unix.select rd wr [] 5.0 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt by_fd fd with
        | None -> ()
        | Some c -> (
          let len = String.length c.lc_out - c.lc_out_off in
          match
            Net_bench.write_fd fd
              (Bytes.unsafe_of_string c.lc_out)
              c.lc_out_off len
          with
          | `Wrote n -> c.lc_out_off <- c.lc_out_off + n
          | `Again -> ()
          | `Closed ->
            incr errors;
            close_client c))
      writable;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt by_fd fd with
        | None -> ()
        | Some c -> (
          match Net_bench.read_fd fd scratch with
          | `Data n ->
            Buffer.add_subbytes c.lc_inbuf scratch 0 n;
            let data = Buffer.contents c.lc_inbuf in
            (match String.index_opt data '\n' with
            | None -> ()
            | Some i ->
              Buffer.clear c.lc_inbuf;
              Buffer.add_string c.lc_inbuf
                (String.sub data (i + 1) (String.length data - i - 1));
              latencies.(!n_lat) <- now -. c.lc_sent_at;
              incr n_lat;
              c.lc_remaining <- c.lc_remaining - 1;
              if c.lc_remaining > 0 then queue_next c now
              else close_client c)
          | `Again -> ()
          | `Eof | `Closed ->
            if c.lc_remaining > 0 then incr errors;
            close_client c))
      readable
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Hashtbl.iter (fun _ c -> close_client c) (Hashtbl.copy by_fd);
  load_shutdown_server pid port;
  let samples = Array.sub latencies 0 !n_lat in
  Array.sort compare samples;
  let pct p =
    if Array.length samples = 0 then Float.nan
    else
      samples.(min
                 (Array.length samples - 1)
                 (int_of_float (p *. float_of_int (Array.length samples))))
  in
  (!n_lat, !errors, wall, float_of_int !n_lat /. wall, 1e3 *. pct 0.50,
   1e3 *. pct 0.99)

let print_load () =
  let clients = load_clients and requests_per_client = load_requests in
  Printf.printf
    "== Service load: %d concurrent TCP clients x %d closed-loop bounds \
     requests ==\n"
    clients requests_per_client;
  let replies, errors, wall, rps, p50, p99 =
    run_load ~clients ~requests_per_client
  in
  print_string
    (Report.Table.render
       ~header:[ "replies"; "errors"; "wall"; "req/s"; "p50"; "p99" ]
       ~rows:
         [
           [
             string_of_int replies;
             string_of_int errors;
             Printf.sprintf "%.2f s" wall;
             Printf.sprintf "%.0f" rps;
             Printf.sprintf "%.2f ms" p50;
             Printf.sprintf "%.2f ms" p99;
           ];
         ]);
  let oc = open_out "BENCH_pr6.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"service tcp load\",\n  \"clients\": %d,\n\
    \  \"requests_per_client\": %d,\n  \"replies\": %d,\n  \"errors\": \
     %d,\n  \"wall_s\": %.3f,\n  \"throughput_rps\": %.1f,\n  \"p50_ms\": \
     %.3f,\n  \"p99_ms\": %.3f\n}\n"
    clients requests_per_client replies errors wall rps p50 p99;
  close_out oc;
  print_string "(written to BENCH_pr6.json)\n";
  (* A load run that shed or dropped anything is a failed run: the
     daemon is supposed to absorb this concurrency level. *)
  if errors > 0 then (
    prerr_endline "load generator observed errors";
    exit 1);
  if replies < clients * requests_per_client then (
    prerr_endline "load generator lost replies";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the figure drivers.                     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests profiles =
  let open Bechamel in
  [
    Test.make ~name:"fig2_activity_map"
      (Staged.stage (fun () -> ignore (fig2 ())));
    Test.make ~name:"fig3_redundancy"
      (Staged.stage (fun () -> ignore (fig3 ())));
    Test.make ~name:"fig4_leakage" (Staged.stage (fun () -> ignore (fig4 ())));
    Test.make ~name:"fig5_delay_edp"
      (Staged.stage (fun () -> ignore (fig5 ())));
    Test.make ~name:"fig6_avg_power"
      (Staged.stage (fun () -> ignore (fig6 ())));
    Test.make ~name:"fig7_fig8_rows"
      (Staged.stage (fun () -> ignore (fig7_rows profiles)));
    Test.make ~name:"headline_check"
      (Staged.stage (fun () -> ignore (Nano_bounds.Headline.check profiles)));
    Test.make ~name:"activity_mc_rca8"
      (Staged.stage
         (let circuit =
            Nano_synth.Script.rugged_lite
              (Nano_circuits.Adders.ripple_carry ~width:8)
          in
          fun () -> ignore (Nano_sim.Activity.monte_carlo ~vectors:1024 circuit)));
    Test.make ~name:"voltage_tradeoff"
      (Staged.stage (fun () ->
           let tech = Nano_energy.Technology.nm90 in
           let s = { Figures.parity10 with Metrics.epsilon = 0.01 } in
           ignore (Nano_bounds.Voltage_tradeoff.iso_energy ~tech s);
           ignore (Nano_bounds.Voltage_tradeoff.iso_delay ~tech s)));
    Test.make ~name:"power_crossover"
      (Staged.stage (fun () ->
           ignore (Nano_bounds.Crossover.power_crossover Figures.parity10)));
    Test.make ~name:"seq_temporal_activity"
      (Staged.stage
         (let m = Nano_seq.Seq_circuits.accumulator ~width:8 in
          fun () ->
            ignore
              (Nano_seq.Seq_netlist.average_gate_temporal_activity
                 ~cycles:256 m)));
    Test.make ~name:"sat_miter_rca6"
      (Staged.stage
         (let a = Nano_circuits.Adders.ripple_carry ~width:6 in
          let b = Nano_circuits.Adders.carry_lookahead ~width:6 in
          fun () -> ignore (Nano_sat.Cnf.equivalent a b)));
    Test.make ~name:"espresso_10var"
      (Staged.stage
         (let tt =
            let rng = Nano_util.Prng.create ~seed:9 in
            Nano_logic.Truth_table.create ~arity:10 (fun _ ->
                Nano_util.Prng.float rng < 0.25)
          in
          fun () -> ignore (Nano_synth.Espresso_lite.minimize_table tt)));
    Test.make ~name:"glitch_mult4"
      (Staged.stage
         (let circuit = Nano_circuits.Multipliers.array_multiplier ~width:4 in
          fun () ->
            ignore (Nano_sim.Glitch.unit_delay ~pairs:512 circuit)));
    Test.make ~name:"noisy_sim_rca8"
      (Staged.stage
         (let circuit =
            Nano_synth.Script.rugged_lite
              (Nano_circuits.Adders.ripple_carry ~width:8)
          in
          fun () ->
            ignore
              (Nano_faults.Noisy_sim.simulate ~vectors:1024 ~epsilon:0.01
                 circuit)));
  ]
  @ (* Domain-scaling series: the same Monte-Carlo workload at 1, 2 and 4
       domains (identical results; only the wall-clock should move). *)
  (let circuit =
     Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
   in
   List.map
     (fun jobs ->
       Test.make ~name:(Printf.sprintf "noisy_sim_rca8_jobs%d" jobs)
         (Staged.stage (fun () ->
              ignore
                (Nano_faults.Noisy_sim.simulate ~vectors:32768 ~jobs
                   ~epsilon:0.01 circuit))))
     [ 1; 2; 4 ])
  @ (* Interp-vs-compiled series: one workload, the two evaluation
       kernels (bit-identical results; only the wall-clock differs). *)
  (let circuit =
     Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
   in
   List.map
     (fun (label, engine) ->
       Test.make ~name:("noisy_sim_rca8_" ^ label)
         (Staged.stage (fun () ->
              ignore
                (Nano_faults.Noisy_sim.simulate ~vectors:8192 ~engine
                   ~epsilon:0.01 circuit))))
     [ ("interp", `Interp); ("compiled", `Compiled) ])

let run_bechamel profiles =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"nanobound" (bechamel_tests profiles) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let time_ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> t
          | Some _ | None -> Float.nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> r
          | None -> Float.nan
        in
        (name, time_ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.map (fun (name, t, r2) ->
           [
             name;
             (if Float.is_nan t then "-"
              else if t > 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
              else if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
              else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
              else Printf.sprintf "%.0f ns" t);
             num r2;
           ])
  in
  print_string "== Bechamel: figure-driver execution times ==\n";
  print_string
    (Report.Table.render ~header:[ "driver"; "time/run"; "r^2" ] ~rows)

(* ------------------------------------------------------------------ *)

let () =
  (* The load generator forks daemons, which OCaml 5 forbids once any
     domain has been spawned — so it must run (and exit) first. *)
  if load_only then (
    print_load ();
    exit 0);
  if scaling_only then (
    print_parallel_scaling ();
    exit 0);
  if engines_only then (
    print_engine_throughput ();
    exit 0);
  if static_only then (
    print_static_analysis ();
    exit 0);
  if tech_only then (
    print_tech_report ();
    exit 0);
  if grids_only then (
    print_grid_throughput ();
    exit 0);
  print_string "nanobound benchmark harness — reproduces every figure of\n";
  print_string
    "'Energy Bounds for Fault-Tolerant Nanoscale Designs' (DATE 2005)\n\n";
  print_series ~title:"Figure 2: switching activity of error-prone devices"
    ~x_label:"sw(y)" ~y_label:"sw(z)" (fig2 ());
  print_series
    ~title:"Figure 3: minimum redundancy factor (parity-10, delta=0.01)"
    ~x_label:"eps" ~y_label:"(S0+extra)/S0" (fig3 ());
  print_series
    ~title:"Figure 4: normalized leakage/switching ratio (Theorem 3)"
    ~x_label:"eps" ~y_label:"W(eps)/W0" (fig4 ());
  print_series
    ~title:"Figure 5: normalized delay and energy-delay (parity-10)"
    ~x_label:"eps" ~y_label:"ratio vs error-free" (fig5 ());
  print_series ~title:"Figure 6: normalized average power (parity-10)"
    ~x_label:"eps" ~y_label:"P(eps)/P0" (fig6 ());
  let profiles = Lazy.force suite_profiles in
  print_string "== Benchmark suite profiles (Section 6 methodology) ==\n";
  let profile_rows =
    List.map
      (fun p ->
        [
          p.Profile.name;
          string_of_int p.Profile.inputs;
          string_of_int p.Profile.outputs;
          string_of_int p.Profile.size;
          string_of_int p.Profile.depth;
          num p.Profile.avg_fanin;
          num p.Profile.sw0;
          string_of_int p.Profile.sensitivity;
        ])
      profiles
  in
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "in"; "out"; "S0"; "depth"; "k_avg"; "sw0"; "s" ]
       ~rows:profile_rows);
  print_newline ();
  print_substitution_check profiles;
  print_newline ();
  print_fig7 profiles;
  print_newline ();
  print_fig8 profiles;
  print_newline ();
  print_headline profiles;
  print_ablation_omega ();
  print_ablation_constructions ();
  print_newline ();
  print_ablation_activity ();
  print_newline ();
  print_voltage_tradeoff ();
  print_newline ();
  print_crossovers profiles;
  print_newline ();
  print_hardening ();
  print_newline ();
  print_sequential ();
  print_newline ();
  print_minimizer_ablation ();
  print_newline ();
  print_glitch ();
  print_newline ();
  print_noisy_sequential ();
  print_newline ();
  print_parallel_scaling ();
  print_newline ();
  print_engine_throughput ();
  print_newline ();
  print_grid_throughput ();
  print_newline ();
  run_bechamel profiles
