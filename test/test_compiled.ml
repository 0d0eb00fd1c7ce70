module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Compiled = Nano_netlist.Compiled
module Noisy_sim = Nano_faults.Noisy_sim
module Prng = Nano_util.Prng
module Random_circuit = Nano_circuits.Random_circuit

(* ------------------------------------------------------------------ *)
(* Lowering structure.                                                  *)
(* ------------------------------------------------------------------ *)

let test_memoized () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c1 = Compiled.of_netlist n in
  let c2 = Compiled.of_netlist n in
  Alcotest.(check bool) "same compiled program" true (c1 == c2);
  let c3 = Compiled.compile n in
  Alcotest.(check bool) "compile bypasses the cache" false (c1 == c3)

let test_structure () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c = Compiled.of_netlist n in
  Alcotest.(check int) "node count" (Netlist.node_count n)
    (Compiled.node_count c);
  Alcotest.(check int) "noisy gates = logic size" (Netlist.size n)
    (Compiled.noisy_count c);
  Alcotest.(check (array int)) "input ids" (Netlist.input_ids n)
    (Compiled.input_ids c);
  Alcotest.(check (array int)) "output ids" (Netlist.output_ids n)
    (Compiled.output_ids c);
  (* A noisy gate consumes 64 draws per word, or 1 at epsilon = 1/2; a
     quiet node consumes none. Moving one node to 1/2 therefore shows
     whether the lowering flagged it noisy. *)
  let all_noisy = 64 * Compiled.noisy_count c in
  Netlist.iter n (fun id info ->
      let noisy =
        match info.Netlist.kind with
        | Gate.Input | Gate.Const _ | Gate.Buf -> false
        | _ -> true
      in
      let eps = Array.make (Compiled.node_count c) 0.01 in
      eps.(id) <- 0.5;
      Alcotest.(check int)
        (Printf.sprintf "noisy flag of node %d" id)
        (if noisy then all_noisy - 63 else all_noisy)
        (Compiled.noise_draws_per_word (Compiled.pack_noise c eps)))

(* (block width, words evaluated): width 1, a full block of 8, and a
   ragged 5-word pass through an 8-word block. *)
let blocked_layouts = [ (1, 1); (8, 8); (8, 5) ]

(* Evaluate [n] with the blocked executor over [width] words of a
   [block]-wide program; [words.(j).(i)] is word [j] of input [i].
   Returns the word reader. Words at or past [width] must stay
   untouched, so the reader rejects any that were written. *)
let exec_blocked ~block ~width n words =
  let c = Compiled.of_netlist ~block n in
  let values = Compiled.create_values_blocked c in
  let inputs = Compiled.input_ids c in
  for j = 0 to width - 1 do
    Array.iteri
      (fun i id -> Compiled.set_word_blocked c ~values ~id ~word:j words.(j).(i))
      inputs
  done;
  Compiled.exec_words_blocked c ~width ~values;
  for id = 0 to Compiled.node_count c - 1 do
    for j = width to block - 1 do
      if Compiled.get_word_blocked c ~values ~id ~word:j <> 0L then
        Alcotest.failf "block %d width %d: node %d word %d written" block
          width id j
    done
  done;
  fun ~id ~word -> Compiled.get_word_blocked c ~values ~id ~word

(* Every logic kind at every interesting arity gets its own one-gate
   netlist; the blocked result must equal [Gate.eval_word] on random
   words at every layout. This pins each opcode — including the [_n]
   fallbacks and [maj_n] — to the reference semantics. *)
let test_each_opcode () =
  let rng = Prng.create ~seed:0xc0de in
  List.iter
    (fun kind ->
      let arities =
        match kind with
        | Gate.Not | Gate.Buf -> [ 1 ]
        | Gate.Majority -> [ 3; 5 ]
        | _ -> [ 2; 3; 4 ]
      in
      List.iter
        (fun arity ->
          let b = Netlist.Builder.create ~name:"one_gate" () in
          let xs =
            List.init arity (fun i ->
                Netlist.Builder.input b (Printf.sprintf "x%d" i))
          in
          Netlist.Builder.output b "y" (Netlist.Builder.add b kind xs);
          let n = Netlist.Builder.finish b in
          let y = (Netlist.output_ids n).(0) in
          List.iter
            (fun (block, width) ->
              for _ = 1 to 4 do
                let words =
                  Array.init width (fun _ ->
                      Array.init arity (fun _ -> Prng.bits64 rng))
                in
                let get = exec_blocked ~block ~width n words in
                for j = 0 to width - 1 do
                  Alcotest.(check int64)
                    (Printf.sprintf "%s/%d block %d word %d" (Gate.name kind)
                       arity block j)
                    (Gate.eval_word kind words.(j))
                    (get ~id:y ~word:j)
                done
              done)
            blocked_layouts)
        arities)
    (Gate.Buf :: Gate.all_logic_kinds)

(* Randomized circuits over the full primitive mix: every lane of every
   blocked word must match the scalar single-vector reference. *)
let test_matches_scalar_on_random_circuits () =
  let rng = Prng.create ~seed:0xab1e in
  for seed = 1 to 8 do
    let config =
      {
        Random_circuit.inputs = 6;
        gates = 40;
        outputs = 4;
        allow_majority = true;
        max_fanin = 4;
      }
    in
    let n = Random_circuit.generate ~config ~seed () in
    let n_in = Netlist.input_count n in
    List.iter
      (fun (block, width) ->
        let words =
          Array.init width (fun _ -> Array.init n_in (fun _ -> Prng.bits64 rng))
        in
        let get = exec_blocked ~block ~width n words in
        for j = 0 to width - 1 do
          for lane = 0 to 63 do
            let bits =
              Array.init n_in (fun i -> Nano_util.Bits.get words.(j).(i) lane)
            in
            let scalar = Netlist.eval_nodes n bits in
            for id = 0 to Netlist.node_count n - 1 do
              if Nano_util.Bits.get (get ~id ~word:j) lane <> scalar.(id) then
                Alcotest.failf
                  "seed %d block %d word %d: node %d lane %d disagrees with \
                   eval_nodes"
                  seed block j id lane
            done
          done
        done)
      blocked_layouts
  done

(* ------------------------------------------------------------------ *)
(* Engine equivalence.                                                  *)
(* ------------------------------------------------------------------ *)

let check_results_equal msg (a : Noisy_sim.result) (b : Noisy_sim.result) =
  Alcotest.(check int) (msg ^ ": vectors") a.vectors b.vectors;
  Alcotest.(check (list (pair string (float 0.))))
    (msg ^ ": per-output error") a.per_output_error b.per_output_error;
  Alcotest.(check (float 0.))
    (msg ^ ": any-output error") a.any_output_error b.any_output_error;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node probability") a.node_probability b.node_probability;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node activity") a.node_activity b.node_activity;
  Alcotest.(check (float 0.))
    (msg ^ ": average activity") a.average_gate_activity
    b.average_gate_activity

(* The compiled engine must reproduce the interpretive engine (which
   shares nothing with it but the PRNG stream) bit-for-bit, for every
   job count — and the homogeneous fast path (epsilon = 0.5) and the
   noiseless edge (epsilon = 0) as well. *)
let test_engines_agree () =
  let circuits =
    [
      ("c17", Nano_circuits.Iscas_like.c17 ());
      ("rca8", Nano_circuits.Adders.ripple_carry ~width:8);
      ( "rand",
        Random_circuit.generate
          ~config:
            {
              Random_circuit.inputs = 5;
              gates = 30;
              outputs = 3;
              allow_majority = true;
              max_fanin = 4;
            }
          ~seed:42 () );
    ]
  in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun epsilon ->
          let interp =
            Noisy_sim.simulate ~vectors:1024 ~engine:`Interp ~epsilon n
          in
          List.iter
            (fun jobs ->
              let compiled =
                Noisy_sim.simulate ~vectors:1024 ~jobs ~engine:`Compiled
                  ~epsilon n
              in
              check_results_equal
                (Printf.sprintf "%s eps %g jobs %d" name epsilon jobs)
                interp compiled)
            [ 1; 2; 4 ])
        [ 0.0; 0.02; 0.5 ])
    circuits

let test_engines_agree_heterogeneous () =
  let n = Nano_circuits.Adders.ripple_carry ~width:4 in
  let epsilon_of id = float_of_int (id mod 3) *. 0.01 in
  let interp =
    Noisy_sim.simulate_heterogeneous ~vectors:512 ~input_probability:0.3
      ~engine:`Interp ~epsilon_of n
  in
  List.iter
    (fun jobs ->
      let compiled =
        Noisy_sim.simulate_heterogeneous ~vectors:512 ~input_probability:0.3
          ~jobs ~engine:`Compiled ~epsilon_of n
      in
      check_results_equal
        (Printf.sprintf "heterogeneous jobs %d" jobs)
        interp compiled)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Blocked engine.                                                      *)
(* ------------------------------------------------------------------ *)

(* The blocked engine must reproduce the interpretive reference bit for
   bit at every block width — including width 1, ragged tails (word
   counts not a multiple of the block), biased input densities on both
   sides of 1/2 (the stimulus stub) and every job count. 320 vectors = 5
   words (ragged at widths 4 and 8); 1088 vectors = 17 words (two full
   8-blocks plus a tail of one). The mapped suite circuits then run at
   the default width, where jobs 1 and 4 must both equal the reference
   (and so each other). *)
let test_blocked_bit_identity () =
  let circuits =
    [
      ("c17", Nano_circuits.Iscas_like.c17 ());
      ( "rand",
        Random_circuit.generate
          ~config:
            {
              Random_circuit.inputs = 5;
              gates = 30;
              outputs = 3;
              allow_majority = true;
              max_fanin = 4;
            }
          ~seed:77 () );
    ]
  in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun vectors ->
          List.iter
            (fun (epsilon, input_probability) ->
              let reference =
                Noisy_sim.simulate ~vectors ~input_probability ~engine:`Interp
                  ~epsilon n
              in
              List.iter
                (fun block ->
                  List.iter
                    (fun jobs ->
                      let blocked =
                        Noisy_sim.simulate ~vectors ~input_probability ~jobs
                          ~engine:`Compiled ~block ~epsilon n
                      in
                      check_results_equal
                        (Printf.sprintf "%s v=%d eps=%g p=%g block=%d jobs=%d"
                           name vectors epsilon input_probability block jobs)
                        reference blocked)
                    [ 1; 4 ])
                [ 1; 4; 8 ])
            [
              (0.02, 0.5); (0.02, 0.1); (0.02, 0.9); (0.5, 0.5); (0.5, 0.1);
              (0.5, 0.9);
            ])
        [ 320; 1088 ])
    circuits;
  List.iter
    (fun name ->
      let n =
        Nano_synth.Script.rugged_lite ~max_fanin:3
          ((Option.get (Nano_circuits.Suite.find name)).Nano_circuits.Suite
             .build ())
      in
      List.iter
        (fun input_probability ->
          let simulate engine jobs =
            Noisy_sim.simulate ~vectors:1088 ~input_probability ~jobs ~engine
              ~epsilon:0.01 n
          in
          let reference = simulate `Interp 1 in
          List.iter
            (fun jobs ->
              check_results_equal
                (Printf.sprintf "%s p=%g jobs=%d" name input_probability jobs)
                reference (simulate `Compiled jobs))
            [ 1; 4 ])
        [ 0.5; 0.1; 0.9 ])
    [ "rca8"; "parity16"; "mult8"; "alu8" ]

(* A netlist large enough that the lowering splits it into several
   level-aligned cache segments (192 KiB budget; roughly 80 bytes per
   2-input gate at width 1 and 250 at width 8, so 10 000 gates make
   about four segments at width 1 and a dozen at width 8): the fused
   kernel must stay bit-identical to the interpretive reference across
   segment boundaries, at both widths and under sharding. 640 vectors
   = 10 words, a ragged tail at width 8. *)
let test_multi_segment_vs_interp () =
  let n =
    Random_circuit.generate
      ~config:
        {
          Random_circuit.inputs = 32;
          gates = 10_000;
          outputs = 16;
          allow_majority = true;
          max_fanin = 3;
        }
      ~seed:0x5e9 ()
  in
  let vectors = 640 and epsilon = 0.01 in
  let reference = Noisy_sim.simulate ~vectors ~engine:`Interp ~epsilon n in
  List.iter
    (fun block ->
      List.iter
        (fun jobs ->
          check_results_equal
            (Printf.sprintf "rand10k block=%d jobs=%d" block jobs)
            reference
            (Noisy_sim.simulate ~vectors ~jobs ~engine:`Compiled ~block
               ~epsilon n))
        [ 1; 2 ])
    [ 1; 8 ]

(* The memo is keyed by (netlist, block_width): mixed-width callers get
   distinct cached programs, and the width registry reports every width
   compiled so far. *)
let test_memo_block_width_keyed () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let default = Compiled.default_block_width () in
  let cd = Compiled.of_netlist n in
  let c4 = Compiled.of_netlist ~block:4 n in
  Alcotest.(check bool) "distinct programs per width" false (cd == c4);
  Alcotest.(check int) "default width" default (Compiled.block_width cd);
  Alcotest.(check int) "explicit width" 4 (Compiled.block_width c4);
  Alcotest.(check bool)
    "width-4 entry cached" true
    (c4 == Compiled.of_netlist ~block:4 n);
  Alcotest.(check bool) "default entry cached" true (cd == Compiled.of_netlist n);
  let widths = Compiled.cached_block_widths () in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "width %d registered" w)
        true (List.mem w widths))
    [ 4; default ]

(* Every pack validator must name the offending lane or node. *)
let test_pack_validation_messages () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c = Compiled.of_netlist n in
  let check name expected f =
    Alcotest.check_raises name (Invalid_argument expected) (fun () ->
        ignore (f ()))
  in
  check "pack_grid names the lane and value"
    "Compiled.pack_grid: lane 1 (every gate): epsilon 0.9 must lie in [0, 1/2]"
    (fun () -> Compiled.pack_grid c [| 0.1; 0.9 |]);
  let eps = Array.make (Compiled.node_count c) 0.01 in
  let bad = (Compiled.output_ids c).(0) in
  eps.(bad) <- 0.6;
  check "pack_noise names the node"
    (Printf.sprintf
       "Compiled.pack_noise: node %d: epsilon must lie in [0, 1/2]" bad)
    (fun () -> Compiled.pack_noise c eps);
  check "pack_grid_heterogeneous rejects an empty lane set"
    "Compiled.pack_grid_heterogeneous: need at least one lane" (fun () ->
      Compiled.pack_grid_heterogeneous c [||]);
  check "pack_grid_heterogeneous names the short lane"
    (Printf.sprintf
       "Compiled.pack_grid_heterogeneous: lane 1: expected %d epsilons (one \
        per node), got 3"
       (Compiled.node_count c))
    (fun () ->
      Compiled.pack_grid_heterogeneous c
        [| Array.make (Compiled.node_count c) 0.1; Array.make 3 0.1 |]);
  let rows =
    [|
      Array.make (Compiled.node_count c) 0.1;
      Array.make (Compiled.node_count c) 0.2;
    |]
  in
  rows.(1).(bad) <- 0.75;
  check "pack_grid_heterogeneous names the lane and node"
    (Printf.sprintf
       "Compiled.pack_grid_heterogeneous: lane 1, node %d: epsilon 0.75 must \
        lie in [0, 1/2]"
       bad)
    (fun () -> Compiled.pack_grid_heterogeneous c rows)

(* The ROADMAP invariant carried over to the blocked kernel: once the
   pack and the blocked buffers exist, the fused noisy sweep allocates
   nothing on the minor heap. *)
let test_blocked_zero_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let n = Nano_circuits.Adders.ripple_carry ~width:8 in
    let c = Compiled.of_netlist n in
    let rng = Prng.create ~seed:9 in
    let noise =
      Compiled.pack_noise c (Array.make (Compiled.node_count c) 0.02)
    in
    let golden = Compiled.create_values_blocked c in
    let na = Compiled.create_values_blocked c in
    let nb = Compiled.create_values_blocked c in
    let count = Compiled.node_count c in
    let ones = Array.make count 0 in
    let toggles = Array.make count 0 in
    let out_errors = Array.make (Array.length (Compiled.output_ids c)) 0 in
    let any = ref 0 in
    let loop words =
      any :=
        !any
        + Compiled.run_noisy_words c ~noise ~rng ~input_probability:0.3 ~words
            ~golden ~na ~nb ~ones ~toggles ~out_errors
    in
    (* Warm-up triggers any one-time lazy initialization. *)
    loop 2;
    let before = Gc.minor_words () in
    loop 64;
    let allocated = Gc.minor_words () -. before in
    if allocated <> 0. then
      Alcotest.failf
        "blocked noisy loop allocated %.0f minor words over 64 words" allocated

let suite =
  [
    Alcotest.test_case "memoized per netlist" `Quick test_memoized;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "each opcode matches Gate.eval_word" `Quick
      test_each_opcode;
    Alcotest.test_case "random circuits match scalar eval" `Quick
      test_matches_scalar_on_random_circuits;
    Alcotest.test_case "engines agree (homogeneous)" `Quick test_engines_agree;
    Alcotest.test_case "engines agree (heterogeneous)" `Quick
      test_engines_agree_heterogeneous;
    Alcotest.test_case "blocked engine bit-identical at widths 1/4/8" `Quick
      test_blocked_bit_identity;
    Alcotest.test_case "multi-segment netlist matches interp" `Quick
      test_multi_segment_vs_interp;
    Alcotest.test_case "memo keyed by (netlist, block width)" `Quick
      test_memo_block_width_keyed;
    Alcotest.test_case "pack validation names lane/node" `Quick
      test_pack_validation_messages;
    Alcotest.test_case "blocked noisy loop allocates nothing" `Quick
      test_blocked_zero_allocation;
  ]
