module Sensitivity = Nano_sim.Sensitivity
module Trees = Nano_circuits.Trees

let test_parity_full_sensitivity () =
  let n = Trees.parity_tree ~inputs:8 ~fanin:2 in
  Alcotest.(check (option int)) "exact" (Some 8) (Sensitivity.exact n);
  Alcotest.(check int) "sampled" 8 (Sensitivity.sampled ~samples:16 n)

let test_and_tree () =
  let n = Trees.and_tree ~inputs:6 ~fanin:3 in
  (* AND: sensitivity 6 at the all-ones assignment. *)
  Alcotest.(check (option int)) "exact" (Some 6) (Sensitivity.exact n)

let test_at_assignment () =
  let n = Trees.and_tree ~inputs:4 ~fanin:2 in
  Alcotest.(check int) "all ones" 4
    (Sensitivity.at_assignment n [| true; true; true; true |]);
  (* At all-zeros no single flip changes AND. *)
  Alcotest.(check int) "all zeros" 0
    (Sensitivity.at_assignment n [| false; false; false; false |]);
  (* At exactly one zero, only that zero is pivotal. *)
  Alcotest.(check int) "one zero" 1
    (Sensitivity.at_assignment n [| true; false; true; true |])

let test_exact_limit () =
  let n = Trees.parity_tree ~inputs:14 ~fanin:2 in
  Alcotest.(check (option int)) "too wide" None
    (Sensitivity.exact ~max_inputs:12 n);
  Alcotest.(check int) "estimate falls back to sampling" 14
    (Sensitivity.estimate ~samples:8 n)

let test_multi_output () =
  (* Corollary 1 convention: a flip counts when any output changes; for
     a ripple adder every input flip changes some sum bit. *)
  let n = Nano_circuits.Adders.ripple_carry ~width:4 in
  Alcotest.(check int) "adder sensitivity = inputs" 9
    (Sensitivity.estimate n)

let test_wide_inputs_chunking () =
  (* More than 63 inputs exercises the multi-chunk path. *)
  let n = Trees.parity_tree ~inputs:100 ~fanin:3 in
  Alcotest.(check int) "parity-100" 100 (Sensitivity.sampled ~samples:4 n)

let test_jobs_deterministic () =
  (* Parallel partitioning must not change any estimate: exhaustive
     search partitions the assignment space, sampling replays segments
     of the sequential seed stream. Golden values recorded from the
     pre-parallel implementation (default seed, 256 samples). *)
  let check name expected =
    let entry = Option.get (Nano_circuits.Suite.find name) in
    let circuit = entry.Nano_circuits.Suite.build () in
    List.iter
      (fun jobs ->
        Alcotest.(check int)
          (Printf.sprintf "%s jobs=%d" name jobs)
          expected
          (Sensitivity.estimate ~samples:256 ~jobs circuit))
      [ 1; 2; 4 ]
  in
  check "c17" 4;
  check "rca8" 17;
  check "parity16" 16

let test_jobs_exact_partition () =
  let n = Trees.parity_tree ~inputs:8 ~fanin:2 in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "exact jobs=%d" jobs)
        (Some 8)
        (Sensitivity.exact ~jobs n))
    [ 1; 2; 4; 7 ]

let prop_sampled_le_exact =
  QCheck2.Test.make ~name:"sampled sensitivity never exceeds exact" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:5 ~gates:15 () in
      match Sensitivity.exact n with
      | None -> false
      | Some exact -> Sensitivity.sampled ~samples:64 n <= exact)

let prop_at_assignment_brute_force =
  QCheck2.Test.make ~name:"at_assignment matches brute force" ~count:50
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 31))
    (fun (seed, assignment) ->
      let netlist = Helpers.random_netlist ~seed ~inputs:5 ~gates:12 () in
      let bits = Array.init 5 (fun i -> (assignment lsr i) land 1 = 1) in
      let outputs bits =
        List.map
          (fun (_, node) -> (Nano_netlist.Netlist.eval_nodes netlist bits).(node))
          (Nano_netlist.Netlist.outputs netlist)
      in
      let base = outputs bits in
      let brute = ref 0 in
      for i = 0 to 4 do
        bits.(i) <- not bits.(i);
        if outputs bits <> base then incr brute;
        bits.(i) <- not bits.(i)
      done;
      Sensitivity.at_assignment netlist bits = !brute)

(* Ring of 3-input majorities over the window {k, k+1, k+3}: output k
   is MAJ (x_k, x_(k+1), x_(k+3)), indices mod n. Flipping x_i changes
   output k exactly when the window's other two bits differ, so the
   sensitivity varies from assignment to assignment, pivotal inputs sit
   on both sides of every 63-input chunk boundary, and the window is not
   mirror-symmetric: reversing the order in which an assignment's bits
   are drawn changes the results. *)
let window = [ 0; 1; 3 ]

let maj_ring n =
  let module B = Nano_netlist.Netlist.Builder in
  let b = B.create ~name:(Printf.sprintf "ring%d" n) () in
  let xs = Array.init n (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  for k = 0 to n - 1 do
    B.output b (Printf.sprintf "f%d" k)
      (B.add b Nano_netlist.Gate.Majority
         (List.map (fun d -> xs.((k + d) mod n)) window))
  done;
  B.finish b

let ring_sensitivity bits =
  let n = Array.length bits in
  let x i = bits.(((i mod n) + n) mod n) in
  let pivotal i =
    List.exists
      (fun d ->
        match List.filter (( <> ) d) window with
        | [ a; b ] -> x (i - d + a) <> x (i - d + b)
        | _ -> assert false)
      window
  in
  List.length (List.filter pivotal (List.init n Fun.id))

let test_at_assignment_wide () =
  (* One assignment spanning 1, 2, 2 and 3 chunk words. *)
  List.iter
    (fun n ->
      let net = maj_ring n in
      let rng = Nano_util.Prng.create ~seed:n in
      for _ = 1 to 5 do
        let bits = Array.init n (fun _ -> Nano_util.Prng.bool rng) in
        Alcotest.(check int)
          (Printf.sprintf "ring%d" n)
          (ring_sensitivity bits)
          (Sensitivity.at_assignment net bits)
      done)
    [ 63; 64; 100; 130 ]

(* Maximum of at_assignment over [samples] assignments drawn the way
   [sampled] documents: [n] bits per sample, in input order. *)
let reference_sampled ~seed ~samples net =
  let n = Nano_netlist.Netlist.input_count net in
  let rng = Nano_util.Prng.create ~seed in
  let best = ref 0 in
  for _ = 1 to samples do
    let bits = Array.init n (fun _ -> Nano_util.Prng.bool rng) in
    best := max !best (Sensitivity.at_assignment net bits)
  done;
  !best

let reference_exact net =
  let n = Nano_netlist.Netlist.input_count net in
  let best = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    let bits = Array.init n (fun i -> (a lsr i) land 1 = 1) in
    best := max !best (Sensitivity.at_assignment net bits)
  done;
  !best

(* The block width is the process-wide default: test/dune reruns this
   suite with NANOBOUND_BLOCK_WIDTH set to 1 and 4, next to the default
   run at 8. Fail loudly if the override did not take effect, so those
   runs cannot silently repeat width 8. *)
let block_width () =
  let block = Nano_netlist.Compiled.default_block_width () in
  (match Option.bind (Sys.getenv_opt "NANOBOUND_BLOCK_WIDTH") int_of_string_opt with
  | Some b when b >= 1 && b <= 16 ->
    Alcotest.(check int) "NANOBOUND_BLOCK_WIDTH in effect" b block
  | _ -> ());
  block

let for_jobs f =
  let block = block_width () in
  List.iter (fun jobs -> f ~block ~jobs) [ 1; 2 ]

let test_sampled_packed_matches_reference () =
  (* 20 and 63 inputs fill one word; 64 and 100 span two, 130 spans
     three. At width 1 every multi-word assignment straddles sweeps; at
     widths 4 and 8 the 3-word ones do. Sample counts are not multiples
     of the width, leaving a partial last sweep. *)
  List.iter
    (fun (n, samples) ->
      let net = maj_ring n in
      let seed = 1000 + n in
      let expected = reference_sampled ~seed ~samples net in
      for_jobs (fun ~block ~jobs ->
          Alcotest.(check int)
            (Printf.sprintf "ring%d samples=%d block=%d jobs=%d" n samples block jobs)
            expected
            (Sensitivity.sampled ~seed ~samples ~jobs net)))
    [ (63, 13); (64, 37); (100, 13); (100, 9); (130, 11); (20, 37) ]

let test_exact_packed_matches_reference () =
  let nets =
    maj_ring 7
    :: List.map
         (fun (seed, inputs) ->
           Helpers.random_netlist ~seed ~inputs ~gates:(3 * inputs) ())
         [ (1, 1); (2, 2); (3, 3); (4, 5); (5, 9) ]
  in
  List.iter
    (fun net ->
      let expected = reference_exact net in
      for_jobs (fun ~block ~jobs ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s block=%d jobs=%d"
               (Nano_netlist.Netlist.name net) block jobs)
            (Some expected)
            (Sensitivity.exact ~jobs net)))
    nets

let test_exact_rejects_overflowing_max_inputs () =
  let net = Trees.parity_tree ~inputs:4 ~fanin:2 in
  List.iter
    (fun max_inputs ->
      Helpers.check_invalid_naming
        (Printf.sprintf "max_inputs %d" max_inputs)
        max_inputs
        (fun () -> Sensitivity.exact ~max_inputs net))
    [ 62; 63; 64; max_int ];
  Alcotest.(check (option int)) "61 still accepted" (Some 4)
    (Sensitivity.exact ~max_inputs:61 net)

let suite =
  [
    Alcotest.test_case "parity full sensitivity" `Quick
      test_parity_full_sensitivity;
    Alcotest.test_case "and tree" `Quick test_and_tree;
    Alcotest.test_case "at_assignment" `Quick test_at_assignment;
    Alcotest.test_case "exact limit" `Quick test_exact_limit;
    Alcotest.test_case "multi output" `Quick test_multi_output;
    Alcotest.test_case "wide inputs chunking" `Quick test_wide_inputs_chunking;
    Alcotest.test_case "jobs deterministic" `Quick test_jobs_deterministic;
    Alcotest.test_case "jobs exact partition" `Quick test_jobs_exact_partition;
    Alcotest.test_case "at_assignment wide" `Quick test_at_assignment_wide;
    Alcotest.test_case "sampled packed = reference" `Quick
      test_sampled_packed_matches_reference;
    Alcotest.test_case "exact packed = reference" `Quick
      test_exact_packed_matches_reference;
    Alcotest.test_case "exact rejects overflowing max_inputs" `Quick
      test_exact_rejects_overflowing_max_inputs;
    Helpers.qcheck prop_sampled_le_exact;
    Helpers.qcheck prop_at_assignment_brute_force;
  ]
