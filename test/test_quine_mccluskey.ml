module QM = Nano_synth.Quine_mccluskey
module Cube = Nano_logic.Cube
module TT = Nano_logic.Truth_table
module Std = Nano_logic.Std_functions

let cover_equals_table ~arity cover tt =
  TT.equal (Cube.Cover.to_truth_table ~arity cover) tt

(* Reference oracle: the original pairwise Quine–McCluskey over boxed
   cubes. Rounds merge every distance-1 pair; cubes that never merge are
   prime. The covering step picks essential primes in minterm order,
   then greedily the prime covering the most uncovered minterms (ties to
   fewer literals, then to the lowest index). *)
module Reference = struct
  module Cube_set = Set.Make (Cube)

  let prime_implicants ~arity ~on_set ~dc_set =
    let initial =
      List.sort_uniq compare (on_set @ dc_set)
      |> List.map (Cube.of_minterm ~arity)
    in
    let rec rounds current primes =
      if current = [] then primes
      else begin
        let arr = Array.of_list current in
        let n = Array.length arr in
        let merged = Array.make n false in
        let next = ref Cube_set.empty in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            match Cube.merge_distance1 arr.(i) arr.(j) with
            | Some m ->
              merged.(i) <- true;
              merged.(j) <- true;
              next := Cube_set.add m !next
            | None -> ()
          done
        done;
        let primes = ref primes in
        Array.iteri
          (fun i c -> if not merged.(i) then primes := Cube_set.add c !primes)
          arr;
        rounds (Cube_set.elements !next) !primes
      end
    in
    Cube_set.elements (rounds initial Cube_set.empty)

  let minimize ~arity ~on_set ~dc_set =
    match on_set with
    | [] -> []
    | _ ->
      let primes = Array.of_list (prime_implicants ~arity ~on_set ~dc_set) in
      let on = Array.of_list (List.sort_uniq compare on_set) in
      let covers =
        Array.map
          (fun p ->
            List.filter
              (fun m -> Cube.covers p on.(m))
              (List.init (Array.length on) Fun.id))
          primes
      in
      let covered = Array.make (Array.length on) false in
      let chosen = ref [] in
      let choose p =
        chosen := primes.(p) :: !chosen;
        List.iter (fun m -> covered.(m) <- true) covers.(p)
      in
      Array.iteri
        (fun m _ ->
          let holders =
            List.filter
              (fun p -> List.mem m covers.(p))
              (List.init (Array.length primes) Fun.id)
          in
          match holders with
          | [ only ] when not covered.(m) -> choose only
          | _ -> ())
        on;
      let gain p =
        List.length (List.filter (fun m -> not covered.(m)) covers.(p))
      in
      while Array.exists not covered do
        let best = ref (-1) and best_gain = ref 0 and best_cost = ref max_int in
        Array.iteri
          (fun p prime ->
            let g = gain p and cost = Cube.literal_count prime in
            if g > !best_gain || (g = !best_gain && g > 0 && cost < !best_cost)
            then begin
              best := p;
              best_gain := g;
              best_cost := cost
            end)
          primes;
        choose !best
      done;
      List.rev !chosen
end

let test_textbook_example () =
  (* Classic example: f = Σm(0, 1, 2, 5, 6, 7) over 3 vars minimizes to
     4 cubes... actually to 3: ~x2~x1, x1~x0? Use correctness checks
     instead of pinning a particular shape. *)
  let on_set = [ 0; 1; 2; 5; 6; 7 ] in
  let cover = QM.minimize ~arity:3 ~on_set ~dc_set:[] in
  let tt = TT.create ~arity:3 (fun a -> List.mem a on_set) in
  Alcotest.(check bool) "covers exactly" true (cover_equals_table ~arity:3 cover tt);
  Alcotest.(check bool) "minimized below minterm count" true
    (Cube.Cover.cube_count cover < 6)

let test_prime_implicants_xor () =
  (* XOR has no mergeable minterm pairs: primes = minterms. *)
  let primes = QM.prime_implicants ~arity:2 ~on_set:[ 1; 2 ] ~dc_set:[] in
  Alcotest.(check int) "two primes" 2 (List.length primes);
  List.iter
    (fun p -> Alcotest.(check int) "full literals" 2 (Cube.literal_count p))
    primes

let test_full_cover_collapses () =
  (* Tautology: all 2^n minterms merge into the universal cube. *)
  let on_set = List.init 16 (fun i -> i) in
  let cover = QM.minimize ~arity:4 ~on_set ~dc_set:[] in
  Alcotest.(check int) "single cube" 1 (Cube.Cover.cube_count cover);
  Alcotest.(check int) "no literals" 0 (Cube.Cover.literal_count cover)

let test_dont_cares_help () =
  (* f on {1}, dc on {3}: with the dc the cover is x0 (one literal);
     without it, x0 & ~x1 (two literals). *)
  let with_dc = QM.minimize ~arity:2 ~on_set:[ 1 ] ~dc_set:[ 3 ] in
  let without = QM.minimize ~arity:2 ~on_set:[ 1 ] ~dc_set:[] in
  Alcotest.(check int) "with dc: 1 literal" 1
    (Cube.Cover.literal_count with_dc);
  Alcotest.(check int) "without dc: 2 literals" 2
    (Cube.Cover.literal_count without);
  (* the dc cover must still never cover OFF minterms (0 and 2) *)
  Alcotest.(check bool) "off 0" false (Cube.Cover.eval with_dc 0);
  Alcotest.(check bool) "off 2" false (Cube.Cover.eval with_dc 2)

let test_empty_function () =
  Alcotest.(check int) "empty cover" 0
    (Cube.Cover.cube_count (QM.minimize ~arity:3 ~on_set:[] ~dc_set:[ 1 ]))

let test_majority_cover () =
  let tt = Std.majority ~arity:3 in
  let cover = QM.minimize_table tt in
  Alcotest.(check bool) "correct" true (cover_equals_table ~arity:3 cover tt);
  (* maj3 = three 2-literal cubes *)
  Alcotest.(check int) "three cubes" 3 (Cube.Cover.cube_count cover);
  Alcotest.(check int) "six literals" 6 (Cube.Cover.literal_count cover)

let test_cover_cost () =
  let cubes, literals =
    QM.cover_cost [ Cube.of_string "1-0"; Cube.of_string "--1" ]
  in
  Alcotest.(check int) "cubes" 2 cubes;
  Alcotest.(check int) "literals" 3 literals

let prop_minimize_correct =
  QCheck2.Test.make ~name:"QM cover equals original function" ~count:80
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 6))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      cover_equals_table ~arity:n (QM.minimize_table tt) tt)

let prop_all_primes =
  QCheck2.Test.make ~name:"chosen cubes are prime implicants" ~count:40
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let on_set = TT.minterms tt in
      let primes = QM.prime_implicants ~arity:n ~on_set ~dc_set:[] in
      let cover = QM.minimize ~arity:n ~on_set ~dc_set:[] in
      List.for_all (fun c -> List.exists (Cube.equal c) primes) cover)

(* Random three-valued function over [arity] inputs: each minterm is on,
   dc or off with equal odds. Returns [(on_set, dc_set, off_set)]. *)
let random_on_dc_off ~seed ~arity =
  let rng = Nano_util.Prng.create ~seed in
  let kind = Array.init (1 lsl arity) (fun _ -> Nano_util.Prng.int rng ~bound:3) in
  let collect v =
    List.filter (fun m -> kind.(m) = v) (List.init (Array.length kind) Fun.id)
  in
  (collect 0, collect 1, collect 2)

let prop_never_covers_offset =
  QCheck2.Test.make ~name:"cover avoids the OFF-set even with dc" ~count:60
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, arity) ->
      let on_set, dc_set, off_set = random_on_dc_off ~seed ~arity in
      let cover = QM.minimize ~arity ~on_set ~dc_set in
      List.for_all (fun m -> Cube.Cover.eval cover m) on_set
      && List.for_all (fun m -> not (Cube.Cover.eval cover m)) off_set)

let cubes = Alcotest.(list (testable (Fmt.of_to_string Cube.to_string) Cube.equal))

let prop_matches_reference =
  QCheck2.Test.make ~name:"packed QM equals the pairwise reference" ~count:60
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 8))
    (fun (seed, arity) ->
      let on_set, dc_set, _ = random_on_dc_off ~seed ~arity in
      Alcotest.check cubes "primes"
        (Reference.prime_implicants ~arity ~on_set ~dc_set)
        (QM.prime_implicants ~arity ~on_set ~dc_set);
      Alcotest.check cubes "cover"
        (Reference.minimize ~arity ~on_set ~dc_set)
        (QM.minimize ~arity ~on_set ~dc_set);
      true)

let test_matches_reference_on_tables () =
  (* Dense and structured functions: many merges, many primes. *)
  List.iter
    (fun (name, tt) ->
      let arity = TT.arity tt and on_set = TT.minterms tt in
      Alcotest.check cubes name
        (Reference.minimize ~arity ~on_set ~dc_set:[])
        (QM.minimize_table tt))
    [
      ("majority5", Std.majority ~arity:5);
      ("parity4", Std.parity ~arity:4);
      ("tautology3", TT.create ~arity:3 (fun _ -> true));
    ]

let test_rugged_lite_digests () =
  (* Strash digests of rugged_lite on the narrow (collapsed and
     minimized) circuits, recorded with the pairwise implementation. *)
  let module C = Nano_circuits in
  List.iter
    (fun (name, net, expected) ->
      Alcotest.(check string) name expected
        (Nano_synth.Strash.digest (Nano_synth.Script.rugged_lite net)))
    [
      ("rca4", C.Adders.ripple_carry ~width:4, "73eeaad295aff9b2d775531488fa7637");
      ("mult4", C.Multipliers.array_multiplier ~width:4, "90a38233f30186c891e6a7c770a32a5a");
      ("cmp5", C.Trees.comparator ~width:5, "5d5d8be0edb5359deb0d02d592b7297c");
      ("alu2", C.Alu.make ~width:2, "965d223c5572e1149e7efa35b2fc954b");
    ]

let test_rejects_bad_inputs () =
  Helpers.check_invalid_naming "on minterm 2^arity" 8 (fun () ->
      QM.minimize ~arity:3 ~on_set:[ 1; 8 ] ~dc_set:[]);
  Helpers.check_invalid_naming "negative on minterm" (-1) (fun () ->
      QM.prime_implicants ~arity:3 ~on_set:[ -1 ] ~dc_set:[]);
  Helpers.check_invalid_naming "dc minterm out of range" 16 (fun () ->
      QM.minimize ~arity:4 ~on_set:[ 0 ] ~dc_set:[ 16 ]);
  Helpers.check_invalid_naming "dc-only out of range" 4 (fun () ->
      QM.minimize ~arity:2 ~on_set:[] ~dc_set:[ 4 ]);
  Helpers.check_invalid_naming "arity too large" 40 (fun () ->
      QM.prime_implicants ~arity:40 ~on_set:[ 0 ] ~dc_set:[]);
  Helpers.check_invalid_naming "arity too large (minimize)" 32 (fun () ->
      QM.minimize ~arity:32 ~on_set:[ 0 ] ~dc_set:[]);
  Helpers.check_invalid_naming "negative arity" (-1) (fun () ->
      QM.minimize ~arity:(-1) ~on_set:[ 0 ] ~dc_set:[]);
  (* The largest packed arity still works. *)
  Alcotest.(check int) "arity 31" 1
    (List.length (QM.minimize ~arity:31 ~on_set:[ (1 lsl 31) - 1 ] ~dc_set:[]))

let suite =
  [
    Alcotest.test_case "textbook example" `Quick test_textbook_example;
    Alcotest.test_case "xor primes" `Quick test_prime_implicants_xor;
    Alcotest.test_case "tautology collapses" `Quick test_full_cover_collapses;
    Alcotest.test_case "don't cares help" `Quick test_dont_cares_help;
    Alcotest.test_case "empty function" `Quick test_empty_function;
    Alcotest.test_case "majority cover" `Quick test_majority_cover;
    Alcotest.test_case "cover cost" `Quick test_cover_cost;
    Helpers.qcheck prop_minimize_correct;
    Helpers.qcheck prop_all_primes;
    Helpers.qcheck prop_never_covers_offset;
    Helpers.qcheck prop_matches_reference;
    Alcotest.test_case "matches reference on tables" `Quick
      test_matches_reference_on_tables;
    Alcotest.test_case "rugged_lite digests" `Quick test_rugged_lite_digests;
    Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_inputs;
  ]
