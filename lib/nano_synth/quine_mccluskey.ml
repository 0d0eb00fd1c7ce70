module Cube = Nano_logic.Cube

(* A cube packed into one int: bit [i] is position [i]'s value and bit
   [arity + i] is set when position [i] is a dash. Dash positions carry
   value 0, so equal cubes have equal keys, and two arities' worth of
   bits must fit a non-negative int. *)
let max_arity = (Sys.int_size - 1) / 2

module Key_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let check_inputs ~arity ~on_set ~dc_set =
  if arity < 0 || arity > max_arity then
    invalid_arg
      (Printf.sprintf "Quine_mccluskey: arity %d outside [0, %d]" arity
         max_arity);
  let check m =
    if m < 0 || m lsr arity <> 0 then
      invalid_arg
        (Printf.sprintf "Quine_mccluskey: minterm %d outside [0, 2^%d)" m arity)
  in
  List.iter check on_set;
  List.iter check dc_set

(* Cube.compare order on packed keys: positions compared from 0 up,
   Zero < One < Dont_care, read as a base-3 number (3^31 < 2^62). *)
let rank ~arity key =
  let r = ref 0 in
  for i = 0 to arity - 1 do
    let code =
      if (key lsr (arity + i)) land 1 = 1 then 2 else (key lsr i) land 1
    in
    r := (!r * 3) + code
  done;
  !r

let to_cube ~arity key =
  Cube.make
    (Array.init arity (fun i ->
         if (key lsr (arity + i)) land 1 = 1 then Cube.Dont_care
         else if (key lsr i) land 1 = 1 then Cube.One
         else Cube.Zero))

(* Prime implicants of ON ∪ DC as packed keys in Cube.compare order.
   Round k holds every implicant with k dashes. A cube's only merge
   partners are its copies with one cared-for 0 bit set to 1, so each
   round is one hash lookup per such bit instead of a pairwise scan.
   The merged cube is emitted only from its lowest dash, so every cube
   enters the next round exactly once; cubes that never merge are prime. *)
let packed_primes ~arity ~on_set ~dc_set =
  check_inputs ~arity ~on_set ~dc_set;
  let full = (1 lsl arity) - 1 in
  let primes = ref [] in
  let rec round cubes =
    let n = Array.length cubes in
    if n > 0 then begin
      let index = Key_table.create (2 * n) in
      Array.iteri (fun i key -> Key_table.replace index key i) cubes;
      let merged = Array.make n false in
      let next = ref [] in
      Array.iteri
        (fun i key ->
          let value = key land full and dash = key lsr arity in
          let lowest_dash = if dash = 0 then full + 1 else dash land -dash in
          let zeros = ref (full land lnot (dash lor value)) in
          while !zeros <> 0 do
            let bit = !zeros land - !zeros in
            zeros := !zeros lxor bit;
            match Key_table.find_opt index (key lor bit) with
            | Some j ->
              merged.(i) <- true;
              merged.(j) <- true;
              if bit < lowest_dash then
                next := (((dash lor bit) lsl arity) lor value) :: !next
            | None -> ()
          done)
        cubes;
      Array.iteri
        (fun i key -> if not merged.(i) then primes := key :: !primes)
        cubes;
      round (Array.of_list !next)
    end
  in
  round (Array.of_list (List.sort_uniq compare (on_set @ dc_set)));
  let ranked = Array.of_list (List.map (fun k -> (rank ~arity k, k)) !primes) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) ranked;
  Array.map snd ranked

let prime_implicants ~arity ~on_set ~dc_set =
  Array.to_list
    (Array.map (to_cube ~arity) (packed_primes ~arity ~on_set ~dc_set))

(* ON-minterm bitsets, 62 bits per word, so every word is a
   non-negative int and [popcount] needs no int64 (which would box per
   call across the library boundary). *)
let bits_per_word = 62

let popcount w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let minimize ~arity ~on_set ~dc_set =
  match on_set with
  | [] ->
    check_inputs ~arity ~on_set ~dc_set;
    []
  | _ ->
    let primes = packed_primes ~arity ~on_set ~dc_set in
    let on = Array.of_list (List.sort_uniq compare on_set) in
    let n_on = Array.length on in
    let n_primes = Array.length primes in
    let words = (n_on + bits_per_word - 1) / bits_per_word in
    let on_index = Key_table.create (2 * n_on) in
    Array.iteri (fun m minterm -> Key_table.replace on_index minterm m) on;
    (* covers.(p) = ON minterms inside prime p, found by enumerating the
       prime's 2^dashes minterms (all of them lie in ON ∪ DC). holders
       counts the primes covering each minterm; last_holder is the only
       one when that count is 1. *)
    let holders = Array.make n_on 0 in
    let last_holder = Array.make n_on 0 in
    let covers =
      Array.mapi
        (fun p key ->
          let set = Array.make words 0 in
          let value = key land ((1 lsl arity) - 1) and dash = key lsr arity in
          let sub = ref dash and more = ref true in
          while !more do
            (match Key_table.find_opt on_index (value lor !sub) with
            | Some m ->
              let w = m / bits_per_word in
              set.(w) <- set.(w) lor (1 lsl (m mod bits_per_word));
              holders.(m) <- holders.(m) + 1;
              last_holder.(m) <- p
            | None -> ());
            if !sub = 0 then more := false else sub := (!sub - 1) land dash
          done;
          set)
        primes
    in
    let literals =
      Array.map (fun key -> arity - popcount (key lsr arity)) primes
    in
    let uncovered =
      Array.init words (fun w ->
          let bits = min bits_per_word (n_on - (w * bits_per_word)) in
          (1 lsl bits) - 1)
    in
    let chosen = ref [] in
    let choose p =
      chosen := p :: !chosen;
      Array.iteri
        (fun w set -> uncovered.(w) <- uncovered.(w) land lnot set)
        covers.(p)
    in
    let is_uncovered m =
      (uncovered.(m / bits_per_word) lsr (m mod bits_per_word)) land 1 = 1
    in
    (* Essential primes: minterms covered by exactly one prime, taken in
       minterm order. *)
    for m = 0 to n_on - 1 do
      if holders.(m) = 1 && is_uncovered m then choose last_holder.(m)
    done;
    (* Greedy completion: repeatedly take the prime covering the most
       uncovered minterms, ties broken toward fewer literals, then
       toward the lowest prime index. *)
    let gain p =
      let set = covers.(p) in
      let g = ref 0 in
      for w = 0 to words - 1 do
        g := !g + popcount (set.(w) land uncovered.(w))
      done;
      !g
    in
    while Array.exists (fun w -> w <> 0) uncovered do
      let best = ref (-1) and best_gain = ref 0 and best_cost = ref max_int in
      for p = 0 to n_primes - 1 do
        let g = gain p in
        if g > !best_gain || (g = !best_gain && g > 0 && literals.(p) < !best_cost)
        then begin
          best := p;
          best_gain := g;
          best_cost := literals.(p)
        end
      done;
      assert (!best >= 0);
      choose !best
    done;
    List.rev_map (fun p -> to_cube ~arity primes.(p)) !chosen

let minimize_table tt =
  minimize
    ~arity:(Nano_logic.Truth_table.arity tt)
    ~on_set:(Nano_logic.Truth_table.minterms tt)
    ~dc_set:[]

let cover_cost cover =
  (Cube.Cover.cube_count cover, Cube.Cover.literal_count cover)
