(* Shared utilities for the test suite. *)

let approx = Alcotest.float 1e-9
let loose = Alcotest.float 1e-6

let check_float = Alcotest.check approx
let check_loose = Alcotest.check loose

let check_in_range msg ~lo ~hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %g not in [%g, %g]" msg x lo hi

let check_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* [f ()] raises Invalid_argument whose message has [value] as a
   space-separated word. *)
let check_invalid_naming msg value f =
  match f () with
  | exception Invalid_argument text ->
    if not (List.mem (string_of_int value) (String.split_on_char ' ' text)) then
      Alcotest.failf "%s: %S does not name %d" msg text value
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let qcheck = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* ------------------------------------------------------------------ *)
(* Random netlists for property tests.                                 *)
(* ------------------------------------------------------------------ *)

module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

(* A random combinational netlist with [inputs] primary inputs and
   [gates] logic gates; deterministic in [seed]. *)
let random_netlist ~seed ~inputs ~gates () =
  let rng = Nano_util.Prng.create ~seed in
  let b = Netlist.Builder.create ~name:(Printf.sprintf "rand%d" seed) () in
  let nodes = ref [] in
  for i = 0 to inputs - 1 do
    nodes := Netlist.Builder.input b (Printf.sprintf "x%d" i) :: !nodes
  done;
  let pick () =
    let arr = Array.of_list !nodes in
    arr.(Nano_util.Prng.int rng ~bound:(Array.length arr))
  in
  for _ = 1 to gates do
    let kind =
      match Nano_util.Prng.int rng ~bound:9 with
      | 0 -> Gate.Not
      | 1 -> Gate.And
      | 2 -> Gate.Or
      | 3 -> Gate.Nand
      | 4 -> Gate.Nor
      | 5 -> Gate.Xor
      | 6 -> Gate.Xnor
      | 7 -> Gate.Majority
      | _ -> Gate.Buf
    in
    let arity =
      match kind with
      | Gate.Not | Gate.Buf -> 1
      | Gate.Majority -> 3
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        2 + Nano_util.Prng.int rng ~bound:2
      | Gate.Input | Gate.Const _ -> 0
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    nodes := Netlist.Builder.add b kind fanins :: !nodes
  done;
  (* Expose a handful of nodes (always including the newest) as outputs. *)
  let arr = Array.of_list !nodes in
  Netlist.Builder.output b "f0" arr.(0);
  if Array.length arr > 1 then Netlist.Builder.output b "f1" arr.(1);
  Netlist.Builder.output b "f2" (pick ());
  Netlist.Builder.finish b

let assert_equivalent msg a b =
  match Nano_synth.Equiv.check a b with
  | Nano_synth.Equiv.Equivalent -> ()
  | Nano_synth.Equiv.Counterexample cex ->
    Alcotest.failf "%s: differ at %s" msg
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) cex))

(* Evaluate one netlist output as an int given integer operand encoding
   helpers; used by arithmetic-circuit tests. *)
let eval_outputs netlist bindings = Netlist.eval netlist bindings

let nat_of_bits bits =
  List.fold_left (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc) 0 bits
