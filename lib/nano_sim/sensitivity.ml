module Netlist = Nano_netlist.Netlist
module Compiled = Nano_netlist.Compiled
module Par = Nano_util.Par
module Prng = Nano_util.Prng
module Bits = Nano_util.Bits

(* Bit-parallel flip evaluation. An assignment over [n] inputs becomes
   [ceil (n / 63)] chunk words: in chunk [k]'s word, lane 0 carries the
   assignment and lane [j] (1 <= j <= 63) the assignment with input
   [63k + j - 1] flipped. The (assignment, chunk) items of [count]
   consecutive assignments are streamed into consecutive words of the
   blocked buffer, [block_width] per sweep, so narrow netlists fill every
   word of a sweep and an assignment may straddle two sweeps. Each
   assignment's changed-input count is summed over the words it spans.
   [fill bits] writes the next assignment into [bits]; it is called once
   per assignment, in order. Returns the largest count. *)
let max_over_stream c ~count ~fill =
  let input_ids = Compiled.input_ids c in
  let out_ids = Compiled.output_ids c in
  let n = Array.length input_ids in
  let nchunks = (n + 62) / 63 in
  let block = Compiled.block_width c in
  let values = Compiled.create_values_blocked c in
  let bits = Array.make n false in
  let total = count * nchunks in
  let best = ref 0 and changed = ref 0 in
  let item = ref 0 in
  while !item < total do
    let width = min block (total - !item) in
    for j = 0 to width - 1 do
      let chunk = (!item + j) mod nchunks in
      if chunk = 0 then fill bits;
      let chunk_start = chunk * 63 in
      let flips = min 63 (n - chunk_start) in
      for i = 0 to n - 1 do
        let base = if bits.(i) then -1L else 0L in
        let local = i - chunk_start in
        let w =
          if local >= 0 && local < flips then
            Int64.logxor base (Int64.shift_left 1L (local + 1))
          else base
        in
        Compiled.set_word_blocked c ~values ~id:input_ids.(i) ~word:j w
      done
    done;
    Compiled.exec_words_blocked c ~width ~values;
    for j = 0 to width - 1 do
      let chunk = (!item + j) mod nchunks in
      let flips = min 63 (n - (chunk * 63)) in
      (* A lane differs from lane 0 when some output bit differs. *)
      let diff = ref 0L in
      for o = 0 to Array.length out_ids - 1 do
        let w = Compiled.get_word_blocked c ~values ~id:out_ids.(o) ~word:j in
        (* Spread lane 0's bit across all lanes and XOR. *)
        diff := Int64.logor !diff (Int64.logxor w (Int64.neg (Int64.logand w 1L)))
      done;
      (* Each input lives in exactly one chunk, so summing over chunks
         counts distinct changed inputs. *)
      changed :=
        !changed
        + Bits.popcount64
            (Int64.logand !diff (Int64.shift_left (Bits.ones_below flips) 1));
      if chunk = nchunks - 1 then begin
        if !changed > !best then best := !changed;
        changed := 0
      end
    done;
    item := !item + width
  done;
  !best

let at_assignment netlist bits =
  let c = Compiled.of_netlist netlist in
  if Array.length bits <> Array.length (Compiled.input_ids c) then
    invalid_arg "Sensitivity.at_assignment: wrong number of input bits";
  max_over_stream c ~count:1 ~fill:(fun dst ->
      Array.blit bits 0 dst 0 (Array.length bits))

(* 2^max_inputs assignments must be a positive int. *)
let max_exact_inputs = Sys.int_size - 2

let exact ?(max_inputs = 12) ?(jobs = 1) netlist =
  if max_inputs > max_exact_inputs then
    invalid_arg
      (Printf.sprintf "Sensitivity.exact: max_inputs %d exceeds %d" max_inputs
         max_exact_inputs);
  let n = Netlist.input_count netlist in
  if n > max_inputs then None
  else begin
    (* Partition the assignment space [0, 2^n) into contiguous ranges;
       the maximum is order-insensitive, so the result cannot depend on
       the job count. Each shard streams its own range through its own
       buffer, sharing only the read-only compiled program. *)
    let c = Compiled.of_netlist netlist in
    let shard (lo, hi) =
      let next = ref lo in
      max_over_stream c ~count:(hi - lo) ~fill:(fun bits ->
          let a = !next in
          incr next;
          for i = 0 to n - 1 do
            bits.(i) <- (a lsr i) land 1 = 1
          done)
    in
    Some (Array.fold_left max 0 (Par.map ~jobs shard (Par.ranges ~jobs (1 lsl n))))
  end

let sampled ?(seed = 0x5e15) ?(samples = 2048) ?(jobs = 1) netlist =
  let n = Netlist.input_count netlist in
  let c = Compiled.of_netlist netlist in
  (* Each sample consumes exactly [n] PRNG draws (one per input bit, in
     input order), so a shard handling samples [lo, hi) jumps the seed
     stream to draw [lo * n] and replays the exact segment the
     sequential loop would use: results are bit-identical for every job
     count and block width. *)
  let shard (lo, hi) =
    let rng = Prng.create ~seed in
    Prng.jump rng ~draws:(lo * n);
    max_over_stream c ~count:(hi - lo) ~fill:(fun bits ->
        for i = 0 to n - 1 do
          bits.(i) <- Prng.bool rng
        done)
  in
  Array.fold_left max 0 (Par.map ~jobs shard (Par.ranges ~jobs samples))

let estimate ?seed ?samples ?jobs netlist =
  match exact ?jobs netlist with
  | Some s -> s
  | None -> sampled ?seed ?samples ?jobs netlist
