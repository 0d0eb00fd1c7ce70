(** Boolean sensitivity of netlist functions.

    The sensitivity [s] of a function is the largest, over input
    assignments, number of inputs whose individual flip changes some
    output — the parameter driving Theorem 2's redundancy bound. For a
    multi-output circuit we use the characteristic-function convention of
    Corollary 1: an input flip "counts" when any output changes.

    Every entry point runs one evaluation path. An assignment over [n]
    inputs is [ceil (n / 63)] 64-lane words (lane 0 the assignment, each
    other lane one input flipped), and consecutive assignments' words
    are packed into the blocked kernel's [block_width] words per sweep
    ({!Nano_netlist.Compiled.default_block_width}).
    The cost is therefore about [assignments * ceil (n / 63) / block_width]
    gate sweeps plus [n] input writes per word; the result does not
    depend on the block width or the job count. *)

val at_assignment : Nano_netlist.Netlist.t -> bool array -> int
(** Sensitivity at one input assignment (number of single-input flips
    that change the output word). Raises [Invalid_argument] when the
    array length is not the netlist's input count. *)

val exact : ?max_inputs:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int option
(** Exhaustive maximum over all [2^n] assignments; [None] when the
    netlist has more than [max_inputs] (default 12) primary inputs.
    Raises [Invalid_argument] naming the value when [max_inputs]
    exceeds [Sys.int_size - 2] (61 on 64-bit hosts), where
    [2^max_inputs] would overflow an [int].
    [jobs] (default 1) partitions the assignment space across domains.
    The maximum is order-insensitive, so the result is identical for
    every job count and block width. *)

val sampled :
  ?seed:int -> ?samples:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int
(** Monte-Carlo lower estimate: maximum of {!at_assignment} over
    [samples] (default 2048) random assignments, each drawing its [n]
    bits from the seeded stream in input order. Always a valid lower
    bound on the true sensitivity, which keeps Theorem 2's bound sound.
    [jobs] (default 1) shards the samples across domains with each shard
    replaying its segment of the sequential seed stream
    ({!Nano_util.Prng.jump}). Results are bit-identical for every job
    count and block width. *)

val estimate :
  ?seed:int -> ?samples:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int
(** {!exact} when feasible, otherwise {!sampled}. *)
