(** Two-level minimization by the Quine–McCluskey procedure with a
    greedy covering step — the exact two-level engine behind the
    [rugged_lite] collapse/resynthesis pass (our stand-in for SIS's
    script.rugged two-level cleanup).

    Cubes are packed into one [int] (a dash mask and a value), so
    prime generation does one hash lookup per cared-for 0 literal of
    each implicant, and the covering step works on per-prime bitsets of
    ON minterms. The cost is bounded by the number of implicants of
    ON ∪ DC (at most [3^arity], far fewer for structured functions)
    times [arity], plus, for {!minimize}, primes × ON-minterms / 62 word
    operations per greedy pick. Both functions raise [Invalid_argument]
    naming the value when [arity] is outside
    [[0, (Sys.int_size - 1) / 2]] (31 on 64-bit hosts: the packed key
    needs [2 * arity] bits) or a minterm is outside [[0, 2^arity)]. *)

val prime_implicants :
  arity:int -> on_set:int list -> dc_set:int list -> Nano_logic.Cube.t list
(** All prime implicants of the ON-set given don't-cares (minterms as
    assignment indices), sorted by {!Nano_logic.Cube.compare}. *)

val minimize :
  arity:int -> on_set:int list -> dc_set:int list -> Nano_logic.Cube.Cover.t
(** Minimal (essential primes + greedy completion) cover of the ON-set.
    The result covers every ON minterm, covers no OFF minterm, and
    consists of prime implicants only: first the essential primes in
    the order of the ON minterms that force them, then greedy picks of
    the prime covering the most uncovered minterms (ties to fewer
    literals, then to the earlier prime). *)

val minimize_table : Nano_logic.Truth_table.t -> Nano_logic.Cube.Cover.t
(** Convenience wrapper with an empty don't-care set. *)

val cover_cost : Nano_logic.Cube.Cover.t -> int * int
(** [(cubes, literals)] — the classical two-level cost. *)
