(** Exhaustive enumeration of all databases over a schema with a bounded
    domain — the brute-force side of verifying universally quantified
    statements such as condition (≤) of Definition 3 on small instances.

    The space is every subset of the potential atoms over domains
    [{#1}, {#1,#2}, …, {#1…#max_size}], crossed with every binding of the
    schema's constants to domain elements.  The size is
    [2^(Σ_R n^{arity R}) · n^{#constants}] per domain size [n]; enumeration
    refuses to start when the total number of potential atoms exceeds
    {!max_potential_atoms}. *)

open Bagcq_relational

val max_potential_atoms : int
(** 22 — caps the enumeration at ~4M atom subsets per constant binding. *)

val potential_atoms : Schema.t -> size:int -> (Symbol.t * Tuple.t) list

val fold :
  ?budget:Bagcq_guard.Budget.t ->
  ?with_constants:bool ->
  Schema.t ->
  max_size:int ->
  ('a -> Structure.t -> 'a) ->
  'a ->
  'a
(** Folds over every database, isomorphic copies included (only
    {!find_guarded_par} prunes them).  When [with_constants] (default
    true) every assignment of the schema's constants to domain elements
    is enumerated too; otherwise constants are left uninterpreted.
    Raises [Invalid_argument] when the space is too large.  A [?budget] is
    ticked once per candidate database; when it trips, the fold unwinds
    with {!Bagcq_guard.Budget.Exhausted_}. *)

type stats = {
  databases_tested : int;
      (** candidate databases handed to the predicate: one per isomorphism
          orbit the sweep reached *)
  candidates_pruned : int;
      (** candidates skipped because a renaming of the domain maps them to
          an earlier one *)
  largest_size_completed : int;
      (** every database of this domain size (and below) was enumerated *)
}

val count_space : Schema.t -> size:int -> int
(** Number of potential atoms at one domain size (not the number of
    databases). *)

(** {2 Sweeps over worker domains}

    The mask enumeration fanned over a {!Bagcq_parallel.Pool.sweep}: each
    worker domain gets its own {!Bagcq_guard.Budget} shard drawn from the
    caller's budget (exhaustion in any shard stops the sweep; ticks are
    summed back into the parent before returning), and the predicate
    receives the worker's shard so its own backtracking ticks the right
    budget.  With [jobs = 1] (the default) nothing is spawned and the
    caller's budget is used directly. *)

val max_symmetries : int
(** 120 — {!find_guarded_par} prunes isomorphic candidates at the domain
    sizes [n] with [n! <= max_symmetries] (up to 5), and tests every
    candidate above. *)

val find_guarded_par :
  budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?with_constants:bool ->
  Schema.t ->
  max_size:int ->
  (budget:Bagcq_guard.Budget.t -> Structure.t -> bool) ->
  (Structure.t option * stats, stats) Bagcq_guard.Outcome.t
(** The exhaustive find, the only one: the first database in enumeration
    order (domain size, then atom subset, then constant binding) for
    which the predicate holds.  [Complete (witness, stats)] when the
    enumeration ran to the end or found a witness, or [Exhausted (stats,
    reason)] with best-so-far statistics when the budget tripped —
    including trips inside the predicate.  The budget is ticked once per
    candidate before the predicate runs.  The sweep is
    {!First_witness.run}, one round per domain size, so the witness does
    not depend on [jobs]; other workers may test a few candidates past it,
    so [databases_tested] and [candidates_pruned] can.

    {b The predicate must be invariant under renaming domain elements}:
    it must hold on a database iff it holds on every isomorphic copy
    (atoms and constant bindings renamed alike).  Hom counts are, so
    condition (≤) of Definition 3 is.  The sweep relies on it to test one
    candidate per isomorphism orbit: a candidate reaches the predicate
    (and ticks the budget) only if no renaming of the domain maps it to
    an earlier candidate (smaller mask, or same mask and earlier
    binding).  The first witness is the least member of its orbit, so
    the witness is the one an unpruned scan returns.  At domain sizes
    above {!max_symmetries} every candidate is tested. *)

val fold_par :
  ?budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?with_constants:bool ->
  Schema.t ->
  max_size:int ->
  worker:(unit -> 'w) ->
  f:(budget:Bagcq_guard.Budget.t -> 'w -> Structure.t -> unit) ->
  unit ->
  'w array
(** Parallel {!fold} with per-worker mutable state: [worker ()] allocates
    each worker's accumulator, [f] folds a candidate database into it, and
    the per-worker states come back for the caller to merge (order across
    workers is scheduling-dependent — merge with a commutative operation).
    When a [?budget] is given and any shard trips, the sweep stops, shards
    are absorbed, and {!Bagcq_guard.Budget.Exhausted_} is re-raised like
    {!fold}. *)
