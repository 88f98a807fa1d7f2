(** The one sharded first-witness loop behind every exhaustive find and
    every random-sample stream of the hunt.

    A search is a sequence of {e rounds} (one per domain size for
    {!Dbspace.find_guarded_par}, a single one for
    {!Sampler.sample_batches_guarded}); round [r] is a range of indices
    [0 .. n-1], each expanding to zero or more candidates.  The indices
    are fanned over a {!Bagcq_parallel.Pool.sweep}: each of the [jobs]
    workers gets its own {!Bagcq_guard.Budget} shard drawn from the
    caller's budget, ticked once per candidate before the predicate runs
    (which receives the shard, so its own work ticks the right budget);
    exhaustion in any shard stops the search, and the shards are absorbed
    back into the caller's budget before returning, exceptions included.
    With [jobs = 1] nothing is spawned and the caller's budget is ticked
    directly.

    The witness is the candidate with the lowest index in the first round
    that has one — the one an inline scan meets first — whatever [jobs]
    is: a worker that finds a witness lowers a shared bound by CAS, and
    workers then skip only chunks above that bound. *)

type 'a result = {
  witness : 'a option;
  tested : int;  (** candidates handed to the predicate, over all workers *)
  rounds_completed : int;
      (** rounds that ended with neither a witness nor a budget trip *)
  tripped : Bagcq_guard.Budget.reason option;
}

val with_shards :
  caller:string ->
  budget:Bagcq_guard.Budget.t ->
  jobs:int ->
  (Bagcq_guard.Budget.t array -> 'a) ->
  'a
(** [with_shards ~caller ~budget ~jobs f] calls [f] with one budget per
    worker: [[| budget |]] itself when [jobs = 1], else [jobs] shards of
    [budget], which are absorbed back into [budget] when [f] returns or
    raises.  The worker setup of {!run} and of {!Dbspace.fold_par}.
    [caller] names the entry point in the [Invalid_argument] raised when
    [jobs < 1]. *)

val run :
  caller:string ->
  budget:Bagcq_guard.Budget.t ->
  jobs:int ->
  chunk:int ->
  rounds:int ->
  (int -> int * (int -> int -> ('a -> unit) -> unit)) ->
  (budget:Bagcq_guard.Budget.t -> 'a -> bool) ->
  'a result
(** [run ~caller ~budget ~jobs ~chunk ~rounds round pred] runs the rounds
    in order and stops after the first one that found a witness or
    tripped the budget.  [round r] returns [(n, candidates)]: for each
    chunk the sweep calls [candidates lo] once, and then the result
    [emit] on each index [i] of the chunk in order; [emit i k] hands each
    candidate of index [i] to [k].  [caller] names the entry point in
    the [Invalid_argument] raised when [jobs < 1]. *)
