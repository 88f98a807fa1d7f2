(** Combined counterexample hunting: exhaustive on tiny domains, then
    randomised — the practical front end used by the CLI and the
    examples.

    Bag containment is undecidable, so this search is a permanent
    semi-decision loop; the guarded entry point bounds it with a
    {!Bagcq_guard.Budget.t} and degrades gracefully into best-so-far
    statistics instead of hanging. *)

open Bagcq_relational
open Bagcq_cq

type strategy = {
  exhaustive_max_size : int;
      (** try every database up to this domain size first (0 disables);
          skipped automatically when the schema's potential-atom count
          exceeds the {!Dbspace} cap *)
  sampler : Sampler.config;
}

val default : strategy

type report = {
  witness : Structure.t option;
  exhaustive_complete : bool;
      (** the exhaustive phase ran to completion — so if [witness] is
          [None], no counterexample exists up to [exhaustive_max_size] *)
  tested_random : int;
  unverified : Structure.t option;
      (** a candidate the sampler reported as violating but exact
          re-verification rejected.  This cannot happen unless the engine
          is inconsistent; it is surfaced here (instead of being silently
          dropped) so tests and callers can fail loudly on it. *)
}

type progress = {
  databases_tested : int;
      (** exhaustive candidates plus random samples; the exhaustive phase
          tests one candidate per isomorphism orbit (see
          {!Dbspace.find_guarded_par}) *)
  candidates_pruned : int;
      (** exhaustive candidates skipped as isomorphic to an earlier one *)
  ticks_spent : int;  (** budget ticks consumed across all phases *)
  largest_size_completed : int;
      (** every database up to this domain size was exhaustively tested *)
}

val counterexample :
  ?strategy:strategy -> ?jobs:int -> small:Query.t -> big:Query.t -> unit -> report
(** Hunt for [small(D) > big(D)] without a budget (runs to completion; may
    effectively diverge on adversarial inputs — prefer
    {!counterexample_guarded}).  The witness, if any, is re-verified by
    exact counting before being returned. *)

val counterexample_guarded :
  ?strategy:strategy ->
  ?jobs:int ->
  budget:Bagcq_guard.Budget.t ->
  small:Query.t ->
  big:Query.t ->
  unit ->
  (report * progress, report * progress) Bagcq_guard.Outcome.t
(** Budgeted hunt.  [Complete (report, progress)] is bit-for-bit the report
    the unguarded {!counterexample} produces; [Exhausted ((report,
    progress), reason)] carries everything learned before the budget
    tripped: databases tested, ticks spent, the largest domain size whose
    exhaustive sweep finished, and any witness found (which always
    re-verifies).

    Both queries are factored once per hunt, not once per candidate
    database ({!Bagcq_reduction.Containment.bag_violation} is staged).
    There is one hunt path: the exhaustive phase is
    {!Dbspace.find_guarded_par} and the random phase is
    {!Sampler.sample_batches_guarded}, run over [jobs] worker domains
    (default 1: inline on the calling domain), each with its own budget
    shard and an evaluation cache that lives for this hunt only.  Ticks
    are summed back into [budget] and exhaustion in any shard stops the
    hunt.  The witness (lowest candidate index) is the same for every
    [jobs] and every entry point — this function, the CLI's [hunt] and
    [ucq hunt], and the served [hunt] / [ucq_hunt] ops. *)

val ucq_counterexample :
  ?strategy:strategy -> ?jobs:int -> small:Ucq.t -> big:Ucq.t -> unit -> report
(** {!counterexample} for UCQ pairs: hunts for a database where the summed
    disjunct counts of [small] exceed those of [big] — one instance of the
    {e undecidable} [QCP^bag_UCQ].  Same two phases, same sampler; the
    per-domain evaluation cache is shared across disjuncts, so components
    appearing in several disjuncts plan and count once. *)

val ucq_counterexample_guarded :
  ?strategy:strategy ->
  ?jobs:int ->
  budget:Bagcq_guard.Budget.t ->
  small:Ucq.t ->
  big:Ucq.t ->
  unit ->
  (report * progress, report * progress) Bagcq_guard.Outcome.t
(** Budgeted UCQ hunt, mirroring {!counterexample_guarded} (same path,
    same witness for every [jobs]).  Recorded under the [ucq_hunt_*]
    metric family on top of the shared [hunt_candidates_tested] /
    [hunt_ticks_spent] / [hunt_exhausted] cells. *)

val verified : small:Query.t -> big:Query.t -> Structure.t -> bool
(** Exact re-check of a candidate witness. *)

val ucq_verified : small:Ucq.t -> big:Ucq.t -> Structure.t -> bool
(** Exact re-check of a candidate UCQ witness. *)

val feasible_size : Schema.t -> int -> int
(** [feasible_size schema requested] — the largest domain size [≤
    requested] whose potential-atom space fits under
    {!Dbspace.max_potential_atoms} (0 if none). *)
