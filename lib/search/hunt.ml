open Bagcq_relational
module Containment = Bagcq_reduction.Containment
module Eval = Bagcq_hom.Eval
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome

type strategy = {
  exhaustive_max_size : int;
  sampler : Sampler.config;
}

let default = { exhaustive_max_size = 2; sampler = Sampler.default }

type report = {
  witness : Structure.t option;
  exhaustive_complete : bool;
  tested_random : int;
  unverified : Structure.t option;
}

type progress = {
  databases_tested : int;
  candidates_pruned : int;
  ticks_spent : int;
  largest_size_completed : int;
}

(* Both hunt flavours — CQ pairs and UCQ pairs — run the same two phases
   (exhaustive sweep over tiny domains, then randomised sampling); only the
   schema and the violation predicate differ, so the phases are written
   against this record.  [violation] is the staged containment check: the
   pair is factored once, when the target is built, and every candidate
   database of both phases only counts.  Calling it with no budget and no
   cache is the exact re-verification of a candidate witness. *)
type target = {
  schema : Schema.t;
  violation : ?budget:Budget.t -> ?cache:Eval.cache -> Structure.t -> bool;
}

let cq_target ~small ~big =
  {
    schema = Sampler.schema_of_pair small big;
    violation = Containment.bag_violation ~small ~big;
  }

let ucq_target ~small ~big =
  {
    schema = Schema.union (Bagcq_cq.Ucq.schema small) (Bagcq_cq.Ucq.schema big);
    violation = Containment.ucq_bag_violation ~small ~big;
  }

let verified ~small ~big d = Containment.bag_violation ~small ~big d
let ucq_verified ~small ~big d = Containment.ucq_bag_violation ~small ~big d

(* Largest domain size whose potential-atom count fits under the Dbspace
   cap, at most the requested size; 0 when even size 1 is infeasible. *)
let feasible_size schema requested =
  let feasible size = Dbspace.count_space schema ~size <= Dbspace.max_potential_atoms in
  let size = ref requested in
  while !size >= 1 && not (feasible !size) do
    decr size
  done;
  Stdlib.max 0 !size

(* Evaluation caches for one hunt, one per worker domain: each
   worker plans and memoises without synchronising with the others, and
   the caches die with the hunt, so a long-running server does not keep
   the plans of every component it ever hunted.  UCQ disjuncts sharing
   components share their plan/count entries through the same cache.
   Only the owning domain adds its entry, so the CAS retries only when
   another worker registers at the same moment. *)
let per_domain_caches () =
  let caches = Atomic.make [] in
  let rec get () =
    let self = (Domain.self () :> int) in
    let seen = Atomic.get caches in
    match List.assoc_opt self seen with
    | Some cache -> cache
    | None ->
        let cache = Eval.create_cache () in
        if Atomic.compare_and_set caches seen ((self, cache) :: seen) then cache
        else get ()
  in
  get

(* The one hunt driver.  Both phases return structured outcomes (shards
   are absorbed inside [Dbspace.find_guarded_par] /
   [Sampler.sample_batches_guarded]), so no [Exhausted_] unwinds through
   here.  [jobs = 1] runs both phases inline on the calling domain. *)
let hunt_guarded ?(strategy = default) ?(jobs = 1) ~budget ~target () =
  if jobs < 1 then invalid_arg "Hunt.counterexample_guarded: jobs must be >= 1";
  let schema = target.schema in
  let cache = per_domain_caches () in
  let pred ~budget d = target.violation ~budget ~cache:(cache ()) d in
  let result ?witness ?unverified ~exhaustive_complete ~tested_random
      (stats : Dbspace.stats) =
    ( { witness; exhaustive_complete; tested_random; unverified },
      {
        databases_tested = stats.databases_tested + tested_random;
        candidates_pruned = stats.candidates_pruned;
        ticks_spent = Budget.ticks budget;
        largest_size_completed = stats.largest_size_completed;
      } )
  in
  let size = feasible_size schema strategy.exhaustive_max_size in
  let exhaustive_complete = size = strategy.exhaustive_max_size in
  let exhaustive =
    if size >= 1 then Dbspace.find_guarded_par ~budget ~jobs schema ~max_size:size pred
    else
      Outcome.Complete
        ( None,
          Dbspace.{ databases_tested = 0; candidates_pruned = 0; largest_size_completed = 0 }
        )
  in
  match exhaustive with
  | Outcome.Exhausted (stats, reason) ->
      Outcome.Exhausted
        (result ~exhaustive_complete:false ~tested_random:0 stats, reason)
  | Outcome.Complete (Some d, stats) ->
      Outcome.Complete
        (result ~witness:d ~exhaustive_complete ~tested_random:0 stats)
  | Outcome.Complete (None, stats) -> (
      match Sampler.sample_batches_guarded ~budget ~jobs strategy.sampler schema pred with
      | Outcome.Exhausted (outcome, reason) ->
          Outcome.Exhausted
            (result ~exhaustive_complete ~tested_random:outcome.Sampler.tested stats, reason)
      | Outcome.Complete outcome ->
          (* re-verify with exact, unbudgeted counting: a candidate the
             sampler reported but the verifier rejects is an engine
             inconsistency and is surfaced, never silently dropped *)
          let witness, unverified =
            match outcome.Sampler.witness with
            | Some d when target.violation d -> (Some d, None)
            | Some d -> (None, Some d)
            | None -> (None, None)
          in
          Outcome.Complete
            (result ?witness ?unverified ~exhaustive_complete
               ~tested_random:outcome.Sampler.tested stats))

(* Hunt metrics, recorded once per hunt from the structured outcome —
   the hot loops inside Dbspace/Sampler stay untouched.  Both exhaustion
   reasons register their labeled counter eagerly at module
   initialisation so a metrics dump always shows the full family; the
   ucq_* pair is the per-flavour split on top of the shared family. *)
module Metrics = Bagcq_obs.Metrics

let hunt_runs = Metrics.counter Metrics.global "hunt_runs"
let hunt_candidates = Metrics.counter Metrics.global "hunt_candidates_tested"
let hunt_pruned = Metrics.counter Metrics.global "hunt_candidates_pruned"
let hunt_witnesses = Metrics.counter Metrics.global "hunt_witnesses_found"
let hunt_ticks = Metrics.counter Metrics.global "hunt_ticks_spent"
let ucq_hunt_runs = Metrics.counter Metrics.global "ucq_hunt_runs"
let ucq_hunt_witnesses = Metrics.counter Metrics.global "ucq_hunt_witnesses_found"

let hunt_exhausted_fuel =
  Metrics.counter ~labels:[ ("reason", "fuel") ] Metrics.global "hunt_exhausted"

let hunt_exhausted_deadline =
  Metrics.counter
    ~labels:[ ("reason", "deadline") ]
    Metrics.global "hunt_exhausted"

let record ~runs ~witnesses outcome =
  Metrics.incr runs;
  let report, progress, reason =
    match outcome with
    | Outcome.Complete (report, progress) -> (report, progress, None)
    | Outcome.Exhausted ((report, progress), reason) ->
        (report, progress, Some reason)
  in
  Metrics.add hunt_candidates progress.databases_tested;
  Metrics.add hunt_pruned progress.candidates_pruned;
  Metrics.add hunt_ticks progress.ticks_spent;
  if report.witness <> None then Metrics.incr witnesses;
  (match reason with
  | Some Budget.Fuel -> Metrics.incr hunt_exhausted_fuel
  | Some Budget.Deadline -> Metrics.incr hunt_exhausted_deadline
  | None -> ());
  outcome

let counterexample_guarded ?strategy ?jobs ~budget ~small ~big () =
  record ~runs:hunt_runs ~witnesses:hunt_witnesses
    (hunt_guarded ?strategy ?jobs ~budget ~target:(cq_target ~small ~big) ())

let ucq_counterexample_guarded ?strategy ?jobs ~budget ~small ~big () =
  record ~runs:ucq_hunt_runs ~witnesses:ucq_hunt_witnesses
    (hunt_guarded ?strategy ?jobs ~budget ~target:(ucq_target ~small ~big) ())

let counterexample ?(strategy = default) ?jobs ~small ~big () =
  let budget = Budget.unlimited () in
  match counterexample_guarded ~strategy ?jobs ~budget ~small ~big () with
  | Outcome.Complete (report, _) -> report
  | Outcome.Exhausted _ -> assert false (* an unlimited budget never trips *)

let ucq_counterexample ?(strategy = default) ?jobs ~small ~big () =
  let budget = Budget.unlimited () in
  match ucq_counterexample_guarded ~strategy ?jobs ~budget ~small ~big () with
  | Outcome.Complete (report, _) -> report
  | Outcome.Exhausted _ -> assert false (* an unlimited budget never trips *)
