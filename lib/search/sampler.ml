open Bagcq_relational
open Bagcq_cq
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Containment = Bagcq_reduction.Containment

type config = {
  sizes : int list;
  densities : float list;
  samples : int;
  seed : int;
  require_nontrivial : bool;
}

let default =
  {
    sizes = [ 1; 2; 3; 4 ];
    densities = [ 0.15; 0.4; 0.8 ];
    samples = 200;
    seed = 0x5eed;
    require_nontrivial = true;
  }

type outcome = {
  witness : Structure.t option;
  tested : int;
}

let default_batch = 16

(* The one sample stream: a per-chunk RNG seeded from (seed, chunk start)
   and the size/density schedule driven by the global sample index, so
   the i-th candidate database depends only on (seed, i) — not on the
   job count or the entry point. *)
let sample_batches_guarded ~budget ?(jobs = 1) ?(chunk = default_batch) config schema pred
    =
  let sizes = Array.of_list config.sizes in
  let densities = Array.of_list config.densities in
  let candidates lo =
    let rng = Random.State.make [| config.seed; lo |] in
    fun i k ->
      let size = sizes.(i mod Array.length sizes) in
      let density = densities.(i / Array.length sizes mod Array.length densities) in
      k
        (if config.require_nontrivial then
           Generate.random_nontrivial ~density rng schema ~size
         else Generate.random ~density rng schema ~size)
  in
  let r =
    First_witness.run ~caller:"Sampler.sample_batches_guarded" ~budget ~jobs ~chunk
      ~rounds:1
      (fun _ -> (config.samples, candidates))
      pred
  in
  let outcome = { witness = r.witness; tested = r.tested } in
  match (r.witness, r.tripped) with
  | None, Some reason -> Outcome.Exhausted (outcome, reason)
  | _ -> Outcome.Complete outcome

(* The unguarded entry points run the same stream inline; a [?budget]
   that trips unwinds with [Budget.Exhausted_]. *)
let stream ?budget config schema pred =
  let budget =
    match budget with Some b -> b | None -> Budget.unlimited ()
  in
  match sample_batches_guarded ~budget config schema pred with
  | Outcome.Complete outcome -> outcome
  | Outcome.Exhausted (_, reason) ->
      raise_notrace (Budget.Exhausted_ reason)

let schema_of_pair q1 q2 = Schema.union (Query.schema q1) (Query.schema q2)

let hunt_queries ?(config = default) ?budget ~small ~big () =
  let violation = Containment.bag_violation ~small ~big in
  stream ?budget config (schema_of_pair small big) (fun ~budget d -> violation ~budget d)

let check_all ?(config = default) ?budget ~schema pred =
  stream ?budget config schema (fun ~budget:_ d -> not (pred d))
