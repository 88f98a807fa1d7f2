open Bagcq_relational
open Bagcq_cq
module Eval = Bagcq_hom.Eval
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

let sample_stream ?budget config schema f =
  let tick =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Bagcq_guard.Budget.tick b
  in
  let rng = Random.State.make [| config.seed |] in
  let sizes = Array.of_list config.sizes in
  let densities = Array.of_list config.densities in
  let tested = ref 0 in
  let witness = ref None in
  (try
     for i = 0 to config.samples - 1 do
       tick ();
       let size = sizes.(i mod Array.length sizes) in
       let density = densities.(i / Array.length sizes mod Array.length densities) in
       let d =
         if config.require_nontrivial then
           Generate.random_nontrivial ~density rng schema ~size
         else Generate.random ~density rng schema ~size
       in
       incr tested;
       if f d then begin
         witness := Some d;
         raise_notrace Exit
       end
     done
   with Exit -> ());
  { witness = !witness; tested = !tested }

(* The ref cell outlives the budget trip, so the partial outcome still
   reports how many samples were completed before exhaustion. *)
let sample_stream_guarded ~budget config schema f =
  let tested = ref 0 in
  Bagcq_guard.Outcome.guard
    ~partial:(fun () -> { witness = None; tested = !tested })
    (fun () ->
      sample_stream ~budget config schema (fun d ->
          incr tested;
          f d))

let schema_of_pair q1 q2 = Schema.union (Query.schema q1) (Query.schema q2)

let hunt_queries ?(config = default) ?budget ~small ~big () =
  let violation = Containment.bag_violation ~small ~big in
  sample_stream ?budget config (schema_of_pair small big) (fun d -> violation ?budget d)

let hunt_queries_guarded ?(config = default) ~budget ~small ~big () =
  let violation = Containment.bag_violation ~small ~big in
  sample_stream_guarded ~budget config (schema_of_pair small big) (fun d ->
      violation ~budget d)

let pquery_schema pq =
  List.fold_left
    (fun acc (q, _) -> Schema.union acc (Query.schema q))
    Schema.empty (Pquery.factors pq)

let hunt_pqueries ?(config = default) ?budget ~small ~big () =
  let schema = Schema.union (pquery_schema small) (pquery_schema big) in
  let violation = Containment.bag_violation_pquery ~small ~big in
  sample_stream ?budget config schema (fun d -> violation ?budget d)

let check_all ?(config = default) ?budget ~schema pred =
  sample_stream ?budget config schema (fun d -> not (pred d))

(* ------------------------------------------------------------------ *)
(* Parallel batches                                                    *)
(* ------------------------------------------------------------------ *)

module Pool = Bagcq_parallel.Pool
module Budget = Bagcq_guard.Budget

let default_batch = 16

type batch_worker = {
  w_budget : Budget.t;
  mutable w_tested : int;
  mutable w_found : (int * Structure.t) option;  (* global sample index *)
}

(* Chunked sampling with a per-chunk RNG seeded from (seed, chunk start)
   and the size/density schedule driven by the *global* sample index: the
   i-th candidate database is identical whatever the job count, so seeded
   hunts stay reproducible when parallelised.  Note this stream differs
   from {!sample_stream}'s single-RNG stream — batch and serial sampling
   are distinct (both deterministic) sample sequences. *)
let sample_batches_guarded ~budget ?(jobs = 1) ?(chunk = default_batch) config schema pred
    =
  if jobs < 1 then invalid_arg "Sampler.sample_batches_guarded: jobs must be >= 1";
  let pool = if jobs = 1 then None else Some (Budget.shard_pool budget) in
  let workers =
    Array.init jobs (fun _ ->
        {
          w_budget = (match pool with None -> budget | Some p -> Budget.shard p);
          w_tested = 0;
          w_found = None;
        })
  in
  let sizes = Array.of_list config.sizes in
  let densities = Array.of_list config.densities in
  let best_lo = Atomic.make max_int in
  let body w lo hi =
    if Atomic.get best_lo <= lo then `Continue
    else begin
      try
        let rng = Random.State.make [| config.seed; lo |] in
        (try
           for i = lo to hi - 1 do
             Budget.tick w.w_budget;
             let size = sizes.(i mod Array.length sizes) in
             let density = densities.(i / Array.length sizes mod Array.length densities) in
             let d =
               if config.require_nontrivial then
                 Generate.random_nontrivial ~density rng schema ~size
               else Generate.random ~density rng schema ~size
             in
             w.w_tested <- w.w_tested + 1;
             if pred ~budget:w.w_budget d then begin
               w.w_found <- Some (i, d);
               let rec lower () =
                 let cur = Atomic.get best_lo in
                 if lo < cur && not (Atomic.compare_and_set best_lo cur lo) then lower ()
               in
               lower ();
               raise_notrace Exit
             end
           done
         with Exit -> ());
        `Continue
      with Budget.Exhausted_ _ -> `Stop
    end
  in
  Pool.sweep ~chunk ~n:config.samples ~workers ~body ();
  (match pool with
  | None -> ()
  | Some _ -> Array.iter (fun w -> Budget.absorb w.w_budget ~into:budget) workers);
  let tested = Array.fold_left (fun a w -> a + w.w_tested) 0 workers in
  let witness =
    Array.fold_left
      (fun best w ->
        match (w.w_found, best) with
        | Some (i, d), None -> Some (i, d)
        | Some (i, d), Some (j, _) when i < j -> Some (i, d)
        | _ -> best)
      None workers
  in
  match (witness, Budget.tripped budget) with
  | Some (_, d), _ -> Bagcq_guard.Outcome.Complete { witness = Some d; tested }
  | None, Some r -> Bagcq_guard.Outcome.Exhausted ({ witness = None; tested }, r)
  | None, None -> Bagcq_guard.Outcome.Complete { witness = None; tested }
