module Budget = Bagcq_guard.Budget
module Pool = Bagcq_parallel.Pool

type 'a result = {
  witness : 'a option;
  tested : int;
  rounds_completed : int;
  tripped : Budget.reason option;
}

type 'a worker = {
  budget : Budget.t;
  mutable tested : int;
  (* first witness this worker saw, with its index in the round — the
     cross-worker minimum is the witness of an inline run *)
  mutable found : (int * 'a) option;
}

exception Found

(* One round, indices fanned over the workers.  Early exit on a witness is
   made deterministic with [best_lo]: the chunk start of the best witness
   so far.  A worker that finds a witness stops (every chunk it could
   still claim is higher-numbered); other workers finish the chunk they
   are on — it may hold an earlier witness — and then skim the remaining
   chunk numbers without doing work.  Budget exhaustion in any shard stops
   the round at the next chunk boundaries. *)
let sweep workers ~chunk ~n candidates pred =
  let best_lo = Atomic.make max_int in
  let body w lo hi =
    if Atomic.get best_lo <= lo then `Continue
    else
      try
        let emit = candidates lo in
        for i = lo to hi - 1 do
          emit i (fun d ->
              Budget.tick w.budget;
              w.tested <- w.tested + 1;
              if pred ~budget:w.budget d then begin
                w.found <- Some (i, d);
                (* CAS-min: later chunks need not be scanned by anyone *)
                let rec lower () =
                  let cur = Atomic.get best_lo in
                  if lo < cur && not (Atomic.compare_and_set best_lo cur lo) then lower ()
                in
                lower ();
                raise_notrace Found
              end)
        done;
        `Continue
      with
      | Found -> `Continue (* witness recorded; skim remaining chunks *)
      | Budget.Exhausted_ _ -> `Stop
  in
  Pool.sweep ~chunk ~n ~workers ~body ()

let lowest workers =
  Array.fold_left
    (fun best w ->
      match (w.found, best) with
      | Some (i, d), Some (j, _) when i < j -> Some (i, d)
      | Some f, None -> Some f
      | _ -> best)
    None workers

let with_shards ~caller ~budget ~jobs f =
  if jobs < 1 then invalid_arg (caller ^ ": jobs must be >= 1");
  if jobs = 1 then f [| budget |]
  else begin
    let pool = Budget.shard_pool budget in
    let shards = Array.init jobs (fun _ -> Budget.shard pool) in
    Fun.protect
      ~finally:(fun () -> Array.iter (fun s -> Budget.absorb s ~into:budget) shards)
      (fun () -> f shards)
  end

let run ~caller ~budget ~jobs ~chunk ~rounds round pred =
  with_shards ~caller ~budget ~jobs @@ fun shards ->
  let workers = Array.map (fun budget -> { budget; tested = 0; found = None }) shards in
  let rec go r =
    if r >= rounds then (None, r, None)
    else begin
      let n, candidates = round r in
      sweep workers ~chunk ~n candidates pred;
      let tripped =
        match Budget.tripped budget with
        | None -> Array.find_map (fun w -> Budget.tripped w.budget) workers
        | r -> r
      in
      match (lowest workers, tripped) with
      | None, None -> go (r + 1)
      | found, _ -> (Option.map snd found, r, tripped)
    end
  in
  let witness, rounds_completed, tripped = go 0 in
  {
    witness;
    tested = Array.fold_left (fun a (w : _ worker) -> a + w.tested) 0 workers;
    rounds_completed;
    tripped;
  }
