open Bagcq_relational
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome

let max_potential_atoms = 22

let potential_atoms schema ~size =
  let dom = List.init size (fun i -> Value.int (i + 1)) in
  List.concat_map
    (fun sym ->
      List.map
        (fun args -> (sym, Tuple.make args))
        (Generate.all_tuples dom (Symbol.arity sym)))
    (Schema.symbols schema)

let count_space schema ~size = List.length (potential_atoms schema ~size)

exception Stop

(* enumerate constant bindings: each constant to each domain element *)
let fold_bindings schema ~size f init base =
  let constants = Schema.constants schema in
  let dom = Array.init size (fun i -> Value.int (i + 1)) in
  let rec go cs d acc =
    match cs with
    | [] -> f acc d
    | c :: rest ->
        Array.fold_left (fun acc v -> go rest (Structure.bind_constant d c v) acc) acc dom
  in
  go constants base init

(* The databases of one domain size, one per subset (mask) of the
   potential atoms, crossed with every binding of the constants when
   [with_constants]; [caller] names the entry point in the cap error. *)
type space = {
  schema : Schema.t;
  size : int;
  with_constants : bool;
  atoms : (Symbol.t * Tuple.t) array;
  base : Structure.t;
}

let space ~caller ~with_constants schema ~size =
  let atoms = Array.of_list (potential_atoms schema ~size) in
  let n = Array.length atoms in
  if n > max_potential_atoms then
    invalid_arg
      (Printf.sprintf "Dbspace.%s: %d potential atoms exceeds the cap of %d" caller n
         max_potential_atoms);
  { schema; size; with_constants; atoms; base = Structure.empty schema }

let masks sp = 1 lsl Array.length sp.atoms

(* Fold [f] over the candidates of one mask. *)
let fold_mask sp mask f acc =
  let d = ref sp.base in
  for i = 0 to Array.length sp.atoms - 1 do
    if mask land (1 lsl i) <> 0 then begin
      let sym, tup = sp.atoms.(i) in
      d := Structure.add_atom !d sym tup
    end
  done;
  if sp.with_constants then fold_bindings sp.schema ~size:sp.size f acc !d else f acc !d

(* one domain size: every subset of the potential atoms (crossed with the
   constant bindings).  The budget, when present, is ticked once per
   candidate database *before* the callback runs, so enumeration can never
   outrun its fuel even when the callback is cheap. *)
let fold_size ?budget ~with_constants schema ~size f acc0 =
  let sp = space ~caller:"fold" ~with_constants schema ~size in
  let tick =
    match budget with None -> fun () -> () | Some b -> fun () -> Budget.tick b
  in
  let acc = ref acc0 in
  for mask = 0 to masks sp - 1 do
    acc :=
      fold_mask sp mask
        (fun acc d ->
          tick ();
          f acc d)
        !acc
  done;
  !acc

let fold ?budget ?(with_constants = true) schema ~max_size f init =
  let acc = ref init in
  for size = 1 to max_size do
    acc := fold_size ?budget ~with_constants schema ~size f !acc
  done;
  !acc

let exists ?budget ?with_constants schema ~max_size pred =
  try
    ignore
      (fold ?budget ?with_constants schema ~max_size
         (fun () d -> if pred d then raise_notrace Stop)
         ());
    false
  with Stop -> true

let find ?budget ?with_constants schema ~max_size pred =
  let result = ref None in
  (try
     ignore
       (fold ?budget ?with_constants schema ~max_size
          (fun () d ->
            if pred d then begin
              result := Some d;
              raise_notrace Stop
            end)
          ())
   with Stop -> ());
  !result

type stats = {
  databases_tested : int;
  largest_size_completed : int;
}

let find_guarded ~budget ?(with_constants = true) schema ~max_size pred =
  let tested = ref 0 and completed = ref 0 and result = ref None in
  let stats () = { databases_tested = !tested; largest_size_completed = !completed } in
  Outcome.guard ~partial:stats (fun () ->
      (try
         for size = 1 to max_size do
           ignore
             (fold_size ~budget ~with_constants schema ~size
                (fun () d ->
                  incr tested;
                  if pred d then begin
                    result := Some d;
                    raise_notrace Stop
                  end)
                ());
           completed := size
         done
       with Stop -> ());
      (!result, stats ()))

(* ------------------------------------------------------------------ *)
(* Parallel sweeps                                                     *)
(* ------------------------------------------------------------------ *)

module Pool = Bagcq_parallel.Pool

type find_worker = {
  w_budget : Budget.t;
  mutable w_tested : int;
  (* first witness this worker saw, with its global candidate index
     (mask, binding) — the cross-worker minimum is the serial witness *)
  mutable w_found : ((int * int) * Structure.t) option;
}

(* One domain size, masks fanned over the workers.  Early exit on a witness
   is made deterministic with [best_lo]: the chunk-start of the best
   witness so far.  A worker that finds a witness stops (every chunk it
   could still claim is higher-numbered); other workers finish the chunk
   they are on — it may hold an earlier witness — and then skim the
   remaining chunk numbers without doing work.  Budget exhaustion in any
   shard stops the whole sweep at the next chunk boundaries. *)
let sweep_size_par ~workers ~chunk ~with_constants schema ~size pred =
  let sp = space ~caller:"find_guarded_par" ~with_constants schema ~size in
  let best_lo = Atomic.make max_int in
  let body w lo hi =
    if Atomic.get best_lo <= lo then `Continue
    else begin
      try
        for mask = lo to hi - 1 do
          let test bidx db =
            Budget.tick w.w_budget;
            w.w_tested <- w.w_tested + 1;
            if pred ~budget:w.w_budget db then begin
              w.w_found <- Some ((mask, bidx), db);
              (* CAS-min: later chunks need not be scanned by anyone *)
              let rec lower () =
                let cur = Atomic.get best_lo in
                if lo < cur && not (Atomic.compare_and_set best_lo cur lo) then lower ()
              in
              lower ();
              raise_notrace Stop
            end;
            bidx + 1
          in
          ignore (fold_mask sp mask test 0)
        done;
        `Continue
      with
      | Stop -> `Continue (* witness recorded; skim remaining chunks *)
      | Budget.Exhausted_ _ -> `Stop
    end
  in
  Pool.sweep ~chunk ~n:(masks sp) ~workers ~body ()

let find_guarded_par ~budget ?(jobs = 1) ?(chunk = Pool.default_chunk)
    ?(with_constants = true) schema ~max_size pred =
  if jobs < 1 then invalid_arg "Dbspace.find_guarded_par: jobs must be >= 1";
  let pool = if jobs = 1 then None else Some (Budget.shard_pool budget) in
  let workers =
    Array.init jobs (fun _ ->
        {
          w_budget = (match pool with None -> budget | Some p -> Budget.shard p);
          w_tested = 0;
          w_found = None;
        })
  in
  let completed = ref 0 in
  let stats () =
    {
      databases_tested = Array.fold_left (fun a w -> a + w.w_tested) 0 workers;
      largest_size_completed = !completed;
    }
  in
  let finish () =
    match pool with
    | None -> ()
    | Some _ -> Array.iter (fun w -> Budget.absorb w.w_budget ~into:budget) workers
  in
  let result = ref None and tripped = ref None in
  (try
     let size = ref 1 in
     while !size <= max_size && !result = None && !tripped = None do
       sweep_size_par ~workers ~chunk ~with_constants schema ~size:!size pred;
       Array.iter
         (fun w ->
           match (w.w_found, !result) with
           | Some (i, d), None -> result := Some (i, d)
           | Some (i, d), Some (j, _) when i < j -> result := Some (i, d)
           | _ -> ())
         workers;
       Array.iter
         (fun w -> if !tripped = None then tripped := Budget.tripped w.w_budget)
         workers;
       if !result = None && !tripped = None then begin
         completed := !size;
         incr size
       end
     done
   with e ->
     finish ();
     raise e);
  finish ();
  match (!result, !tripped) with
  | Some (_, d), _ -> Outcome.Complete (Some d, stats ())
  | None, Some r -> Outcome.Exhausted (stats (), r)
  | None, None -> Outcome.Complete (None, stats ())

type ('w) fold_worker = { f_budget : Budget.t; f_state : 'w }

let fold_par ?budget ?(jobs = 1) ?(chunk = Pool.default_chunk) ?(with_constants = true)
    schema ~max_size ~worker ~f () =
  if jobs < 1 then invalid_arg "Dbspace.fold_par: jobs must be >= 1";
  let parent = match budget with Some b -> b | None -> Budget.unlimited () in
  let pool = if jobs = 1 then None else Some (Budget.shard_pool parent) in
  let workers =
    Array.init jobs (fun _ ->
        {
          f_budget = (match pool with None -> parent | Some p -> Budget.shard p);
          f_state = worker ();
        })
  in
  let finish () =
    match pool with
    | None -> ()
    | Some _ -> Array.iter (fun w -> Budget.absorb w.f_budget ~into:parent) workers
  in
  (try
     for size = 1 to max_size do
       let sp = space ~caller:"fold_par" ~with_constants schema ~size in
       let body w lo hi =
         try
           for mask = lo to hi - 1 do
             fold_mask sp mask
               (fun () db ->
                 Budget.tick w.f_budget;
                 f ~budget:w.f_budget w.f_state db)
               ()
           done;
           `Continue
         with Budget.Exhausted_ _ -> `Stop
       in
       Pool.sweep ~chunk ~n:(masks sp) ~workers ~body ()
     done
   with e ->
     finish ();
     raise e);
  finish ();
  (match (Budget.tripped parent, budget) with
  | Some r, Some _ -> raise_notrace (Budget.Exhausted_ r)
  | _ -> ());
  Array.map (fun w -> w.f_state) workers
