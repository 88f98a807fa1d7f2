open Bagcq_relational
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Pool = Bagcq_parallel.Pool

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

(* every subset of the potential atoms of each domain size (crossed with
   the constant bindings).  The budget, when present, is ticked once per
   candidate database *before* the callback runs, so enumeration can never
   outrun its fuel even when the callback is cheap. *)
let fold ?budget ?(with_constants = true) schema ~max_size f init =
  let tick =
    match budget with None -> fun () -> () | Some b -> fun () -> Budget.tick b
  in
  let acc = ref init in
  for size = 1 to max_size do
    let sp = space ~caller:"fold" ~with_constants schema ~size in
    for mask = 0 to masks sp - 1 do
      acc :=
        fold_mask sp mask
          (fun acc d ->
            tick ();
            f acc d)
          !acc
    done
  done;
  !acc

type stats = {
  databases_tested : int;
  largest_size_completed : int;
}

let find_guarded_par ~budget ?(jobs = 1) ?(chunk = Pool.default_chunk)
    ?(with_constants = true) schema ~max_size pred =
  (* one round per domain size; a mask's candidates are its constant
     bindings, so the witness is the first (mask, binding) pair *)
  let round r =
    let sp = space ~caller:"find_guarded_par" ~with_constants schema ~size:(r + 1) in
    (masks sp, fun _ mask k -> fold_mask sp mask (fun () d -> k d) ())
  in
  let r =
    First_witness.run ~caller:"Dbspace.find_guarded_par" ~budget ~jobs ~chunk
      ~rounds:max_size round pred
  in
  let stats =
    { databases_tested = r.tested; largest_size_completed = r.rounds_completed }
  in
  match (r.witness, r.tripped) with
  | Some d, _ -> Outcome.Complete (Some d, stats)
  | None, Some reason -> Outcome.Exhausted (stats, reason)
  | None, None -> Outcome.Complete (None, stats)

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
