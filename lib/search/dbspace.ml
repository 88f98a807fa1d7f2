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

(* Enumerate the bindings of the constants, each constant to each domain
   element, the first constant slowest; [f] also gets the binding as
   0-based element indices, [b.(j)] for the j-th constant. *)
let fold_bindings schema ~size f init base =
  let constants = Array.of_list (Schema.constants schema) in
  let b = Array.make (Array.length constants) 0 in
  let rec go j d acc =
    if j = Array.length constants then f acc b d
    else begin
      let acc = ref acc in
      for v = 0 to size - 1 do
        b.(j) <- v;
        acc := go (j + 1) (Structure.bind_constant d constants.(j) (Value.int (v + 1))) !acc
      done;
      !acc
    end
  in
  go 0 base init

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
  if sp.with_constants then fold_bindings sp.schema ~size:sp.size f acc !d
  else f acc [||] !d

(* Isomorphism orbits.  A renaming of the domain maps a candidate
   (mask, binding) to an isomorphic one, with the same hom counts.  A
   renaming is kept as the permutation it makes of the domain ([elem],
   0-based) and of the atom indices ([atom]), so the image of a mask is a
   bit permutation. *)
type symmetry = { elem : int array; atom : int array }

(* Above this many renamings of the domain (5! at domain size 5), the
   sweep stops pruning: each surviving candidate is compared against
   every renaming, so the check grows as n!. *)
let max_symmetries = 120

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

(* Every renaming of [sp]'s domain but the identity; none above
   [max_symmetries]. *)
let symmetries sp =
  let rec fits k count =
    k > sp.size || (count * k <= max_symmetries && fits (k + 1) (count * k))
  in
  if not (fits 1 1) then []
  else begin
    let index = Hashtbl.create (Array.length sp.atoms) in
    Array.iteri (fun i atom -> Hashtbl.replace index atom i) sp.atoms;
    (* the identity comes first: skip it *)
    List.tl (permutations (List.init sp.size Fun.id))
    |> List.map (fun p ->
           let elem = Array.of_list p in
           let rename = function Value.Int i -> Value.Int (elem.(i - 1) + 1) | v -> v in
           let atom =
             Array.map (fun (sym, tup) -> Hashtbl.find index (sym, Tuple.map rename tup)) sp.atoms
           in
           { elem; atom })
  end

let image s mask =
  let m = ref 0 in
  for i = 0 to Array.length s.atom - 1 do
    if mask land (1 lsl i) <> 0 then m := !m lor (1 lsl s.atom.(i))
  done;
  !m

(* [None] when a renaming maps [mask] to a smaller mask, so every
   candidate of the mask has an earlier isomorphic copy; otherwise the
   renamings that fix [mask], which decide between its bindings. *)
let stabiliser syms mask =
  let rec go fixed = function
    | [] -> Some fixed
    | s :: rest ->
        let m = image s mask in
        if m < mask then None else go (if m = mask then s :: fixed else fixed) rest
  in
  go [] syms

(* The renamed binding comes before [b] in enumeration order. *)
let binding_below s b =
  let rec go j =
    j < Array.length b
    && (s.elem.(b.(j)) < b.(j) || (s.elem.(b.(j)) = b.(j) && go (j + 1)))
  in
  go 0

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
          (fun acc _ d ->
            tick ();
            f acc d)
          !acc
    done
  done;
  !acc

type stats = {
  databases_tested : int;
  candidates_pruned : int;
  largest_size_completed : int;
}

let find_guarded_par ~budget ?(jobs = 1) ?(chunk = Pool.default_chunk)
    ?(with_constants = true) schema ~max_size pred =
  let pruned = Atomic.make 0 in
  let prune k = ignore (Atomic.fetch_and_add pruned k) in
  (* one round per domain size; a mask's candidates are its constant
     bindings, so the witness is the first (mask, binding) pair.  Only
     the least candidate of each orbit reaches [pred] (and the budget):
     every member of an orbit is a witness or none is, so the first
     witness is its orbit's least member and the pruning never hides it *)
  let round r =
    let sp = space ~caller:"find_guarded_par" ~with_constants schema ~size:(r + 1) in
    let syms = symmetries sp in
    let bindings =
      if with_constants then
        List.fold_left (fun n _ -> n * sp.size) 1 (Schema.constants schema)
      else 1
    in
    ( masks sp,
      fun _ mask k ->
        match stabiliser syms mask with
        | None -> prune bindings
        | Some fixed ->
            fold_mask sp mask
              (fun () b d ->
                if List.exists (fun s -> binding_below s b) fixed then prune 1 else k d)
              () )
  in
  let r =
    First_witness.run ~caller:"Dbspace.find_guarded_par" ~budget ~jobs ~chunk
      ~rounds:max_size round pred
  in
  let stats =
    {
      databases_tested = r.tested;
      candidates_pruned = Atomic.get pruned;
      largest_size_completed = r.rounds_completed;
    }
  in
  match (r.witness, r.tripped) with
  | Some d, _ -> Outcome.Complete (Some d, stats)
  | None, Some reason -> Outcome.Exhausted (stats, reason)
  | None, None -> Outcome.Complete (None, stats)

let fold_par ?budget ?(jobs = 1) ?(chunk = Pool.default_chunk) ?(with_constants = true)
    schema ~max_size ~worker ~f () =
  let parent = match budget with Some b -> b | None -> Budget.unlimited () in
  let states =
    First_witness.with_shards ~caller:"Dbspace.fold_par" ~budget:parent ~jobs
    @@ fun shards ->
    let workers = Array.map (fun b -> (b, worker ())) shards in
    for size = 1 to max_size do
      let sp = space ~caller:"fold_par" ~with_constants schema ~size in
      let body (b, state) lo hi =
        try
          for mask = lo to hi - 1 do
            fold_mask sp mask
              (fun () _ db ->
                Budget.tick b;
                f ~budget:b state db)
              ()
          done;
          `Continue
        with Budget.Exhausted_ _ -> `Stop
      in
      Pool.sweep ~chunk ~n:(masks sp) ~workers ~body ()
    done;
    Array.map snd workers
  in
  (match (Budget.tripped parent, budget) with
  | Some r, Some _ -> raise_notrace (Budget.Exhausted_ r)
  | _ -> ());
  states
