open Bagcq_relational
open Bagcq_cq

type step = { sym : Symbol.t; pat : Jointree.pattern; probe : int option }

type t = {
  steps : step array;
  nfree : int;
  neqs : (int * int) array array;
  neq_consts : string array;
  cst_neqs : (string * string) list;
  var_names : string array;
}

type level = {
  rows : int array -> int array array;
  ops : Jointree.op array;
  neqs : (int * int) array;
}

(* ------------------------------ the join ------------------------------ *)

(* A step probes the first position fixed before the atom is reached — a
   constant, or a slot bound by an *earlier* atom.  A same-atom repeat is
   an [Op_check] too, but its slot is not yet set when the probe runs. *)
let steps frame atoms =
  let bound = Array.make (Array.length frame) false in
  Array.map
    (fun a ->
      let earlier = Array.copy bound in
      let pat = Jointree.pattern (Jointree.slot frame) bound (Atom.args a) in
      let fixed = function
        | Jointree.Op_cst _ -> true
        | Op_check i -> earlier.(i)
        | Op_bind _ -> false
      in
      { sym = Atom.sym a; pat; probe = Array.find_index fixed pat.ops })
    atoms

(* The row of [rows.(lo..hi-1)] — sorted lexicographically, as every
   bucket of {!Index.code_rows} is — that a fully fixed [ops] names in
   [env], by binary search. *)
let rec find ops env (rows : int array array) lo hi =
  let rec cmp (row : int array) p =
    if p = Array.length ops then 0
    else
      let k =
        match ops.(p) with Jointree.Op_cst c -> c | Op_check i | Op_bind i -> env.(i)
      in
      match Int.compare k row.(p) with 0 -> cmp row (p + 1) | c -> c
  in
  if lo >= hi then [||]
  else
    let mid = (lo + hi) / 2 in
    match cmp rows.(mid) 0 with
    | 0 -> [| rows.(mid) |]
    | c when c < 0 -> find ops env rows lo mid
    | _ -> find ops env rows (mid + 1) hi

let scan idx s (ops : Jointree.op array) =
  let si = Index.sym_index idx s.sym in
  match s.probe with
  | None ->
      let rows = Index.code_rows si in
      fun _ -> rows
  | Some p ->
      let groups = Index.code_groups si ~pos:p in
      let group c = if c >= 0 && c < Array.length groups then groups.(c) else [||] in
      let bucket =
        match ops.(p) with
        | Jointree.Op_cst c ->
            let rows = group c in
            fun _ -> rows
        | Op_check i | Op_bind i -> fun env -> group env.(i)
      in
      if Array.exists (function Jointree.Op_bind _ -> true | _ -> false) ops then bucket
      else
        (* every position fixed: the one row of the bucket the frame names *)
        fun env ->
          let rows = bucket env in
          find ops env rows 0 (Array.length rows)

let rec differ env (neqs : (int * int) array) i =
  i = Array.length neqs
  ||
  let x, y = neqs.(i) in
  env.(x) <> env.(y) && differ env neqs (i + 1)

let join ~tick levels env emit =
  let n = Array.length levels in
  let rec go l =
    if l = n then emit ()
    else begin
      let lv = levels.(l) in
      let rows = lv.rows env in
      for r = 0 to Array.length rows - 1 do
        tick ();
        if Jointree.matches lv.ops env rows.(r) && differ env lv.neqs 0 then go (l + 1)
      done
    end
  in
  go 0

(* ---------------------------- atom ordering ---------------------------- *)

(* Greedy static join order: repeatedly pick the atom with the most
   determined positions (constants + already-bound variables), breaking
   ties towards fewer fresh variables, then input order. *)
let order_atoms atoms =
  let n = Array.length atoms in
  let bound = Hashtbl.create 16 and selected = Array.make n false in
  let score a =
    let det t = match t with Term.Cst _ -> true | Term.Var x -> Hashtbl.mem bound x in
    let fresh = List.filter (fun x -> not (Hashtbl.mem bound x)) (Atom.vars a) in
    let ndet = Array.fold_left (fun k t -> if det t then k + 1 else k) 0 (Atom.args a) in
    (ndet, -List.length fresh)
  in
  Array.init n (fun _ ->
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if (not selected.(i)) && (!best < 0 || score atoms.(i) >= score atoms.(!best)) then
          best := i
      done;
      selected.(!best) <- true;
      List.iter (fun x -> Hashtbl.replace bound x ()) (Atom.vars atoms.(!best));
      !best)

(* ------------------------------ compilation ---------------------------- *)

(* Library-level metric: how many query shapes reached the compiler.
   Handles resolve once at module initialisation; recording is one
   atomic add. *)
let plans_compiled =
  Bagcq_obs.Metrics.counter Bagcq_obs.Metrics.global "hom_plans_compiled"

let ordered_atoms q =
  let atoms = Array.of_list (Query.atoms q) in
  Array.to_list (Array.map (fun ai -> atoms.(ai)) (order_atoms atoms))

let compile q =
  Bagcq_obs.Metrics.incr plans_compiled;
  let atoms = Array.of_list (ordered_atoms q) in
  (* Variables are numbered by binding order — first occurrence scanning
     the ordered atoms — then the ≠-only variables in name order, one
     level each after the atoms; the ≠ constants take the slots after. *)
  let bound =
    List.fold_left
      (fun acc x -> if List.mem x acc then acc else x :: acc)
      []
      (List.concat_map Atom.vars (Array.to_list atoms))
  in
  let free = List.filter (fun x -> not (List.mem x bound)) (Query.vars q) in
  let var_names = Array.of_list (List.rev_append bound free) in
  let nvars = Array.length var_names and nfree = List.length free in
  let nsteps = Array.length atoms in
  let steps = steps var_names atoms in
  let level = Array.init nvars (fun v -> nsteps + v - (nvars - nfree)) in
  Array.iteri
    (fun l s ->
      Array.iter (function Jointree.Op_bind v -> level.(v) <- l | _ -> ()) s.pat.ops)
    steps;
  let neq_consts =
    Query.neqs q
    |> List.concat_map (fun (a, b) ->
           List.filter_map (function Term.Cst c -> Some c | Term.Var _ -> None) [ a; b ])
    |> List.sort_uniq compare |> Array.of_list
  in
  let slot = function
    | Term.Var x -> Jointree.slot var_names x
    | Term.Cst c -> nvars + Jointree.slot neq_consts c
  in
  let at = function Term.Var x -> level.(Jointree.slot var_names x) | Term.Cst _ -> -1 in
  (* Each inequality is checked once, at the level binding its later
     endpoint — by then the other endpoint is bound (or a constant). *)
  let neqs = Array.make (nsteps + nfree) [] and cst_neqs = ref [] in
  List.iter
    (fun (a, b) ->
      match (a, b) with
      | Term.Cst c, Term.Cst c' -> cst_neqs := (c, c') :: !cst_neqs
      | _ ->
          let a, b = if at a >= at b then (a, b) else (b, a) in
          neqs.(at a) <- (slot a, slot b) :: neqs.(at a))
    (Query.neqs q);
  {
    steps;
    nfree;
    neqs = Array.map (fun l -> Array.of_list (List.rev l)) neqs;
    neq_consts;
    cst_neqs = !cst_neqs;
    var_names;
  }

let nvars p = Array.length p.var_names
let num_nodes p = Array.length p.steps
