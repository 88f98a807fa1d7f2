(* An independent homomorphism counter for the benchmark's queries: binary
   atoms over variables, loops and inequalities, counted by variable
   elimination over dense factor tables.  It shares no code with the
   engine's kernels (join-tree DP, leapfrog, hypertree bags, backtracking),
   so agreeing with it is evidence that whichever kernel the planner
   routed to counted right. *)

module Nat = Bagcq_bignum.Nat
open Bagcq_cq

type factor = { vars : int array; (* sorted variable ids *) data : int array }

let pow n k =
  let r = ref 1 in
  for _ = 1 to k do r := !r * n done;
  !r

(* Multiply every factor mentioning [v] and sum [v] out.  The table index
   of an assignment is [Σ digit(p)·n^p] over the factor's variables in
   order; an odometer over the kept variables keeps every factor's base
   index current, so the inner loop is one multiply per factor and stops
   at the first zero (adjacency tables are sparse). *)
let eliminate n factors v =
  let touching, rest = List.partition (fun f -> Array.mem v f.vars) factors in
  let scope =
    List.sort_uniq compare (List.concat_map (fun f -> Array.to_list f.vars) touching)
  in
  let keep = Array.of_list (List.filter (( <> ) v) scope) in
  let k = Array.length keep in
  let fs = Array.of_list touching in
  let m = Array.length fs in
  let stride f u =
    let s = ref 0 in
    Array.iteri (fun p w -> if w = u then s := pow n p) f.vars;
    !s
  in
  let kstr = Array.init m (fun j -> Array.map (stride fs.(j)) keep) in
  let vstr = Array.init m (fun j -> stride fs.(j) v) in
  let base = Array.make m 0 and digits = Array.make k 0 in
  let data = Array.make (pow n k) 0 in
  for idx = 0 to Array.length data - 1 do
    let sum = ref 0 in
    for a = 0 to n - 1 do
      let p = ref 1 and j = ref 0 in
      while !p <> 0 && !j < m do
        p := !p * fs.(!j).data.(base.(!j) + (a * vstr.(!j)));
        incr j
      done;
      sum := !sum + !p
    done;
    data.(idx) <- !sum;
    let p = ref 0 and carry = ref true in
    while !carry && !p < k do
      digits.(!p) <- digits.(!p) + 1;
      for j = 0 to m - 1 do base.(j) <- base.(j) + kstr.(j).(!p) done;
      if digits.(!p) = n then begin
        digits.(!p) <- 0;
        for j = 0 to m - 1 do base.(j) <- base.(j) - (n * kstr.(j).(!p)) done;
        incr p
      end
      else carry := false
    done
  done;
  { vars = keep; data } :: rest

(* Greedy min-degree elimination order over the factors' interaction
   graph: the next variable is the one whose elimination builds the
   smallest table. *)
let count_factors n nvars factors =
  let rec go factors remaining =
    match remaining with
    | [] ->
        List.fold_left
          (fun acc f -> Nat.mul acc (Nat.of_int f.data.(0)))
          Nat.one factors
    | _ ->
        let width v =
          List.length
            (List.sort_uniq compare
               (List.concat_map
                  (fun f -> if Array.mem v f.vars then Array.to_list f.vars else [])
                  factors))
        in
        let v =
          List.fold_left
            (fun best u -> if width u < width best then u else best)
            (List.hd remaining) remaining
        in
        go (eliminate n factors v) (List.filter (( <> ) v) remaining)
  in
  go factors (List.init nvars Fun.id)

(* [count q edges] = |Hom(q, D)| where [D] is the digraph [edges] over its
   active domain.  Queries may use only the binary relation [E], variables
   and inequalities between variables. *)
let count q edges =
  let elems = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let n = List.length elems in
  let code = Hashtbl.create n in
  List.iteri (fun i e -> Hashtbl.replace code e i) elems;
  let adj = Array.make (n * n) 0 in
  List.iter (fun (a, b) -> adj.((Hashtbl.find code a * n) + Hashtbl.find code b) <- 1) edges;
  let vars = Query.vars q in
  let vid = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace vid x i) vars;
  let var = function
    | Term.Var x -> Hashtbl.find vid x
    | Term.Cst _ -> invalid_arg "Oracle.count: constants are not supported"
  in
  let binary u v f =
    if u = v then { vars = [| u |]; data = Array.init n (fun a -> f a a) }
    else
      let lo = min u v and hi = max u v in
      {
        vars = [| lo; hi |];
        data =
          Array.init (n * n) (fun idx ->
              let a_lo = idx mod n and a_hi = idx / n in
              if lo = u then f a_lo a_hi else f a_hi a_lo);
      }
  in
  let atoms =
    List.map
      (fun a ->
        if Atom.sym a |> Bagcq_relational.Symbol.arity <> 2 then
          invalid_arg "Oracle.count: binary atoms only";
        binary (var (Atom.arg a 0)) (var (Atom.arg a 1)) (fun x y -> adj.((x * n) + y)))
      (Query.atoms q)
  in
  let neqs =
    List.map
      (fun (s, t) -> binary (var s) (var t) (fun x y -> if x = y then 0 else 1))
      (Query.neqs q)
  in
  if n = 0 then if vars = [] then Nat.one else Nat.zero
  else count_factors n (List.length vars) (atoms @ neqs)

let count_text query edges = count (Parse.parse_exn query) edges

let count_ucq_text query edges =
  List.fold_left
    (fun acc q -> Nat.add acc (count q edges))
    Nat.zero
    (Ucq.disjuncts (Parse.parse_ucq_exn query))
