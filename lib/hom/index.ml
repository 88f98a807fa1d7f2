open Bagcq_relational

module ValueTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Index construction is the metric the server dedup test watches: repeated
   evals against one (interned) structure must bump this exactly once. *)
let index_builds =
  Bagcq_obs.Metrics.counter Bagcq_obs.Metrics.global "hom_index_builds"

(* One relation, stored row- and column-major over interned codes.
   [tuples] is the sorted row store and [rows.(row)] the same tuple as
   codes — codes are indexes into the structure's sorted domain, so code
   order is [Value.compare] order; [cols.(pos).(row)] is the code of the
   value at [pos], so every column is a sorted-int problem.
   [groups.(pos).(code)] packs the code rows holding [code] at [pos], in
   row order, built on the first probe of that position.
   [views] memoises the re-sorted trie views handed to the leapfrog
   kernel, keyed by attribute order.  [groups] and [views] are mutated
   under [lock] because one structure (and hence one index) is shared
   across worker domains. *)
type sym_index = {
  tuples : Tuple.t array;
  rows : int array array;
  cols : int array array;
  groups : int array array array option array;
  views : (int array, int array array) Hashtbl.t;
  lock : Mutex.t;
}

type t = {
  by_sym : sym_index Symbol.Map.t;
  domain : Value.t array;
  code_of : int ValueTbl.t;
}

let empty_sym_index arity =
  {
    tuples = [||];
    rows = [||];
    cols = Array.make arity [||];
    groups = Array.make arity None;
    views = Hashtbl.create 1;
    lock = Mutex.create ();
  }

(* [group col elts] buckets [elts] by their code in [col] (same length):
   [(group col elts).(c)] holds, in order, the elements whose code is [c]. *)
let group col (elts : 'a array) : 'a array array =
  let top = Array.fold_left max (-1) col in
  let counts = Array.make (top + 1) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) col;
  let groups =
    Array.init (top + 1) (fun c ->
        if counts.(c) = 0 then [||] else Array.make counts.(c) elts.(0))
  in
  let fill = Array.make (top + 1) 0 in
  Array.iteri
    (fun row c ->
      groups.(c).(fill.(c)) <- elts.(row);
      fill.(c) <- fill.(c) + 1)
    col;
  groups

let build_sym_index code_of sym tuples =
  let arity = Symbol.arity sym in
  let rows = Array.map (Array.map (ValueTbl.find code_of)) tuples in
  let cols = Array.init arity (fun pos -> Array.map (fun r -> r.(pos)) rows) in
  {
    tuples;
    rows;
    cols;
    groups = Array.make arity None;
    views = Hashtbl.create 4;
    lock = Mutex.create ();
  }

let build d =
  Bagcq_obs.Metrics.incr index_builds;
  let domain = Array.of_list (Value.Set.elements (Structure.domain d)) in
  let code_of = ValueTbl.create (max 16 (Array.length domain)) in
  Array.iteri (fun i v -> ValueTbl.replace code_of v i) domain;
  let by_sym =
    List.fold_left
      (fun acc sym ->
        let tuples = Structure.tuple_array d sym in
        Symbol.Map.add sym (build_sym_index code_of sym tuples) acc)
      Symbol.Map.empty
      (Schema.symbols (Structure.schema d))
  in
  (* Symbols present in the atom map but absent from the schema cannot occur
     ([add_atom] extends the schema), so the schema fold is exhaustive. *)
  { by_sym; domain; code_of }

type Structure.memo += Indexed of t

let get d =
  match Structure.memo_find d (function Indexed i -> Some i | _ -> None) with
  | Some i -> i
  | None ->
      let i = build d in
      Structure.memo_store d (Indexed i);
      i

let sym_index idx sym =
  match Symbol.Map.find_opt sym idx.by_sym with
  | Some si -> si
  | None -> empty_sym_index (Symbol.arity sym)

let domain idx = idx.domain
let code idx v = ValueTbl.find_opt idx.code_of v
let all si = si.tuples
let code_rows si = si.rows

let build_view si (order : int array) =
  let n = Array.length si.tuples in
  let depth = Array.length order in
  let rows = Array.init n (fun r -> r) in
  let cmp a b =
    let rec go l =
      if l = depth then 0
      else
        let col = si.cols.(order.(l)) in
        let d = compare col.(a) col.(b) in
        if d <> 0 then d else go (l + 1)
    in
    go 0
  in
  Array.sort cmp rows;
  Array.init depth (fun l ->
      let col = si.cols.(order.(l)) in
      Array.init n (fun r -> col.(rows.(r))))

(* Lazily built parts are built under the lock: each is built once per
   relation and racing builders would only duplicate work, but the tables
   themselves must not be mutated concurrently. *)
let view si (order : int array) =
  Mutex.protect si.lock (fun () ->
      match Hashtbl.find_opt si.views order with
      | Some v -> v
      | None ->
          let v = build_view si order in
          Hashtbl.replace si.views (Array.copy order) v;
          v)

let code_groups si ~pos =
  Mutex.protect si.lock (fun () ->
      match si.groups.(pos) with
      | Some g -> g
      | None ->
          let g = group si.cols.(pos) si.rows in
          si.groups.(pos) <- Some g;
          g)
