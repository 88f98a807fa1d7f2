open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget

module KeyTbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (t : Value.t array) =
    Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 t
end)

exception Unsat_const

type op = Op_cst of Value.t | Op_check of int | Op_bind of int

(* Constant positions hold [Op_cst (Value.sym c)] — the interpretation a
   constant gets unless re-bound — and are patched per structure by
   {!resolve}, which only copies the array when constants exist. *)
type pattern = { ops : op array; consts : (int * string) list }

let slot frame x =
  let rec go k = if frame.(k) = x then k else go (k + 1) in
  go 0

let pattern slot bound args =
  let consts = ref [] in
  let ops =
    Array.mapi
      (fun p -> function
        | Term.Cst c ->
            consts := (p, c) :: !consts;
            Op_cst (Value.sym c)
        | Term.Var x ->
            let i = slot x in
            if bound.(i) then Op_check i
            else begin
              bound.(i) <- true;
              Op_bind i
            end)
      args
  in
  { ops; consts = List.rev !consts }

let resolve d pat =
  match pat.consts with
  | [] -> pat.ops
  | consts ->
      let ops = Array.copy pat.ops in
      List.iter
        (fun (p, c) ->
          match Structure.interpretation d c with
          | Some v -> ops.(p) <- Op_cst v
          | None -> raise_notrace Unsat_const)
        consts;
      ops

(* Run the per-position ops against one tuple, filling [env] at the
   binding points; false when a constant or repeated variable mismatches. *)
let matches ops env (tup : Tuple.t) =
  let n = Array.length ops in
  Array.length tup = n
  &&
  let rec go i =
    i = n
    || (match ops.(i) with
       | Op_cst v -> Value.equal tup.(i) v
       | Op_check j -> Value.equal tup.(i) env.(j)
       | Op_bind j ->
           env.(j) <- tup.(i);
           true)
       && go (i + 1)
  in
  go 0

type 'src shape = {
  src : 'src;
  pat : pattern;
  nvars : int;
  key : int array;
  lookup : int array;
  children : 'src shape list;
}

let ticker = function None -> fun () -> () | Some b -> fun () -> Budget.tick b

let relation ~tick fetch sym =
  tick ();
  let tuples = fetch sym in
  fun f ->
    Array.iter
      (fun t ->
        tick ();
        f t)
      tuples

(* ------------------------------ the DP ------------------------------ *)

(* One node of an evaluated tree.  [parents] is the reverse map of the
   edge to the parent — the parent's matching rows grouped by this node's
   [lookup] projection — kept only in maintained state.  Membership is
   weight-independent: a zero-weight parent row can gain weight when this
   node's table grows at its key, so it must stay reachable. *)
type 'src node = {
  shape : 'src shape;
  ops : op array;
  children : 'src node list;
  mutable table : Nat.t KeyTbl.t;
  parents : Tuple.t list KeyTbl.t option;
}

let blank = Value.int 0
let project env pos = Array.map (fun p -> env.(p)) pos

let bump tbl key w =
  let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt tbl key) in
  KeyTbl.replace tbl key (Nat.add prev w)

(* The product of the children's table entries under the bound row —
   [skip]'s factor left out (pass the node itself to keep them all). *)
let weight node env ~skip =
  List.fold_left
    (fun acc c ->
      if c == skip || Nat.is_zero acc then acc
      else
        match KeyTbl.find_opt c.table (project env c.shape.lookup) with
        | Some s -> Nat.mul acc s
        | None -> Nat.zero)
    Nat.one node.children

(* Re-aggregate a node's table from its rows against the current child
   tables, refilling the children's reverse maps on the way. *)
let scan node rows =
  let env = Array.make (max 1 node.shape.nvars) blank in
  let tbl = KeyTbl.create 64 in
  List.iter (fun c -> Option.iter KeyTbl.reset c.parents) node.children;
  rows (fun tup ->
      if matches node.ops env tup then begin
        List.iter
          (fun c ->
            match c.parents with
            | None -> ()
            | Some rev ->
                let k = project env c.shape.lookup in
                let prev = Option.value ~default:[] (KeyTbl.find_opt rev k) in
                KeyTbl.replace rev k (tup :: prev))
          node.children;
        let w = weight node env ~skip:node in
        if not (Nat.is_zero w) then bump tbl (project env node.shape.key) w
      end);
  node.table <- tbl

(* The bottom-up pass.  Per node: open the row source (which may tick and
   may raise [Unsat_const]), interpret the node's constants, evaluate the
   children, then scan.  The running-intersection property makes each
   edge's projection a complete interface, so the root's single entry is
   exactly the number of homomorphisms. *)
let rec build ~rows ~revs ~maintain d shape =
  let iter = rows shape.src in
  let ops = resolve d shape.pat in
  let children =
    List.map (build ~rows ~revs:maintain ~maintain d) shape.children
  in
  let node =
    {
      shape;
      ops;
      children;
      table = KeyTbl.create 1;
      parents = (if revs then Some (KeyTbl.create 16) else None);
    }
  in
  scan node iter;
  node

let root_count node =
  Option.value ~default:Nat.zero (KeyTbl.find_opt node.table [||])

let count ~rows shape d =
  match build ~rows ~revs:false ~maintain:false d shape with
  | root -> root_count root
  | exception Unsat_const -> Nat.zero

(* ------------------------- maintained state ------------------------- *)

type state = Atom.t node

let atom_rows ~tick d a = relation ~tick (Structure.tuple_array d) (Atom.sym a)

let maintain ?budget shape d =
  let tick = ticker budget in
  match build ~rows:(atom_rows ~tick d) ~revs:false ~maintain:true d shape with
  | root -> Some root
  | exception Unsat_const -> None

let total = root_count

(* What a subtree reports upward after a delta.  [Deltas] carries the
   per-key magnitude of the change — the direction is the mutation's
   ([~add]), since inserting only grows weights and deleting only shrinks
   them.  [Rebuilt] means the node rescanned (the mutated symbol sat at
   several nodes of the subtree), so per-key deltas are unknown and the
   parent must rescan too. *)
type change = Unchanged | Rebuilt | Deltas of (Value.t array * Nat.t) list

let delta ?budget root d sym (tup : Tuple.t) ~add =
  let tick = ticker budget in
  let apply node key delta =
    let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt node.table key) in
    let next = if add then Nat.add prev delta else Nat.sub prev delta in
    if Nat.is_zero next then KeyTbl.remove node.table key
    else KeyTbl.replace node.table key next
  in
  (* A node carrying the mutated symbol with an unchanged subtree: update
     its children's reverse maps for the tuple, then one exact
     [Nat.add]/[Nat.sub] on its table.  The [Nat.sub] on delete cannot
     underflow: the entry aggregates the weights of the node's matching
     tuples, the deleted tuple was one of them, and the child tables it
     was weighted by are unchanged here. *)
  let own_update node =
    tick ();
    let env = Array.make (max 1 node.shape.nvars) blank in
    if not (matches node.ops env tup) then Unchanged
    else begin
      List.iter
        (fun c ->
          Option.iter
            (fun rev ->
              let k = project env c.shape.lookup in
              let l = Option.value ~default:[] (KeyTbl.find_opt rev k) in
              let l' =
                if add then tup :: l
                else List.filter (fun t -> not (Tuple.equal t tup)) l
              in
              if l' = [] then KeyTbl.remove rev k else KeyTbl.replace rev k l')
            c.parents)
        node.children;
      let w = weight node env ~skip:node in
      if Nat.is_zero w then Unchanged
      else begin
        let key = project env node.shape.key in
        apply node key w;
        Deltas [ (key, w) ]
      end
    end
  in
  (* One child's table changed at a known set of keys: re-weigh exactly
     the parent rows joining those keys (the reverse map), multiplying
     each child-key delta by the unchanged siblings' weights. *)
  let propagate node ch deltas =
    let env = Array.make (max 1 node.shape.nvars) blank in
    let acc = KeyTbl.create 8 in
    let rev = Option.get ch.parents in
    List.iter
      (fun (ck, d_ck) ->
        List.iter
          (fun t ->
            tick ();
            if matches node.ops env t then begin
              let contrib = Nat.mul (weight node env ~skip:ch) d_ck in
              if not (Nat.is_zero contrib) then
                bump acc (project env node.shape.key) contrib
            end)
          (Option.value ~default:[] (KeyTbl.find_opt rev ck)))
      deltas;
    if KeyTbl.length acc = 0 then Unchanged
    else
      Deltas
        (KeyTbl.fold
           (fun key delta out ->
             apply node key delta;
             (key, delta) :: out)
           acc [])
  in
  let rec update node =
    let changed =
      List.filter_map
        (fun c -> match update c with Unchanged -> None | ch -> Some (c, ch))
        node.children
    in
    let own = Symbol.equal (Atom.sym node.shape.src) sym in
    match changed with
    | [] -> if own then own_update node else Unchanged
    | [ (c, Deltas ds) ] when not own -> propagate node c ds
    | _ ->
        (* the mutated symbol reached this node through several paths (or
           a descendant rescanned): per-key propagation would need cross
           terms, so re-aggregate against the updated child tables *)
        scan node (atom_rows ~tick d node.shape.src);
        Rebuilt
  in
  ignore (update root)
