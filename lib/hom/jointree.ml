open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget

(* ------------------------------- keys ------------------------------- *)

module KeyTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* multiplicative mix: packed keys differ in their high bits too, and
     the table masks the low ones *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)

let same_codes (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

module Spill = Hashtbl.Make (struct
  type t = int array

  let equal = same_codes

  let hash (a : t) = Array.fold_left (fun h c -> (h * 31) + c) 17 a land max_int
end)

module Key = struct
  (* [bits] per code, [fits] codes per int (62 bits: packed keys are
     non-negative); keys that do not fit get negative ids from [spill], so
     the two ranges never meet.  Whether a key packs depends only on its
     codes, so one key has one int. *)
  type t = { bits : int; fits : int; spill : int Spill.t }

  let create ~bits = { bits; fits = (Sys.int_size - 1) / bits; spill = Spill.create 1 }

  let bits_for n =
    let rec go b = if n <= 1 lsl b then b else go (b + 1) in
    go 1

  let spill k slots row =
    let key = Array.map (fun s -> row.(s)) slots in
    match Spill.find_opt k.spill key with
    | Some id -> id
    | None ->
        let id = -1 - Spill.length k.spill in
        Spill.add k.spill key id;
        id

  let pack k slots row =
    match Array.length slots with
    | 0 -> 0
    | 1 -> row.(slots.(0))
    | n when n > k.fits -> spill k slots row
    | n ->
        let rec go i acc =
          if i = n then acc
          else
            let c = row.(slots.(i)) in
            if c lsr k.bits <> 0 then spill k slots row
            else go (i + 1) ((acc lsl k.bits) lor c)
        in
        go 0 0
end

(* ------------------------------ patterns ----------------------------- *)

exception Unsat_const

type op = Op_cst of int | Op_check of int | Op_bind of int

let no_code = -1

(* Constant positions hold [Op_cst no_code] until {!resolve} patches them
   per structure, which only copies the array when constants exist. *)
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
            Op_cst no_code
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

let resolve code d pat =
  match pat.consts with
  | [] -> pat.ops
  | consts ->
      let ops = Array.copy pat.ops in
      List.iter
        (fun (p, c) ->
          match Structure.interpretation d c with
          | Some v -> ops.(p) <- Op_cst (code v)
          | None -> raise_notrace Unsat_const)
        consts;
      ops

let index_code idx v = Option.value ~default:no_code (Index.code idx v)

(* Run the per-position ops against one code row, filling [env] at the
   binding points; false when a constant or repeated variable mismatches.
   A top-level loop, so the per-row call allocates no closure. *)
let rec matches_from ops env (row : int array) i =
  i = Array.length ops
  || (match ops.(i) with
     | Op_cst c -> row.(i) = c
     | Op_check j -> row.(i) = env.(j)
     | Op_bind j ->
         env.(j) <- row.(i);
         true)
     && matches_from ops env row (i + 1)

let matches ops env row = matches_from ops env row 0

type 'src shape = {
  src : 'src;
  pat : pattern;
  nvars : int;
  key : int array;
  lookup : int array;
  children : 'src shape list;
}

let ticker = function None -> fun () -> () | Some b -> fun () -> Budget.tick b

let relation ~tick rows =
  tick ();
  fun f ->
    Array.iter
      (fun r ->
        tick ();
        f r)
      rows

(* ------------------------------ weights ------------------------------ *)

exception Overflow

module type WEIGHT = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end

(* Machine ints, checked: a sum or product past [max_int] raises
   [Overflow] instead of wrapping.  Weights are non-negative, so a wrapped
   sum is negative; factors below 2^31 cannot overflow a product. *)
module Int_weight = struct
  type t = int

  let zero = 0
  let one = 1
  let is_zero w = w = 0

  let add a b =
    let s = a + b in
    if s < 0 then raise_notrace Overflow else s

  let sub = ( - )
  let small = 1 lsl 31

  let mul a b =
    if (a < small && b < small) || a = 0 || b = 0 then a * b
    else if a > max_int / b then raise_notrace Overflow
    else a * b
end

(* ------------------------------ the DP ------------------------------ *)

(* One node of an evaluated tree.  [edge] packs the interface with the
   parent — [shape.key] over this node's frame for its own table,
   [shape.lookup] over the parent's frame when the parent probes it.
   [parents] is the reverse map of that edge — the parent's matching rows
   grouped by the packed interface — kept only in maintained state.
   Membership is weight-independent: a zero-weight parent row can gain
   weight when this node's table grows at its key, so it must stay
   reachable. *)
type ('src, 'w) node = {
  shape : 'src shape;
  ops : op array;
  edge : Key.t;
  children : ('src, 'w) node list;
  mutable table : 'w KeyTbl.t;
  parents : int array list KeyTbl.t option;
}

module Pass (W : WEIGHT) = struct
  let bump tbl key w =
    match KeyTbl.find_opt tbl key with
    | Some prev -> KeyTbl.replace tbl key (W.add prev w)
    | None -> KeyTbl.add tbl key w

  (* The product of the children's table entries under the bound row —
     [skip]'s factor left out (pass the node itself to keep them all).
     Entries are never zero, so a missing one is the only zero factor. *)
  let weight node env ~skip =
    let rec go acc = function
      | [] -> acc
      | c :: rest when c == skip -> go acc rest
      | c :: rest -> (
          match KeyTbl.find_opt c.table (Key.pack c.edge c.shape.lookup env) with
          | Some s -> go (W.mul acc s) rest
          | None -> W.zero)
    in
    go W.one node.children

  (* Re-aggregate a node's table from its rows against the current child
     tables, refilling the children's reverse maps on the way (which keep
     the rows, so a maintained source hands over fresh arrays). *)
  let scan node rows =
    let env = Array.make (max 1 node.shape.nvars) no_code in
    let tbl = KeyTbl.create 64 in
    List.iter (fun c -> Option.iter KeyTbl.reset c.parents) node.children;
    rows (fun row ->
        if matches node.ops env row then begin
          List.iter
            (fun c ->
              match c.parents with
              | None -> ()
              | Some rev ->
                  let k = Key.pack c.edge c.shape.lookup env in
                  let prev = Option.value ~default:[] (KeyTbl.find_opt rev k) in
                  KeyTbl.replace rev k (row :: prev))
            node.children;
          let w = weight node env ~skip:node in
          if not (W.is_zero w) then bump tbl (Key.pack node.edge node.shape.key env) w
        end);
    node.table <- tbl

  (* The bottom-up pass.  Per node: open the row source (which may tick and
     may raise [Unsat_const]), interpret the node's constants, evaluate the
     children, then scan.  The running-intersection property makes each
     edge's projection a complete interface, so the root's single entry is
     exactly the number of homomorphisms. *)
  let rec build ~rows ~code ~bits ~revs ~maintain d shape =
    let iter = rows shape.src in
    let ops = resolve code d shape.pat in
    let children =
      List.map (build ~rows ~code ~bits ~revs:maintain ~maintain d) shape.children
    in
    let node =
      {
        shape;
        ops;
        edge = Key.create ~bits;
        children;
        table = KeyTbl.create 1;
        parents = (if revs then Some (KeyTbl.create 16) else None);
      }
    in
    scan node iter;
    node

  let total node = Option.value ~default:W.zero (KeyTbl.find_opt node.table 0)

  let count ~rows idx shape d =
    let bits = Key.bits_for (Array.length (Index.domain idx)) in
    match build ~rows ~code:(index_code idx) ~bits ~revs:false ~maintain:false d shape with
    | root -> total root
    | exception Unsat_const -> W.zero

  (* Maintained state packs three codes per key; past 2^20 interned
     values, keys spill. *)
  let maintain ~rows ~code d shape =
    build ~rows ~code ~bits:20 ~revs:false ~maintain:true d shape

  (* What a subtree reports upward after a delta.  [Deltas] carries the
     per-key magnitude of the change — the direction is the mutation's
     ([~add]), since inserting only grows weights and deleting only
     shrinks them.  [Rebuilt] means the node rescanned (the mutated symbol
     sat at several nodes of the subtree), so per-key deltas are unknown
     and the parent must rescan too. *)
  type change = Unchanged | Rebuilt | Deltas of (int * W.t) list

  let delta ~tick ~rows root sym (tup : int array) ~add =
    let apply node key delta =
      let prev = Option.value ~default:W.zero (KeyTbl.find_opt node.table key) in
      let next = if add then W.add prev delta else W.sub prev delta in
      if W.is_zero next then KeyTbl.remove node.table key
      else KeyTbl.replace node.table key next
    in
    (* A node carrying the mutated symbol with an unchanged subtree: update
       its children's reverse maps for the tuple, then one exact add/sub
       on its table.  The sub on delete cannot underflow: the entry
       aggregates the weights of the node's matching tuples, the deleted
       tuple was one of them, and the child tables it was weighted by are
       unchanged here. *)
    let own_update node =
      tick ();
      let env = Array.make (max 1 node.shape.nvars) no_code in
      if not (matches node.ops env tup) then Unchanged
      else begin
        List.iter
          (fun c ->
            Option.iter
              (fun rev ->
                let k = Key.pack c.edge c.shape.lookup env in
                let l = Option.value ~default:[] (KeyTbl.find_opt rev k) in
                let l' = if add then tup :: l else List.filter (fun t -> not (same_codes t tup)) l in
                if l' = [] then KeyTbl.remove rev k else KeyTbl.replace rev k l')
              c.parents)
          node.children;
        let w = weight node env ~skip:node in
        if W.is_zero w then Unchanged
        else begin
          let key = Key.pack node.edge node.shape.key env in
          apply node key w;
          Deltas [ (key, w) ]
        end
      end
    in
    (* One child's table changed at a known set of keys: re-weigh exactly
       the parent rows joining those keys (the reverse map), multiplying
       each child-key delta by the unchanged siblings' weights. *)
    let propagate node ch deltas =
      let env = Array.make (max 1 node.shape.nvars) no_code in
      let acc = KeyTbl.create 8 in
      let rev = Option.get ch.parents in
      List.iter
        (fun (ck, d_ck) ->
          List.iter
            (fun row ->
              tick ();
              if matches node.ops env row then begin
                let contrib = W.mul (weight node env ~skip:ch) d_ck in
                if not (W.is_zero contrib) then
                  bump acc (Key.pack node.edge node.shape.key env) contrib
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
          scan node (rows node.shape.src);
          Rebuilt
    in
    ignore (update root)
end

module Int_pass = Pass (Int_weight)
module Nat_pass = Pass (Nat)

(* One-shot counts run on machine ints and rerun on [Nat] at the first
   overflow — reopening every row source, so the rerun spends its fuel
   again. *)
let count ~rows idx shape d =
  match Int_pass.count ~rows idx shape d with
  | n -> Nat.of_int n
  | exception Overflow -> Nat_pass.count ~rows idx shape d

(* ------------------------- maintained state ------------------------- *)

(* Codes of a maintained state come from its own append-only interner, so
   they survive deltas: the structure's {!Index} is rebuilt per version
   and its ranks shift. *)
module ValueTbl = Hashtbl.Make (Value)

type tables = Small of (Atom.t, int) node | Big of (Atom.t, Nat.t) node
type state = { tree : Atom.t shape; codes : int ValueTbl.t; mutable tables : tables }

let intern codes v =
  match ValueTbl.find_opt codes v with
  | Some c -> c
  | None ->
      let c = ValueTbl.length codes in
      ValueTbl.add codes v c;
      c

let state_rows ~tick codes d a =
  tick ();
  let tuples = Structure.tuple_array d (Atom.sym a) in
  fun f ->
    Array.iter
      (fun t ->
        tick ();
        f (Array.map (intern codes) t))
      tuples

let maintain ?budget tree d =
  let tick = ticker budget in
  let codes = ValueTbl.create 64 in
  let rows = state_rows ~tick codes d and code = intern codes in
  match Int_pass.maintain ~rows ~code d tree with
  | root -> Some { tree; codes; tables = Small root }
  | exception Overflow -> Some { tree; codes; tables = Big (Nat_pass.maintain ~rows ~code d tree) }
  | exception Unsat_const -> None

let total st =
  match st.tables with
  | Small root -> Nat.of_int (Int_pass.total root)
  | Big root -> Nat_pass.total root

(* An overflow mid-delta leaves the int tables half-propagated: they are
   dropped and the state is rebuilt on [Nat] from the mutated structure. *)
let delta ?budget st d sym tup ~add =
  let tick = ticker budget in
  let rows = state_rows ~tick st.codes d in
  let tup = Array.map (intern st.codes) tup in
  match st.tables with
  | Big root -> Nat_pass.delta ~tick ~rows root sym tup ~add
  | Small root -> (
      try Int_pass.delta ~tick ~rows root sym tup ~add
      with Overflow ->
        st.tables <- Big (Nat_pass.maintain ~rows ~code:(intern st.codes) d st.tree))
