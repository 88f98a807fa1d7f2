(** The join-tree dynamic program — the one bottom-up pass behind every
    acyclic and hypertree count.

    A join tree is a tree of nodes, each scanning a set of rows through
    per-position ops (a constant to compare, a variable already bound in
    the node's frame, or a fresh binding).  A node weighs every matching
    row by the product of its children's table entries under the shared
    interface and aggregates the weights by its own interface with the
    parent.  The running-intersection property makes each interface
    complete, so the root's entry at the empty key is |Hom(ψ, D)|.

    Rows are arrays of interned int codes — one-shot counts use the
    structure's {!Index} codes, maintained {!state} its own append-only
    interner — and tables are keyed by the interface's codes packed into
    one int ({!Key}).  Weights go through one {!WEIGHT} signature with two
    instances: overflow-checked machine ints ({!Int_weight}), and
    {!Bagcq_bignum.Nat}, because the DP produces counts exponentially
    larger than the work computing them.  A count runs on ints and moves
    to [Nat] at the first {!Overflow}.

    Two kinds of component map onto the same nodes: an α-acyclic
    component is a tree of atom nodes whose rows are the symbol's tuples
    ({!Decomp}); a bounded-width decomposition is a tree of bag nodes whose
    rows are the bag's materialised χ-projections ({!Ghd}).  Atom trees can
    also be kept as maintained {!state}, which folds single-tuple deltas
    in place ([lib/store]). *)

open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat

module KeyTbl : Hashtbl.S with type key = int
(** Tables keyed by packed codes. *)

module Key : sig
  type t
  (** Packs one interface's codes into a {!KeyTbl} key. *)

  val create : bits:int -> t
  (** Codes below [2^bits] pack [62 / bits] to an int; other keys get ids
      from a table private to this packer. *)

  val bits_for : int -> int
  (** The bits holding the codes [0 .. n-1] (at least one). *)

  val pack : t -> int array -> int array -> int
  (** [pack k slots row] is the key of the codes [row.(slots.(i))]: a
      single code itself, several packed, or a spill id.  Equal codes give
      equal keys under one packer. *)
end

exception Unsat_const
(** A constant the structure does not interpret: no homomorphism exists. *)

type op = Op_cst of int | Op_check of int | Op_bind of int
(** What one row position must satisfy: equal a constant's code, equal an
    already-bound frame slot, or bind a slot. *)

val no_code : int
(** A code no row holds: the code of a constant interpreted outside the
    active domain. *)

type pattern = { ops : op array; consts : (int * string) list }
(** Per-position ops compiled once per plan.  [consts] lists the constant
    positions by name; their ops are placeholders until {!resolve}. *)

val slot : string array -> string -> int
(** A variable's position in a frame of variable names. *)

val pattern : (string -> int) -> bool array -> Term.t array -> pattern
(** [pattern slot bound args] compiles one atom's arguments in a frame:
    [slot] maps a variable to its frame slot, [bound] marks the slots
    bound so far and is updated in place. *)

val resolve : (Value.t -> int) -> Structure.t -> pattern -> op array
(** [resolve code d pat] interprets the pattern's constants in [d] and
    codes them with [code] (the compiled array itself when there are
    none).  Raises {!Unsat_const}. *)

val index_code : Index.t -> Value.t -> int
(** {!Index.code}, with {!no_code} outside the active domain. *)

val matches : op array -> int array -> int array -> bool
(** Run the ops against a code row, writing bindings into the frame. *)

type 'src shape = {
  src : 'src;  (** where the node's rows come from *)
  pat : pattern;  (** ops over the rows, in the node's frame *)
  nvars : int;  (** frame size *)
  key : int array;  (** the parent interface, as slots of this frame *)
  lookup : int array;  (** the same interface, as slots of the parent's frame *)
  children : 'src shape list;
}
(** The query-only part of a join tree, compiled once per plan. *)

val ticker : Bagcq_guard.Budget.t option -> unit -> unit
(** One {!Bagcq_guard.Budget.tick} per call, or nothing without a budget. *)

val relation : tick:(unit -> unit) -> int array array -> (int array -> unit) -> unit
(** The row source of an atom node: ticks once when opened, then once
    per row fetched. *)

(** {2 Weights} *)

exception Overflow
(** An int weight left the machine range. *)

module type WEIGHT = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  (** Only called with a result that is not negative. *)

  val mul : t -> t -> t
end
(** The DP's weights; {!Int_weight} and {!Nat} are the two instances. *)

module Int_weight : WEIGHT with type t = int
(** Checked machine ints: a result past [max_int] raises {!Overflow}. *)

val count :
  rows:('src -> (int array -> unit) -> unit) -> Index.t -> 'src shape -> Structure.t -> Nat.t
(** One bottom-up pass over the {!Index} codes of a structure.  [rows src]
    opens a node's row source (it may tick, and may raise {!Unsat_const})
    before the node's children are evaluated; the returned iterator then
    feeds the node's scan, and may reuse its row array between calls.  An
    uninterpreted constant yields zero.  Runs on {!Int_weight}; at the
    first {!Overflow} the pass is rerun on {!Nat}, reopening every
    row source (so an overflowing count spends its fuel twice).  No
    reverse maps are built. *)

(** {2 Maintained state} *)

type state
(** Materialised tables of an atom tree against one evolving database,
    with per-edge reverse maps (child key → matching parent rows), over
    codes from the state's own append-only interner — the structure's
    {!Index} ranks shift between versions.  Tables hold ints until a
    count leaves the machine range, and {!Nat}s from then on.
    Mutable: {!delta} updates it in place, so a [state] must be guarded by
    whatever lock guards its database.  After a budget trip mid-{!delta}
    the tables may be half-propagated — discard and rebuild; never read
    {!total} from it. *)

val maintain : ?budget:Bagcq_guard.Budget.t -> Atom.t shape -> Structure.t -> state option
(** The bottom-up pass over the relations' tuples, with reverse maps.
    [None] when the tree mentions a constant the structure does not
    interpret — the count is zero but not maintainable (a later insert can
    bind the constant).  Ticks once per node and once per tuple scanned;
    an int overflow rebuilds on [Nat], ticking again. *)

val total : state -> Nat.t
(** The root's entry at the empty key.  O(1). *)

val delta :
  ?budget:Bagcq_guard.Budget.t ->
  state ->
  Structure.t ->
  Symbol.t ->
  Tuple.t ->
  add:bool ->
  unit
(** [delta st d sym tup ~add] folds one tuple insert ([add:true]) or
    delete ([add:false]) into the tables.  [d] is the structure {e after}
    the mutation; the caller guarantees the mutation was exactly this
    tuple — inserted while absent, deleted while present — which is what
    makes the delete-side subtraction exact.  The nodes carrying [sym]
    update their entry at the tuple's key with one exact add/sub; the
    change then climbs as per-key deltas through the reverse maps, so an
    ancestor re-weighs only the tuples joining a changed key.  A node the
    symbol reaches through several subtree paths rescans its relation.
    Ticks per node entered and per tuple re-weighed.  An int overflow
    mid-delta drops the half-propagated tables and rebuilds the state on
    [Nat] from [d]; a budget trip during that rebuild leaves it garbage,
    like any other trip. *)
