(** The join-tree dynamic program — the one bottom-up bignum pass behind
    every acyclic and hypertree count.

    A join tree is a tree of nodes, each scanning a set of rows through
    per-position ops (a constant to compare, a variable already bound in
    the node's frame, or a fresh binding).  A node weighs every matching
    row by the product of its children's table entries under the shared
    interface and aggregates the weights by its own interface with the
    parent.  The running-intersection property makes each interface
    complete, so the root's entry at the empty key is |Hom(ψ, D)|.
    Weights are {!Bagcq_bignum.Nat}: the DP produces counts exponentially
    larger than the work computing them.

    Two kinds of component map onto the same nodes: an α-acyclic
    component is a tree of atom nodes whose rows are the symbol's tuples
    ({!Decomp}); a bounded-width decomposition is a tree of bag nodes whose
    rows are the bag's materialised χ-projections ({!Ghd}).  Atom trees can
    also be kept as maintained {!state}, which folds single-tuple deltas
    in place ([lib/store]). *)

open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat

module KeyTbl : Hashtbl.S with type key = Value.t array

exception Unsat_const
(** A constant the structure does not interpret: no homomorphism exists. *)

type op = Op_cst of Value.t | Op_check of int | Op_bind of int
(** What one tuple position must satisfy: equal a constant, equal an
    already-bound frame slot, or bind a slot. *)

type pattern = { ops : op array; consts : (int * string) list }
(** Per-position ops compiled once per plan.  [consts] lists the constant
    positions by name; their ops are placeholders until {!resolve}. *)

val slot : string array -> string -> int
(** A variable's position in a frame of variable names. *)

val pattern : (string -> int) -> bool array -> Term.t array -> pattern
(** [pattern slot bound args] compiles one atom's arguments in a frame:
    [slot] maps a variable to its frame slot, [bound] marks the slots
    bound so far and is updated in place. *)

val resolve : Structure.t -> pattern -> op array
(** Interpret the pattern's constants in a structure (the compiled array
    itself when there are none).  Raises {!Unsat_const}. *)

val matches : op array -> Value.t array -> Tuple.t -> bool
(** Run the ops against a tuple, writing bindings into the frame. *)

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

val relation :
  tick:(unit -> unit) -> (Symbol.t -> Tuple.t array) -> Symbol.t -> (Tuple.t -> unit) -> unit
(** The row source of an atom node: ticks once when opened, then once
    per tuple fetched. *)

val count : rows:('src -> (Tuple.t -> unit) -> unit) -> 'src shape -> Structure.t -> Nat.t
(** One bottom-up pass.  [rows src] opens a node's row source (it may
    tick, and may raise {!Unsat_const}) before the node's children are
    evaluated; the returned iterator then feeds the node's scan.  An
    uninterpreted constant yields zero.  No reverse maps are built. *)

(** {2 Maintained state} *)

type state
(** Materialised tables of an atom tree against one evolving database,
    with per-edge reverse maps (child key → matching parent tuples).
    Mutable: {!delta} updates it in place, so a [state] must be guarded by
    whatever lock guards its database.  After a budget trip mid-{!delta}
    the tables may be half-propagated — discard and rebuild; never read
    {!total} from it. *)

val maintain : ?budget:Bagcq_guard.Budget.t -> Atom.t shape -> Structure.t -> state option
(** The bottom-up pass over the relations' tuples, with reverse maps.
    [None] when the tree mentions a constant the structure does not
    interpret — the count is zero but not maintainable (a later insert can
    bind the constant).  Ticks once per node and once per tuple scanned. *)

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
    makes the delete-side {!Nat.sub} exact.  The nodes carrying [sym]
    update their entry at the tuple's key with one exact add/sub; the
    change then climbs as per-key deltas through the reverse maps, so an
    ancestor re-weighs only the tuples joining a changed key.  A node the
    symbol reaches through several subtree paths rescans its relation.
    Ticks per node entered and per tuple re-weighed. *)
