(** The compiled backtracking join over interned int codes, and query
    compilation for the homomorphism solver.

    A join is a sequence of {!step}s, one per atom, over a frame of int
    slots.  Each step matches candidate code rows of its relation through
    {!Jointree.pattern} ops; its candidates are the {!Index.code_groups}
    bucket at its probe position — the first position fixed by a constant
    or by an earlier atom — or every {!Index.code_rows} row when nothing is
    fixed.  When every position is fixed, the bucket narrows to the one
    row a binary search over the sorted code rows finds.  {!join} is the
    one loop behind both callers: {!Solver}, which enumerates
    homomorphisms, and {!Ghd}, which materialises hypertree bags.  Each
    caller chooses its own atom order.

    [compile] runs once per query and produces everything {!Solver} needs
    that does not depend on the structure: the atoms in {!ordered_atoms}'s
    greedy order as steps, variables numbered into frame slots in binding
    order, and every inequality attached to the level that binds its later
    endpoint.  Constants stay symbolic until a structure interprets them.

    The plan depends only on the query, so {!Eval} caches one plan per
    canonical component and reuses it across the thousands of candidate
    databases a hunt sweeps. *)

type step = {
  sym : Bagcq_relational.Symbol.t;
  pat : Jointree.pattern;  (** the atom's ops over the frame *)
  probe : int option;  (** position whose index bucket is scanned *)
}

val steps : string array -> Bagcq_cq.Atom.t array -> step array
(** [steps frame atoms] compiles the atoms, in the given order, over a
    frame of variable names. *)

type t = {
  steps : step array;  (** the atoms, in {!ordered_atoms}'s order *)
  nfree : int;
      (** variables occurring only in inequalities: the frame's last
          [nfree] variable slots, one level each after the steps *)
  neqs : (int * int) array array;
      (** per level (steps, then ≠-only variables): slot pairs that must
          hold different codes once the level has bound its slots *)
  neq_consts : string array;
      (** constants of inequalities, held in the slots after the
          variables *)
  cst_neqs : (string * string) list;  (** inequalities between two constants *)
  var_names : string array;  (** the variable of each slot *)
}

val compile : Bagcq_cq.Query.t -> t
val nvars : t -> int
val num_nodes : t -> int

val ordered_atoms : Bagcq_cq.Query.t -> Bagcq_cq.Atom.t list
(** The greedy static join order {!compile} would execute the query's
    atoms in — for [bagcq explain], without compiling. *)

(** {2 Running a join} *)

type level = {
  rows : int array -> int array array;  (** candidate rows, given the frame *)
  ops : Jointree.op array;  (** resolved against the structure *)
  neqs : (int * int) array;  (** slot pairs that must differ *)
}
(** One step of a join, resolved against one structure. *)

val scan : Index.t -> step -> Jointree.op array -> int array -> int array array
(** [scan idx step ops] is the step's candidate source: the bucket of
    {!Index.code_groups} at its probe, the one matching row when every
    position is fixed, or all {!Index.code_rows}. *)

val join : tick:(unit -> unit) -> level array -> int array -> (unit -> unit) -> unit
(** [join ~tick levels env emit] runs the backtracking join, writing
    bindings into [env] and calling [emit] once per complete match.  It
    ticks once per candidate row. *)
