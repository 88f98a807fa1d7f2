(** Worst-case-optimal counting for cyclic components: a Leapfrog-Triejoin
    style multiway intersection over the sorted columnar indexes of
    {!Index}.

    The classic backtracking kernel joins one {e atom} at a time; on cyclic
    queries (triangles, the paper's CYCLIQ family, the Arena/ζ_b reduction
    structures) it enumerates partial assignments that every remaining atom
    then rejects — the Θ(n²)-intermediate-result trap AGM-bounded joins
    avoid.  This kernel instead binds one {e variable} at a time under a
    fixed global variable order: every atom containing the variable
    contributes a sorted iterator over the codes possible at its trie
    level, and their intersection is computed by leapfrogging — repeatedly
    galloping the lowest iterator up to the current maximum — so each
    candidate value costs seeks logarithmic in the ranges instead of a
    scan.

    Counting changes the leaf step.  Textbook LFTJ emits each full match;
    counting homomorphisms only needs the {e number} of extensions, so when
    the innermost variable occurs in a single atom (no repeated positions)
    the kernel adds the width of that atom's final range — the rows share
    the whole bound prefix, hence are distinct at the last level — without
    visiting the values.  Counts accumulate in an int and flush into a
    {!Bagcq_bignum.Nat} before overflow.

    Inequalities compile into {e per-rank filters}: an [x ≠ y] atom runs
    at the later of the two ranks against the code bound at the earlier
    one, an [x ≠ c] atom at [x]'s rank against the constant's per-structure
    code, both checked the moment the intersection matches a value —
    before any range narrowing or recursion.  A variable occurring only
    in ≠ atoms has no iterator to filter ({!supports_neqs} is false) and
    such components keep the backtracking kernel.

    Selected by {!Decomp.choose} for cyclic components and for components
    whose inequalities pass {!supports_neqs}.  Observable
    through the process-wide counters [wcoj_plans_compiled], [wcoj_runs]
    and [wcoj_seeks]. *)

open Bagcq_cq

type plan

val supports_neqs : Query.t -> bool
(** Whether the query's inequalities fit the leapfrog: at least one atom,
    and every inequality {e variable} occurs in some atom.  Constants in
    inequalities are always fine (they become code filters, or a
    per-structure precheck when both sides are constants). *)

val compile : Query.t -> plan
(** Compile one component: choose the global variable order (prefer
    variables connected to already-ordered ones, then higher atom
    frequency, ties by name — deterministic), lay out each atom's trie
    level order (constants first, then variables by rank, repeats on
    consecutive levels), and attach inequalities as per-rank filters.
    Raises [Invalid_argument] when {!supports_neqs} is false — those
    components stay on the backtracking kernel. *)

val variable_order : plan -> string list
(** The chosen global variable order, outermost first — what
    [bagcq explain] prints. *)

val rank_supports : plan -> int array
(** Per rank of the variable order: how many of the rank's iterators sit
    below an earlier variable level of their own atom, i.e. enter the
    intersection already narrowed by an outer binding.  The planner's
    cost model counts ranks supported ≤ 1 — where leapfrog degenerates to
    scanning — to decide when a bounded-width decomposition ({!Ghd}) is
    worth the bag materialisation. *)

val count :
  ?budget:Bagcq_guard.Budget.t ->
  plan ->
  Bagcq_relational.Structure.t ->
  Bagcq_bignum.Nat.t
(** [count p D] = |Hom(component, D)|.  With [?budget] every seek
    (gallop) ticks once, and the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} mid-intersection on a trip.
    Inequality semantics follow {!Solver_ref}: an uninterpreted constant
    anywhere (≠ atoms included) yields zero, a [c ≠ c'] between constants
    interpreted equal yields zero, and a filter constant interpreted
    outside the active domain is vacuous. *)
