(** Structure-aware query planning: component factorization and acyclic
    join-tree counting.

    The paper's constructions multiply homomorphism counts by building
    variable-disjoint conjunctions — [(θ↑k)(D) = θ(D)^k] (Definition 2) is
    a [k]-fold disjoint copy of [θ], and Lemma 1 factorises any query's
    count over the connected components of its Gaifman graph.  This module
    turns both laws into a planner: {!factor} splits a query into canonical
    components with multiplicities (so [θ↑k] costs one component search
    plus one [Nat.pow]), and {!choose} classifies each component — GYO
    reduction sends α-acyclic components to the join-tree dynamic program
    ({!count_tree}: polynomial in the structure), cyclic components run
    the leapfrog kernel ({!Wcoj}) or, when the order is weak and a
    width ≤ 2 decomposition exists, the join-tree DP over hypertree bags
    ({!Ghd}); the compiled backtracking kernel survives for components
    whose inequalities the leapfrog cannot filter.

    Plan selection is observable through five process-wide counters in
    {!Bagcq_obs.Metrics.global}: [plan_components] (components seen by
    {!factor}), and [plan_dp_selected] / [plan_wcoj_selected] /
    [plan_ghd_selected] / [plan_fallback] — bumped by {!record_choice} on
    cold plans only, so the family tracks plan-cache misses. *)

open Bagcq_bignum
open Bagcq_cq

val canonical : Query.t -> Query.t
(** Variables renamed by first occurrence ([v1], [v2], …), so components
    that differ only in variable names — the disjoint copies produced by
    [∧̄] and [↑] — share one syntactic form, one cache entry and one
    search.  A heuristic, not a graph-isomorphism canonical form: two
    isomorphic components may still canonicalise apart, which costs a
    duplicate search but never an incorrect count. *)

val factor : Query.t -> (Query.t * int) list
(** Connected components of the query, canonicalised, grouped by syntactic
    equality and paired with their multiplicities, in {!Query.compare}
    order.  [count q D = Π_i count cᵢ D ^ mᵢ] over [factor q]; the empty
    conjunction factors into [[]]. *)

type tree = Atom.t Jointree.shape
(** A join tree over a component's atoms, compiled for {!Jointree}: one
    atom node per atom, framed on the atom's distinct variables.  The GYO
    parent relation has the running-intersection property, so each edge's
    interface — the variables the child atom shares with its parent atom,
    sorted — is exactly the interface between the child's subtree and the
    rest of the query. *)

type strategy =
  | Dp of tree  (** α-acyclic, no inequalities: count by {!count_tree} *)
  | Wcoj of Wcoj.plan
      (** cyclic, or inequalities filterable by the leapfrog:
          worst-case-optimal leapfrog join *)
  | Ghd of Ghd.t
      (** cyclic with a weak leapfrog order but small hypertree width:
          join-tree DP over materialised decomposition bags *)
  | Backtrack
      (** inequality variables outside every atom: compiled backtracking
          kernel *)

val choose : Query.t -> strategy
(** Classify one component (callers pass the elements of {!factor}).
    Components with inequalities run the leapfrog with per-rank ≠ filters
    when {!Wcoj.supports_neqs} holds, and backtrack otherwise (a variable
    occurring only in ≠ atoms ranges over the whole domain and is no
    hyperedge).  Otherwise GYO reduction decides: one surviving edge
    means α-acyclic (join-tree DP); a cyclic residue compiles the
    leapfrog plan, and when its variable order has ≥ 4 weak ranks
    (iterators unsupported by any earlier binding — {!Wcoj.rank_supports})
    {e and} {!Ghd.plan} finds a width ≤ 2 decomposition, the component
    runs the decomposition instead.  A caller that needs one particular
    kernel builds it directly ({!Wcoj.compile}, {!Ghd.plan}).

    {!choose} does not touch the [plan_*] counters — callers holding a
    plan cache call {!record_choice} on misses. *)

val record_choice : strategy -> unit
(** Bump the strategy's selection counter ([plan_dp_selected] /
    [plan_wcoj_selected] / [plan_ghd_selected] / [plan_fallback]).
    Called by plan-cache holders on cold plans only, so the counter
    family matches cache misses, not lookups. *)

val count_tree :
  ?budget:Bagcq_guard.Budget.t -> tree -> Bagcq_relational.Structure.t -> Nat.t
(** Counts homomorphisms of an acyclic component by the {!Jointree} pass
    over the relations' code rows ({!Index.code_rows}) —
    O(Σ_nodes tuples·arity), never exponential.  With [?budget] every tuple considered ticks once per
    node (plus one tick per node entered), and the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} on a trip. *)

val count :
  ?budget:Bagcq_guard.Budget.t ->
  Query.t ->
  strategy ->
  Bagcq_relational.Structure.t ->
  Nat.t
(** [count c s D] runs component [c] under the strategy [choose c]
    returned — the one dispatch from strategy to kernel.  [Backtrack]
    compiles its plan per call. *)

val render : strategy -> string list
(** Human-readable plan lines for [bagcq explain]: the join tree indented
    two spaces per depth with [key] annotations, the leapfrog strategy
    with its variable order, or the backtracking fallback note.
    Deterministic. *)
