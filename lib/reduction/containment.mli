(** Query containment baselines: the decidable problems the paper's
    undecidable ones generalise.

    - Set semantics ([QCP^set_CQ]): Chandra–Merlin — [φ_s ⊆ φ_b] iff
      [φ_b] has a homomorphism into the canonical structure of [φ_s]
      (NP-complete, decidable).
    - Bag {e equivalence} of CQs: Chaudhuri–Vardi — equal counts on every
      database iff the queries are isomorphic.
    - Bag containment ([QCP^bag_CQ]): open!  The best this library — or
      anyone — can do is search for counterexamples ({!Bagcq_search}) and
      verify candidate witnesses, which is what these helpers support. *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

val set_contains :
  ?budget:Bagcq_guard.Budget.t -> small:Query.t -> big:Query.t -> unit -> bool
(** Chandra–Merlin containment test for boolean CQs without inequalities
    ([D ⊨ small ⇒ D ⊨ big] for all [D]).  Raises [Invalid_argument] when
    either query has inequalities.  The homomorphism check is NP-hard, so a
    [?budget] bounds it like every other search in the engine. *)

val bag_equivalent : Query.t -> Query.t -> bool
(** Chaudhuri–Vardi: syntactic isomorphism. *)

(** {2 Staged pair checks}

    Each helper below takes the query pair first.  Applied to [~small
    ~big] alone it factors both queries once ({!Bagcq_hom.Eval.prepare})
    and returns a per-database check, which is how hunts run it on
    thousands of candidate databases; a full application is the same
    check on one database.  With [?budget] the exact counts tick it and
    the call unwinds with {!Bagcq_guard.Budget.Exhausted_} when it trips.
    With [?cache], plans compile once across calls and components shared
    between the two sides count once per database. *)

val bag_counts :
  small:Query.t ->
  big:Query.t ->
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  Structure.t ->
  Nat.t * Nat.t
(** [(small(D), big(D))]. *)

val bag_violation :
  small:Query.t ->
  big:Query.t ->
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  Structure.t ->
  bool
(** [small(D) > big(D)] — a witness against bag containment. *)

val bag_violation_pquery :
  small:Pquery.t ->
  big:Pquery.t ->
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  Structure.t ->
  bool
(** The power-product variant, decided without materialising counts. *)

(** {2 Unions of CQs}

    Set-semantics UCQ containment stays decidable (Sagiv–Yannakakis):
    [∪ᵢ sᵢ ⊆ ∪ⱼ bⱼ] iff every [sᵢ] is contained in {e some} [bⱼ].  Bag
    semantics flips: [QCP^bag_UCQ] is undecidable (Ioannidis–Ramakrishnan),
    so the bag helpers only evaluate candidate witnesses. *)

val ucq_set_contains :
  ?budget:Bagcq_guard.Budget.t -> small:Ucq.t -> big:Ucq.t -> unit -> bool
(** The ∀∃ decision procedure.  Each inner Chandra–Merlin check runs the
    compiled kernel over the canonical structure of one disjunct of [small],
    ticking [?budget].  Raises [Invalid_argument] on inequalities.  The
    empty union is contained in everything; nothing non-empty is contained
    in the empty union. *)

val ucq_set_contains_counted :
  ?budget:Bagcq_guard.Budget.t ->
  small:Ucq.t ->
  big:Ucq.t ->
  unit ->
  bool * int
(** {!ucq_set_contains} plus the number of inner Chandra–Merlin checks the
    decision spent (deterministic for a given pair: the ∃ scan
    short-circuits left to right).  The wire's [ucq_contain] reports it. *)

val ucq_bag_equivalent : Ucq.t -> Ucq.t -> bool
(** Chaudhuri–Vardi lifted to unions: equal counts on every database iff
    the multisets of isomorphism classes of disjuncts coincide. *)

val ucq_bag_counts :
  small:Ucq.t ->
  big:Ucq.t ->
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  Structure.t ->
  Nat.t * Nat.t
(** Summed per-disjunct counts, staged like {!bag_counts}; with [?cache],
    components shared between disjuncts (of either union) compile and
    count once. *)

val ucq_bag_violation :
  small:Ucq.t ->
  big:Ucq.t ->
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  Structure.t ->
  bool
(** [small(D) > big(D)] under bag-union semantics. *)
