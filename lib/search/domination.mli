(** Empirical estimation of the homomorphism domination exponent
    (Kopparty–Rossman [12], the paper's second positive line of attack).

    For inequality-free CQs [ψ_s, ψ_b], the domination exponent is the
    least [θ] with [ψ_s(D) ≤ ψ_b(D)^θ] for all (suitable) [D]; bag
    containment holds iff the exponent is ≤ 1 {e and} the constant is
    right, so observing a database with [log ψ_s(D) / log ψ_b(D) > 1] is a
    containment refutation, and the supremum over sampled databases is a
    lower bound on the exponent.

    (The exponent is only defined for structures admitting at least two
    homomorphisms of each query — the footnote to Theorem 1 — hence the
    [counts ≥ 2] guard.) *)

open Bagcq_relational
open Bagcq_cq

val log_ratio : small:Query.t -> big:Query.t -> Structure.t -> float option
(** [log ψ_s(D) / log ψ_b(D)], when both counts are ≥ 2.  Staged:
    [log_ratio ~small ~big] factors both queries once. *)

type estimate = {
  lower_bound : float;  (** best observed ratio; 0.0 when nothing qualified *)
  witness : Structure.t option;  (** the database achieving it *)
  usable : int;  (** sampled databases with both counts ≥ 2 *)
}

val estimate :
  ?config:Sampler.config -> small:Query.t -> big:Query.t -> unit -> estimate
(** Supremum of {!log_ratio} over sampled databases plus the product powers
    of the best sample (the exponent is product-invariant, so powering
    sharpens the constant away). *)

val refutes_containment : estimate -> bool
(** The observed exponent strictly exceeds 1 — bag containment is
    impossible. *)
