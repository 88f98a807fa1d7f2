open Bagcq_bignum
open Bagcq_cq
module Eval = Bagcq_hom.Eval
module Morphism = Bagcq_hom.Morphism

let set_contains ?budget ~small ~big () =
  if Query.has_neqs small || Query.has_neqs big then
    invalid_arg "Containment.set_contains: inequality-free CQs only";
  (* Chandra–Merlin: the canonical structure of [small] satisfies [small];
     containment holds iff it also satisfies [big] *)
  Eval.satisfies ?budget (Query.canonical_structure small) big

let bag_equivalent q1 q2 = Morphism.isomorphic q1 q2

(* The pair helpers are staged: applied to [~small ~big] they factor both
   queries once, and the closure counts them on each database — the shape
   every hunt loop wants.  The tuple is written as one expression so both
   sides are counted in the order a plain [(count small d, count big d)]
   would use. *)
let bag_counts ~small ~big =
  let small = Eval.prepare small and big = Eval.prepare big in
  fun ?budget ?cache d ->
    (Eval.count_prepared ?budget ?cache small d, Eval.count_prepared ?budget ?cache big d)

let bag_violation ~small ~big =
  let counts = bag_counts ~small ~big in
  fun ?budget ?cache d ->
    let cs, cb = counts ?budget ?cache d in
    Nat.compare cs cb > 0

let bag_violation_pquery ~small ~big =
  let small = Eval.prepare_pquery small and big = Eval.prepare_pquery big in
  fun ?budget ?cache d ->
    not
      (Eval.pquery_geq_prepared ?budget ?cache big d
         (Eval.count_pquery_prepared ?budget ?cache small d))

(* UCQ containment.  Set semantics is decidable (Sagiv–Yannakakis); the
   counters are registered eagerly so metric dumps always show the family. *)

module Metrics = Bagcq_obs.Metrics

let ucq_contain_checks = Metrics.counter Metrics.global "ucq_contain_checks"
let ucq_hom_checks = Metrics.counter Metrics.global "ucq_hom_checks"

let ucq_set_contains_counted ?budget ~small ~big () =
  if Ucq.has_neqs small || Ucq.has_neqs big then
    invalid_arg "Containment.ucq_set_contains: inequality-free UCQs only";
  Metrics.incr ucq_contain_checks;
  let checks = ref 0 in
  (* Sagiv–Yannakakis: ∪ᵢ sᵢ ⊆ ∪ⱼ bⱼ iff every sᵢ is Chandra–Merlin
     contained in some bⱼ — each check one budget-ticked kernel run over
     the canonical structure of sᵢ. *)
  let verdict =
    List.for_all
      (fun s ->
        let canon = Query.canonical_structure s in
        List.exists
          (fun b ->
            incr checks;
            Metrics.incr ucq_hom_checks;
            Eval.satisfies ?budget canon b)
          (Ucq.disjuncts big))
      (Ucq.disjuncts small)
  in
  (verdict, !checks)

let ucq_set_contains ?budget ~small ~big () =
  fst (ucq_set_contains_counted ?budget ~small ~big ())

let ucq_bag_equivalent u1 u2 =
  (* Chaudhuri–Vardi lifted to unions: equal counts everywhere iff the
     disjuncts pair up into isomorphic couples (multisets of iso classes
     coincide).  Greedy matching is sound because isomorphism is an
     equivalence relation. *)
  let rec extract q = function
    | [] -> None
    | b :: rest when Morphism.isomorphic q b -> Some rest
    | b :: rest -> Option.map (fun r -> b :: r) (extract q rest)
  in
  let rec match_all l1 l2 =
    match (l1, l2) with
    | [], [] -> true
    | [], _ | _, [] -> false
    | q :: rest1, l2 -> (
        match extract q l2 with
        | None -> false
        | Some rest2 -> match_all rest1 rest2)
  in
  match_all (Ucq.disjuncts u1) (Ucq.disjuncts u2)

let ucq_bag_counts ~small ~big =
  let small = Eval.prepare_ucq small and big = Eval.prepare_ucq big in
  fun ?budget ?cache d ->
    (Eval.count_prepared ?budget ?cache small d, Eval.count_prepared ?budget ?cache big d)

let ucq_bag_violation ~small ~big =
  let counts = ucq_bag_counts ~small ~big in
  fun ?budget ?cache d ->
    let cs, cb = counts ?budget ?cache d in
    Nat.compare cs cb > 0
