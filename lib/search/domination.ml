open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat

let log_nat n =
  (* log of a bignum via its decimal representation: exact enough for an
     estimator *)
  let s = Nat.to_string n in
  let head = String.sub s 0 (Stdlib.min 15 (String.length s)) in
  log (float_of_string head) +. (float_of_int (String.length s - String.length head) *. log 10.)

(* Staged: both queries are factored once per estimate. *)
let log_ratio ~small ~big =
  let counts = Bagcq_reduction.Containment.bag_counts ~small ~big in
  fun d ->
    let cs, cb = counts d in
    if Nat.compare cs Nat.two >= 0 && Nat.compare cb Nat.two >= 0 then
      Some (log_nat cs /. log_nat cb)
    else None

type estimate = {
  lower_bound : float;
  witness : Structure.t option;
  usable : int;
}

let estimate ?(config = Sampler.default) ~small ~big () =
  if Query.has_neqs small || Query.has_neqs big then
    invalid_arg "Domination.estimate: inequality-free CQs only";
  let schema = Sampler.schema_of_pair small big in
  let log_ratio = log_ratio ~small ~big in
  let rng = Random.State.make [| config.Sampler.seed |] in
  let sizes = Array.of_list config.Sampler.sizes in
  let densities = Array.of_list config.Sampler.densities in
  let best = ref 0.0 and witness = ref None and usable = ref 0 in
  for i = 0 to config.Sampler.samples - 1 do
    let size = sizes.(i mod Array.length sizes) in
    let density = densities.(i / Array.length sizes mod Array.length densities) in
    let d = Generate.random ~density rng schema ~size in
    match log_ratio d with
    | Some r ->
        incr usable;
        if r > !best then begin
          best := r;
          witness := Some d
        end
    | None -> ()
  done;
  (* powering the best witness leaves the ratio invariant in the limit and
     sharpens it in practice (constants wash out) *)
  (match !witness with
  | Some d ->
      List.iter
        (fun k ->
          match log_ratio (Ops.power d k) with
          | Some r when r > !best -> best := r
          | _ -> ())
        [ 2; 3 ]
  | None -> ());
  { lower_bound = !best; witness = !witness; usable = !usable }

let refutes_containment e = e.lower_bound > 1.0
