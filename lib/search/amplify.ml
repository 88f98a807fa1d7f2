open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq
module Containment = Bagcq_reduction.Containment

let separation ~small ~big =
  let counts = Containment.bag_counts ~small ~big in
  fun d ->
    let cs, cb = counts d in
    if Nat.compare cs cb > 0 then Some (cs, cb) else None

let predicted_k ~base_small ~base_big ~factor =
  if Nat.compare base_small base_big <= 0 then None
  else if Nat.is_zero base_big then Some 1
  else begin
    (* least k with small^k ≥ factor·big^k *)
    let rec go k s b =
      if Nat.compare s (Nat.mul factor b) >= 0 then Some k
      else if k > 10_000 then None
      else go (k + 1) (Nat.mul s base_small) (Nat.mul b base_big)
    in
    go 1 base_small base_big
  end

let boost_until ?(max_k = 10) ~small ~big ~factor d =
  if Query.has_neqs small || Query.has_neqs big then
    invalid_arg "Amplify.boost_until: inequality-free CQs only (Lemma 22)";
  let counts = Containment.bag_counts ~small ~big in
  let rec try_k k =
    if k > max_k then None
    else begin
      let amplified = Ops.power d k in
      let cs, cb = counts amplified in
      if Nat.compare cs (Nat.mul factor cb) >= 0 then Some (amplified, k) else try_k (k + 1)
    end
  in
  let cs, cb = counts d in
  if Nat.compare cs cb > 0 then try_k 1 else None
