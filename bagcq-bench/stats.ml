(* Quantiles from raw samples — never from the server's fixed-bucket
   histograms, whose reported quantile is a bucket edge and can exceed the
   observed maximum. *)

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [q·n] samples at or below it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let quantile l q = quantile_sorted (sorted l) q
let median l = quantile l 0.5

(* The definition the sort-based path must agree with, computed without
   sorting: the least [x] among the samples with #{s ≤ x} ≥ ⌈q·n⌉. *)
let quantile_oracle l q =
  let n = List.length l in
  let need = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  List.fold_left
    (fun best x ->
      let le = List.length (List.filter (fun s -> s <= x) l) in
      if le >= need && x < best then x else best)
    infinity l

(* The harness's own quantile check, run on every invocation: on seeded
   random samples (with ties) the sort-based quantiles equal the oracle,
   and on the measured latencies p50 ≤ p99 ≤ max. *)
let self_check latencies =
  let rng = Random.State.make [| 17 |] in
  let agrees =
    List.for_all
      (fun n ->
        let l = List.init n (fun _ -> float_of_int (Random.State.int rng 50)) in
        List.for_all
          (fun q -> quantile l q = quantile_oracle l q)
          [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ])
      [ 1; 2; 3; 10; 101; 400 ]
  in
  let a = sorted latencies in
  let ordered =
    Array.length a = 0
    || (let p50 = quantile_sorted a 0.5 and p99 = quantile_sorted a 0.99 in
        p50 <= p99 && p99 <= a.(Array.length a - 1))
  in
  agrees && ordered
