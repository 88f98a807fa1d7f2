(* The worst-case-optimal leapfrog kernel: differential checking against
   the reference solver on random cyclic CQs (triangles, 4/5-cycles with
   chords, CYCLIQ rotations), inequality filters, classification,
   fuel-trip semantics (Exhausted must surface mid-intersection) and
   kernel metrics. *)

open Bagcq_relational
open Bagcq_cq
module Solver_ref = Bagcq_hom.Solver_ref
module Wcoj = Bagcq_hom.Wcoj
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Cycliq = Bagcq_reduction.Cycliq
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let random_db ?(max_n = 4) ?(max_edges = 10) st =
  let n = 1 + Random.State.int st max_n in
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for _ = 1 to Random.State.int st (max_edges + 1) do
    d :=
      Structure.add_fact !d e
        [ Value.int (Random.State.int st n); Value.int (Random.State.int st n) ]
  done;
  for _ = 1 to Random.State.int st 4 do
    d := Structure.add_fact !d u [ Value.int (Random.State.int st n) ]
  done;
  if Random.State.bool st then d := Structure.bind_constant !d "a" (Value.int 0);
  !d

(* A length-[len] variable cycle, optionally decorated with chords, unary
   atoms and a constant endpoint.  Binary/unary extras can only thicken
   the cycle, never cover it with one hyperedge, so GYO still classifies
   the component as cyclic — the property asserts it. *)
let random_cyclic_query ~len st =
  let var i = Build.v (Printf.sprintf "x%d" (i mod len)) in
  let base = Build.cycle e (List.init len (fun i -> var i)) in
  let extras =
    List.init (Random.State.int st 3) (fun _ ->
        let i = Random.State.int st len and j = Random.State.int st len in
        match Random.State.int st 5 with
        | 0 -> Build.atom u [ var i ]
        | 1 -> Build.atom e [ var i; Build.c "a" ]
        | 2 -> Build.atom e [ var i; var i ]
        | _ -> Build.atom e [ var i; var j ])
  in
  Build.query (base @ extras)

let pp_pair (q, d) =
  Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d

let gen_cyclic ~len =
  QCheck.make ~print:pp_pair (fun st ->
      (random_cyclic_query ~len st, random_db st))

(* Every evaluation route must agree with the seed interpreter: the raw
   kernel on the component, and the full planner pipeline (which also
   exercises canonicalisation and the strategy cache). *)
let agrees (q, d) =
  let expected = Solver_ref.count q d in
  let canonical = Decomp.canonical q in
  (match Decomp.choose canonical with
  | Decomp.Wcoj _ -> ()
  | _ -> QCheck.Test.fail_reportf "component not classified as wcoj: %a" Query.pp q);
  Nat.equal (Wcoj.count (Wcoj.compile q) d) (Nat.of_int expected)
  && Nat.equal (Eval.count q d) (Nat.of_int expected)

let prop_triangles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"triangles (+chords/constants) = reference"
       ~count:1200 (gen_cyclic ~len:3) agrees)

let prop_four_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"4-cycles (+chords/constants) = reference"
       ~count:1200 (gen_cyclic ~len:4) agrees)

let prop_five_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"5-cycles (+chords/constants) = reference"
       ~count:600 (gen_cyclic ~len:5) agrees)

(* Cyclic queries decorated with inequalities whose variables all sit on
   the cycle — the per-rank filter path.  Constants in ≠ atoms exercise
   the uninterpreted-constant (count zero) and out-of-domain (vacuous
   filter) semantics, both pinned by the reference solver. *)
let random_neq_cyclic_query ~len st =
  let q = random_cyclic_query ~len st in
  let var i = Build.v (Printf.sprintf "x%d" (i mod len)) in
  let neqs =
    List.init
      (1 + Random.State.int st 3)
      (fun _ ->
        let i = Random.State.int st len in
        if Random.State.int st 4 = 0 then (var i, Build.c "a")
        else (var i, var (i + 1 + Random.State.int st (len - 1))))
  in
  Build.query ~neqs (Query.atoms q)

let gen_neq_cyclic ~len =
  QCheck.make ~print:pp_pair (fun st ->
      (random_neq_cyclic_query ~len st, random_db st))

let agrees_neq (q, d) =
  let expected = Solver_ref.count q d in
  (match Decomp.choose (Decomp.canonical q) with
  | Decomp.Wcoj _ -> ()
  | _ ->
      QCheck.Test.fail_reportf "joined inequalities not classified as wcoj: %a"
        Query.pp q);
  Nat.equal (Wcoj.count (Wcoj.compile q) d) (Nat.of_int expected)
  && Nat.equal (Eval.count q d) (Nat.of_int expected)

let prop_neq_triangles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"triangles + inequalities = reference"
       ~count:1200 (gen_neq_cyclic ~len:3) agrees_neq)

let prop_neq_four_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"4-cycles + inequalities = reference"
       ~count:800 (gen_neq_cyclic ~len:4) agrees_neq)

(* CYCLIQ(x₁,…,x_p): all p rotations of one p-ary atom — every variable
   occurs in every atom, the hardest multiway-intersection shape the
   paper generates.  (As a hypergraph it is trivially α-acyclic — all
   edges share one vertex set — so [Decomp.choose] sends it to the DP;
   the kernel is differential-tested directly.)  Databases mix random
   p-tuples with full rotation closures so real cycliques exist. *)
let gen_cycliq ~p =
  let r = Cycliq.r_symbol ~p in
  let q = Cycliq.cycliq r (Build.vars "x" p) in
  QCheck.make
    ~print:(fun (q, d) -> pp_pair (q, d))
    (fun st ->
      let n = 2 + Random.State.int st 2 in
      let d = ref (Structure.empty (Schema.make [ r ])) in
      let random_tuple () =
        Tuple.make (List.init p (fun _ -> Value.int (Random.State.int st n)))
      in
      for _ = 1 to Random.State.int st 4 do
        d := Structure.add_atom !d r (random_tuple ())
      done;
      for _ = 1 to 1 + Random.State.int st 3 do
        let t = random_tuple () in
        for k = 0 to p - 1 do
          d := Structure.add_atom !d r (Tuple.rotate t k)
        done
      done;
      (q, !d))

let prop_cycliq_rotations ~p ~count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "CYCLIQ rotations p=%d = reference" p)
       ~count (gen_cycliq ~p) (fun (q, d) ->
         Nat.equal
           (Wcoj.count (Wcoj.compile q) d)
           (Nat.of_int (Solver_ref.count q d))))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let triangle =
  Build.(
    query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])

let complete_digraph ?(loops = true) n =
  let d = ref (Structure.empty (Schema.make [ e ])) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if loops || i <> j then
        d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let test_pinned_counts () =
  (* every map of 3 vertices into a reflexive complete digraph is a hom *)
  Alcotest.(check string) "triangle on K4+loops" "64"
    (Nat.to_string (Wcoj.count (Wcoj.compile triangle) (complete_digraph 4)));
  (* without loops the 3 images must be pairwise distinct: 4·3·2 *)
  Alcotest.(check string) "triangle on K4 loopless" "24"
    (Nat.to_string
       (Wcoj.count (Wcoj.compile triangle) (complete_digraph ~loops:false 4)));
  (* empty relation *)
  Alcotest.(check string) "triangle on empty db" "0"
    (Nat.to_string
       (Wcoj.count (Wcoj.compile triangle) (Structure.empty (Schema.make [ e ]))))

let test_variable_order_is_deterministic () =
  Alcotest.(check (list string)) "canonical triangle order" [ "v1"; "v2"; "v3" ]
    (Wcoj.variable_order (Wcoj.compile (Decomp.canonical triangle)));
  Alcotest.(check (list string)) "raw triangle order" [ "x"; "y"; "z" ]
    (Wcoj.variable_order (Wcoj.compile triangle))

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

let test_metrics_family () =
  let runs0 = global_counter "wcoj_runs" and seeks0 = global_counter "wcoj_seeks" in
  let plans0 = global_counter "wcoj_plans_compiled" in
  let p = Wcoj.compile triangle in
  ignore (Wcoj.count p (complete_digraph 3));
  Alcotest.(check int) "one run" 1 (global_counter "wcoj_runs" - runs0);
  Alcotest.(check int) "one plan" 1 (global_counter "wcoj_plans_compiled" - plans0);
  Alcotest.(check bool) "seeks recorded" true (global_counter "wcoj_seeks" > seeks0)

let test_fuel_trips_mid_intersection () =
  let d = complete_digraph 6 in
  let p = Wcoj.compile triangle in
  (* enough fuel to instantiate and start leapfrogging, not to finish *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Error Budget.Fuel -> ()
  | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel"
  | Ok _ -> Alcotest.fail "10 ticks of fuel must not count triangles on K6");
  Alcotest.(check int) "every tick spent" 10 (Budget.ticks b);
  (* the same trip surfaces through the full evaluator *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Eval.count ~budget:b triangle d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Eval must propagate the trip");
  (* ample fuel completes, counting every seek *)
  let b = Budget.create ~fuel:100_000 () in
  match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Ok n ->
      Alcotest.(check string) "count" "216" (Nat.to_string n);
      Alcotest.(check bool) "work metered" true (Budget.ticks b > 0)
  | Error _ -> Alcotest.fail "ample fuel must complete"

let test_deadline_reason_preserved () =
  let b = Budget.fault_at ~reason:Budget.Deadline ~tick:5 () in
  match
    Budget.protect b (fun () ->
        Wcoj.count ~budget:b (Wcoj.compile triangle) (complete_digraph 6))
  with
  | Error Budget.Deadline -> ()
  | Error Budget.Fuel -> Alcotest.fail "wrong trip reason"
  | Ok _ -> Alcotest.fail "fault injection must trip"

let () =
  Alcotest.run "wcoj"
    [
      ( "differential",
        [
          prop_triangles;
          prop_four_cycles;
          prop_five_cycles;
          prop_neq_triangles;
          prop_neq_four_cycles;
          prop_cycliq_rotations ~p:3 ~count:400;
          prop_cycliq_rotations ~p:4 ~count:200;
        ] );
      ( "unit",
        [
          Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
          Alcotest.test_case "variable order is deterministic" `Quick
            test_variable_order_is_deterministic;
          Alcotest.test_case "wcoj_* metrics family" `Quick test_metrics_family;
          Alcotest.test_case "fuel trips mid-intersection" `Quick
            test_fuel_trips_mid_intersection;
          Alcotest.test_case "deadline reason preserved" `Quick
            test_deadline_reason_preserved;
        ] );
    ]
