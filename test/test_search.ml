(* Tests for the counterexample-search layer: exhaustive database
   enumeration, random sampling, Lemma 22 amplification and the combined
   hunter. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_search
module Nat = Bagcq_bignum.Nat
module Eval = Bagcq_hom.Eval
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Containment = Bagcq_reduction.Containment

let e = Build.sym "E" 2
let u = Build.sym "U" 1
let vi = Value.int

let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])
let path_q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])

(* ------------------------------------------------------------------ *)
(* Dbspace                                                             *)
(* ------------------------------------------------------------------ *)

let test_potential_atoms () =
  let schema = Schema.make [ e; u ] in
  (* size 2: 4 binary + 2 unary *)
  Alcotest.(check int) "count" 6 (List.length (Dbspace.potential_atoms schema ~size:2));
  Alcotest.(check int) "count_space" 6 (Dbspace.count_space schema ~size:2)

let test_fold_counts_all_databases () =
  (* one unary symbol, sizes 1..2, no constants:
     size 1: 2^1 = 2 databases; size 2: 2^2 = 4; total 6 *)
  let schema = Schema.make [ u ] in
  let n = Dbspace.fold ~with_constants:false schema ~max_size:2 (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "6 databases" 6 n

let test_fold_with_constants () =
  (* same space crossed with bindings of one constant: 2·1 + 4·2 = 10 *)
  let schema = Schema.make ~constants:[ "a" ] [ u ] in
  let n = Dbspace.fold schema ~max_size:2 (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "10 databases" 10 n

let test_fold_rejects_huge_space () =
  let schema = Schema.make [ Build.sym "T" 3 ] in
  Alcotest.(check bool) "raises on 27 atoms" true
    (try
       ignore (Dbspace.fold schema ~max_size:3 (fun acc _ -> acc + 1) 0);
       false
     with Invalid_argument _ -> true)

let test_find () =
  let schema = Schema.make [ e ] in
  (* find a database with a loop *)
  match
    Dbspace.find_guarded_par ~budget:(Budget.unlimited ()) ~with_constants:false schema
      ~max_size:2 (fun ~budget:_ d -> Eval.satisfies d loop_q)
  with
  | Outcome.Complete (Some d, _) ->
      Alcotest.(check bool) "found one with a loop" true (Eval.satisfies d loop_q)
  | Outcome.Complete (None, _) | Outcome.Exhausted _ ->
      Alcotest.fail "expected a loop database"

let test_exists_exhaustive_negative () =
  (* no database satisfies E(x,y) ∧ ¬...: use an unsatisfiable ground fact
     over an uninterpreted constant *)
  let impossible = Build.(query [ atom e [ c "nowhere"; c "nowhere" ] ]) in
  let schema = Schema.make [ e ] in
  match
    Dbspace.find_guarded_par ~budget:(Budget.unlimited ()) ~with_constants:false schema
      ~max_size:2 (fun ~budget:_ d -> Eval.satisfies d impossible)
  with
  | Outcome.Complete (found, _) ->
      Alcotest.(check bool) "nothing satisfies it" false (found <> None)
  | Outcome.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

(* The exhaustive sweep tests one candidate per isomorphism orbit.  These
   are the orbit counts under renamings of the domain, sizes 1-3, no
   constants. *)
let test_canonical_counts () =
  List.iter
    (fun (name, symbols, total, canonical) ->
      let schema = Schema.make symbols in
      Alcotest.(check int) (name ^ ": all candidates") total
        (Dbspace.fold ~with_constants:false schema ~max_size:3 (fun n _ -> n + 1) 0);
      match
        Dbspace.find_guarded_par ~budget:(Budget.unlimited ()) ~with_constants:false schema
          ~max_size:3 (fun ~budget:_ _ -> false)
      with
      | Outcome.Complete (None, stats) ->
          Alcotest.(check int) (name ^ ": tested") canonical stats.Dbspace.databases_tested;
          Alcotest.(check int) (name ^ ": pruned") (total - canonical)
            stats.Dbspace.candidates_pruned
      | _ -> Alcotest.fail (name ^ ": the sweep must complete without a witness"))
    [
      ("E/2", [ e ], 530, 116);
      ("E/2 + U/1", [ e; u ], 4164, 792);
      ("three unary", [ u; Build.sym "V" 1; Build.sym "W" 1 ], 584, 164);
    ]

(* Differential: the pruned sweep returns the witness of an unpruned
   first-violation scan written with [Dbspace.fold], or none when it has
   none, on random pairs with constants and inequalities. *)
exception First of Structure.t

let first_by_fold schema ~max_size pred =
  match Dbspace.fold schema ~max_size (fun () d -> if pred d then raise (First d)) () with
  | () -> None
  | exception First d -> Some d

let show = function
  | None -> "none"
  | Some d -> Format.asprintf "%a" Structure.pp d

(* a query of 1-3 atoms over [symbols], with terms drawn from x, y, z and
   [constants], and sometimes an inequality between two of its terms *)
let random_query rng ~symbols ~constants =
  let constants = Array.of_list (List.map (fun c -> "'" ^ c ^ "'") constants) in
  let term () =
    if Array.length constants > 0 && Random.State.int rng 8 = 0 then
      constants.(Random.State.int rng (Array.length constants))
    else [| "x"; "y"; "z" |].(Random.State.int rng 3)
  in
  let atoms =
    List.init
      (1 + Random.State.int rng 3)
      (fun _ ->
        let sym = List.nth symbols (Random.State.int rng (List.length symbols)) in
        (Symbol.name sym, List.init (Symbol.arity sym) (fun _ -> term ())))
  in
  let neq =
    match List.sort_uniq compare (List.concat_map snd atoms) with
    | a :: b :: _ when Random.State.int rng 3 = 0 -> [ a ^ " != " ^ b ]
    | _ -> []
  in
  String.concat " & "
    (List.map (fun (r, args) -> r ^ "(" ^ String.concat "," args ^ ")") atoms @ neq)

(* [shapes]: symbols, constants and the sweep's largest domain size.  The
   unary shape sweeps to size 6, above [Dbspace.max_symmetries], so the
   unpruned fallback runs too. *)
let shapes =
  [
    ([ e ], [ "a" ], 3);
    ([ e; u ], [ "a"; "b" ], 2);
    ([ u ], [ "a" ], 6);
  ]

let check_same_witness ~what schema ~max_size ~found pred =
  let reference = first_by_fold schema ~max_size (fun d -> pred ?budget:None d) in
  incr (if reference = None then snd found else fst found);
  List.iter
    (fun jobs ->
      match
        Dbspace.find_guarded_par ~budget:(Budget.unlimited ()) ~jobs schema ~max_size
          (fun ~budget d -> pred ?budget:(Some budget) d)
      with
      | Outcome.Complete (w, _) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, jobs=%d" what jobs)
            (show reference) (show w)
      | Outcome.Exhausted _ -> Alcotest.fail (what ^ ": unlimited budget exhausted"))
    [ 1; 2 ]

let test_pruned_matches_unpruned () =
  let rng = Random.State.make [| 17 |] in
  let found = (ref 0, ref 0) in
  (* first witnesses on a mask that swapping 1 and 2 fixes, where the
     swap decides between the bindings of two constants *)
  List.iter
    (fun small_s ->
      let small = Parse.parse_exn small_s and big = Parse.parse_exn "E(x,x)" in
      check_same_witness ~what:small_s (Sampler.schema_of_pair small big) ~max_size:2
        ~found
        (fun ?budget d -> Containment.bag_violation ~small ~big ?budget d))
    [ "U('a') & U('b') & 'a' != 'b'"; "E('a','b') & E('b','a')" ];
  List.iter
    (fun (symbols, constants, max_size) ->
      for _ = 1 to 12 do
        let gen () = random_query rng ~symbols ~constants in
        let q = gen () in
        (* a random pair, and [q] plus conjuncts against [q], which holds
           whenever the added conjuncts bring no new variable *)
        List.iter
          (fun (small_s, big_s) ->
            let small = Parse.parse_exn small_s and big = Parse.parse_exn big_s in
            check_same_witness
              ~what:(Printf.sprintf "cq small: %s / big: %s" small_s big_s)
              (Sampler.schema_of_pair small big) ~max_size ~found
              (fun ?budget d -> Containment.bag_violation ~small ~big ?budget d))
          [ (gen (), q); (q ^ " & " ^ gen (), q) ];
        let small_s = gen () ^ " | " ^ gen () and big_s = gen () in
        let small = Parse.parse_ucq_exn small_s and big = Parse.parse_ucq_exn big_s in
        check_same_witness
          ~what:(Printf.sprintf "ucq small: %s / big: %s" small_s big_s)
          (Schema.union (Ucq.schema small) (Ucq.schema big))
          ~max_size ~found
          (fun ?budget d -> Containment.ucq_bag_violation ~small ~big ?budget d)
      done)
    shapes;
  (* neither half of the comparison may be vacuous *)
  Alcotest.(check bool) "some pairs have a witness" true (!(fst found) > 0);
  Alcotest.(check bool) "some pairs have none" true (!(snd found) > 0)

(* Above the symmetry bound every candidate is tested: at size 6 the one
   witness of six distinct U-elements is the last mask, reached unpruned. *)
let test_fallback_tests_every_candidate () =
  Alcotest.(check bool) "6! renamings exceed the bound" true (720 > Dbspace.max_symmetries);
  let schema = Schema.make [ u ] in
  let six = Parse.parse_exn
      "U(x1) & U(x2) & U(x3) & U(x4) & U(x5) & U(x6) & x1 != x2 & x1 != x3 & x1 != x4 \
       & x1 != x5 & x1 != x6 & x2 != x3 & x2 != x4 & x2 != x5 & x2 != x6 & x3 != x4 \
       & x3 != x5 & x3 != x6 & x4 != x5 & x4 != x6 & x5 != x6"
  in
  match
    Dbspace.find_guarded_par ~budget:(Budget.unlimited ()) ~with_constants:false schema
      ~max_size:6 (fun ~budget:_ d -> Eval.satisfies d six)
  with
  | Outcome.Complete (Some d, stats) ->
      Alcotest.(check int) "six U-atoms" 6 (Structure.total_atoms d);
      (* sizes 1-5 test n + 1 orbits each (how many of the n elements are
         in U); size 6 tests all 64 masks *)
      Alcotest.(check int) "tested" (2 + 3 + 4 + 5 + 6 + 64) stats.Dbspace.databases_tested
  | _ -> Alcotest.fail "expected the six-element witness"

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_finds_violation () =
  (* path(D) > edge(D) on dense graphs: easy to hit randomly *)
  let outcome = Sampler.hunt_queries ~small:path_q ~big:edge_q () in
  match outcome.Sampler.witness with
  | Some d ->
      Alcotest.(check bool) "verified" true
        (Nat.compare (Eval.count path_q d) (Eval.count edge_q d) > 0)
  | None -> Alcotest.fail "sampler should find a dense graph"

let test_sampler_respects_containment () =
  (* edge(D) ≤ path... no: edge ≥ path is false too. Use small = big:
     never a strict violation *)
  let outcome = Sampler.hunt_queries ~small:edge_q ~big:edge_q () in
  Alcotest.(check bool) "no self-violation" true (outcome.Sampler.witness = None);
  Alcotest.(check int) "tested all samples" (Sampler.default.Sampler.samples)
    outcome.Sampler.tested

let test_sampler_deterministic () =
  let o1 = Sampler.hunt_queries ~small:path_q ~big:edge_q () in
  let o2 = Sampler.hunt_queries ~small:path_q ~big:edge_q () in
  Alcotest.(check int) "same tested count" o1.Sampler.tested o2.Sampler.tested

let test_check_all () =
  (* validate a true universal statement: edge(D) ≤ (domain size)² *)
  let schema = Schema.make [ e ] in
  let outcome =
    Sampler.check_all ~schema (fun d ->
        Nat.compare (Eval.count edge_q d)
          (Nat.of_int (Structure.domain_size d * Structure.domain_size d))
        <= 0)
  in
  Alcotest.(check bool) "no counterexample" true (outcome.Sampler.witness = None);
  (* and catch a false one: every database has an edge *)
  let outcome2 = Sampler.check_all ~schema (fun d -> Eval.satisfies d edge_q) in
  Alcotest.(check bool) "counterexample found" true (outcome2.Sampler.witness <> None)

(* ------------------------------------------------------------------ *)
(* Amplify                                                             *)
(* ------------------------------------------------------------------ *)

let two_edges =
  let d = Structure.add_fact (Structure.empty Schema.empty) e [ vi 1; vi 2 ] in
  Structure.add_fact d e [ vi 2; vi 1 ]

let test_separation () =
  (* edges = 2 > loops = 0 *)
  (match Amplify.separation ~small:edge_q ~big:loop_q two_edges with
  | Some (cs, cb) ->
      Alcotest.(check bool) "2 > 0" true (Nat.equal cs Nat.two && Nat.is_zero cb)
  | None -> Alcotest.fail "expected separation");
  Alcotest.(check bool) "no separation the other way" true
    (Amplify.separation ~small:loop_q ~big:edge_q two_edges = None)

let test_predicted_k () =
  (* small = 3, big = 2, factor 10: 3^k ≥ 10·2^k ⟺ (3/2)^k ≥ 10 ⟺ k ≥ 6 *)
  Alcotest.(check (option int)) "k = 6" (Some 6)
    (Amplify.predicted_k ~base_small:(Nat.of_int 3) ~base_big:Nat.two
       ~factor:(Nat.of_int 10));
  Alcotest.(check (option int)) "no amplification" None
    (Amplify.predicted_k ~base_small:Nat.two ~base_big:Nat.two ~factor:Nat.two);
  Alcotest.(check (option int)) "zero big" (Some 1)
    (Amplify.predicted_k ~base_small:Nat.two ~base_big:Nat.zero ~factor:(Nat.of_int 100))

let test_boost_until () =
  (* in the 3-clique-with-loops: paths 27 > edges 9; boost to factor 5:
     (27/9)^k = 3^k ≥ 5 at k = 2 *)
  let clique3 =
    List.fold_left
      (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
      (Structure.empty Schema.empty)
      (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 1; 2; 3 ]) [ 1; 2; 3 ])
  in
  match Amplify.boost_until ~small:path_q ~big:edge_q ~factor:(Nat.of_int 5) clique3 with
  | Some (d, k) ->
      Alcotest.(check int) "k = 2" 2 k;
      Alcotest.(check bool) "amplified separation" true
        (Nat.compare (Eval.count path_q d)
           (Nat.mul_int (Eval.count edge_q d) 5)
         >= 0)
  | None -> Alcotest.fail "expected amplification"

let test_boost_rejects_neqs () =
  let with_neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.check_raises "Lemma 22 needs ineq-free"
    (Invalid_argument "Amplify.boost_until: inequality-free CQs only (Lemma 22)") (fun () ->
      ignore (Amplify.boost_until ~small:with_neq ~big:edge_q ~factor:Nat.two two_edges))

(* ------------------------------------------------------------------ *)
(* Hunt                                                                *)
(* ------------------------------------------------------------------ *)

let test_hunt_finds_exhaustively () =
  (* loop(D) > edge(D) is impossible (a loop IS an edge): hunting must
     come back empty with the exhaustive phase complete *)
  let report = Hunt.counterexample ~small:loop_q ~big:edge_q () in
  Alcotest.(check bool) "no witness" true (report.Hunt.witness = None);
  Alcotest.(check bool) "exhaustive complete" true report.Hunt.exhaustive_complete

let test_hunt_finds_counterexample () =
  (* edge(D) > loop(D): the single edge, found in the exhaustive phase *)
  let report = Hunt.counterexample ~small:edge_q ~big:loop_q () in
  match report.Hunt.witness with
  | Some d ->
      Alcotest.(check bool) "verified" true (Hunt.verified ~small:edge_q ~big:loop_q d);
      Alcotest.(check int) "found before sampling" 0 report.Hunt.tested_random
  | None -> Alcotest.fail "expected the single-edge counterexample"

let test_hunt_set_contained_but_bag_violated () =
  (* the motivating example: path ⊆ edge under set semantics, violated
     under bag semantics *)
  Alcotest.(check bool) "set contained" true
    (Bagcq_reduction.Containment.set_contains ~small:path_q ~big:edge_q ());
  let report = Hunt.counterexample ~small:path_q ~big:edge_q () in
  Alcotest.(check bool) "bag witness exists" true (report.Hunt.witness <> None)

let test_hunt_skips_infeasible_exhaustive () =
  (* a 4-ary relation: even size 2 gives 16 atoms ≤ 22, size 3 gives 81 —
     the hunter must degrade gracefully *)
  let t4 = Build.sym "T4" 4 in
  let q1 = Build.(query [ atom t4 [ v "x"; v "x"; v "y"; v "y" ] ]) in
  let q2 = Build.(query [ atom t4 [ v "x"; v "x"; v "x"; v "x" ] ]) in
  let strategy = { Hunt.default with Hunt.exhaustive_max_size = 3 } in
  let report = Hunt.counterexample ~strategy ~small:q1 ~big:q2 () in
  Alcotest.(check bool) "exhaustive was truncated" false report.Hunt.exhaustive_complete;
  Alcotest.(check bool) "still found a witness" true (report.Hunt.witness <> None)

let () =
  Alcotest.run "search"
    [
      ( "dbspace",
        [
          Alcotest.test_case "potential atoms" `Quick test_potential_atoms;
          Alcotest.test_case "fold counts" `Quick test_fold_counts_all_databases;
          Alcotest.test_case "fold with constants" `Quick test_fold_with_constants;
          Alcotest.test_case "rejects huge spaces" `Quick test_fold_rejects_huge_space;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "exists negative" `Quick test_exists_exhaustive_negative;
          Alcotest.test_case "canonical counts" `Quick test_canonical_counts;
          Alcotest.test_case "pruned = unpruned witness" `Quick test_pruned_matches_unpruned;
          Alcotest.test_case "fallback above the bound" `Quick
            test_fallback_tests_every_candidate;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "finds violation" `Quick test_sampler_finds_violation;
          Alcotest.test_case "no false positives" `Quick test_sampler_respects_containment;
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "check_all" `Quick test_check_all;
        ] );
      ( "amplify",
        [
          Alcotest.test_case "separation" `Quick test_separation;
          Alcotest.test_case "predicted k" `Quick test_predicted_k;
          Alcotest.test_case "boost until" `Quick test_boost_until;
          Alcotest.test_case "rejects inequalities" `Quick test_boost_rejects_neqs;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "exhaustive negative" `Quick test_hunt_finds_exhaustively;
          Alcotest.test_case "finds counterexample" `Quick test_hunt_finds_counterexample;
          Alcotest.test_case "set vs bag" `Quick test_hunt_set_contained_but_bag_violated;
          Alcotest.test_case "skips infeasible" `Quick test_hunt_skips_infeasible_exhaustive;
        ] );
    ]
