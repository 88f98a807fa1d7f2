(* The bounded-width hypertree-decomposition planner and its bag-DP
   counting kernel: differential checking against the reference solver on
   random width-≤2 cyclic queries (long cycles with chords, θ-patterns,
   two fused cycles, repeated variables, constants), both through the raw
   [Ghd.plan]/[Ghd.count] pair and through the full [Eval] pipeline;
   plan-shape unit tests; budget trips mid-bag-materialisation.  Acyclic
   queries run through both kinds of {!Jointree} node — atom trees
   ([Decomp.count_tree], the store's maintained state) and bag trees
   ([Ghd.count]) — and must agree with each other and the reference, with
   the fuel spent by each pinned on fixed instances.  Counts past 2^62
   are checked against closed forms (int weights promote to [Nat]), and
   one shared index is read by two domains at once. *)

open Bagcq_relational
open Bagcq_cq
module Solver_ref = Bagcq_hom.Solver_ref
module Ghd = Bagcq_hom.Ghd
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Nat = Bagcq_bignum.Nat
module Store = Bagcq_store.Store
module Index = Bagcq_hom.Index
module Jointree = Bagcq_hom.Jointree

let e = Build.sym "E" 2
let u = Build.sym "U" 1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let random_db ?(max_n = 4) ?(max_edges = 12) st =
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

let var i = Build.v (Printf.sprintf "x%d" i)

(* A cycle of length [len] (treewidth 2), decorated with unary atoms,
   loops, a constant endpoint, or a short chord — all width-≤2 shapes. *)
let random_long_cycle ~len st =
  let v i = var (i mod len) in
  let base = Build.cycle e (List.init len (fun i -> v i)) in
  let extras =
    List.init (Random.State.int st 3) (fun _ ->
        let i = Random.State.int st len in
        match Random.State.int st 4 with
        | 0 -> Build.atom u [ v i ]
        | 1 -> Build.atom e [ v i; Build.c "a" ]
        | 2 -> Build.atom e [ v i; v i ]
        | _ -> Build.atom e [ v i; v (i + 1) ])
  in
  Build.query (base @ extras)

(* Two cycles fused on a shared vertex (or a shared edge): still
   treewidth 2, but with two independent cyclic cores — the shape the
   EXP-GHD benchmark uses. *)
let random_fused_cycles st =
  let l1 = 3 + Random.State.int st 3 and l2 = 3 + Random.State.int st 3 in
  let share_edge = Random.State.bool st in
  let a i = var i in
  let b i =
    (* the second cycle reuses x0 (and x1 when sharing an edge) *)
    if i = 0 then var 0
    else if share_edge && i = 1 then var 1
    else Build.v (Printf.sprintf "y%d" i)
  in
  let c1 = Build.cycle e (List.init l1 (fun i -> a i)) in
  let c2 = Build.cycle e (List.init l2 (fun i -> b i)) in
  Build.query (c1 @ c2)

(* θ-pattern: two vertices joined by three internally disjoint paths —
   treewidth 2, and no single variable whose removal breaks the cycle. *)
let random_theta st =
  let s = Build.v "s" and t = Build.v "t" in
  let path k len =
    let node i =
      if i = 0 then s
      else if i = len then t
      else Build.v (Printf.sprintf "p%d_%d" k i)
    in
    List.init len (fun i -> Build.atom e [ node i; node (i + 1) ])
  in
  (* two paths of length ≥ 2 guarantee a genuine cycle even after the
     third (possibly length-1, possibly duplicated) path dedupes away *)
  let lens =
    [ 1 + Random.State.int st 3; 2 + Random.State.int st 2; 2 + Random.State.int st 2 ]
  in
  Build.query (List.concat (List.mapi path lens))

let pp_pair (q, d) =
  Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d

let gen mk = QCheck.make ~print:pp_pair (fun st -> (mk st, random_db st))

(* Both the raw planner+kernel and the full pipeline must agree with the
   seed interpreter.  The raw route runs even when [Decomp.choose]'s cost
   model would keep the query on the leapfrog kernel. *)
let agrees (q, d) =
  let expected = Nat.of_int (Solver_ref.count q d) in
  (match Ghd.plan q with
  | Some g ->
      if Ghd.width g > 2 then
        QCheck.Test.fail_reportf "width-%d plan for a treewidth-2 query: %a"
          (Ghd.width g) Query.pp q;
      if not (Nat.equal (Ghd.count g d) expected) then
        QCheck.Test.fail_reportf "raw bag DP disagrees on %a" Query.pp q
  | None -> QCheck.Test.fail_reportf "no plan for %a" Query.pp q);
  Nat.equal (Eval.count q d) expected

let prop name ~count mk =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count (gen mk) agrees)

(* Bags whose join can emit one χ-projection twice: a cover atom reaches a
   variable outside χ(B) through a probe, so the rows must be folded by the
   bag's seen-set.  (The families above always plan duplicate-free bags.) *)
let t3 = Build.sym "T" 3

let seen_set_queries =
  [
    "E(x4,x3) & T(x1,x5,x3) & T(x5,x2,x0)";
    "E(x5,x3) & T(x3,x2,x0) & T(x5,x1,x5)";
    "T(x0,x4,x2) & T(x1,x4,x5) & T(x4,x2,x0)";
    "E(x4,x4) & T(x0,x2,x3) & T(x3,x1,x5) & T(x5,x5,x4)";
  ]

let random_db_with_t st =
  let d = random_db st in
  let n = 1 + Random.State.int st 4 in
  let v () = Value.int (Random.State.int st n) in
  let d = ref d in
  for _ = 1 to Random.State.int st 24 do
    d := Structure.add_fact !d t3 [ v (); v (); v () ]
  done;
  !d

let test_seen_set () =
  let st = Random.State.make [| 17 |] in
  List.iter
    (fun text ->
      let q = Parse.parse_exn text in
      let g =
        match Ghd.plan q with Some g -> g | None -> Alcotest.failf "no plan for %s" text
      in
      for _ = 1 to 60 do
        let d = random_db_with_t st in
        Alcotest.(check string) text
          (string_of_int (Solver_ref.count q d))
          (Nat.to_string (Ghd.count g d))
      done)
    seen_set_queries

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let six_cycle =
  Build.(query (cycle e (List.init 6 (fun i -> v (Printf.sprintf "x%d" i)))))

let complete_digraph n =
  let d = ref (Structure.empty (Schema.make [ e ])) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let test_plan_shape () =
  (match Ghd.plan six_cycle with
  | Some g ->
      Alcotest.(check bool) "width ≤ 2" true (Ghd.width g <= 2);
      Alcotest.(check bool) "several bags" true (Ghd.nbags g >= 2);
      Alcotest.(check (list string)) "root interface is empty" []
        (Ghd.bag_key (Ghd.root g))
  | None -> Alcotest.fail "a 6-cycle must decompose");
  (* refusals: inequalities and too-small queries stay flat *)
  let neq =
    Build.(
      query
        ~neqs:[ (v "x", v "y") ]
        [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])
  in
  Alcotest.(check bool) "no plan under inequalities" true (Ghd.plan neq = None);
  let tiny = Build.(query [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check bool) "no plan for one atom" true (Ghd.plan tiny = None)

let test_pinned_counts () =
  (* every map of 6 vertices into a reflexive complete digraph is a hom *)
  match Ghd.plan six_cycle with
  | None -> Alcotest.fail "a 6-cycle must decompose"
  | Some g ->
      Alcotest.(check string) "6-cycle on K3+loops" "729"
        (Nat.to_string (Ghd.count g (complete_digraph 3)));
      Alcotest.(check string) "6-cycle on empty db" "0"
        (Nat.to_string (Ghd.count g (Structure.empty (Schema.make [ e ]))))

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

(* ------------------------------------------------------------------ *)
(* Atom trees against bag trees                                        *)
(* ------------------------------------------------------------------ *)

(* A random tree of E edges (either direction) over x0..xk, decorated
   with unary atoms, loops and constant endpoints — α-acyclic and
   inequality-free, so [Decomp.choose] picks the join-tree DP. *)
let random_acyclic st =
  let k = 3 + Random.State.int st 3 in
  let edges =
    List.init k (fun i ->
        let child = var (i + 1) and parent = var (Random.State.int st (i + 1)) in
        if Random.State.bool st then Build.atom e [ parent; child ]
        else Build.atom e [ child; parent ])
  in
  let extras =
    List.init (Random.State.int st 3) (fun _ ->
        let x = var (Random.State.int st (k + 1)) in
        match Random.State.int st 3 with
        | 0 -> Build.atom u [ x ]
        | 1 -> Build.atom e [ x; Build.c "a" ]
        | _ -> Build.atom e [ x; x ])
  in
  Build.query (edges @ extras)

(* A mutation script: insert (or delete) one E or U fact over 0..3. *)
let random_steps st =
  List.init (Random.State.int st 12) (fun _ ->
      let a = Value.int (Random.State.int st 4)
      and b = Value.int (Random.State.int st 4) in
      (Random.State.bool st, if Random.State.bool st then (e, [| a; b |]) else (u, [| a |])))

let reference q d = Nat.of_int (Solver_ref.count q d)

(* Replays the script against a store holding [d] with [q] registered
   (a step that would be rejected — inserting a present fact, deleting an
   absent one — is skipped), and returns the maintained count beside the
   final database. *)
let maintained q d steps =
  let st = Store.create () in
  let ok = function Store.Done x -> x | _ -> failwith "store op failed" in
  ignore (ok (Store.db_create st ~name:"g" d));
  ignore (ok (Store.register st ~name:"g" q));
  List.iter
    (fun (add, (sym, tup)) ->
      let d, _ = ok (Store.snapshot st ~name:"g") in
      if Structure.mem_atom d sym tup <> add then
        ignore
          (ok ((if add then Store.db_insert else Store.db_delete) st ~name:"g" sym tup)))
    steps;
  match ok (Store.counts st ~name:"g") with
  | [ row ] -> (row.Store.cr_count, fst (ok (Store.snapshot st ~name:"g")))
  | _ -> failwith "one registration expected"

let prop_node_kinds_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"atom trees = bag trees = maintained = reference"
       ~count:400
       (QCheck.make
          ~print:(fun (q, d, _) -> pp_pair (q, d))
          (fun st -> (random_acyclic st, random_db st, random_steps st)))
       (fun (q, d, steps) ->
         let q = Decomp.canonical q in
         match (Decomp.choose q, Ghd.plan q) with
         | Decomp.Dp t, Some g ->
             let agree d =
               let expected = reference q d in
               Nat.equal (Decomp.count_tree t d) expected
               && Nat.equal (Ghd.count g d) expected
             in
             let count, final = maintained q d steps in
             agree d && agree final && Nat.equal count (reference q final)
         | _ -> QCheck.assume_fail ()))

(* The fixed instance the fuel pins are taken on: four vertices with
   loops, U on every vertex, and E(i,j) unless i+j ∈ {2,5}. *)
let pinned_db =
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for i = 0 to 3 do
    d := Structure.add_fact !d u [ Value.int i ];
    for j = 0 to 3 do
      if (i + j) mod 3 <> 2 then d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let pinned_path =
  Decomp.canonical
    Build.(
      query
        [ atom e [ v "a"; v "b" ]; atom e [ v "b"; v "c" ]; atom e [ v "c"; v "d" ]; atom u [ v "b" ] ])

(* Fuel is part of the public contract (CLI [--fuel], wire budgets), so
   the ticks each node kind spends — and the [ghd_bag_rows] it reports —
   are pinned: one tick per atom node entered plus one per tuple scanned;
   one per candidate tuple of a bag join or pre-projection. *)
let test_pinned_ticks () =
  (match Decomp.choose pinned_path with
  | Decomp.Dp t ->
      let b = Budget.create ~fuel:1_000_000 () in
      Alcotest.(check string) "path count" "88"
        (Nat.to_string (Decomp.count_tree ~budget:b t pinned_db));
      Alcotest.(check int) "count_tree ticks" 41 (Budget.ticks b)
  | _ -> Alcotest.fail "the path must route to the join-tree DP");
  List.iter
    (fun (name, q, count, ticks, rows) ->
      match Ghd.plan q with
      | None -> Alcotest.fail "no plan"
      | Some g ->
          let rows0 = global_counter "ghd_bag_rows" in
          let b = Budget.create ~fuel:1_000_000 () in
          Alcotest.(check string) (name ^ " count") count
            (Nat.to_string (Ghd.count ~budget:b g pinned_db));
          Alcotest.(check int) (name ^ " ticks") ticks (Budget.ticks b);
          Alcotest.(check int) (name ^ " bag rows") rows
            (global_counter "ghd_bag_rows" - rows0))
    [ ("path", pinned_path, "88", 44, 33); ("6-cycle", six_cycle, "554", 202, 150) ]

(* ------------------------------------------------------------------ *)
(* Constants on codes                                                  *)
(* ------------------------------------------------------------------ *)

(* The constant [a] interpreted inside the active domain, outside it (as
   7, which only a later insert brings into the data), or not at all. *)
let random_db_with_const st =
  let n = 1 + Random.State.int st 4 in
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for _ = 1 to Random.State.int st 13 do
    d :=
      Structure.add_fact !d e
        [ Value.int (Random.State.int st n); Value.int (Random.State.int st n) ]
  done;
  for _ = 1 to Random.State.int st 4 do
    d := Structure.add_fact !d u [ Value.int (Random.State.int st n) ]
  done;
  let inside = Value.Set.elements (Structure.domain !d) in
  match Random.State.int st 3 with
  | 0 when inside <> [] ->
      Structure.bind_constant !d "a"
        (List.nth inside (Random.State.int st (List.length inside)))
  | 0 | 1 -> Structure.bind_constant !d "a" (Value.int 7)
  | _ -> !d

(* {!random_acyclic} plus one or two atoms on [a]: [E(a, x)] puts the
   constant at the probe position of a bag join, [E(x, a)] and [U(a)]
   after it. *)
let random_acyclic_with_const st =
  let base = Query.atoms (random_acyclic st) in
  let extras =
    List.init
      (1 + Random.State.int st 2)
      (fun _ ->
        let x = var (Random.State.int st 4) in
        match Random.State.int st 3 with
        | 0 -> Build.atom e [ Build.c "a"; x ]
        | 1 -> Build.atom e [ x; Build.c "a" ]
        | _ -> Build.atom u [ Build.c "a" ])
  in
  Build.query (base @ extras)

(* Like {!random_steps}, over values that include the outside constant. *)
let random_steps_with_const st =
  let value () = Value.int [| 0; 1; 2; 3; 7 |].(Random.State.int st 5) in
  List.init (Random.State.int st 12) (fun _ ->
      let a = value () and b = value () in
      (Random.State.bool st, if Random.State.bool st then (e, [| a; b |]) else (u, [| a |])))

let prop_node_kinds_agree_with_consts =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"atom trees = bag trees = maintained = reference, with constants"
       ~count:400
       (QCheck.make
          ~print:(fun (q, d, _) -> pp_pair (q, d))
          (fun st ->
            (random_acyclic_with_const st, random_db_with_const st, random_steps_with_const st)))
       (fun (q, d, steps) ->
         let q = Decomp.canonical q in
         match (Decomp.choose q, Ghd.plan q) with
         | Decomp.Dp t, Some g ->
             let agree d =
               let expected = reference q d in
               Nat.equal (Decomp.count_tree t d) expected
               && Nat.equal (Ghd.count g d) expected
             in
             let count, final = maintained q d steps in
             agree d && agree final && Nat.equal count (reference q final)
         | _ -> QCheck.assume_fail ()))

(* ------------------------------------------------------------------ *)
(* Counts past the machine int                                         *)
(* ------------------------------------------------------------------ *)

(* K_m without loops: [m·(m−1)^k] stars with [k] out-leaves, and
   [((m−1)^6 + (m−1))·(m−1)^p] 6-cycles with [p] pendant out-edges (closed
   walks of length 6, times the pendants' choices). *)
let loop_free_complete m =
  let d = ref (Structure.empty (Schema.make [ e ])) in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let star k = Build.(query (List.init k (fun i -> atom e [ v "c"; var i ])))

let pendant_cycle p =
  Build.(
    query
      (cycle e (List.init 6 (fun i -> v (Printf.sprintf "y%d" i)))
      @ List.init p (fun i -> atom e [ v "y0"; var i ])))

let star_count m k = Nat.mul (Nat.of_int m) (Nat.pow (Nat.of_int (m - 1)) k)

let pendant_count m p =
  Nat.mul
    (Nat.add (Nat.pow (Nat.of_int (m - 1)) 6) (Nat.of_int (m - 1)))
    (Nat.pow (Nat.of_int (m - 1)) p)

let fits_int n = Nat.to_int_opt n <> None

let tree_of q =
  match Decomp.choose (Decomp.canonical q) with
  | Decomp.Dp t -> t
  | _ -> Alcotest.fail "an acyclic query must route to the join-tree DP"

let plan_of q =
  match Ghd.plan q with Some g -> g | None -> Alcotest.fail "no decomposition"

let test_overflow_promotes () =
  let d = loop_free_complete 8 in
  (* the boundaries the cases below straddle *)
  Alcotest.(check bool) "8·7^21 fits" true (fits_int (star_count 8 21));
  Alcotest.(check bool) "8·7^22 does not" false (fits_int (star_count 8 22));
  Alcotest.(check bool) "6-cycle, 16 pendants fits" true (fits_int (pendant_count 8 16));
  Alcotest.(check bool) "6-cycle, 17 pendants does not" false (fits_int (pendant_count 8 17));
  List.iter
    (fun k ->
      let q = star k and expected = Nat.to_string (star_count 8 k) in
      Alcotest.(check string) (Printf.sprintf "count_tree, star %d" k) expected
        (Nat.to_string (Decomp.count_tree (tree_of q) d));
      Alcotest.(check string) (Printf.sprintf "Ghd.count, star %d" k) expected
        (Nat.to_string (Ghd.count (plan_of q) d)))
    [ 20; 21; 22; 30 ];
  List.iter
    (fun p ->
      Alcotest.(check string) (Printf.sprintf "Ghd.count, 6-cycle + %d pendants" p)
        (Nat.to_string (pendant_count 8 p))
        (Nat.to_string (Ghd.count (plan_of (pendant_cycle p)) d)))
    [ 0; 16; 17; 25 ];
  (* the int weight itself: 2^31 · 2^31 = 2^62 is one past [max_int] *)
  Alcotest.(check int) "2^31 · (2^31 − 1)" (max_int - (1 lsl 31) + 1)
    (Jointree.Int_weight.mul (1 lsl 31) ((1 lsl 31) - 1));
  Alcotest.check_raises "2^31 · 2^31" Jointree.Overflow (fun () ->
      ignore (Jointree.Int_weight.mul (1 lsl 31) (1 lsl 31)));
  Alcotest.check_raises "max_int + 1" Jointree.Overflow (fun () ->
      ignore (Jointree.Int_weight.add max_int 1))

(* Under fuel, a count whose int pass overflows is exact or exhausted at
   every budget — never a wrapped int. *)
let test_overflow_under_fuel () =
  let d = loop_free_complete 8 in
  let q = star 22 in
  let expected = Nat.to_string (star_count 8 22) in
  let sweep name ~stride count =
    let b = Budget.create ~fuel:max_int () in
    Alcotest.(check string) (name ^ " unbounded") expected (Nat.to_string (count b));
    let needed = Budget.ticks b in
    let fuel = ref 1 in
    while !fuel <= needed do
      let b = Budget.create ~fuel:!fuel () in
      (match Budget.protect b (fun () -> count b) with
      | Ok n -> Alcotest.(check string) (Printf.sprintf "%s at fuel %d" name !fuel) expected (Nat.to_string n)
      | Error Budget.Fuel ->
          if !fuel = needed then Alcotest.failf "%s: exhausted with the fuel it needs" name
      | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel");
      fuel := if !fuel < needed && !fuel + stride > needed then needed else !fuel + stride
    done;
    let b = Budget.create ~fuel:(needed - 1) () in
    Alcotest.(check bool) (name ^ " one tick short") true
      (Budget.protect b (fun () -> count b) = Error Budget.Fuel)
  in
  let t = tree_of q and g = plan_of q in
  sweep "count_tree" ~stride:1 (fun b -> Decomp.count_tree ~budget:b t d);
  sweep "Ghd.count" ~stride:7 (fun b -> Ghd.count ~budget:b g d)

(* ------------------------------------------------------------------ *)
(* One index, two domains                                              *)
(* ------------------------------------------------------------------ *)

(* Code rows and lazily memoised code groups of one shared index, read by
   the bag joins and atom trees of two domains at once. *)
let test_shared_index_across_domains () =
  let st = Random.State.make [| 11 |] in
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for _ = 1 to 160 do
    d :=
      Structure.add_fact !d e
        [ Value.int (Random.State.int st 30); Value.int (Random.State.int st 30) ]
  done;
  for i = 0 to 9 do
    d := Structure.add_fact !d u [ Value.int (3 * i) ]
  done;
  let d = !d in
  let plans = List.map plan_of [ six_cycle; pinned_path; pendant_cycle 3 ] in
  let tree = tree_of pinned_path in
  let builds0 = global_counter "hom_index_builds" in
  ignore (Index.get d);
  let run () =
    List.init 4 (fun _ ->
        Nat.to_string (Decomp.count_tree tree d)
        :: List.map (fun g -> Nat.to_string (Ghd.count g d)) plans)
  in
  let workers = List.init 2 (fun _ -> Domain.spawn run) in
  let parallel = List.map Domain.join workers in
  let sequential = run () in
  List.iteri
    (fun i r -> Alcotest.(check (list (list string))) (Printf.sprintf "domain %d" i) sequential r)
    parallel;
  Alcotest.(check (list string)) "reference" [ Nat.to_string (reference pinned_path d) ]
    [ List.hd (List.hd sequential) ];
  Alcotest.(check bool) "at most one index build" true
    (global_counter "hom_index_builds" - builds0 <= 1)

let test_metrics_family () =
  let plans0 = global_counter "ghd_plans_built" in
  let runs0 = global_counter "ghd_runs" in
  let rows0 = global_counter "ghd_bag_rows" in
  (match Ghd.plan six_cycle with
  | Some g -> ignore (Ghd.count g (complete_digraph 2))
  | None -> Alcotest.fail "a 6-cycle must decompose");
  Alcotest.(check int) "one plan" 1 (global_counter "ghd_plans_built" - plans0);
  Alcotest.(check int) "one run" 1 (global_counter "ghd_runs" - runs0);
  Alcotest.(check bool) "bag rows recorded" true
    (global_counter "ghd_bag_rows" > rows0)

let test_fuel_trips_mid_bag () =
  let d = complete_digraph 6 in
  let g =
    match Ghd.plan six_cycle with
    | Some g -> g
    | None -> Alcotest.fail "a 6-cycle must decompose"
  in
  (* enough fuel to start materialising the first bag, not to finish *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Ghd.count ~budget:b g d) with
  | Error Budget.Fuel -> ()
  | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel"
  | Ok _ -> Alcotest.fail "10 ticks of fuel must not count 6-cycles on K6");
  Alcotest.(check int) "every tick spent" 10 (Budget.ticks b);
  (* the same trip surfaces through the full evaluator *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Eval.count ~budget:b six_cycle d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Eval must propagate the trip");
  (* ample fuel completes: 6^6 closed walks... every map is a hom on K6+loops *)
  let b = Budget.create ~fuel:10_000_000 () in
  match Budget.protect b (fun () -> Ghd.count ~budget:b g d) with
  | Ok n ->
      Alcotest.(check string) "count" "46656" (Nat.to_string n);
      Alcotest.(check bool) "work metered" true (Budget.ticks b > 0)
  | Error _ -> Alcotest.fail "ample fuel must complete"

let test_deadline_reason_preserved () =
  let g =
    match Ghd.plan six_cycle with
    | Some g -> g
    | None -> Alcotest.fail "a 6-cycle must decompose"
  in
  let b = Budget.fault_at ~reason:Budget.Deadline ~tick:5 () in
  match Budget.protect b (fun () -> Ghd.count ~budget:b g (complete_digraph 6)) with
  | Error Budget.Deadline -> ()
  | Error Budget.Fuel -> Alcotest.fail "wrong trip reason"
  | Ok _ -> Alcotest.fail "fault injection must trip"

let test_cost_model_picks_ghd () =
  (match Decomp.choose (Decomp.canonical six_cycle) with
  | Decomp.Ghd _ -> ()
  | _ -> Alcotest.fail "a 6-cycle must route to the decomposition");
  (* a triangle has too much leapfrog support to be worth decomposing *)
  let triangle =
    Build.(
      query
        [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])
  in
  match Decomp.choose (Decomp.canonical triangle) with
  | Decomp.Wcoj _ -> ()
  | _ -> Alcotest.fail "a triangle must stay on the leapfrog kernel"

let () =
  Alcotest.run "ghd"
    [
      ( "differential",
        [
          prop "6-cycles (+chords/constants) = reference" ~count:600
            (random_long_cycle ~len:6);
          prop "7-cycles (+chords/constants) = reference" ~count:400
            (random_long_cycle ~len:7);
          prop "fused cycle pairs = reference" ~count:600 random_fused_cycles;
          prop "θ-patterns = reference" ~count:600 random_theta;
          prop_node_kinds_agree;
          prop_node_kinds_agree_with_consts;
        ] );
      ( "unit",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
          Alcotest.test_case "ghd_* metrics family" `Quick test_metrics_family;
          Alcotest.test_case "pinned fuel of both node kinds" `Quick test_pinned_ticks;
          Alcotest.test_case "fuel trips mid-bag-materialisation" `Quick
            test_fuel_trips_mid_bag;
          Alcotest.test_case "deadline reason preserved" `Quick
            test_deadline_reason_preserved;
          Alcotest.test_case "cost model routes 6-cycles to the GHD" `Quick
            test_cost_model_picks_ghd;
          Alcotest.test_case "int overflow promotes to Nat" `Quick test_overflow_promotes;
          Alcotest.test_case "overflow under fuel: exact or exhausted" `Quick
            test_overflow_under_fuel;
          Alcotest.test_case "seen-set folds repeated bag rows" `Quick test_seen_set;
          Alcotest.test_case "one index shared by two domains" `Quick
            test_shared_index_across_domains;
        ] );
    ]
