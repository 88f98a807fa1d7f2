(* Seeded workload generators.  Every request is built from the seed given
   on the command line and carries what the harness needs to verify its
   reply off the clock: either the inputs to recount, or an answer known
   by construction.  Request [i] of a stream goes to connection [i mod 2]. *)

module Json = Bagcq_wire.Json

type check =
  | Count of { query : string; edges : (int * int) list }
      (** [eval]: recount [query] on the digraph with {!Oracle} *)
  | Ucq_count of { query : string; edges : (int * int) list }
  | Contain of { set_contains : bool; bag_equivalent : bool }
      (** [contain] / [ucq_contain] pair whose verdicts are known by
          construction *)
  | Hunt of { small : string; big : string; violated : bool; ucq : bool }
      (** [hunt] / [ucq_hunt] pair whose verdict is known by construction;
          a reported witness is re-checked with [Hunt.verified] *)
  | Write of { db : string; fact : int * int; add : bool }
  | Read_eval of { db : string; query : string }
  | Read_counts of { db : string }

type request = { line : string; cls : string; check : check }
(** [cls] groups requests for the per-class latencies: ["eval"],
    ["contain"], ["hunt"], ["read"], ["write"]. *)

type t = {
  warm : int;  (** requests sent before the clock starts *)
  work : int;
      (** timed requests after which the server's peak RSS is read, so the
          reading reflects a fixed amount of work, not how fast it went *)
  preload : string list;
      (** lines answered before the clock starts: named databases created,
          queries registered *)
  stores : (string * (int * int) list) list;
      (** initial contents of the named databases (the harness's mirror) *)
  registered : string list;  (** queries registered on every named database *)
  next : unit -> request;
}

let names = [ "eval-kernel"; "serve-chatty"; "store-churn"; "decide" ]

(* ---------------- text builders ---------------- *)

let atom (i, j) = Printf.sprintf "E(x%d,x%d)" i j
let conj edges = String.concat " & " (List.map atom edges)
let fact (a, b) = Printf.sprintf "E(%d,%d)" a b
let db_text edges = String.concat " " (List.map (fun e -> fact e ^ ".") edges)

let line fields = Json.to_string (Json.Obj fields)

let eval_line ?(op = "eval") id query db =
  line
    [
      ("id", Json.Int id);
      ("op", Json.Str op);
      ("query", Json.Str query);
      ("db", Json.Str db);
    ]

let pair_line op id small big extra =
  line
    ([
       ("id", Json.Int id);
       ("op", Json.Str op);
       ("small", Json.Str small);
       ("big", Json.Str big);
     ]
    @ extra)

let disjuncts qs = String.concat " | " (List.map (fun q -> "(" ^ q ^ ")") qs)

(* ---------------- query shapes (edges over variable indices) ---------------- *)

let path k = List.init k (fun i -> (i, i + 1))
let star k = List.init k (fun i -> if i mod 2 = 0 then (0, i + 1) else (i + 1, 0))
let cycle k = List.init k (fun i -> (i, (i + 1) mod k))

(* Two directed 6-cycles sharing the edge x0→x1: 11 atoms, 10 variables. *)
let fused6 = cycle 6 @ [ (1, 6); (6, 7); (7, 8); (8, 9); (9, 0) ]

let shift d = List.map (fun (a, b) -> (a + d, b + d))

let nvars edges = 1 + List.fold_left (fun m (a, b) -> max m (max a b)) (-1) edges

(* [θ↑k]: [k] variable-disjoint copies. *)
let copies k edges = List.concat (List.init k (fun c -> shift (c * nvars edges) edges))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A variable renaming (a random permutation of [0, n)) plus a shuffle of
   the atoms: an isomorphic copy that shares no spelling with the
   original. *)
let rename rng edges =
  let n = nvars edges in
  let perm = Array.of_list (shuffle rng (List.init n Fun.id)) in
  shuffle rng (List.map (fun (a, b) -> (perm.(a) + n, perm.(b) + n)) edges)

let subset rng edges =
  let keep = List.filter (fun _ -> Random.State.bool rng) edges in
  match keep with [] -> [ List.hd edges ] | l -> l

(* A random loop-free query with [atoms] distinct atoms over [vars]
   variables. *)
let random_query rng ~vars ~atoms =
  let seen = Hashtbl.create atoms in
  let out = ref [] in
  while Hashtbl.length seen < atoms do
    let a = Random.State.int rng vars and b = Random.State.int rng vars in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      out := (a, b) :: !out
    end
  done;
  List.rev !out

(* A loop-free random digraph: [m] distinct edges over vertices 1..[n]. *)
let random_digraph rng ~n ~m =
  let seen = Hashtbl.create m in
  let out = ref [] in
  while Hashtbl.length seen < m do
    let a = 1 + Random.State.int rng n and b = 1 + Random.State.int rng n in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      out := (a, b) :: !out
    end
  done;
  List.rev !out

let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* ---------------- eval-kernel ---------------- *)

(* Query families chosen so every strategy of [Decomp.choose] is exercised:
   paths and stars go to the join-tree DP, chorded 3/4/5-cycles and the
   inequality variant to the leapfrog, 6-cycles and fused 6-cycles to the
   hypertree decomposition, and disjoint copies to the [Nat.pow] combine.
   Weights are out of 40; the hypertree families are rare because each
   costs tens of milliseconds. *)
let kernel_families =
  [
    (7, fun rng -> conj (path (range rng 2 5)));
    (5, fun rng -> conj (star (range rng 3 5)));
    (5, fun _ -> conj (cycle 3));
    (5, fun _ -> conj (cycle 4 @ [ (0, 2) ]));
    (5, fun _ -> conj (cycle 5 @ [ (0, 2) ]));
    (5, fun _ -> conj (cycle 4) ^ " & x0 != x2");
    (2, fun _ -> conj (cycle 6));
    (1, fun _ -> conj fused6);
    ( 5,
      fun rng ->
        let base = if Random.State.bool rng then cycle 3 else path 2 in
        conj (copies (range rng 2 4) base) );
  ]

(* The three database tiers: (vertices, edges ±10).  A tier fixes the
   density, which sets what a 6-cycle costs. *)
let kernel_tiers = [ (40, 220); (50, 300); (60, 380) ]

(* The stream is built in blocks of 120 requests: every family at its
   weight on every tier, shuffled.  Each database serves 2–4 queries of its
   tier in a row.  Blocks fix the mix, so runs on different seeds differ
   in their random graphs and query details, not in how many expensive
   requests they happen to draw. *)
let kernel_block rng id =
  let dbs =
    List.concat_map
      (fun (n, m) ->
        let qs =
          shuffle rng
            (List.concat_map (fun (w, f) -> List.init w (fun _ -> f)) kernel_families)
        in
        let rec group = function
          | [] -> []
          | qs ->
              let k = min (List.length qs) (range rng 2 4) in
              let here = List.filteri (fun i _ -> i < k) qs
              and rest = List.filteri (fun i _ -> i >= k) qs in
              let edges =
                random_digraph rng ~n ~m:(range rng (m - 10) (m + 10))
              in
              (edges, List.map (fun f -> f rng) here) :: group rest
        in
        group qs)
      kernel_tiers
  in
  List.concat_map
    (fun (edges, queries) ->
      let db = db_text edges in
      List.map
        (fun query ->
          incr id;
          { line = eval_line !id query db; cls = "eval"; check = Count { query; edges } })
        queries)
    (shuffle rng dbs)

let eval_kernel seed =
  let rng = Random.State.make [| seed; 1 |] in
  let id = ref 0 in
  let pending = Queue.create () in
  let next () =
    if Queue.is_empty pending then List.iter (fun r -> Queue.add r pending) (kernel_block rng id);
    Queue.take pending
  in
  { warm = 120; work = 600; preload = []; stores = []; registered = []; next }

(* ---------------- serve-chatty ---------------- *)

let tiny_shapes =
  [|
    [ (0, 1) ];
    [ (0, 0) ];
    [ (0, 1); (1, 0) ];
    [ (0, 1); (1, 2) ];
    [ (0, 1); (0, 2) ];
    [ (0, 1); (1, 2); (2, 0) ];
    [ (0, 0); (0, 1) ];
  |]

let tiny_query rng = conj tiny_shapes.(Random.State.int rng (Array.length tiny_shapes))

let tiny_db rng =
  let n = range rng 2 4 in
  let facts = range rng 1 8 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to facts do
    let e = (1 + Random.State.int rng n, 1 + Random.State.int rng n) in
    Hashtbl.replace seen e ()
  done;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) seen [])

(* A containment pair with both verdicts known by construction: an
   isomorphic copy (contained both ways, bag-equivalent), a sub-query
   (set-contained, fewer atoms so not isomorphic), or a sub-query plus a
   loop on a fresh variable over a loop-free [small] (no homomorphism from
   [big] into [small], so not set-contained). *)
let known_pair rng small =
  match Random.State.int rng 3 with
  | 0 -> (rename rng small, true, true)
  | 1 ->
      let sub = List.filteri (fun i _ -> i < List.length small - 1) (shuffle rng small) in
      (rename rng sub, true, false)
  | _ ->
      let sub = rename rng (subset rng small) in
      let w = 1000 in
      (shuffle rng ((w, w) :: sub), false, false)

(* An item is a request awaiting its id, so a repeat differs from the
   original only in the echoed id (which the result memo ignores). *)
let chatty_item rng =
  match Random.State.int rng 4 with
  | 0 | 1 ->
      let query = tiny_query rng and edges = tiny_db rng in
      fun id ->
        { line = eval_line id query (db_text edges); cls = "eval"; check = Count { query; edges } }
  | 2 ->
      let query = disjuncts [ tiny_query rng; tiny_query rng ] and edges = tiny_db rng in
      fun id ->
        {
          line = eval_line ~op:"ucq_eval" id query (db_text edges);
          cls = "eval";
          check = Ucq_count { query; edges };
        }
  | _ ->
      let small = random_query rng ~vars:3 ~atoms:(range rng 2 3) in
      let big, set_contains, bag_equivalent = known_pair rng small in
      let small = conj small and big = conj big in
      fun id ->
        {
          line = pair_line "contain" id small big [];
          cls = "contain";
          check = Contain { set_contains; bag_equivalent };
        }

(* Half the requests are fresh; the other half repeat an earlier item whose
   rank (order of first appearance) is drawn Zipf(1): P(r) ∝ 1/r, by
   inverting the CDF ln r / ln (n+1).  The repeat share stays one half
   however long the stream runs. *)
let serve_chatty seed =
  let rng = Random.State.make [| seed; 2 |] in
  let items = ref [||] and n = ref 0 in
  let id = ref 0 in
  let next () =
    incr id;
    let make =
      if !n = 0 || Random.State.bool rng then begin
        let it = chatty_item rng in
        if !n = Array.length !items then
          items := Array.append !items (Array.make (max 16 !n) it);
        !items.(!n) <- it;
        incr n;
        it
      end
      else
        let u = Random.State.float rng 1. in
        let r = int_of_float (Float.pow (float_of_int (!n + 1)) u) in
        !items.(max 0 (min (!n - 1) (r - 1)))
    in
    make !id
  in
  { warm = 2000; work = 30_000; preload = []; stores = []; registered = []; next }

(* ---------------- store-churn ---------------- *)

(* Registered on every named database: an acyclic path (maintained by
   join-tree DP deltas), a triangle and a 6-cycle (recounted on every
   write).  The database size is chosen so the 6-cycle recount takes tens
   of milliseconds. *)
let store_registered = [ conj (path 2); conj (cycle 3); conj (cycle 6) ]
let store_reads = [| conj (path 3); conj (star 3); conj (cycle 4 @ [ (0, 2) ]) |]
let store_vertices = 55
let store_out_degree = 4
let dbs_per_conn = 4

(* Every vertex gets exactly [d] distinct out-neighbours: databases of one
   size whose recount costs vary little from seed to seed. *)
let out_regular rng ~n ~d =
  List.concat
    (List.init n (fun v ->
         let v = v + 1 in
         let seen = Hashtbl.create d in
         while Hashtbl.length seen < d do
           let w = 1 + Random.State.int rng n in
           if w <> v then Hashtbl.replace seen w ()
         done;
         List.sort compare (Hashtbl.fold (fun w () acc -> (v, w) :: acc) seen [])))

let db_name conn k = Printf.sprintf "c%dd%d" conn k

let store_churn seed =
  let rng = Random.State.make [| seed; 3 |] in
  let dbs =
    List.init (2 * dbs_per_conn) (fun i ->
        let name = db_name (i mod 2) (i / 2) in
        (name, out_regular rng ~n:store_vertices ~d:store_out_degree))
  in
  (* generation-time mirror: every generated write is valid against the
     state its predecessors on the same connection leave behind *)
  let mirror =
    List.map
      (fun (name, edges) ->
        let h = Hashtbl.create 512 in
        List.iter (fun e -> Hashtbl.replace h e ()) edges;
        (name, (h, ref (Array.of_list edges))))
      dbs
  in
  let preload =
    List.concat_map
      (fun (name, edges) ->
        line
          [
            ("op", Json.Str "db_create");
            ("name", Json.Str name);
            ("db", Json.Str (db_text edges));
          ]
        :: List.map
             (fun q ->
               line
                 [
                   ("op", Json.Str "register");
                   ("name", Json.Str name);
                   ("query", Json.Str q);
                 ])
             store_registered)
      dbs
  in
  let id = ref 0 in
  (* each connection cycles through a block of ten: an insert and a
     delete, four counts and four evals, so every run has the same mix *)
  let slot = [| `Insert; `Counts; `Eval; `Counts; `Eval; `Delete; `Counts; `Eval; `Counts; `Eval |] in
  let next () =
    let conn = !id mod 2 in
    let kind = slot.(!id / 2 mod Array.length slot) in
    incr id;
    let name = db_name conn (Random.State.int rng dbs_per_conn) in
    let present, arr = List.assoc name mirror in
    match kind with
    | (`Insert | `Delete) as k ->
        let add = k = `Insert in
        let e =
          if add then begin
            let rec pick () =
              let a = 1 + Random.State.int rng store_vertices
              and b = 1 + Random.State.int rng store_vertices in
              if a = b || Hashtbl.mem present (a, b) then pick () else (a, b)
            in
            let e = pick () in
            Hashtbl.replace present e ();
            arr := Array.append !arr [| e |];
            e
          end
          else begin
            let i = Random.State.int rng (Array.length !arr) in
            let e = !arr.(i) in
            let last = Array.length !arr - 1 in
            !arr.(i) <- !arr.(last);
            arr := Array.sub !arr 0 last;
            Hashtbl.remove present e;
            e
          end
        in
        {
          line =
            line
              [
                ("id", Json.Int !id);
                ("op", Json.Str (if add then "db_insert" else "db_delete"));
                ("name", Json.Str name);
                ("fact", Json.Str (fact e));
              ];
          cls = "write";
          check = Write { db = name; fact = e; add };
        }
    | `Counts ->
        {
          line =
            line
              [ ("id", Json.Int !id); ("op", Json.Str "counts"); ("name", Json.Str name) ];
          cls = "read";
          check = Read_counts { db = name };
        }
    | `Eval ->
        let query = store_reads.(Random.State.int rng (Array.length store_reads)) in
        {
          line =
            line
              [
                ("id", Json.Int !id);
                ("op", Json.Str "eval");
                ("query", Json.Str query);
                ("db_name", Json.Str name);
              ];
          cls = "read";
          check = Read_eval { db = name; query };
        }
  in
  { warm = 100; work = 1000; preload; stores = dbs; registered = store_registered; next }

(* ---------------- decide ---------------- *)

let hunt_samples = 200
let hunt_exhaustive = 3

let hunt_fields =
  [ ("samples", Json.Int hunt_samples); ("exhaustive_size", Json.Int hunt_exhaustive) ]

(* Hunt pairs: mostly containments that hold for every database, which
   force the full exhaustive and random search — q ≤ q↑2 (n ≤ n² over
   the naturals) and q ≤ q ∧ E(u,v) (q mentions E, so q(D) > 0 implies
   |E| ≥ 1) — and one block in eight with a known violation: q↑2 against q
   (exhaustive search finds a database of size ≤ 2 where q counts ≥ 2).

   Requests come in blocks of ten: four hunts, four UCQ hunts, one
   containment and one UCQ containment.  Together with the fast violated
   hunts the sub-millisecond requests stay well under half, so the median
   round trip falls inside the hunts' range, not on the boundary between
   op classes. *)
let decide_slots = [| 2; 3; 0; 2; 3; 2; 3; 1; 2; 3 |]

let decide seed =
  let rng = Random.State.make [| seed; 4 |] in
  let id = ref 0 in
  let next () =
    let kind = decide_slots.(!id mod Array.length decide_slots) in
    incr id;
    let id = !id in
    match kind with
    | 0 ->
        let atoms = range rng 10 30 in
        let small = random_query rng ~vars:(atoms / 2 + 2) ~atoms in
        let big, set_contains, bag_equivalent = known_pair rng small in
        {
          line = pair_line "contain" id (conj small) (conj big) [];
          cls = "contain";
          check = Contain { set_contains; bag_equivalent };
        }
    | 1 ->
        let mk () =
          let atoms = range rng 5 15 in
          random_query rng ~vars:(atoms / 2 + 2) ~atoms
        in
        let s1 = mk () and s2 = mk () in
        let small = disjuncts [ conj s1; conj s2 ] in
        let big, set_contains, bag_equivalent =
          match Random.State.int rng 3 with
          | 0 -> (shuffle rng [ conj (rename rng s1); conj (rename rng s2) ], true, true)
          | 1 ->
              ( shuffle rng
                  [ conj (rename rng s1); conj (rename rng s2); conj (subset rng s1) ],
                true,
                false )
          | _ ->
              let looped s = conj ((1000, 1000) :: rename rng (subset rng s)) in
              ([ looped s1; looped s2 ], false, false)
        in
        {
          line = pair_line "ucq_contain" id small (disjuncts big) [];
          cls = "contain";
          check = Contain { set_contains; bag_equivalent };
        }
    | 2 ->
        let q = random_query rng ~vars:(range rng 3 4) ~atoms:(range rng 3 5) in
        let small, big, violated =
          match id / 10 mod 8 with
          | 0 -> (conj (copies 2 q), conj q, true)
          | 1 | 2 | 3 -> (conj q, conj (copies 2 q), false)
          | _ -> (conj q, conj (q @ [ (100, 101) ]), false)
        in
        {
          line = pair_line "hunt" id small big (("seed", Json.Int id) :: hunt_fields);
          cls = "hunt";
          check = Hunt { small; big; violated; ucq = false };
        }
    | _ ->
        let q = conj (random_query rng ~vars:(range rng 3 4) ~atoms:(range rng 3 5)) in
        let q' = conj (random_query rng ~vars:3 ~atoms:(range rng 2 3)) in
        let small, big, violated =
          if id / 10 mod 8 = 0 then (disjuncts [ q; q ], q, true)
          else (q, disjuncts [ q; q' ], false)
        in
        {
          line = pair_line "ucq_hunt" id small big (("seed", Json.Int id) :: hunt_fields);
          cls = "hunt";
          check = Hunt { small; big; violated; ucq = true };
        }
  in
  { warm = 40; work = 500; preload = []; stores = []; registered = []; next }

let make name seed =
  match name with
  | "eval-kernel" -> eval_kernel seed
  | "serve-chatty" -> serve_chatty seed
  | "store-churn" -> store_churn seed
  | "decide" -> decide seed
  | w -> invalid_arg ("unknown workload " ^ w)
