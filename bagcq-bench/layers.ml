(* The traced run: per-layer metrics.

   The workload runs twice for S/2 seconds each, on an untraced server and
   on one started with [--trace FILE] (the server's own [req:<op>] spans).
   The difference in throughput is the tracing overhead; the spans against
   the client's round trips give the admission-queue share; the server's
   [metrics] dump gives counter deltas.  Then the workload's requests are
   replayed in-process, timing the public function of every layer a
   request crosses — no spans are added inside the library.

   Where a workload's traffic never calls a layer (no writes outside
   store-churn, no hunts outside decide, ...), the layer is probed on that
   workload's own queries and databases, so every metric is a measurement
   on every workload; [workloads.json] records which are probes. *)

module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Router = Bagcq_server.Router
module Cache = Bagcq_server.Cache
module Store = Bagcq_store.Store
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Structure = Bagcq_relational.Structure
module Encode = Bagcq_relational.Encode
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Wcoj = Bagcq_hom.Wcoj
module Ghd = Bagcq_hom.Ghd
module Index = Bagcq_hom.Index
module Containment = Bagcq_reduction.Containment
module Hunt = Bagcq_search.Hunt
module Sampler = Bagcq_search.Sampler
module Dbspace = Bagcq_search.Dbspace
open Bagcq_cq

(* ---------------- timing ---------------- *)

let us_since t0 = (Unix.gettimeofday () -. t0) *. 1e6

(* A call that changes state (or costs milliseconds): timed once. *)
let once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, us_since t0)

(* A pure call: repeated until 200µs have passed (at most 1000 times) so
   microsecond calls are not lost in the clock's resolution; µs per call. *)
let rep f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let n = ref 1 in
  while us_since t0 < 200. && !n < 1000 do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (r, us_since t0 /. float_of_int !n)

(* ---------------- replay state ---------------- *)

type st = {
  router : Router.t;  (** replays whole lines: server.router_us *)
  store : Store.t;  (** replays store ops directly: store.* *)
  interned : Cache.t;  (** server.intern_db_us *)
  ecache : Eval.cache;  (** long-lived, like the server's shared cache *)
  strategies : (string, Decomp.strategy) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  shares : (string, float) Hashtbl.t;  (** summed µs per layer group *)
  mutable probes : (Query.t * Structure.t) list;  (** inputs for probes *)
  mutable maintained : int;
  mutable recomputed : int;
}

let add st k v =
  Hashtbl.replace st.samples k (v :: Option.value ~default:[] (Hashtbl.find_opt st.samples k))

let share st k v =
  Hashtbl.replace st.shares k (v +. Option.value ~default:0. (Hashtbl.find_opt st.shares k))

let has st k = Hashtbl.mem st.samples k

(* A structure with no memoised index, so index builds are measured. *)
let fresh d = Encode.parse_exn (Encode.to_string d)

(* ---------------- hom: factor, plan, index, kernel, combine ---------------- *)

let kernel_metric = function
  | Decomp.Dp _ -> Some "hom.dp_us"
  | Decomp.Wcoj _ -> Some "hom.wcoj_us"
  | Decomp.Ghd _ -> Some "hom.ghd_us"
  | Decomp.Backtrack -> None

let run_kernel s c d =
  match s with
  | Decomp.Dp tree -> Decomp.count_tree tree d
  | Decomp.Wcoj p -> Wcoj.count p d
  | Decomp.Ghd g -> Ghd.count g d
  | Decomp.Backtrack -> Eval.count c d

let strategy st c =
  let key = Query.to_string c in
  match Hashtbl.find_opt st.strategies key with
  | Some s -> s
  | None ->
      let s, t = rep (fun () -> Decomp.choose c) in
      add st "hom.choose_us" t;
      Hashtbl.replace st.strategies key s;
      s

(* Time every step [Eval.count] takes on a cold structure with warm plans;
   returns the summed µs (the "hom kernels" share). *)
let hom_breakdown st q d =
  let d = fresh d in
  let comps, t_factor = rep (fun () -> Decomp.factor q) in
  add st "hom.factor_us" t_factor;
  let (), t_index = once (fun () -> ignore (Index.build d)) in
  add st "hom.index_build_us" t_index;
  ignore (Index.get d);
  let counts, t_kernels =
    List.fold_left
      (fun (acc, total) (c, m) ->
        let s = strategy st c in
        let n, t = rep (fun () -> run_kernel s c d) in
        Option.iter (fun k -> add st k t) (kernel_metric s);
        ((n, m) :: acc, total +. t))
      ([], 0.) comps
  in
  let _, t_combine =
    rep (fun () -> List.fold_left (fun acc (n, m) -> Nat.mul acc (Nat.pow n m)) Nat.one counts)
  in
  add st "bignum.combine_us" t_combine;
  if List.length st.probes < 24 then st.probes <- (q, d) :: st.probes;
  t_factor +. t_index +. t_kernels +. t_combine

(* ---------------- per-request replay ---------------- *)

let member_str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

let queries_of j =
  List.filter_map
    (fun k -> match Json.member k j with Some (Json.Str s) -> Some s | _ -> None)
    [ "query"; "small"; "big" ]

(* [Store] calls the server would make for this request, on the replay's
   own store.  Returns µs spent. *)
let store_op st (req : Proto.request) =
  match req.Proto.op with
  | Proto.Db_create { name; db } ->
      snd (once (fun () -> ignore (Store.db_create st.store ~name db)))
  | Proto.Register { name; query } ->
      snd (once (fun () -> ignore (Store.register st.store ~name query)))
  | Proto.Db_insert { name; fact = sym, tup } | Proto.Db_delete { name; fact = sym, tup } ->
      let add_ = match req.Proto.op with Proto.Db_insert _ -> true | _ -> false in
      let r, t =
        once (fun () ->
            (if add_ then Store.db_insert else Store.db_delete) st.store ~name sym tup)
      in
      add st (if add_ then "store.insert_us" else "store.delete_us") t;
      (match r with
      | Store.Done m ->
          st.maintained <- st.maintained + m.Store.maintained;
          st.recomputed <- st.recomputed + m.Store.recomputed
      | _ -> ());
      t
  | Proto.Counts { name } ->
      let _, t = rep (fun () -> Store.counts st.store ~name) in
      add st "store.counts_us" t;
      t
  | _ -> 0.

let snapshot st name =
  match Store.snapshot st.store ~name with Store.Done (d, _) -> Some d | _ -> None

(* One hunt as the server runs it (one worker, the request's strategy),
   plus [Eval.count] over the hunt's exhaustive database space. *)
let hunt st ~samples ~exhaustive_size ~seed small big ~ucq =
  let strategy =
    {
      Hunt.exhaustive_max_size = exhaustive_size;
      Hunt.sampler = { Sampler.default with Sampler.samples; Sampler.seed };
    }
  in
  let budget = Budget.unlimited () in
  let outcome, t =
    once (fun () ->
        if ucq then Hunt.ucq_counterexample_guarded ~strategy ~jobs:1 ~budget ~small ~big ()
        else
          Hunt.counterexample_guarded ~strategy ~jobs:1 ~budget
            ~small:(List.hd (Ucq.disjuncts small)) ~big:(List.hd (Ucq.disjuncts big)) ())
  in
  add st "search.hunt_us" t;
  (match outcome with
  | Outcome.Complete (_, p) | Outcome.Exhausted ((_, p), _) ->
      add st "search.dbs_tested" (float_of_int p.Hunt.databases_tested));
  let schema = Bagcq_relational.Schema.union (Ucq.schema small) (Ucq.schema big) in
  let cache = Eval.create_cache () in
  let size = Hunt.feasible_size schema exhaustive_size in
  let per_db = ref [] in
  (try
     Dbspace.fold schema ~max_size:size
       (fun () d ->
         if List.length !per_db >= 64 then raise Exit;
         let _, t =
           once (fun () ->
               ignore (Eval.count_ucq ~cache small d);
               ignore (Eval.count_ucq ~cache big d))
         in
         per_db := t :: !per_db)
       ()
   with Exit -> ());
  List.iter (add st "search.eval_us_per_db") !per_db;
  t

(* The registrations a store write recounts rather than maintains. *)
let cyclic =
  lazy
    (List.filter
       (fun q ->
         List.exists
           (fun (c, _) -> match Decomp.choose c with Decomp.Dp _ -> false | _ -> true)
           (Decomp.factor q))
       (List.map Parse.parse_exn Gen.store_registered))

(* Replay one line; [record] is false during the replay's warm-up. *)
let replay_line st ~record line =
  let j, t_json = rep (fun () -> Json.parse_exn line) in
  let req, t_decode =
    match rep (fun () -> Proto.decode j) with
    | Ok r, t -> (r, t)
    | Error e, _ -> failwith ("replay: undecodable line: " ^ e)
  in
  let is_write = match req.Proto.op with Proto.Db_insert _ | Proto.Db_delete _ -> true | _ -> false in
  (* the eviction the store's mutation hook runs inside the router *)
  let t_evict =
    if is_write then
      snd (once (fun () -> ignore (Cache.evict_db (Router.cache st.router) ~name:(member_str "name" j))))
    else 0.
  in
  let resp, t_router = once (fun () -> Router.handle_line st.router line) in
  let t_store = store_op st req in
  if record then begin
    add st "wire.request_bytes" (float_of_int (String.length line));
    add st "wire.json_parse_us" t_json;
    add st "wire.decode_us" t_decode;
    add st "server.router_us" t_router;
    if is_write then add st "server.evict_db_us" t_evict;
    List.iter
      (fun q ->
        let _, t = rep (fun () -> Parse.parse_ucq q) in
        add st "cq.parse_us" t;
        share st "cq.parse (inside decode)" t)
      (queries_of j);
    List.iter
      (fun k ->
        match Json.member k j with
        | Some (Json.Str text) ->
            let _, t = rep (fun () -> Encode.parse text) in
            add st "relational.db_parse_us" t;
            share st "relational.db_parse (inside decode)" t
        | _ -> ())
      [ "db"; "fact" ];
    let rj = Json.parse_exn resp in
    let _, t_encode = rep (fun () -> Json.to_string rj) in
    add st "wire.encode_us" t_encode;
    let hit = Json.member "cached" rj = Some (Json.Bool true) in
    (* the result memo: the canonical key, then a lookup (and on a miss a
       store, which evicts by LRU scan once full) in a memo that sees the
       same keys as the router's *)
    let key ?(suffix = "") () =
      let k, t = rep (fun () -> Proto.cache_key req) in
      add st "server.cache_key_us" t;
      let fields = match rj with Json.Obj f -> f | _ -> [] in
      let _, t_memo =
        once (fun () ->
            let k = k ^ suffix in
            if Cache.find_result st.interned k = None then Cache.store_result st.interned k fields)
      in
      add st "server.result_memo_us" t_memo;
      [ ("server.cache_key", t, true); ("server.result_memo (lookup + LRU store)", t_memo, true) ]
    in
    (* The layers the router crosses for this op: (group, µs, whether it
       also runs on a result-memo hit).  [hom kernels] re-times the steps
       inside [Eval.count] one by one and is reported beside it, not
       added to it. *)
    let parts =
      match req.Proto.op with
      | (Proto.Eval { db; _ } | Proto.Ucq_eval { db; _ }) as op ->
          let qs =
            match op with
            | Proto.Eval { query; _ } -> [ query ]
            | Proto.Ucq_eval { query; _ } -> Ucq.disjuncts query
            | _ -> []
          in
          let d, intern =
            match db with
            | Proto.Db_inline d ->
                let d', t = once (fun () -> Cache.intern_db st.interned d) in
                add st "server.intern_db_us" t;
                (Some d', [ ("server.intern_db", t, true) ])
            | Proto.Db_named name -> (snapshot st name, [])
          in
          let suffix =
            match db with
            | Proto.Db_named name -> (
                match Store.snapshot st.store ~name with
                | Store.Done (_, v) -> Printf.sprintf "#v%d" v
                | _ -> "")
            | Proto.Db_inline _ -> ""
          in
          let compute =
            match d with
            | None -> []
            | Some d ->
                let hk = List.fold_left (fun acc q -> acc +. hom_breakdown st q d) 0. qs in
                if not hit then share st "  of which hom kernels (factor+index+kernel+combine)" hk;
                let _, t =
                  once (fun () -> List.iter (fun q -> ignore (Eval.count ~cache:st.ecache q d)) qs)
                in
                add st "hom.eval_us" t;
                [ ("hom.eval (Eval.count)", t, false) ]
          in
          intern @ key ~suffix () @ compute
      | Proto.Contain { small; big } ->
          ignore (hom_breakdown st big (Query.canonical_structure small));
          let _, t_set = rep (fun () -> Containment.set_contains ~small ~big ()) in
          let _, t_iso = rep (fun () -> Containment.bag_equivalent small big) in
          add st "reduction.set_contains_us" t_set;
          add st "reduction.bag_equivalent_us" t_iso;
          key () @ [ ("reduction", t_set +. t_iso, false) ]
      | Proto.Ucq_contain { small; big } ->
          (match Ucq.disjuncts small with
          | s :: _ ->
              let c = Query.canonical_structure s in
              List.iter (fun b -> ignore (hom_breakdown st b c)) (Ucq.disjuncts big)
          | [] -> ());
          let (_, checks), t_set =
            rep (fun () -> Containment.ucq_set_contains_counted ~small ~big ())
          in
          let _, t_iso = rep (fun () -> Containment.ucq_bag_equivalent small big) in
          add st "reduction.set_contains_us" t_set;
          add st "reduction.bag_equivalent_us" t_iso;
          add st "reduction.ucq_hom_checks" (float_of_int checks);
          key () @ [ ("reduction", t_set +. t_iso, false) ]
      | Proto.Hunt { small; big; samples; exhaustive_size; seed } ->
          let t =
            hunt st ~samples ~exhaustive_size ~seed (Ucq.of_disjuncts [ small ])
              (Ucq.of_disjuncts [ big ]) ~ucq:false
          in
          key () @ [ ("search", t, false) ]
      | Proto.Ucq_hunt { small; big; samples; exhaustive_size; seed } ->
          let t = hunt st ~samples ~exhaustive_size ~seed small big ~ucq:true in
          key () @ [ ("search", t, false) ]
      | Proto.Db_insert { name; _ } | Proto.Db_delete { name; _ } ->
          (* what recounting the cyclic registrations costs after this write *)
          (match snapshot st name with
          | Some d ->
              let _, t =
                once (fun () -> List.iter (fun q -> ignore (Eval.count q d)) (Lazy.force cyclic))
              in
              add st "store.recount_us" t
          | None -> ());
          ignore (Cache.evict_db st.interned ~name);
          [ ("store (incl. evict_db)", t_store +. t_evict, true) ]
      | Proto.Counts _ -> [ ("store (incl. evict_db)", t_store, true) ]
      | _ -> []
    in
    let wire = t_json +. t_decode +. t_encode in
    share st "wire (json parse + decode + encode)" wire;
    share st "server.router_us" t_router;
    let counted = List.filter (fun (_, _, always) -> always || not hit) parts in
    List.iter (fun (g, t, _) -> share st g t) counted;
    let body = List.fold_left (fun acc (_, t, _) -> acc +. t) 0. counted in
    add st "server.residual_us" (t_router -. (wire +. body))
  end

(* ---------------- probes ---------------- *)

(* Layers the workload's traffic does not call, measured on the
   workload's own queries and databases. *)
let probe st =
  let inputs = List.rev st.probes in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (* kernels the planner never routed to: run each on the components it
     can count *)
  List.iter
    (fun (metric, kernel) ->
      if not (has st metric) then
        List.iter
          (fun (q, d) ->
            List.iter
              (fun (c, _) ->
                match kernel c with
                | Some s -> add st metric (snd (rep (fun () -> run_kernel s c d)))
                | None -> ())
              (Decomp.factor q))
          inputs)
    [
      ("hom.dp_us", fun c -> match Decomp.choose c with Decomp.Dp _ as s -> Some s | _ -> None);
      ( "hom.wcoj_us",
        fun c -> if Wcoj.supports_neqs c then Some (Decomp.Wcoj (Wcoj.compile c)) else None );
      ( "hom.ghd_us",
        fun c -> Option.map (fun g -> Decomp.Ghd g) (if Query.has_neqs c then None else Ghd.plan c) );
    ];
  if not (has st "hom.eval_us") then
    List.iter
      (fun (q, d) -> add st "hom.eval_us" (snd (once (fun () -> Eval.count ~cache:st.ecache q (fresh d)))))
      inputs;
  let plain = List.filter (fun (q, _) -> not (Query.has_neqs q)) inputs in
  if not (has st "server.intern_db_us") then
    List.iter
      (fun (_, d) -> add st "server.intern_db_us" (snd (once (fun () -> Cache.intern_db st.interned (fresh d)))))
      inputs;
  if not (has st "relational.db_parse_us") then
    List.iter
      (fun (_, d) ->
        let text = Encode.to_string d in
        add st "relational.db_parse_us" (snd (rep (fun () -> Encode.parse text))))
      inputs;
  if not (has st "server.evict_db_us") then
    List.iter
      (fun _ ->
        add st "server.evict_db_us"
          (snd (once (fun () -> Cache.evict_db (Router.cache st.router) ~name:"probe"))))
      inputs;
  (* a store holding the workload's databases, its queries registered;
     each write deletes a present fact and re-inserts it *)
  if not (has st "store.insert_us") then begin
    let s = Store.create () in
    List.iteri
      (fun i (q, d) ->
        let name = Printf.sprintf "probe%d" i in
        ignore (Store.db_create s ~name d);
        ignore (Store.register s ~name q);
        let facts =
          take 2 (Structure.fold_atoms (fun sym tup acc -> (sym, tup) :: acc) d [])
        in
        List.iter
          (fun (sym, tup) ->
            let r, t = once (fun () -> Store.db_delete s ~name sym tup) in
            add st "store.delete_us" t;
            let r', t' = once (fun () -> Store.db_insert s ~name sym tup) in
            add st "store.insert_us" t';
            List.iter
              (function
                | Store.Done m ->
                    st.maintained <- st.maintained + m.Store.maintained;
                    st.recomputed <- st.recomputed + m.Store.recomputed
                | _ -> ())
              [ r; r' ];
            add st "store.recount_us" (snd (once (fun () -> Eval.count q d))))
          facts;
        add st "store.counts_us" (snd (rep (fun () -> Store.counts s ~name))))
      (take 4 inputs)
  end;
  (* hunts: q against q↑2, which holds, so the search runs in full *)
  if not (has st "search.hunt_us") then
    List.iter
      (fun (q, _) ->
        ignore
          (hunt st ~samples:Gen.hunt_samples ~exhaustive_size:Gen.hunt_exhaustive ~seed:1
             (Ucq.of_disjuncts [ q ])
             (Ucq.of_disjuncts [ Query.power q 2 ])
             ~ucq:false))
      (take 4 plain);
  (* containment: q against a renamed copy, and q | q' against q *)
  if not (has st "reduction.set_contains_us") then
    List.iter
      (fun (q, _) ->
        let q' = Query.rename_vars (fun x -> x ^ "r") q in
        add st "reduction.set_contains_us"
          (snd (rep (fun () -> Containment.set_contains ~small:q ~big:q' ())));
        add st "reduction.bag_equivalent_us" (snd (rep (fun () -> Containment.bag_equivalent q q'))))
      (take 8 plain);
  if not (has st "reduction.ucq_hom_checks") then
    List.iter
      (fun (q, _) ->
        let q' = Query.rename_vars (fun x -> x ^ "r") q in
        let _, checks =
          Containment.ucq_set_contains_counted
            ~small:(Ucq.of_disjuncts [ q; q' ]) ~big:(Ucq.of_disjuncts [ q ]) ()
        in
        add st "reduction.ucq_hom_checks" (float_of_int checks))
      (take 8 plain)

(* ---------------- the traced run ---------------- *)

let read_spans file =
  let text = try Proc.read_file file with Sys_error _ -> "" in
  (try Sys.remove file with Sys_error _ -> ());
  List.filter_map
    (fun l ->
      match Json.parse l with
      | Ok j -> (
          match (Json.member "name" j, Json.member "start_ms" j, Json.member "dur_ms" j) with
          | Some (Json.Str n), Some s, Some d ->
              let f = function Json.Float x -> Some x | Json.Int n -> Some (float_of_int n) | _ -> None in
              Option.bind (f s) (fun s -> Option.map (fun d -> (n, s, d)) (f d))
          | _ -> None)
      | Error _ -> None)
    (String.split_on_char '\n' text)

let replay ~name ~seed ~budget_s =
  let st =
    {
      router = Router.create ();
      store = Store.create ();
      interned = Cache.create ();
      ecache = Eval.create_cache ();
      strategies = Hashtbl.create 64;
      samples = Hashtbl.create 64;
      shares = Hashtbl.create 16;
      probes = [];
      maintained = 0;
      recomputed = 0;
    }
  in
  let w = Gen.make name seed in
  List.iter (replay_line st ~record:false) w.Gen.preload;
  (* the first requests compile plans, as the server's warm-up did *)
  for _ = 1 to 32 do replay_line st ~record:false (w.Gen.next ()).Gen.line done;
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < budget_s && !n < 20_000 do
    replay_line st ~record:true (w.Gen.next ()).Gen.line;
    incr n
  done;
  probe st;
  (st, !n)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let per_layer ~exe ~name ~seed ~seconds =
  let half = Float.max 1. (seconds /. 2.) in
  let plain = Phase.run ~exe (Gen.make name seed) ~seconds:half in
  let file = Proc.tmp_file "trace.ndjson" in
  let traced = Phase.run ~exe ~trace:file (Gen.make name seed) ~seconds:half in
  let spans = read_spans file in
  let ok = Phase.answered traced.Phase.timed in
  let n = max 1 (List.length ok) in
  let lo = List.fold_left (fun m s -> Float.min m s.Loop.sent) infinity traced.Phase.timed *. 1000.
  and hi = List.fold_left (fun m s -> Float.max m s.Loop.got) 0. traced.Phase.timed *. 1000. in
  let span_ms =
    List.fold_left
      (fun acc (nm, s, d) ->
        if String.length nm > 4 && String.sub nm 0 4 = "req:" && s >= lo && s <= hi then acc +. d
        else acc)
      0. spans
  in
  let rtt_ms = List.fold_left (fun acc s -> acc +. Phase.ms s) 0. ok in
  let d k = Proc.delta traced.Phase.before traced.Phase.after k in
  let st, replayed = replay ~name ~seed ~budget_s:half in
  let med k = match Hashtbl.find_opt st.samples k with Some l -> Stats.median l | None -> 0. in
  let us k = (k, med k, "us") in
  let metrics =
    [
      us "wire.json_parse_us";
      us "wire.decode_us";
      us "wire.encode_us";
      ("wire.request_bytes", med "wire.request_bytes", "B");
      us "cq.parse_us";
      us "relational.db_parse_us";
      us "server.intern_db_us";
      ("server.result_hit_ratio", ratio (d "cache_result_hits") (d "cache_result_hits" + d "cache_result_misses"), "1");
      us "server.router_us";
      us "server.cache_key_us";
      us "server.result_memo_us";
      us "server.residual_us";
      ("server.queue_wait_share", 1. -. (span_ms /. Float.max 1e-9 rtt_ms), "1");
      us "server.evict_db_us";
      us "hom.factor_us";
      us "hom.choose_us";
      us "hom.index_build_us";
      us "hom.dp_us";
      us "hom.wcoj_us";
      us "hom.ghd_us";
      us "hom.eval_us";
      ("hom.plan_hit_ratio", ratio (d "cache_plan_hits") (d "cache_plan_hits" + d "cache_plan_misses"), "1");
      ("hom.wcoj_seeks", ratio (d "wcoj_seeks") n, "1/req");
      ("hom.ghd_bag_rows", ratio (d "ghd_bag_rows") n, "1/req");
      ("hom.index_builds", ratio (d "hom_index_builds") n, "1/req");
      us "bignum.combine_us";
      ("guard.ticks_per_req", ratio (d "server_budget_ticks") n, "1/req");
      us "store.insert_us";
      us "store.delete_us";
      ("store.maintained_ratio", ratio st.maintained (st.maintained + st.recomputed), "1");
      us "store.recount_us";
      us "store.counts_us";
      us "search.hunt_us";
      ("search.dbs_tested", med "search.dbs_tested", "count");
      us "search.eval_us_per_db";
      us "reduction.set_contains_us";
      us "reduction.bag_equivalent_us";
      ("reduction.ucq_hom_checks", med "reduction.ucq_hom_checks", "count");
      ("obs.trace_overhead_pct", 100. *. (Phase.throughput plain -. Phase.throughput traced) /. Phase.throughput plain, "%");
    ]
  in
  Phase.log "%s throughput: untraced %.1f/s, traced %.1f/s" name (Phase.throughput plain)
    (Phase.throughput traced);
  let router_total = Option.value ~default:0. (Hashtbl.find_opt st.shares "server.router_us") in
  Phase.log "%s per-layer (%d requests replayed in-process):" name replayed;
  Phase.print_metrics metrics;
  Phase.log "  share of summed server.router_us (%.0f us):" router_total;
  List.iter
    (fun (k, v) -> if k <> "server.router_us" then Phase.log "    %-52s %6.1f%%" k (100. *. v /. router_total))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.shares []));
  Phase.log "    %-52s %6.1f%% (median per request %.1f us)" "unattributed residual"
    (100. *. List.fold_left ( +. ) 0. (Option.value ~default:[] (Hashtbl.find_opt st.samples "server.residual_us")) /. router_total)
    (med "server.residual_us");
  let shed = Phase.shed plain + Phase.shed traced in
  if shed <> 0 then Phase.log "bagcq-bench: server shed %d requests in a closed loop" shed;
  let failed = plain.Phase.failed + traced.Phase.failed in
  let correct =
    failed = 0 && plain.Phase.untimed_failed + traced.Phase.untimed_failed = 0 && shed = 0
  in
  (correct, List.length plain.Phase.timed + List.length traced.Phase.timed, failed, metrics)
