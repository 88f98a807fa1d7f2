module Eval = Bagcq_hom.Eval
module Json = Bagcq_wire.Json
module Metrics = Bagcq_obs.Metrics
module Encode = Bagcq_relational.Encode

type entry = { fields : (string * Json.t) list; mutable gen : int }

type t = {
  mutex : Mutex.t;
  eval_cache : Eval.cache;
  results : (string, entry) Hashtbl.t;
  max_results : int;
  mutable clock : int;
  structures : (string, Bagcq_relational.Structure.t) Hashtbl.t;
  result_hits : Metrics.counter;
  result_misses : Metrics.counter;
  result_evicted : Metrics.counter;
}

let default_max_results = 1024

(* The hit/miss tallies live on Obs counters so one set of cells feeds
   both the [stats] compat view and a metrics dump.  [?metrics] names
   them (and the shared eval cache's counters) in a registry at creation
   time; recording never touches the registry. *)
let create ?(max_results = default_max_results) ?metrics () =
  if max_results < 1 then invalid_arg "Cache.create: max_results must be >= 1";
  let eval_cache = Eval.create_cache () in
  let result_hits = Metrics.fresh_counter () in
  let result_misses = Metrics.fresh_counter () in
  let result_evicted = Metrics.fresh_counter () in
  (match metrics with
  | None -> ()
  | Some reg ->
      Metrics.register_counter reg "cache_result_hits" result_hits;
      Metrics.register_counter reg "cache_result_misses" result_misses;
      Metrics.register_counter reg "server_cache_evicted" result_evicted;
      List.iter
        (fun (name, c) -> Metrics.register_counter reg ("cache_" ^ name) c)
        (Eval.cache_counters eval_cache));
  {
    mutex = Mutex.create ();
    eval_cache;
    results = Hashtbl.create 64;
    max_results;
    clock = 0;
    structures = Hashtbl.create 16;
    result_hits;
    result_misses;
    result_evicted;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let with_eval t f = locked t (fun () -> f t.eval_cache)

(* [Proto] decodes every request's database text into a fresh
   [Structure.t], and everything the evaluator memoises on a structure —
   the columnar index in its memo slot, [Eval]'s per-structure count
   memo — keys on physical identity.  Interning by canonical re-encoding
   makes repeated requests against the same database share one physical
   structure, so those memos actually hit across requests. *)
let intern_db t d =
  let key = Encode.to_string d in
  locked t (fun () ->
      match Hashtbl.find_opt t.structures key with
      | Some d' -> d'
      | None ->
          (* bounded by the result cap: a full table is dropped wholesale,
             which costs later requests one re-intern (and index build)
             each, never a wrong answer *)
          if Hashtbl.length t.structures >= t.max_results then
            Hashtbl.reset t.structures;
          Hashtbl.add t.structures key d;
          d)

let interned t = locked t (fun () -> Hashtbl.length t.structures)

let find_result t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.results key with
      | Some e ->
          t.clock <- t.clock + 1;
          e.gen <- t.clock;
          Metrics.incr t.result_hits;
          Some e.fields
      | None ->
          Metrics.incr t.result_misses;
          None)

(* Least-recently-used entry by linear scan.  O(entries) only on the
   eviction path, which fires once per store past the cap — the find/hit
   path stays O(1).  At the default cap the scan is microseconds; a
   generation heap would buy nothing measurable. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, g) when g <= e.gen -> acc
        | _ -> Some (key, e.gen))
      t.results None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.results key;
      Metrics.incr t.result_evicted
  | None -> ()

let store_result t key fields =
  locked t (fun () ->
      if not (Hashtbl.mem t.results key) then begin
        if Hashtbl.length t.results >= t.max_results then evict_lru t;
        t.clock <- t.clock + 1;
        Hashtbl.add t.results key { fields; gen = t.clock }
      end)

(* Canonical request keys are [Json.to_string] objects, so a key that
   references the named database contains exactly this substring (the
   name re-escaped the same way it was when the key was built). *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec same i j = j = nl || (hay.[i + j] = needle.[j] && same i (j + 1)) in
  let rec at i = i + nl <= hl && (same i 0 || at (i + 1)) in
  nl = 0 || at 0

let evict_db t ~name =
  let needle = Printf.sprintf "\"db_name\": %s" (Json.to_string (Json.Str name)) in
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun key _ acc -> if contains ~needle key then key :: acc else acc)
          t.results []
      in
      List.iter
        (fun key ->
          Hashtbl.remove t.results key;
          Metrics.incr t.result_evicted)
        doomed;
      List.length doomed)

type stats = {
  result_hits : int;
  result_misses : int;
  result_entries : int;
  result_evicted : int;
  plan_hits : int;
  plan_misses : int;
  count_hits : int;
  count_misses : int;
}

let stats t =
  locked t (fun () ->
      let e = Eval.cache_stats t.eval_cache in
      {
        result_hits = Metrics.counter_value t.result_hits;
        result_misses = Metrics.counter_value t.result_misses;
        result_entries = Hashtbl.length t.results;
        result_evicted = Metrics.counter_value t.result_evicted;
        plan_hits = e.Eval.plan_hits;
        plan_misses = e.Eval.plan_misses;
        count_hits = e.Eval.count_hits;
        count_misses = e.Eval.count_misses;
      })
