(* Recording is Atomic-only; the registry mutex guards creation and
   [rows] snapshots.  The enable switch is itself an Atomic read on every
   record — one load, no fence on x86 — so the disabled registry really
   is a branch-and-return (what EXP-OBS measures against). *)

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* ---------------- counters ---------------- *)

type counter = int Atomic.t

let fresh_counter () = Atomic.make 0
let incr c = if Atomic.get enabled then ignore (Atomic.fetch_and_add c 1)

let add c n =
  if n <> 0 && Atomic.get enabled then ignore (Atomic.fetch_and_add c n)

let counter_value = Atomic.get

(* ---------------- gauges ---------------- *)

type gauge = int Atomic.t

let fresh_gauge () = Atomic.make 0
let gauge_set g v = if Atomic.get enabled then Atomic.set g v
let gauge_add g n = if Atomic.get enabled then ignore (Atomic.fetch_and_add g n)
let gauge_value = Atomic.get

(* ---------------- histograms ---------------- *)

(* [bounds] are strictly-increasing upper edges in ms; [buckets] has one
   extra overflow slot.  Sums and the max are kept in integer nanoseconds
   so they can live in atomics (63-bit ints absorb ~292 years of summed
   latency before overflow). *)
type histogram = {
  bounds : float array;
  buckets : counter array;
  sum_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

let default_latency_buckets_ms =
  [|
    0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.;
    25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000.;
  |]

let fresh_histogram ?(buckets = default_latency_buckets_ms) () =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) || b <= 0. then
        invalid_arg "Metrics.histogram: bucket bounds must be positive";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    buckets;
  {
    bounds = Array.copy buckets;
    buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
    sum_ns = Atomic.make 0;
    max_ns = Atomic.make 0;
  }

(* Index of the first bound >= v, or the overflow slot. *)
let bucket_index h v =
  let bounds = h.bounds in
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let rec store_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

let observe_ms h v =
  if Atomic.get enabled then begin
    let v = if Float.is_finite v && v > 0. then v else 0. in
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index h v) 1);
    let ns = int_of_float (v *. 1e6) in
    ignore (Atomic.fetch_and_add h.sum_ns ns);
    store_max h.max_ns ns
  end

let time h f =
  let t0 = Clock.now_ms () in
  Fun.protect ~finally:(fun () -> observe_ms h (Clock.elapsed_ms t0)) f

type summary = {
  count : int;
  sum_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* Quantiles from a snapshot of the bucket counts: the upper edge of the
   bucket containing rank ceil(q * count), clamped to the observed max —
   no observation exceeds it, so neither may a quantile (the overflow
   bucket, whose edge is infinite, reports the max itself). *)
let quantiles_of h qs =
  let counts = Array.map Atomic.get h.buckets in
  let count = Array.fold_left ( + ) 0 counts in
  let max_ms = float_of_int (Atomic.get h.max_ns) /. 1e6 in
  let quantile q =
    if count = 0 then 0.
    else begin
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      let i = ref 0 and cum = ref counts.(0) in
      while !cum < rank do
        Stdlib.incr i;
        cum := !cum + counts.(!i)
      done;
      if !i >= Array.length h.bounds then max_ms else Float.min h.bounds.(!i) max_ms
    end
  in
  (count, max_ms, List.map quantile qs)

let quantile_ms h q =
  match quantiles_of h [ q ] with _, _, [ v ] -> v | _ -> assert false

let summary h =
  match quantiles_of h [ 0.5; 0.95; 0.99 ] with
  | count, max_ms, [ p50_ms; p95_ms; p99_ms ] ->
      {
        count;
        sum_ms = float_of_int (Atomic.get h.sum_ns) /. 1e6;
        p50_ms;
        p95_ms;
        p99_ms;
        max_ms;
      }
  | _ -> assert false

(* ---------------- the registry ---------------- *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of summary

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type key = string * (string * string) list

type t = { mutex : Mutex.t; tbl : (key, metric) Hashtbl.t }

let create () = { mutex = Mutex.create (); tbl = Hashtbl.create 32 }
let global = create ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let canon labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name existing)
       wanted)

let counter ?(labels = []) t name =
  let key = (name, canon labels) in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (M_counter c) -> c
      | Some m -> mismatch name m "counter"
      | None ->
          let c = fresh_counter () in
          Hashtbl.add t.tbl key (M_counter c);
          c)

let register_counter ?(labels = []) t name c =
  let key = (name, canon labels) in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (M_counter c') when c' == c -> ()
      | Some m -> mismatch name m "counter (already registered)"
      | None -> Hashtbl.add t.tbl key (M_counter c))

let gauge ?(labels = []) t name =
  let key = (name, canon labels) in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (M_gauge g) -> g
      | Some m -> mismatch name m "gauge"
      | None ->
          let g = fresh_gauge () in
          Hashtbl.add t.tbl key (M_gauge g);
          g)

let histogram ?(labels = []) ?buckets t name =
  let key = (name, canon labels) in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (M_histogram h) -> h
      | Some m -> mismatch name m "histogram"
      | None ->
          let h = fresh_histogram ?buckets () in
          Hashtbl.add t.tbl key (M_histogram h);
          h)

(* ---------------- dumping ---------------- *)

type row = { name : string; labels : (string * string) list; value : value }

let rows t =
  let entries =
    locked t (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.tbl [])
  in
  entries
  |> List.map (fun ((name, labels), m) ->
         let value =
           match m with
           | M_counter c -> Counter_v (counter_value c)
           | M_gauge g -> Gauge_v (gauge_value g)
           | M_histogram h -> Histogram_v (summary h)
         in
         { name; labels; value })
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let render_labels = function
  | [] -> ""
  | labels ->
      String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let render_value = function
  | Counter_v n | Gauge_v n -> string_of_int n
  | Histogram_v s ->
      Printf.sprintf
        "count=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms sum=%.3fms"
        s.count s.p50_ms s.p95_ms s.p99_ms s.max_ms s.sum_ms

let render_table rows =
  let name_w =
    List.fold_left (fun w r -> Stdlib.max w (String.length r.name)) 6 rows
  in
  let label_w =
    List.fold_left
      (fun w r -> Stdlib.max w (String.length (render_labels r.labels)))
      6 rows
  in
  let line r =
    Printf.sprintf "%-*s  %-*s  %s" name_w r.name label_w
      (render_labels r.labels) (render_value r.value)
  in
  String.concat "\n"
    (Printf.sprintf "%-*s  %-*s  %s" name_w "name" label_w "labels" "value"
    :: List.map line rows)
