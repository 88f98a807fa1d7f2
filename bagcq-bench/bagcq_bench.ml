(* bagcq-bench: end-to-end and per-layer benchmark of the bagcq query
   service.

   Usage (from the root of a checkout, after building):
     bagcq_bench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1
     bagcq_bench.exe --server PATH --workload all --seed N --seconds S

   With --trace 0 it starts [bagcq serve --port 0 --jobs 2], drives the
   workload closed-loop over two TCP connections for S seconds, verifies
   every reply, and prints the end-to-end metrics.  With --trace 1 it runs
   the workload on an untraced and on a traced server (S/2 each), replays
   the traced requests in-process through each layer's public functions,
   and prints the per-layer metrics.  The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

module Json = Bagcq_wire.Json

(* setup_s is the median of this many spawn-to-ready-plus-preload runs *)
let setup_reps = 7

let log = Phase.log

(* ---------------- --trace 0: end-to-end ---------------- *)

let end_to_end ~exe ~name ~seed ~seconds =
  let setups =
    List.init setup_reps (fun _ -> Phase.setup ~exe (Gen.make name seed))
  in
  (* keep the last server for the measured run, stop the others *)
  let live = List.nth setups (setup_reps - 1) in
  List.iter (fun p -> if p != live then Phase.teardown p) setups;
  let setup_s = Stats.median (List.map (fun (p : Phase.live) -> p.Phase.setup_s) setups) in
  let m = Phase.run ~exe ~live (Gen.make name seed) ~seconds in
  let ok = Phase.answered m.Phase.timed in
  let n = List.length ok in
  let attempted = List.length m.Phase.timed in
  let shed = Phase.shed m in
  let lat = List.map Phase.ms ok in
  let checked = Stats.self_check lat in
  if shed <> 0 then log "bagcq-bench: server shed %d requests in a closed loop" shed;
  if not checked then log "bagcq-bench: quantile self-check failed";
  let correct = m.Phase.failed = 0 && m.Phase.untimed_failed = 0 && shed = 0 && checked in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ( "cpu_ms_per_req",
        Phase.per_round m (fun r ->
            r.Phase.cpu_ms /. float_of_int (max 1 (List.length (Phase.answered r.Phase.samples)))),
        "ms" );
      ("peak_rss_mb", m.Phase.rss_mb, "MB");
    ]
  in
  (* Informational, printed beside the JSON metrics.  Throughput and
     latency are what a client sees, but on a shared two-vCPU machine host
     steal time moved them by up to 2x between runs minutes apart, so they
     would make a flaky regression gate; op-class latencies apply to some
     workloads only, and failed_frac is 0 when all is well. *)
  let cls c = List.map Phase.ms (List.filter (fun s -> s.Loop.req.Gen.cls = c) ok) in
  let extra =
    ("throughput_rps", Phase.throughput m, "1/s")
    :: ("latency_p50_ms", Stats.quantile lat 0.5, "ms")
    :: ("latency_p99_ms", Stats.quantile lat 0.99, "ms")
    :: ("failed_frac", float_of_int m.Phase.failed /. float_of_int (max 1 attempted), "1")
    :: List.concat_map
         (fun (c, qs) ->
           match cls c with
           | [] -> []
           | l -> List.map (fun (nm, q) -> (nm, Stats.quantile l q, "ms")) qs)
         [
           ("read", [ ("read_p50_ms", 0.5); ("read_p99_ms", 0.99) ]);
           ("write", [ ("write_p50_ms", 0.5); ("write_p99_ms", 0.99) ]);
           ("hunt", [ ("hunt_p50_ms", 0.5) ]);
           ("contain", [ ("contain_p50_ms", 0.5) ]);
         ]
  in
  log "%s (%d timed requests):" name n;
  Phase.print_metrics (metrics @ extra);
  (correct, attempted, m.Phase.failed, metrics)

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
             metrics) );
    ]

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: bagcq_bench.exe --server PATH --workload NAME|all --seed N --seconds S [--trace 0|1]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let exe = get "server" in
  let name = get "workload" in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace = match List.assoc_opt "trace" o with None | Some "0" -> false | Some "1" -> true | _ -> usage () in
  if not (Sys.file_exists exe) then (prerr_endline ("bagcq-bench: no server binary at " ^ exe); exit 2);
  if name <> "all" && not (List.mem name Gen.names) then usage ();
  if seconds < 1. then usage ();
  (* servers are stopped and reaped on every way out, signals included *)
  at_exit Proc.stop_all;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let one name =
    let correct, attempted, failed, metrics =
      if trace then Layers.per_layer ~exe ~name ~seed ~seconds
      else end_to_end ~exe ~name ~seed ~seconds
    in
    result ~correct ~attempted ~failed metrics
  in
  print_endline
    (Json.to_string
       (if name = "all" then Json.Obj (List.map (fun n -> (n, one n)) Gen.names) else one name))
