(* One measured phase against a fresh server: setup, warm-up, timed
   closed loop, final reads, verification. *)

module Json = Bagcq_wire.Json

let conns = 2

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The human-readable table on standard error: name, value, unit. *)
let print_metrics = List.iter (fun (k, v, u) -> log "  %-28s %14.4f %s" k v u)

type live = { server : Proc.server; links : Proc.conn array; setup_s : float }

(* Spawn, wait for the listening line, connect, run the preload. *)
let setup ~exe ?trace (w : Gen.t) =
  let t0 = Proc.now () in
  let server = Proc.spawn ~exe ?trace () in
  let links = Array.init conns (fun _ -> Proc.connect server) in
  List.iter
    (fun l ->
      let r = Json.parse_exn (Proc.call links.(0) l) in
      if Verify.str "status" r <> Some "ok" then failwith ("preload failed: " ^ l))
    w.Gen.preload;
  { server; links; setup_s = Proc.now () -. t0 }

let teardown p =
  Array.iter Proc.close p.links;
  Proc.stop p.server

(* Keep enough pre-generated requests queued for [seconds] at [rate]
   (with room for the rate to triple), so a timed round never waits on
   the generator. *)
let fill (st : Loop.stream) ~rate ~seconds =
  let queued = Array.fold_left (fun a q -> a + Queue.length q) 0 st.Loop.queues in
  Loop.top_up st (max 0 (int_of_float (3. *. rate *. seconds) + 64 - queued))

let rate (r : Loop.run) =
  float_of_int (Array.length r.Loop.samples) /. Float.max 1e-3 r.Loop.elapsed

(* Warm up on a fixed number of requests (plans compiled, lazy state
   built, the request rate known), within half the run's length. *)
let warm_up (st : Loop.stream) p ~seconds =
  Loop.top_up st st.Loop.w.Gen.warm;
  Loop.run ~limit:st.Loop.w.Gen.warm p.links st.Loop.queues ~seconds:(seconds /. 2.)

(* The final state of every named database, read off the clock. *)
let final_reads (w : Gen.t) p =
  List.map
    (fun (name, _) ->
      let req =
        {
          Gen.line =
            Json.to_string (Json.Obj [ ("op", Json.Str "counts"); ("name", Json.Str name) ]);
          cls = "read";
          check = Gen.Read_counts { db = name };
        }
      in
      let t = Proc.now () in
      { Loop.req; sent = t; got = t; reply = Some (Proc.call p.links.(0) req.Gen.line) })
    w.Gen.stores

let ms (s : Loop.sample) = (s.Loop.got -. s.Loop.sent) *. 1000.

(* The timed phase runs as [rounds] back-to-back rounds of equal length on
   the same server: throughput and CPU per request are medians over
   rounds, so a burst of outside load during one round does not move
   them. *)
let rounds = 5

type round = {
  samples : Loop.sample list;
  elapsed : float;  (** seconds from the round's first send to its last reply *)
  cpu_ms : float;  (** server user+sys CPU over the round *)
}

type t = {
  setup_s : float;
  timed : Loop.sample list;  (** every round, in send order *)
  rounds : round list;
  failed : int;  (** timed requests not answered correctly *)
  untimed_failed : int;  (** warm-up and final-state failures *)
  before : (string * int) list;  (** server metrics at the start of the timed run *)
  after : (string * int) list;
  rss_mb : float;  (** server VmHWM once [work] timed requests were answered *)
}

let by_send l = List.stable_sort (fun a b -> compare a.Loop.sent b.Loop.sent) l

(* [live] is a server already set up for [w] (a fresh one is started when
   absent). *)
let run ~exe ?trace ?live (w : Gen.t) ~seconds =
  let p = match live with Some p -> p | None -> setup ~exe ?trace w in
  let st = Loop.stream w ~conns in
  let warm = warm_up st p ~seconds in
  let round_s = seconds /. float_of_int rounds in
  let before = Proc.metrics p.links.(0) in
  let top = ref (rate warm) in
  let rss = ref None and to_go = ref w.Gen.work in
  let read_rss () = rss := Some (Proc.peak_rss_mb p.server) in
  let rs =
    List.init rounds (fun _ ->
        fill st ~rate:!top ~seconds:round_s;
        let cpu0 = Proc.cpu_ms p.server in
        let r = Loop.run ~at:(!to_go, read_rss) p.links st.Loop.queues ~seconds:round_s in
        to_go := !to_go - Array.length r.Loop.samples;
        top := Float.max !top (rate r);
        {
          samples = Array.to_list r.Loop.samples;
          elapsed = r.Loop.elapsed;
          cpu_ms = Proc.cpu_ms p.server -. cpu0;
        })
  in
  let after = Proc.metrics p.links.(0) in
  let rss_mb = match !rss with Some v -> v | None -> Proc.peak_rss_mb p.server in
  let finals = final_reads w p in
  teardown p;
  let m = Verify.mirror w in
  let timed = by_send (List.concat_map (fun r -> r.samples) rs) in
  let v_warm = Verify.check w m (by_send (Array.to_list warm.Loop.samples)) in
  let v_timed = Verify.check w m timed in
  let v_final = Verify.check w m finals in
  List.iter
    (fun v -> Option.iter (log "bagcq-bench: verification failure: %s") v.Verify.first_error)
    [ v_warm; v_timed; v_final ];
  {
    setup_s = p.setup_s;
    timed;
    rounds = rs;
    failed = v_timed.Verify.failed;
    untimed_failed = v_warm.Verify.failed + v_final.Verify.failed;
    before;
    after;
    rss_mb;
  }

let answered l = List.filter (fun s -> s.Loop.reply <> None) l

(* Median over rounds of a per-round figure. *)
let per_round t f = Stats.median (List.map f t.rounds)

let throughput t =
  per_round t (fun r -> float_of_int (List.length (answered r.samples)) /. r.elapsed)
let shed t = Proc.delta t.before t.after "server_shed"
