(* The closed loop: each connection sends its next request only after the
   reply to the previous one arrived.  Replies are stored raw and parsed
   after the clock stops, so the client adds as little as possible to the
   measured path. *)

type sample = { req : Gen.request; sent : float; got : float; reply : string option }
(** [reply = None]: the connection closed or stalled before answering. *)

type run = {
  samples : sample array;  (** in completion order *)
  elapsed : float;  (** seconds from the first send to the last reply *)
}

(* How long any one request may go unanswered before the run gives up on
   it; keeps the harness inside its time limit if the server hangs. *)
let stall_limit = 60.

(* Sends for [seconds], or until [limit] requests were sent.  [at = (k, f)]
   calls [f] once, off the clock, when the [k]-th reply has arrived. *)
let run ?(limit = max_int) ?at (conns : Proc.conn array) (queues : Gen.request Queue.t array)
    ~seconds =
  let n = Array.length conns in
  let inflight = Array.make n None in
  let out = ref [] and sent_n = ref 0 and got_n = ref 0 in
  let t0 = Proc.now () in
  let deadline = t0 +. seconds in
  let last = ref t0 in
  let start i =
    if !sent_n < limit then
      match Queue.take_opt queues.(i) with
      | None -> ()
      | Some r ->
          incr sent_n;
          inflight.(i) <- Some (r, Proc.now ());
          Proc.send conns.(i) r.Gen.line
  in
  let finish i reply =
    match inflight.(i) with
    | None -> ()
    | Some (req, sent) ->
        let got = Proc.now () in
        last := got;
        inflight.(i) <- None;
        out := { req; sent; got; reply } :: !out;
        incr got_n;
        (match at with Some (k, f) when k = !got_n -> f () | _ -> ());
        if reply <> None && got < deadline then start i
  in
  for i = 0 to n - 1 do start i done;
  let rec loop () =
    let busy = List.filter (fun i -> inflight.(i) <> None) (List.init n Fun.id) in
    if busy <> [] then begin
      let fds = List.map (fun i -> conns.(i).Proc.fd) busy in
      let ready =
        match Unix.select fds [] [] stall_limit with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fds
      in
      if ready = [] then List.iter (fun i -> finish i None) busy
      else
        List.iter
          (fun i ->
            let c = conns.(i) in
            if List.mem c.Proc.fd ready then
              match Proc.take_line c with
              | Some l -> finish i (Some l)
              | None -> (
                  match Proc.fill c with
                  | true -> Option.iter (fun l -> finish i (Some l)) (Proc.take_line c)
                  | false -> finish i None
                  | exception Unix.Unix_error _ -> finish i None))
          busy;
      loop ()
    end
  in
  loop ();
  { samples = Array.of_list (List.rev !out); elapsed = !last -. t0 }

(* A workload stream dealt round-robin: request [i] goes to connection
   [i mod n], whichever phase sends it.  Requests left queued after the
   warm-up are sent first in the timed phase, so a connection's requests
   reach the server in generation order (the store-churn mirror relies on
   it). *)
type stream = { w : Gen.t; queues : Gen.request Queue.t array; mutable dealt : int }

let stream w ~conns = { w; queues = Array.init conns (fun _ -> Queue.create ()); dealt = 0 }

let top_up s count =
  for _ = 1 to count do
    Queue.add (s.w.Gen.next ()) s.queues.(s.dealt mod Array.length s.queues);
    s.dealt <- s.dealt + 1
  done
