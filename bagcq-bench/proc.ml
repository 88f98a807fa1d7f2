(* The server under test as a child process, started the way users start
   it ([bagcq serve --port 0 --jobs 2]), and NDJSON connections to it. *)

module Json = Bagcq_wire.Json

type server = { pid : int; port : int; log : string }

let now () = Unix.gettimeofday ()

(* Temporary files live under the checkout's build directory, never
   outside it. *)
let tmp_dir = Filename.concat "_build" "bagcq-bench"

let tmp_file name =
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat tmp_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)

let live : server list ref = ref []

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The listening line is the readiness signal; the server's stderr goes to
   a file so nothing it prints can ever block it on a full pipe. *)
let spawned = ref 0

let spawn ~exe ?trace () =
  incr spawned;
  let log = tmp_file (Printf.sprintf "server%d.log" !spawned) in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ exe; "serve"; "--port"; "0"; "--jobs"; "2" ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr err
  in
  Unix.close err;
  let deadline = now () +. 30. in
  let rec wait_port () =
    let text = try read_file log with Sys_error _ -> "" in
    match
      Scanf.sscanf_opt text "bagcq: listening on 127.0.0.1:%d" Fun.id
    with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("server exited before listening: " ^ text));
        if now () > deadline then failwith "server did not start listening";
        Unix.sleepf 0.0005;
        wait_port ()
  in
  let s = { pid; port = wait_port (); log } in
  live := s :: !live;
  s

(* SIGTERM starts the server's graceful drain; wait for it to exit so its
   trace sink is flushed and no process outlives the harness. *)
let stop s =
  if List.memq s !live then begin
    live := List.filter (fun x -> x != s) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec reap () =
      try ignore (Unix.waitpid [] s.pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    try Sys.remove s.log with Sys_error _ -> ()
  end

let stop_all () = List.iter stop !live

(* ---------------- /proc ---------------- *)

(* utime + stime of every thread of the process, in milliseconds
   (/proc reports clock ticks of 1/100 s). *)
let cpu_ms s =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" s.pid) in
  let after = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields after the command name start at field 3 (state) *)
  float_of_string f.(11) *. 10. +. float_of_string f.(12) *. 10.

let peak_rss_mb s =
  let status = read_file (Printf.sprintf "/proc/%d/status" s.pid) in
  let kb =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> failwith "no VmHWM"

(* ---------------- connections ---------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* One complete line out of the buffer, if there is one. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

(* Read what is available; [false] when the peer closed. *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  Buffer.add_subbytes c.buf c.chunk 0 n;
  n > 0

let rec recv c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then recv c else failwith "server closed the connection"

let call c line =
  send c line;
  recv c

let call_json c fields = Json.parse_exn (call c (Json.to_string (Json.Obj fields)))

(* The server's [metrics] dump, flattened to "name{k=v,...}" -> value for
   counters and gauges. *)
let metrics c =
  match Json.member "metrics" (call_json c [ ("op", Json.Str "metrics") ]) with
  | Some (Json.List rows) ->
      List.filter_map
        (fun r ->
          match (Json.member "name" r, Json.member "labels" r, Json.member "value" r) with
          | Some (Json.Str n), Some (Json.Obj labels), Some (Json.Int v) ->
              let l =
                List.map
                  (fun (k, v) -> match v with Json.Str s -> k ^ "=" ^ s | _ -> k)
                  labels
              in
              let key = if l = [] then n else n ^ "{" ^ String.concat "," l ^ "}" in
              Some (key, v)
          | _ -> None)
        rows
  | _ -> failwith "metrics: malformed reply"

let delta before after key =
  let get m = Option.value ~default:0 (List.assoc_opt key m) in
  get after - get before
