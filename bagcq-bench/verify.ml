(* Off-the-clock verification of every reply.  A reply fails when it is
   missing, not ["ok"], echoes the wrong id, or carries a wrong answer:
   counts are recounted with {!Oracle}, containment and hunt verdicts are
   known by construction (hunt witnesses are re-checked with
   [Hunt.verified]), and store-churn replays acknowledged mutations on a
   mirror of every named database. *)

module Json = Bagcq_wire.Json
module Nat = Bagcq_bignum.Nat
module Hunt = Bagcq_search.Hunt
open Bagcq_cq

let str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let bool k j = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
let int k j = match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

let expect what ok = if ok then Ok () else Error what

let ( let* ) = Result.bind

let count_is j expected =
  expect "wrong count" (str "count" j = Some (Nat.to_string expected))

(* Mirror of the named databases: edge sets plus a version bumped on every
   acknowledged mutation, so recounts of one state are shared. *)
type mirror = {
  edges : (string, (int * int, unit) Hashtbl.t) Hashtbl.t;
  version : (string, int) Hashtbl.t;
  recounts : (string * int * string, Nat.t) Hashtbl.t;
}

let mirror (w : Gen.t) =
  let m =
    { edges = Hashtbl.create 8; version = Hashtbl.create 8; recounts = Hashtbl.create 256 }
  in
  List.iter
    (fun (name, es) ->
      let h = Hashtbl.create 512 in
      List.iter (fun e -> Hashtbl.replace h e ()) es;
      Hashtbl.replace m.edges name h;
      Hashtbl.replace m.version name 0)
    w.Gen.stores;
  m

let recount m db query =
  let key = (db, Hashtbl.find m.version db, query) in
  match Hashtbl.find_opt m.recounts key with
  | Some c -> c
  | None ->
      let es = Hashtbl.fold (fun e () acc -> e :: acc) (Hashtbl.find m.edges db) [] in
      let c = Oracle.count_text query es in
      Hashtbl.replace m.recounts key c;
      c

let check_counts m db j registered =
  match Json.member "counts" j with
  | Some (Json.List rows) ->
      let* () = expect "wrong number of registrations" (List.length rows = List.length registered) in
      List.fold_left
        (fun acc row ->
          let* () = acc in
          match str "query" row with
          | None -> Error "malformed counts row"
          | Some q -> count_is row (recount m db q))
        (Ok ()) rows
  | _ -> Error "missing counts"

let hunt_verdict ~small ~big ~violated ~ucq j =
  let* () = expect "wrong hunt verdict" (bool "violated" j = Some violated) in
  if not violated then Ok ()
  else
    match str "witness" j with
    | None -> Error "violation without a witness"
    | Some text ->
        let d = Bagcq_relational.Encode.parse_exn text in
        let ok =
          if ucq then
            Hunt.ucq_verified ~small:(Parse.parse_ucq_exn small)
              ~big:(Parse.parse_ucq_exn big) d
          else Hunt.verified ~small:(Parse.parse_exn small) ~big:(Parse.parse_exn big) d
        in
        expect "witness does not re-verify" ok

let check_one m registered (req : Gen.request) j =
  let* () = expect ("status " ^ Option.value ~default:"?" (str "status" j)) (str "status" j = Some "ok") in
  let* () =
    expect "id not echoed"
      (Json.member "id" j = Json.member "id" (Json.parse_exn req.Gen.line))
  in
  match req.Gen.check with
  | Gen.Count { query; edges } -> count_is j (Oracle.count_text query edges)
  | Gen.Ucq_count { query; edges } -> count_is j (Oracle.count_ucq_text query edges)
  | Gen.Contain { set_contains; bag_equivalent } ->
      expect "wrong containment verdict"
        (bool "set_contains" j = Some set_contains
        && bool "bag_equivalent" j = Some bag_equivalent)
  | Gen.Hunt { small; big; violated; ucq } -> hunt_verdict ~small ~big ~violated ~ucq j
  | Gen.Write { db; fact; add } ->
      let h = Hashtbl.find m.edges db in
      if add then Hashtbl.replace h fact () else Hashtbl.remove h fact;
      Hashtbl.replace m.version db (Hashtbl.find m.version db + 1);
      expect "atom count disagrees with the mirror" (int "atoms" j = Some (Hashtbl.length h))
  | Gen.Read_eval { db; query } -> count_is j (recount m db query)
  | Gen.Read_counts { db } -> check_counts m db j registered

type result = { failed : int; first_error : string option }

(* [samples] must be in send order per connection (store-churn mutations
   are replayed on the mirror in that order); a connection owns its named
   databases, so cross-connection order does not matter. *)
let check (w : Gen.t) m (samples : Loop.sample list) =
  let failed = ref 0 and first = ref None in
  List.iter
    (fun (s : Loop.sample) ->
      let outcome =
        match s.Loop.reply with
        | None -> Error "unanswered"
        | Some r -> (
            match Json.parse r with
            | Error e -> Error ("unparseable reply: " ^ e)
            | Ok j -> (
                try check_one m w.Gen.registered s.Loop.req j
                with e -> Error ("verifier raised " ^ Printexc.to_string e)))
      in
      match outcome with
      | Ok () -> ()
      | Error e ->
          incr failed;
          if !first = None then first := Some (e ^ " on " ^ s.Loop.req.Gen.line))
    samples;
  { failed = !failed; first_error = !first }
