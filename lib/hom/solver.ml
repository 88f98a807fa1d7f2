open Bagcq_relational
module StringMap = Map.Make (String)
module Metrics = Bagcq_obs.Metrics

type assignment = Value.t StringMap.t

exception Stop

(* A plan resolved against one structure: one join level per atom, then
   one per ≠-only variable ranging over the codes of the active domain,
   and a frame whose last slots hold the ≠ constants' codes.  A constant
   interpreted outside the active domain codes to [no_code], which no
   bound slot holds, so its filters pass.  Raises [Unsat_const] when there
   is no homomorphism at all: an uninterpreted constant, or [c ≠ c']
   between equally interpreted constants — decided on values, because
   two distinct constants outside the domain share [no_code]. *)
let instantiate (plan : Plan.t) d =
  let interp c =
    match Structure.interpretation d c with
    | Some v -> v
    | None -> raise_notrace Jointree.Unsat_const
  in
  List.iter
    (fun (c, c') ->
      if Value.equal (interp c) (interp c') then raise_notrace Jointree.Unsat_const)
    plan.cst_neqs;
  let idx = Index.get d in
  let code = Jointree.index_code idx in
  let nvars = Plan.nvars plan in
  let env = Array.make (nvars + Array.length plan.neq_consts) Jointree.no_code in
  Array.iteri (fun i c -> env.(nvars + i) <- code (interp c)) plan.neq_consts;
  let ops = Array.map (fun (s : Plan.step) -> Jointree.resolve code d s.pat) plan.steps in
  let nsteps = Array.length plan.steps in
  let atom_level l s =
    { Plan.rows = Plan.scan idx s ops.(l); ops = ops.(l); neqs = plan.neqs.(l) }
  in
  let free_levels =
    if plan.nfree = 0 then [||]
    else begin
      let codes = Array.init (Array.length (Index.domain idx)) (fun c -> [| c |]) in
      Array.init plan.nfree (fun k ->
          {
            Plan.rows = (fun _ -> codes);
            ops = [| Jointree.Op_bind (nvars - plan.nfree + k) |];
            neqs = plan.neqs.(nsteps + k);
          })
    end
  in
  (Array.append (Array.mapi atom_level plan.steps) free_levels, env, Index.domain idx)

(* Kernel metrics are batched: the hot tick closure bumps a local ref and
   one atomic add lands the total when the run finishes (normally or by
   Stop/Exhausted_ unwinding) — per-probe atomics would contend across
   domains and blow the EXP-OBS overhead budget. *)
let solver_runs = Metrics.counter Metrics.global "hom_solver_runs"
let solver_probes = Metrics.counter Metrics.global "hom_solver_probes"

(* One tick per candidate row tried at an atom and per domain value tried
   for a ≠-only variable. *)
let run ?budget (levels, env, _) emit =
  Metrics.incr solver_runs;
  let work = ref 0 in
  let tick =
    match (budget, Metrics.is_enabled ()) with
    | None, false -> fun () -> ()
    | None, true -> fun () -> incr work
    | Some b, _ ->
        fun () ->
          incr work;
          Bagcq_guard.Budget.tick b
  in
  Fun.protect
    ~finally:(fun () -> Metrics.add solver_probes !work)
    (fun () -> Plan.join ~tick levels env emit)

let count_plan ?budget plan d =
  match instantiate plan d with
  | exception Jointree.Unsat_const -> 0
  | inst ->
      let n = ref 0 in
      run ?budget inst (fun () -> incr n);
      !n

let exists_plan ?budget plan d =
  match instantiate plan d with
  | exception Jointree.Unsat_const -> false
  | inst -> (
      try
        run ?budget inst (fun () -> raise_notrace Stop);
        false
      with Stop -> true)

(* Codes are decoded to values only here, once per emitted assignment. *)
let iter_plan ?budget f (plan : Plan.t) d =
  match instantiate plan d with
  | exception Jointree.Unsat_const -> ()
  | (_, env, domain) as inst ->
      run ?budget inst (fun () ->
          let m = ref StringMap.empty in
          Array.iteri (fun i x -> m := StringMap.add x domain.(env.(i)) !m) plan.var_names;
          f !m)

let count ?budget q d = count_plan ?budget (Plan.compile q) d
let exists ?budget q d = exists_plan ?budget (Plan.compile q) d
let iter ?budget f q d = iter_plan ?budget f (Plan.compile q) d

let enumerate ?budget ?limit q d =
  let out = ref [] and n = ref 0 in
  (try
     iter ?budget
       (fun env ->
         out := env :: !out;
         incr n;
         match limit with Some l when !n >= l -> raise_notrace Stop | _ -> ())
       q d
   with Stop -> ());
  List.rev !out

let fold ?budget f init q d =
  let acc = ref init in
  iter ?budget (fun env -> acc := f !acc env) q d;
  !acc
