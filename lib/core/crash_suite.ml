(* Exhaustive crash-point campaign over one litmus test.

   A crash suite is the persistency analogue of a run campaign: one task
   per crash point instead of one per seeded run.  Each point is
   evaluated by the operational crash-point executor; the per-point
   record is the journal's record type, so a resumed suite prints from
   journaled records and a clean suite from freshly computed ones, and
   the two stdout streams are byte-identical.

   Crash-point evaluation is fully deterministic (no RNG: the reachable
   images are an exhaustive enumeration), so resume needs no seed
   bookkeeping — a journaled point is simply skipped. *)

module Ast = Perple_litmus.Ast
module Config = Perple_sim.Config
module Crashsim = Perple_sim.Crashsim
module Json = Perple_util.Json
module Supervisor = Perple_harness.Supervisor
module Metrics = Perple_util.Metrics

type record = {
  point : int;
  outcome : Supervisor.outcome;
  images : int;
  violations : int;
  witness : (string * int) list option;
  error : string option;
}

let record_of_result (r : Crashsim.point_result) =
  {
    point = r.Crashsim.point;
    outcome = Supervisor.Ok;
    images = r.Crashsim.images;
    violations = r.Crashsim.violations;
    witness = r.Crashsim.witness;
    error = None;
  }

(* Recovery itself failed at this point — the evaluator raised on the
   persisted image.  The point is recorded as [Unrecoverable] rather
   than aborting the suite: its siblings' verdicts are still wanted. *)
let unrecoverable ~point ~message =
  {
    point;
    outcome = Supervisor.Unrecoverable;
    images = 0;
    violations = 0;
    witness = None;
    error = Some message;
  }

let evaluate ?(jobs = 1) ?(skip = fun _ -> false) ?on_record ?evaluate_point
    ~persistency test =
  if jobs < 1 then invalid_arg "Crash_suite.evaluate: jobs must be >= 1";
  let evaluate_point =
    match evaluate_point with
    | Some f -> f
    | None -> fun ~point -> Crashsim.evaluate_point ~persistency test ~point
  in
  let points = Crashsim.crash_points test in
  let pending =
    Array.of_list
      (List.filter (fun p -> not (skip p)) (List.init points Fun.id))
  in
  (* Right-size workers from the full point count, not the pending count,
     so the jobs-clamp note is identical for a clean suite and any resume
     of it (same reasoning as [Engine.campaign_entries]). *)
  let stable_jobs = min (min jobs (max points 1)) Pool.max_jobs in
  if stable_jobs < jobs then begin
    Metrics.incr "crash_suite.jobs_clamped";
    Printf.eprintf "perple: crash-suite: clamped jobs %d -> %d (%s)\n%!" jobs
      stable_jobs
      (if jobs > Pool.max_jobs && stable_jobs = Pool.max_jobs then
         Printf.sprintf "domain limit %d" Pool.max_jobs
       else Printf.sprintf "only %d crash points" points)
  end;
  let pool_jobs = max 1 (min stable_jobs (max 1 (Array.length pending))) in
  let records : record option array = Array.make points None in
  let record_mutex = Mutex.create () in
  let retire r =
    match on_record with
    | None -> ()
    | Some f ->
      (* Retiring points journal from whichever domain finishes first;
         serialize the callback so the caller needs no locking. *)
      Mutex.lock record_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock record_mutex)
        (fun () -> f r)
  in
  let around ti thunk =
    let point = pending.(ti) in
    let result = thunk () in
    let r =
      match result with
      | Ok pr -> record_of_result pr
      | Error task_error ->
        Metrics.incr "crash_suite.unrecoverable";
        unrecoverable ~point ~message:(Pool.error_message task_error)
    in
    records.(point) <- Some r;
    retire r;
    result
  in
  ignore
    (Pool.map_result ~jobs:pool_jobs ~around (Array.length pending)
       (fun ti -> evaluate_point ~point:pending.(ti)));
  Metrics.incr "crash_suite.suites";
  records

(* --- journal record (kind "point") ---------------------------------------- *)

let to_json r =
  Json.Obj
    ([
       ("kind", Json.String "point");
       ("point", Json.Int r.point);
       ("outcome", Json.String (Supervisor.outcome_name r.outcome));
       ("images", Json.Int r.images);
       ("violations", Json.Int r.violations);
     ]
    @ (match r.witness with
      | Some w ->
        [ ("witness", Json.Obj (List.map (fun (x, v) -> (x, Json.Int v)) w)) ]
      | None -> [])
    @ match r.error with Some m -> [ ("error", Json.String m) ] | None -> [])

let ( let* ) = Result.bind
let int_field = Json.int_field ~record:"crash-suite record"
let string_field = Json.string_field ~record:"crash-suite record"

let of_json j =
  let* () =
    match Json.member "kind" j with
    | Some (Json.String "point") -> Ok ()
    | _ -> Error "crash-suite record: kind is not \"point\""
  in
  let* point = int_field "point" j in
  let* outcome_name = string_field "outcome" j in
  let* outcome =
    match Supervisor.outcome_of_name outcome_name with
    | Some ((Supervisor.Ok | Supervisor.Unrecoverable) as o) -> Ok o
    | Some _ | None ->
      Error
        (Printf.sprintf "crash-suite record: unexpected outcome %S"
           outcome_name)
  in
  let* images = int_field "images" j in
  let* violations = int_field "violations" j in
  let* witness =
    match Json.member "witness" j with
    | None -> Ok None
    | Some (Json.Obj fields) ->
      let* atoms =
        Json.map_result
          (fun (x, v) ->
            match v with
            | Json.Int i -> Ok (x, i)
            | _ ->
              Error
                (Printf.sprintf
                   "crash-suite record: witness value for %S is not an int" x))
          fields
      in
      Ok (Some atoms)
    | Some _ -> Error "crash-suite record: \"witness\" is not an object"
  in
  let* error = Json.opt_string_field ~record:"crash-suite record" "error" j in
  Ok { point; outcome; images; violations; witness; error }
