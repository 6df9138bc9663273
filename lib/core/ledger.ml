(* Serializable per-run campaign summaries — the journal's record type.

   The summary is the meeting point of the durability design: it holds
   exactly what the CLI ledger printers consume, so a clean campaign can
   print from freshly computed summaries and a resumed campaign from
   journaled ones, and the two stdout streams are byte-identical. *)

module Json = Perple_util.Json
module Journal = Perple_util.Journal
module Supervisor = Perple_harness.Supervisor
module Perpetual = Perple_harness.Perpetual

type attempt = {
  a_index : int;
  a_outcome : string;
  a_requested : int;
  a_retired : int;
  a_rounds : int;
  a_lost_stores : int;
  a_exn : string option;
}

type supervision = {
  s_outcome : string;
  s_total_rounds : int;
  s_lost : bool;
  s_attempts : attempt list;
}

type crash = { c_message : string; c_backtrace : string }

type t = {
  index : int;
  seed : int;
  crashed : crash option;
  iterations : int;
  requested_iterations : int;
  frames_examined : int;
  evaluations : int;
  virtual_runtime : int;
  counts : int array;
  degraded : bool;
  salvaged_iterations : int;
  supervision : supervision option;
  metrics : Json.t option;
}

let of_attempt (a : Supervisor.attempt) =
  {
    a_index = a.Supervisor.index;
    a_outcome = Supervisor.outcome_name a.Supervisor.outcome;
    a_requested = a.Supervisor.requested;
    a_retired = a.Supervisor.retired;
    a_rounds = a.Supervisor.rounds;
    a_lost_stores = a.Supervisor.lost_stores;
    a_exn = a.Supervisor.exn;
  }

let of_entry (e : Engine.entry) =
  match e.Engine.outcome with
  | Error crash ->
    {
      index = e.Engine.run_index;
      seed = e.Engine.run_seed;
      crashed =
        Some
          {
            c_message = crash.Engine.message;
            c_backtrace = crash.Engine.backtrace;
          };
      iterations = 0;
      requested_iterations = 0;
      frames_examined = 0;
      evaluations = 0;
      virtual_runtime = 0;
      counts = [||];
      degraded = false;
      salvaged_iterations = 0;
      supervision = None;
      metrics = e.Engine.run_metrics;
    }
  | Ok report ->
    {
      index = e.Engine.run_index;
      seed = e.Engine.run_seed;
      crashed = None;
      iterations = report.Engine.run.Perpetual.iterations;
      requested_iterations = report.Engine.requested_iterations;
      frames_examined = report.Engine.frames_examined;
      evaluations = report.Engine.evaluations;
      virtual_runtime = report.Engine.virtual_runtime;
      counts = Array.copy report.Engine.counts;
      degraded = report.Engine.degraded;
      salvaged_iterations = report.Engine.salvaged_iterations;
      supervision =
        Option.map
          (fun (sup : Supervisor.supervised) ->
            {
              s_outcome = Supervisor.outcome_name sup.Supervisor.outcome;
              s_total_rounds = sup.Supervisor.total_rounds;
              s_lost = sup.Supervisor.run = None;
              s_attempts = List.map of_attempt sup.Supervisor.attempts;
            })
          report.Engine.supervision;
      metrics = e.Engine.run_metrics;
    }

let target_count s = if Array.length s.counts = 0 then 0 else s.counts.(0)

(* --- JSON -------------------------------------------------------------- *)

let json_of_attempt a =
  Json.Obj
    ([
       ("index", Json.Int a.a_index);
       ("outcome", Json.String a.a_outcome);
       ("requested", Json.Int a.a_requested);
       ("retired", Json.Int a.a_retired);
       ("rounds", Json.Int a.a_rounds);
       ("lost_stores", Json.Int a.a_lost_stores);
     ]
    @ match a.a_exn with None -> [] | Some m -> [ ("exn", Json.String m) ])

let json_of_supervision s =
  Json.Obj
    [
      ("outcome", Json.String s.s_outcome);
      ("total_rounds", Json.Int s.s_total_rounds);
      ("lost", Json.Bool s.s_lost);
      ("attempts", Json.List (List.map json_of_attempt s.s_attempts));
    ]

let to_json s =
  Json.Obj
    ([ ("kind", Json.String "run"); ("index", Json.Int s.index);
       ("seed", Json.Int s.seed) ]
    @ (match s.crashed with
      | Some c ->
        [
          ( "crashed",
            Json.Obj
              [
                ("message", Json.String c.c_message);
                ("backtrace", Json.String c.c_backtrace);
              ] );
        ]
      | None -> [])
    @ [
        ("iterations", Json.Int s.iterations);
        ("requested_iterations", Json.Int s.requested_iterations);
        ("frames_examined", Json.Int s.frames_examined);
        ("evaluations", Json.Int s.evaluations);
        ("virtual_runtime", Json.Int s.virtual_runtime);
        ( "counts",
          Json.List (Array.to_list (Array.map (fun c -> Json.Int c) s.counts))
        );
        ("degraded", Json.Bool s.degraded);
        ("salvaged_iterations", Json.Int s.salvaged_iterations);
      ]
    @ (match s.supervision with
      | Some sup -> [ ("supervision", json_of_supervision sup) ]
      | None -> [])
    @ match s.metrics with Some m -> [ ("metrics", m) ] | None -> [])

let ( let* ) = Result.bind
let int_field = Json.int_field ~record:"ledger record"
let bool_field = Json.bool_field ~record:"ledger record"
let string_field = Json.string_field ~record:"ledger record"

let attempt_of_json j =
  let* a_index = int_field "index" j in
  let* a_outcome = string_field "outcome" j in
  let* a_requested = int_field "requested" j in
  let* a_retired = int_field "retired" j in
  let* a_rounds = int_field "rounds" j in
  let* a_lost_stores = int_field "lost_stores" j in
  let* a_exn = Json.opt_string_field ~record:"ledger record" "exn" j in
  Ok { a_index; a_outcome; a_requested; a_retired; a_rounds; a_lost_stores;
       a_exn }

let supervision_of_json j =
  let* s_outcome = string_field "outcome" j in
  let* () =
    match Supervisor.outcome_of_name s_outcome with
    | Some _ -> Ok ()
    | None ->
      Error (Printf.sprintf "ledger record: unknown outcome %S" s_outcome)
  in
  let* s_total_rounds = int_field "total_rounds" j in
  let* s_lost = bool_field "lost" j in
  let* s_attempts =
    match Json.member "attempts" j with
    | Some (Json.List l) -> Json.map_result attempt_of_json l
    | _ -> Error "ledger record: \"attempts\" is not a list"
  in
  Ok { s_outcome; s_total_rounds; s_lost; s_attempts }

let of_json j =
  let* kind = string_field "kind" j in
  let* () =
    if kind = "run" then Ok ()
    else Error (Printf.sprintf "ledger record: kind %S is not \"run\"" kind)
  in
  let* index = int_field "index" j in
  let* seed = int_field "seed" j in
  let* crashed =
    match Json.member "crashed" j with
    | None -> Ok None
    | Some c ->
      let* c_message = string_field "message" c in
      let* c_backtrace = string_field "backtrace" c in
      Ok (Some { c_message; c_backtrace })
  in
  let* iterations = int_field "iterations" j in
  let* requested_iterations = int_field "requested_iterations" j in
  let* frames_examined = int_field "frames_examined" j in
  let* evaluations = int_field "evaluations" j in
  let* virtual_runtime = int_field "virtual_runtime" j in
  let* counts =
    match Json.member "counts" j with
    | Some (Json.List l) ->
      let* ints =
        Json.map_result
          (function
            | Json.Int i -> Ok i
            | _ -> Error "ledger record: non-int count")
          l
      in
      Ok (Array.of_list ints)
    | _ -> Error "ledger record: \"counts\" is not a list"
  in
  let* degraded = bool_field "degraded" j in
  let* salvaged_iterations = int_field "salvaged_iterations" j in
  let* supervision =
    match Json.member "supervision" j with
    | None -> Ok None
    | Some s ->
      let* sup = supervision_of_json s in
      Ok (Some sup)
  in
  let metrics = Json.member "metrics" j in
  Ok
    {
      index; seed; crashed; iterations; requested_iterations;
      frames_examined; evaluations; virtual_runtime; counts; degraded;
      salvaged_iterations; supervision; metrics;
    }

(* --- Journal framing --------------------------------------------------- *)

let digest_of_params params =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) params)))

let campaign_digest ~command test params =
  let text = Perple_litmus.Printer.to_string test in
  digest_of_params
    (("command", command) :: ("test", Digest.to_hex (Digest.string text))
   :: params)

type header = { h_command : string; h_digest : string; h_runs : int }

let header_to_json h =
  Json.Obj
    [
      ("kind", Json.String "header");
      ("schema", Json.String "perple-journal/1");
      ("command", Json.String h.h_command);
      ("digest", Json.String h.h_digest);
      ("runs", Json.Int h.h_runs);
    ]

let parse_header j =
  let* kind = string_field "kind" j in
  let* () =
    if kind = "header" then Ok ()
    else Error "journal: first record is not a header"
  in
  let* schema = string_field "schema" j in
  let* () =
    if schema = "perple-journal/1" then Ok ()
    else Error (Printf.sprintf "journal: unsupported schema %S" schema)
  in
  let* h_command = string_field "command" j in
  let* h_digest = string_field "digest" j in
  let* h_runs = int_field "runs" j in
  Ok { h_command; h_digest; h_runs }

let kind j =
  match Json.member "kind" j with Some (Json.String k) -> Some k | _ -> None

let interrupted_marker = Json.Obj [ ("kind", Json.String "interrupted") ]
let draining_marker = Json.Obj [ ("kind", Json.String "draining") ]

(* The one journal-opening protocol, shared by the CLI's campaigns and
   the service scheduler; see the interface for the sequence. *)
let open_journal ?(prog = "perple") ?(fresh_if_empty = false) ~path ~resume
    ~what ~ingest ~live expect =
  let fail fmt = Printf.ksprintf (fun m -> Error ("cannot resume: " ^ m)) fmt in
  let fresh () =
    let j = Journal.create path in
    Journal.append j (header_to_json expect);
    Ok j
  in
  if not resume then fresh ()
  else
    match Journal.load path with
    | Error m -> fail "%s" m
    | Ok recovery -> (
      if recovery.Journal.dropped_bytes > 0 then
        Printf.eprintf
          "%s: journal %s: dropped %d damaged trailing bytes (kept %d \
           intact)\n%!"
          prog path recovery.Journal.dropped_bytes recovery.Journal.valid_bytes;
      match recovery.Journal.records with
      | [] when fresh_if_empty -> fresh ()
      | [] -> fail "journal %s holds no intact records" path
      | header :: records -> (
        match parse_header header with
        | Error m -> fail "%s" m
        | Ok h when h.h_command <> expect.h_command ->
          fail "journal %s was written by 'perple %s', not 'perple %s'" path
            h.h_command expect.h_command
        | Ok h when h.h_digest <> expect.h_digest ->
          fail
            "journal %s was written under a different configuration; rerun \
             with the original arguments (only --jobs, --trace and \
             --metrics may change)"
            path
        | Ok h when h.h_runs <> expect.h_runs ->
          fail "journal %s covers %d %s, this command asks for %d" path
            h.h_runs what expect.h_runs
        | Ok _ -> (
          let replay r =
            match kind r with
            | Some ("interrupted" | "draining") -> Ok ()
            | _ -> ingest r
          in
          match Json.map_result replay records with
          | Error m -> fail "%s" m
          | Ok _ ->
            Journal.compact ~loaded:recovery ~path
              (header_to_json expect :: live ());
            Ok (Journal.open_append path))))

(* The canonical streamed form of a run record: exactly the compact JSON
   the journal stores, so a daemon re-streaming journaled entries emits
   the same bytes a live run produced.  [Json.to_string] is
   deterministic, which is what makes "byte-identical re-stream" a
   checkable contract rather than a hope. *)
let record_line s = Json.to_string (to_json s)
