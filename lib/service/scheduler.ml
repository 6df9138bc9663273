(* Campaign scheduler: the journal-backed store of submitted specs and
   their run records, plus the service's one call into the campaign
   engine.  Which runs execute next is not decided here: that is the
   coordinator's shard table.

   Record kinds in a serve journal (after the standard header):
     {"kind":"spec", ...}     an accepted campaign, in submit order
     {"kind":"crun","campaign":C,"run":{...}}   one completed run
     {"kind":"cancel","campaign":C}
     {"kind":"draining"} / {"kind":"interrupted"}   shutdown markers
     {"kind":"lease"|"revoke"|"shard-dead", ...}   coordinator extras,
       opaque here: preserved through replay and compaction in order and
       handed back to [Perple_service.Coordinator] for lease-epoch
       recovery.

   Specs are journaled before they are acknowledged and runs before they
   are streamed, so every byte a client ever saw is reconstructible from
   the journal alone. *)

module Json = Perple_util.Json
module Journal = Perple_util.Journal
module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event
module Ast = Perple_litmus.Ast
module Parser = Perple_litmus.Parser
module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Convert = Perple_core.Convert

type resolved = {
  r_digest : string;
  r_test : Ast.t;
  r_counter : Engine.counter;
  r_model : Config.model;
  r_seeds : int array;
}

type campaign = {
  spec : Wire.spec;
  res : resolved;
  records : string option array;
  mutable done_count : int;
  mutable cancelled : bool;
  mutable failure : string option;
}

type t = {
  jobs : int;
  pool : Perple_core.Pool.t option;
      (** Persistent worker pool, reused by every {!execute} call across
          campaigns; [None] when [jobs = 1] (sequential). *)
  mutable journal : Journal.t option;
  campaigns : (string, campaign) Hashtbl.t;
  mutable order : string list;  (** Submit order, oldest first. *)
  mutable extras : Json.t list;  (** Coordinator records, reversed. *)
}

(* --- spec validation ------------------------------------------------------- *)

let resolve_test text =
  match Catalog.find text with
  | Some entry -> Ok entry.Catalog.test
  | None ->
    if String.contains text '\n' then
      (* Litmus source shipped inline by the client. *)
      match Parser.parse text with
      | Ok test -> Ok test
      | Error e -> Error (Format.asprintf "test source: %a" Parser.pp_error e)
    else
      Error
        (Printf.sprintf
           "unknown test %S (not a catalog name; to submit a file, send its \
            contents)"
           text)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Validation shared by live submits and journal replay: everything the
   engine will assume later is checked up front, so a rejected spec
   costs one error frame, never a daemon crash mid-campaign. *)
let resolve (spec : Wire.spec) =
  if spec.Wire.campaign = "" then fail "campaign id must be non-empty"
  else if String.length spec.Wire.campaign > 256 then
    fail "campaign id longer than 256 bytes"
  else if spec.Wire.runs < 1 then fail "runs must be positive"
  else if spec.Wire.iterations < 1 then fail "iterations must be positive"
  else if spec.Wire.seed < 0 then fail "seed must be non-negative"
  else
    match Engine.counter_of_name spec.Wire.counter with
    | None -> fail "unknown counter %S (heur, exh or exh-ref)" spec.Wire.counter
    | Some counter -> (
      match Config.model_of_name spec.Wire.model with
      | None -> fail "unknown model %S" spec.Wire.model
      | Some model -> (
        match resolve_test spec.Wire.test with
        | Error m -> Error m
        | Ok test -> (
          match Convert.convert test with
          | Error r ->
            fail "test %s is not convertible: %s" test.Ast.name
              (Format.asprintf "%a" Convert.pp_reason r)
          | Ok _ -> (
            match Perple_litmus.Outcome.of_condition test with
            | Error m -> fail "test %s has no countable target: %s" test.Ast.name m
            | Ok _ ->
              let digest =
                Ledger.campaign_digest ~command:"serve-campaign" test
                  [
                    ("iterations", string_of_int spec.Wire.iterations);
                    ("seed", string_of_int spec.Wire.seed);
                    ("counter", Engine.counter_short_name counter);
                    ("model", Config.model_name model);
                    ("runs", string_of_int spec.Wire.runs);
                  ]
              in
              Ok
                {
                  spec;
                  res =
                    {
                      r_digest = digest;
                      r_test = test;
                      r_counter = counter;
                      r_model = model;
                      r_seeds =
                        Engine.campaign_seeds ~runs:spec.Wire.runs
                          ~seed:spec.Wire.seed;
                    };
                  records = Array.make spec.Wire.runs None;
                  done_count = 0;
                  cancelled = false;
                  failure = None;
                }))))

(* --- journal records ------------------------------------------------------- *)

let header =
  {
    Ledger.h_command = "serve";
    h_digest = Ledger.digest_of_params [ ("command", "serve") ];
    h_runs = 0;
  }

let spec_record (s : Wire.spec) =
  Json.Obj
    [
      ("kind", Json.String "spec");
      ("campaign", Json.String s.Wire.campaign);
      ("test", Json.String s.Wire.test);
      ("iterations", Json.Int s.Wire.iterations);
      ("seed", Json.Int s.Wire.seed);
      ("runs", Json.Int s.Wire.runs);
      ("counter", Json.String s.Wire.counter);
      ("model", Json.String s.Wire.model);
    ]

let crun_record campaign run_json =
  Json.Obj
    [
      ("kind", Json.String "crun");
      ("campaign", Json.String campaign);
      ("run", run_json);
    ]

let cancel_record campaign =
  Json.Obj
    [ ("kind", Json.String "cancel"); ("campaign", Json.String campaign) ]

let str_field = Json.string_field ~record:"journal record"
let int_field = Json.int_field ~record:"journal record"

let spec_of_record j =
  let ( let* ) = Result.bind in
  let* campaign = str_field "campaign" j in
  let* test = str_field "test" j in
  let* iterations = int_field "iterations" j in
  let* seed = int_field "seed" j in
  let* runs = int_field "runs" j in
  let* counter = str_field "counter" j in
  let* model = str_field "model" j in
  Ok { Wire.campaign; test; iterations; seed; runs; counter; model }

(* --- construction / resume ------------------------------------------------- *)

let append t record =
  match t.journal with None -> () | Some j -> Journal.append j record

(* The one ingest path for every run record: executed locally, shipped
   by a worker or replayed from the journal (not open yet then, so
   [append] writes nothing).  The pre-split check keeps a record out of
   foreign slots, the stored line is canonical whatever bytes a (buggy)
   worker sent, and the crun is journaled before the slot can stream. *)
let store t c ~campaign summary =
  let i = summary.Ledger.index in
  if i < 0 || i >= Array.length c.records then
    fail "run index %d out of range for campaign %S" i campaign
  else if summary.Ledger.seed <> c.res.r_seeds.(i) then
    fail "run %d was seeded with %d, the spec pre-splits %d" i
      summary.Ledger.seed c.res.r_seeds.(i)
  else
    let canonical = Ledger.record_line summary in
    match c.records.(i) with
    | Some existing ->
      if String.equal existing canonical then Ok `Duplicate
      else fail "run %d already has a conflicting record" i
    | None ->
      append t (crun_record campaign (Ledger.to_json summary));
      c.done_count <- c.done_count + 1;
      c.records.(i) <- Some canonical;
      Ok `Recorded

let ingest_record t j =
  let ( let* ) = Result.bind in
  match Ledger.kind j with
  | Some "spec" ->
    let* spec = spec_of_record j in
    let* c = resolve spec in
    if Hashtbl.mem t.campaigns spec.Wire.campaign then
      fail "journal: duplicate spec for campaign %S" spec.Wire.campaign
    else begin
      Hashtbl.replace t.campaigns spec.Wire.campaign c;
      t.order <- t.order @ [ spec.Wire.campaign ];
      Ok ()
    end
  | Some "cancel" ->
    let* campaign = str_field "campaign" j in
    (match Hashtbl.find_opt t.campaigns campaign with
    | None -> fail "journal: cancel for unknown campaign %S" campaign
    | Some c ->
      c.cancelled <- true;
      Ok ())
  | Some ("lease" | "revoke" | "shard-dead") ->
    (* Coordinator lease bookkeeping: semantically opaque here, but its
       order and content must survive replay and compaction so lease
       epochs stay monotonic across coordinator restarts. *)
    t.extras <- j :: t.extras;
    Ok ()
  | Some "crun" ->
    let* campaign = str_field "campaign" j in
    (match Hashtbl.find_opt t.campaigns campaign with
    | None -> fail "journal: run for unknown campaign %S" campaign
    | Some c -> (
      match Json.member "run" j with
      | None -> fail "journal: crun record without a run"
      | Some run_json ->
        let* summary = Ledger.of_json run_json in
        match store t c ~campaign summary with
        | Error m -> fail "journal: campaign %S: %s" campaign m
        | Ok _ ->
          Metrics.incr "service.scheduler.resumed_runs";
          Ok ()))
  | Some k -> fail "journal: unexpected %S record" k
  | None -> fail "journal: record without a kind"

(* The journal's live contents after the header, for compaction. *)
let compacted t =
  let camps = List.map (fun id -> (id, Hashtbl.find t.campaigns id)) t.order in
  List.map (fun (_, c) -> spec_record c.spec) camps
  @ List.filter_map
      (fun (id, c) -> if c.cancelled then Some (cancel_record id) else None)
      camps
  @ List.concat_map
      (fun (id, c) ->
        (* Stored lines are our own serialization, so they parse. *)
        List.filter_map
          (Option.map (fun line ->
               crun_record id (Result.get_ok (Json.parse line))))
          (Array.to_list c.records))
      camps
  @ List.rev t.extras

let create ?(jobs = 1) ~journal () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  let t =
    {
      jobs;
      pool = None;
      journal = None;
      campaigns = Hashtbl.create 8;
      order = [];
      extras = [];
    }
  in
  (* Workers are spawned only once the journal (if any) validated, so a
     rejected resume never leaks parked domains. *)
  let finish t =
    (* Sized to the hardware, not to [jobs]: idle domains beyond the core
       count only tax the GC (see Pool).  [jobs] still sets how many runs
       a local claim gathers. *)
    let width = min jobs (Perple_core.Pool.available_domains ()) in
    Ok
      (if width > 1 then
         { t with pool = Some (Perple_core.Pool.create ~jobs:width ()) }
       else t)
  in
  match journal with
  | None -> finish t
  | Some path ->
    (* A missing journal, or one that crashed before its header was
       durable, starts over. *)
    Result.bind
      (Ledger.open_journal ~prog:"perpled" ~fresh_if_empty:true ~path
         ~resume:(Sys.file_exists path) ~what:"runs" ~ingest:(ingest_record t)
         ~live:(fun () -> compacted t)
         header)
      (fun j ->
        t.journal <- Some j;
        finish t)

(* --- queries --------------------------------------------------------------- *)

let resolve_spec spec = Result.map (fun c -> c.res) (resolve spec)

let find t campaign = Hashtbl.find_opt t.campaigns campaign

let campaign_ids t = t.order

let spec_of t ~campaign = Option.map (fun c -> (c.spec, c.res)) (find t campaign)

let runs t ~campaign =
  Option.map (fun c -> Array.length c.records) (find t campaign)

let completed t ~campaign =
  match find t campaign with None -> 0 | Some c -> c.done_count

let is_cancelled t ~campaign =
  match find t campaign with None -> false | Some c -> c.cancelled

let is_complete t ~campaign =
  match find t campaign with
  | None -> false
  | Some c -> (not c.cancelled) && c.done_count = Array.length c.records

let failed t ~campaign =
  match find t campaign with None -> None | Some c -> c.failure

let record t ~campaign ~index =
  match find t campaign with
  | None -> None
  | Some c ->
    if index < 0 || index >= Array.length c.records then None
    else c.records.(index)

let runnable c =
  (not c.cancelled) && c.failure = None
  && c.done_count < Array.length c.records

let pending t =
  List.exists (fun id -> runnable (Hashtbl.find t.campaigns id)) t.order

(* --- submit / cancel ------------------------------------------------------- *)

type accepted = { digest : string; runs : int; completed : int }

let submit t spec =
  match resolve spec with
  | Error _ as e -> e
  | Ok fresh -> (
    match find t spec.Wire.campaign with
    | Some existing ->
      if existing.res.r_digest <> fresh.res.r_digest then
        fail
          "campaign %S already exists with a different configuration \
           (digest %s, submitted %s)"
          spec.Wire.campaign existing.res.r_digest fresh.res.r_digest
      else if existing.cancelled then
        fail "campaign %S was cancelled" spec.Wire.campaign
      else begin
        Metrics.incr "service.scheduler.resubmits";
        Ok
          {
            digest = existing.res.r_digest;
            runs = Array.length existing.records;
            completed = existing.done_count;
          }
      end
    | None ->
      append t (spec_record spec);
      Hashtbl.replace t.campaigns spec.Wire.campaign fresh;
      t.order <- t.order @ [ spec.Wire.campaign ];
      Metrics.incr "service.scheduler.campaigns_accepted";
      Ok { digest = fresh.res.r_digest; runs = Array.length fresh.records; completed = 0 })

(* --- remote results -------------------------------------------------------- *)

let extras t = List.rev t.extras

let append_extra t j =
  append t j;
  t.extras <- j :: t.extras

(* A worker-computed record goes through the same [store] as a local
   one, after parsing. *)
let record_external t ~campaign ~line =
  match find t campaign with
  | None -> fail "record for unknown campaign %S" campaign
  | Some c -> (
    match Json.parse line with
    | Error m -> fail "record does not parse: %s" m
    | Ok run_json -> (
      match Ledger.of_json run_json with
      | Error m -> fail "record invalid: %s" m
      | Ok summary ->
        let r = store t c ~campaign summary in
        if r = Ok `Recorded then Metrics.incr "service.scheduler.remote_runs";
        r))

let cancel t ~campaign =
  match find t campaign with
  | None -> false
  | Some c ->
    if not c.cancelled then begin
      c.cancelled <- true;
      append t (cancel_record campaign);
      Metrics.incr "service.scheduler.campaigns_cancelled"
    end;
    true

(* --- execution ------------------------------------------------------------- *)

let jobs t = t.jobs

(* The service's one call into the engine: [indices] of a campaign run
   exactly as a single-node [perple run --runs] would run them — same
   config, counter and pre-split seeds, every other index skipped. *)
let run_indices ?pool ~jobs r ~(spec : Wire.spec) ~indices ~on_summary =
  let wanted = Array.make spec.Wire.runs false in
  List.iter (fun i -> wanted.(i) <- true) indices;
  Engine.campaign_entries
    ~config:(Config.with_model r.r_model Config.default)
    ~counter:r.r_counter ?pool ~jobs
    ~skip:(fun i -> not wanted.(i))
    ~on_entry:(fun entry -> on_summary (Ledger.of_entry entry))
    ~runs:spec.Wire.runs ~seed:spec.Wire.seed ~iterations:spec.Wire.iterations
    r.r_test

let execute t ~campaign ~indices =
  match find t campaign with
  | None -> ()
  | Some c ->
    (* Each run is stored, so journaled, as it retires: a kill -9 loses
       only runs in flight.  [store] cannot refuse these runs: they were
       missing and are computed from the campaign's own seeds. *)
    let on_summary summary =
      if store t c ~campaign summary = Ok `Recorded then
        Metrics.incr "service.scheduler.runs_executed"
    in
    Trace.span "service.scheduler.step"
      ~args:
        [ ("campaign", Trace.String campaign);
          ("batch", Trace.Int (List.length indices)) ]
      (fun () ->
        (* [jobs] runs per engine call: a call holds every run's report
           until it returns, so a wider one would only raise peak
           memory. *)
        let rec go k =
          match List.filteri (fun i _ -> i >= k && i < k + t.jobs) indices with
          | [] -> ()
          | batch -> (
            match
              run_indices ?pool:t.pool ~jobs:t.jobs c.res ~spec:c.spec
                ~indices:batch ~on_summary
            with
            | Ok _ -> go (k + t.jobs)
            | Error reason ->
              (* Cannot normally happen — convertibility was validated at
                 submit — but a campaign must fail closed, not wedge the
                 queue. *)
              c.failure <-
                Some (Format.asprintf "%a" Convert.pp_reason reason))
        in
        go 0)

(* --- shutdown -------------------------------------------------------------- *)

let metrics_payload t ~campaign =
  match find t campaign with
  | None -> None
  | Some c ->
    if c.cancelled || c.done_count < Array.length c.records then None
    else begin
      let sink = Metrics.create_sink () in
      Array.iter
        (function
          | None -> ()
          | Some line -> (
            match Json.parse line with
            | Error _ -> ()
            | Ok j -> (
              match Json.member "metrics" j with
              | None -> ()
              | Some m -> ignore (Metrics.merge_json sink m))))
        c.records;
      Some (Json.to_string (Metrics.to_json sink))
    end

let note_draining t = append t Ledger.draining_marker

let close_journal t =
  match t.journal with
  | None -> ()
  | Some j ->
    t.journal <- None;
    Journal.close j

let shutdown_pool t =
  match t.pool with None -> () | Some p -> Perple_core.Pool.shutdown p

let close t =
  close_journal t;
  shutdown_pool t
