(* Service-layer tests: wire codec round-trips and hostile-input
   robustness, framed nonblocking buffers, session discipline
   (handshake, quarantine, liveness, backpressure), scheduler journal
   resume with byte-identical re-streaming for any kill point and any
   jobs value, the sans-IO server/client pair end to end, and the
   seeded chaos-proxy suite: hundreds of fault schedules, each of which
   must end in a classified terminal state — never a hang, never a
   corrupted journal. *)

module Framed = Perple_util.Framed
module Journal = Perple_util.Journal
module Json = Perple_util.Json
module Metrics = Perple_util.Metrics
module Wire = Perple_service.Wire
module Session = Perple_service.Session
module Scheduler = Perple_service.Scheduler
module Coordinator = Perple_service.Coordinator
module Server = Perple_service.Server
module Client = Perple_service.Client
module Chaos = Perple_service.Chaos
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Config = Perple_sim.Config

let check = Alcotest.check

let scratch =
  Filename.concat (Filename.get_temp_dir_name ()) "perple-service-test"

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let in_scratch name = Filename.concat scratch name

let spec ?(campaign = "c1") ?(test = "podwr000") ?(iterations = 200)
    ?(seed = 7) ?(runs = 3) ?(counter = "heur") ?(model = "tso") () =
  { Wire.campaign; test; iterations; seed; runs; counter; model }

(* --- wire: round-trips ------------------------------------------------------ *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 60))

let gen_u32 = QCheck.Gen.(0 -- 0xFFFF_FFFF)
let gen_i64 = QCheck.Gen.int

let gen_code =
  QCheck.Gen.oneofl
    [ Wire.Protocol; Wire.Rejected; Wire.Cancelled; Wire.Draining;
      Wire.Timeout; Wire.Internal ]

let gen_spec =
  QCheck.Gen.map
    (fun (campaign, test, iterations, seed, (runs, counter, model)) ->
      { Wire.campaign; test; iterations; seed; runs; counter; model })
    QCheck.Gen.(
      tup5 gen_bytes gen_bytes gen_i64 gen_i64 (tup3 gen_u32 gen_bytes gen_bytes))

let frame_gens : (string * Wire.frame QCheck.Gen.t) list =
  let open QCheck.Gen in
  [
    ( "hello",
      map2 (fun version peer -> Wire.Hello { version; peer }) gen_u32 gen_bytes
    );
    ( "submit",
      map
        (fun (campaign, test, iterations, seed, (runs, counter, model)) ->
          Wire.Submit
            { campaign; test; iterations; seed; runs; counter; model })
        (tup5 gen_bytes gen_bytes gen_i64 gen_i64
           (tup3 gen_u32 gen_bytes gen_bytes)) );
    ( "accepted",
      map
        (fun (campaign, digest, runs, completed) ->
          Wire.Accepted { campaign; digest; runs; completed })
        (tup4 gen_bytes gen_bytes gen_u32 gen_u32) );
    ( "run-record",
      map
        (fun (campaign, index, record) ->
          Wire.Run_record { campaign; index; record })
        (tup3 gen_bytes gen_u32 gen_bytes) );
    ( "metrics-chunk",
      map2
        (fun campaign payload -> Wire.Metrics_chunk { campaign; payload })
        gen_bytes gen_bytes );
    ("heartbeat", map (fun sent_at -> Wire.Heartbeat { sent_at }) gen_i64);
    ("cancel", map (fun campaign -> Wire.Cancel { campaign }) gen_bytes);
    ("drain", return Wire.Drain);
    ( "error",
      map2 (fun code message -> Wire.Error { code; message }) gen_code
        gen_bytes );
    ( "worker-hello",
      map2 (fun version worker -> Wire.Worker_hello { version; worker })
        gen_u32 gen_bytes );
    ( "lease",
      map
        (fun ((campaign, digest, shard, epoch), (lo, hi, lease_ticks), spec) ->
          Wire.Lease { campaign; digest; shard; epoch; lo; hi; lease_ticks; spec })
        (tup3
           (tup4 gen_bytes gen_bytes gen_u32 gen_u32)
           (tup3 gen_u32 gen_u32 gen_u32)
           gen_spec) );
    ( "lease-renew",
      map
        (fun (campaign, shard, epoch, sent_at) ->
          Wire.Lease_renew { campaign; shard; epoch; sent_at })
        (tup4 gen_bytes gen_u32 gen_u32 gen_i64) );
    ( "shard-result",
      map
        (fun (campaign, shard, epoch, records) ->
          Wire.Shard_result { campaign; shard; epoch; records })
        (tup4 gen_bytes gen_u32 gen_u32
           (list_size (0 -- 8) (pair gen_u32 gen_bytes))) );
    ( "shard-failed",
      map
        (fun (campaign, shard, epoch, reason) ->
          Wire.Shard_failed { campaign; shard; epoch; reason })
        (tup4 gen_bytes gen_u32 gen_u32 gen_bytes) );
    ( "revoke",
      map
        (fun (campaign, shard, epoch, reason) ->
          Wire.Revoke { campaign; shard; epoch; reason })
        (tup4 gen_bytes gen_u32 gen_u32 gen_bytes) );
    ("busy", map (fun retry_after -> Wire.Busy { retry_after }) gen_u32);
    ( "progress",
      map
        (fun (campaign, (runs_total, runs_done), (sd, sl, sf)) ->
          Wire.Progress
            { campaign; runs_total; runs_done; shards_done = sd;
              shards_leased = sl; shards_failed = sf })
        (tup3 gen_bytes (pair gen_u32 gen_u32) (tup3 gen_u32 gen_u32 gen_u32))
    );
  ]

let roundtrip frame =
  let enc = Wire.encode frame in
  match Wire.decode enc with
  | Wire.Frame (f, n) -> f = frame && n = String.length enc
  | Wire.Need_more | Wire.Corrupt _ -> false

(* One qcheck round-trip property per frame type, as the issue demands:
   a codec bug in any single constructor fails its own named test. *)
let roundtrip_properties =
  List.map
    (fun (name, gen) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "wire %s round-trips" name)
        ~count:100 (QCheck.make gen) roundtrip)
    frame_gens

let gen_frame = QCheck.Gen.oneof (List.map snd frame_gens)

(* No prefix of a valid frame may crash the decoder or decode to a
   frame; every strict prefix is exactly [Need_more]. *)
let truncation_property =
  QCheck.Test.make ~name:"wire decode of every strict prefix is Need_more"
    ~count:120 (QCheck.make gen_frame) (fun frame ->
      let enc = Wire.encode frame in
      let ok = ref true in
      for cut = 0 to String.length enc - 1 do
        match Wire.decode (String.sub enc 0 cut) with
        | Wire.Need_more -> ()
        | Wire.Frame _ | Wire.Corrupt _ -> ok := false
      done;
      !ok)

(* Arbitrary single-byte damage anywhere in the frame must never raise:
   the decoder classifies, it does not crash. *)
let corruption_never_raises_property =
  QCheck.Test.make ~name:"wire decode never raises on damaged bytes"
    ~count:120
    (QCheck.make QCheck.Gen.(pair gen_frame (pair small_nat (0 -- 255))))
    (fun (frame, (at, byte)) ->
      let enc = Bytes.of_string (Wire.encode frame) in
      Bytes.set enc (at mod Bytes.length enc) (Char.chr byte);
      match Wire.decode (Bytes.to_string enc) with
      | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> true)

let frame_with_body body =
  let b = Buffer.create 16 in
  let u32 v =
    Buffer.add_char b (Char.chr (v lsr 24 land 0xFF));
    Buffer.add_char b (Char.chr (v lsr 16 land 0xFF));
    Buffer.add_char b (Char.chr (v lsr 8 land 0xFF));
    Buffer.add_char b (Char.chr (v land 0xFF))
  in
  u32 (String.length body);
  u32 (Journal.crc32 body);
  Buffer.add_string b body;
  Buffer.contents b

let expect_corrupt what s =
  match Wire.decode s with
  | Wire.Corrupt _ -> ()
  | Wire.Frame _ -> Alcotest.failf "%s decoded to a frame" what
  | Wire.Need_more -> Alcotest.failf "%s classified as short read" what

let test_wire_hostile () =
  expect_corrupt "unknown tag" (frame_with_body "\xFF");
  expect_corrupt "empty body" (frame_with_body "");
  (* Declared length far beyond the limit: reject before buffering. *)
  expect_corrupt "oversized length" "\xFF\xFF\xFF\xFF";
  (* Drain frame with trailing junk inside the declared body. *)
  expect_corrupt "trailing bytes" (frame_with_body "\x08junk");
  (* Error frame with an unassigned code byte. *)
  expect_corrupt "unknown error code"
    (frame_with_body "\x09\x63\x00\x00\x00\x00");
  (* Hello whose inner string length runs past the declared body. *)
  expect_corrupt "inner field past body"
    (frame_with_body "\x01\x00\x00\x00\x01\x00\x00\x00\xFF");
  (* A bit flip in the body under the original checksum. *)
  (let enc = Bytes.of_string (Wire.encode (Wire.Cancel { campaign = "x" })) in
   let last = Bytes.length enc - 1 in
   Bytes.set enc last (Char.chr (Char.code (Bytes.get enc last) lxor 1));
   expect_corrupt "body bit flip" (Bytes.to_string enc));
  match Wire.decode "" with
  | Wire.Need_more -> ()
  | _ -> Alcotest.fail "empty input must be a short read"

(* --- framed buffers --------------------------------------------------------- *)

let test_framed_fifo () =
  let b = Framed.create () in
  check Alcotest.bool "fresh buffer is empty" true (Framed.is_empty b);
  Framed.add_string b "hello ";
  Framed.add_string b "world";
  check Alcotest.int "length" 11 (Framed.length b);
  check Alcotest.string "contents" "hello world" (Framed.contents b);
  Framed.consume b 6;
  check Alcotest.string "consume drops a prefix" "world" (Framed.contents b);
  check Alcotest.string "take_all drains" "world" (Framed.take_all b);
  check Alcotest.bool "drained" true (Framed.is_empty b);
  (* Growth: push far past the initial capacity in small pieces. *)
  let chunk = String.make 97 'x' in
  for _ = 1 to 200 do
    Framed.add_string b chunk
  done;
  check Alcotest.int "grown length" (97 * 200) (Framed.length b);
  Framed.consume b (97 * 199);
  check Alcotest.string "tail survives growth and compaction" chunk
    (Framed.take_all b)

let test_framed_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let out = Framed.create () in
  Framed.add_string out "framed pipe payload";
  (match Framed.write_from w out with
  | `Wrote n -> check Alcotest.int "wrote everything" 19 n
  | _ -> Alcotest.fail "pipe write failed");
  let inb = Framed.create () in
  (match Framed.read_into r inb with
  | `Read n -> check Alcotest.int "read everything" 19 n
  | _ -> Alcotest.fail "pipe read failed");
  check Alcotest.string "bytes crossed intact" "framed pipe payload"
    (Framed.take_all inb);
  (match Framed.read_into r inb with
  | `Would_block -> ()
  | _ -> Alcotest.fail "empty nonblocking pipe must report Would_block");
  Unix.close w;
  (match Framed.read_into r inb with
  | `Closed -> ()
  | _ -> Alcotest.fail "closed pipe must report Closed");
  Unix.close r

(* --- session ---------------------------------------------------------------- *)

let hello = Wire.Hello { version = Wire.protocol_version; peer = "tester" }

let session_frames s =
  let buf = Session.output s in
  let rec go acc =
    match Wire.next_frame buf with
    | `Frame f -> go (f :: acc)
    | `Need_more -> List.rev acc
    | `Corrupt m -> Alcotest.failf "session emitted corrupt bytes: %s" m
  in
  go []

let test_session_handshake () =
  let s = Session.create ~id:0 ~now:0 () in
  let events = Session.feed s ~now:0 (Wire.encode hello) in
  check Alcotest.bool "hello surfaces the peer name" true
    (events = [ Session.Hello_received "tester" ]);
  check Alcotest.bool "session is active" true (Session.active s);
  (match session_frames s with
  | [ Wire.Hello { peer = "perpled"; version } ] ->
    check Alcotest.int "daemon replies with its version" Wire.protocol_version
      version
  | fs -> Alcotest.failf "expected one hello reply, got %d frames" (List.length fs));
  let events =
    Session.feed s ~now:1 (Wire.encode (Wire.Submit (spec ())))
  in
  match events with
  | [ Session.Submitted sp ] ->
    check Alcotest.string "submitted spec campaign" "c1" sp.Wire.campaign
  | _ -> Alcotest.fail "submit must surface a Submitted event"

let expect_quarantine what events s =
  (match Session.terminal s with
  | Some (Session.Quarantined _) -> ()
  | _ -> Alcotest.failf "%s: session not quarantined" what);
  (match List.rev events with
  | Session.Terminated (Session.Quarantined _) :: _ -> ()
  | _ -> Alcotest.failf "%s: no Terminated event" what);
  match List.rev (session_frames s) with
  | Wire.Error { code = Wire.Protocol; _ } :: _ -> ()
  | _ -> Alcotest.failf "%s: peer was not told why it died" what

let test_session_quarantines () =
  (* First frame is not hello. *)
  let s = Session.create ~id:1 ~now:0 () in
  expect_quarantine "submit before hello"
    (Session.feed s ~now:0 (Wire.encode (Wire.Submit (spec ()))))
    s;
  (* Wrong protocol version. *)
  let s = Session.create ~id:2 ~now:0 () in
  expect_quarantine "version mismatch"
    (Session.feed s ~now:0
       (Wire.encode (Wire.Hello { version = 999; peer = "x" })))
    s;
  (* Corrupt bytes mid-stream. *)
  let s = Session.create ~id:3 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  expect_quarantine "corrupt frame" (Session.feed s ~now:1 "\xFF\xFF\xFF\xFF") s;
  (* Input after quarantine is discarded, not processed. *)
  let events = Session.feed s ~now:2 (Wire.encode (Wire.Submit (spec ()))) in
  check Alcotest.bool "post-quarantine input is dead" true (events = []);
  (* Server-only frame from a client. *)
  let s = Session.create ~id:4 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  expect_quarantine "server-only frame"
    (Session.feed s ~now:1
       (Wire.encode (Wire.Accepted { campaign = "c"; digest = "d"; runs = 1; completed = 0 })))
    s

let test_session_liveness () =
  let config =
    { Session.default_config with heartbeat_every = 10; liveness_timeout = 50 }
  in
  let s = Session.create ~config ~id:5 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  (* Heartbeats flow while the peer is silent... *)
  check Alcotest.bool "no events from an early tick" true
    (Session.tick s ~now:10 = []);
  (match session_frames s with
  | [ Wire.Heartbeat { sent_at = 10 } ] -> ()
  | _ -> Alcotest.fail "heartbeat due at 10 ticks");
  (* ...until the liveness deadline passes. *)
  let events = Session.tick s ~now:51 in
  (match Session.terminal s with
  | Some Session.Timed_out -> ()
  | _ -> Alcotest.fail "silent peer must time out");
  (match List.rev events with
  | Session.Terminated Session.Timed_out :: _ -> ()
  | _ -> Alcotest.fail "timeout must surface Terminated");
  match List.rev (session_frames s) with
  | Wire.Error { code = Wire.Timeout; _ } :: _ -> ()
  | _ -> Alcotest.fail "peer must be told about the timeout"

let test_session_backpressure () =
  let config = { Session.default_config with max_outbound = 64 } in
  let s = Session.create ~config ~id:6 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (Framed.take_all (Session.output s));
  let big =
    Wire.Run_record { campaign = "c"; index = 0; record = String.make 100 'r' }
  in
  (match Session.send s big with
  | `Overflow -> ()
  | `Ok -> Alcotest.fail "oversized send must report Overflow");
  (* Control frames bypass the bound. *)
  Session.send_control s (Wire.Error { code = Wire.Draining; message = "bye" });
  (match session_frames s with
  | [ Wire.Error { code = Wire.Draining; _ } ] -> ()
  | _ -> Alcotest.fail "control frame must be queued despite the bound");
  (* A drained queue accepts work again. *)
  match Session.send s (Wire.Heartbeat { sent_at = 1 }) with
  | `Ok -> ()
  | `Overflow -> Alcotest.fail "drained queue must accept frames"

let test_session_drain_completes () =
  let s = Session.create ~id:7 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  let events = Session.feed s ~now:1 (Wire.encode Wire.Drain) in
  check Alcotest.bool "drain completes the session" true
    (Session.terminal s = Some Session.Completed
    && List.mem (Session.Terminated Session.Completed) events)

(* --- scheduler -------------------------------------------------------------- *)

(* The daemon's local executor over a bare scheduler.  One-run shards
   make each claim take [jobs] missing runs of one campaign. *)
let executor sched =
  Result.get_ok
    (Coordinator.create
       ~config:{ Coordinator.default_config with shard_runs = 1 }
       ~scheduler:sched ())

let run_to_completion sched =
  let co = executor sched in
  let guard = ref 0 in
  while Scheduler.pending sched do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "scheduler failed to converge";
    ignore (Coordinator.run_local co ~now:0)
  done

let all_records sched ~campaign =
  match Scheduler.runs sched ~campaign with
  | None -> Alcotest.failf "campaign %s unknown" campaign
  | Some runs ->
    List.init runs (fun index ->
        match Scheduler.record sched ~campaign ~index with
        | Some line -> line
        | None -> Alcotest.failf "campaign %s missing record %d" campaign index)

(* The reference for a spec: what any journaled, killed, restarted,
   re-jobbed or distributed execution must reproduce exactly.  It is
   computed straight from the engine, as [perple run --runs] computes a
   campaign, not through the service under test: canonical record lines
   plus the merge of their per-run metrics. *)
let reference_records (sp : Wire.spec) =
  if sp.Wire.counter <> "heur" || sp.Wire.model <> "tso" then
    Alcotest.fail "reference: only heur/tso specs are supported";
  let out = Array.make sp.Wire.runs None in
  (match
     Engine.campaign_entries
       ~config:(Config.with_model Config.Tso Config.default)
       ~counter:Engine.Heuristic ~jobs:1
       ~on_entry:(fun e -> out.(e.Engine.run_index) <- Some (Ledger.of_entry e))
       ~runs:sp.Wire.runs ~seed:sp.Wire.seed ~iterations:sp.Wire.iterations
       (Perple_litmus.Catalog.find_exn sp.Wire.test)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "reference: %s is not convertible" sp.Wire.test);
  let summaries = Array.to_list (Array.map Option.get out) in
  let sink = Metrics.create_sink () in
  List.iter
    (fun (s : Ledger.t) ->
      Option.iter
        (fun m -> Result.get_ok (Metrics.merge_json sink m))
        s.Ledger.metrics)
    summaries;
  ( List.map Ledger.record_line summaries,
    Json.to_string (Metrics.to_json sink) )

let test_scheduler_validation () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let reject what sp =
    match Scheduler.submit sched sp with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  reject "empty campaign id" (spec ~campaign:"" ());
  reject "unknown test" (spec ~test:"no-such-test" ());
  reject "zero runs" (spec ~runs:0 ());
  reject "zero iterations" (spec ~iterations:0 ());
  reject "negative seed" (spec ~seed:(-1) ());
  reject "unknown counter" (spec ~counter:"quantum" ());
  reject "unknown model" (spec ~model:"arm" ());
  (* Inline litmus source is accepted and validated. *)
  (match
     Scheduler.submit sched
       (spec ~campaign:"inline" ~test:"bogus source\nwith lines" ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable source must be rejected");
  Scheduler.close sched

let test_scheduler_idempotent_submit () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let sp = spec ~runs:2 ~iterations:100 () in
  let a = Result.get_ok (Scheduler.submit sched sp) in
  run_to_completion sched;
  (match Scheduler.submit sched sp with
  | Ok b ->
    check Alcotest.string "same digest" a.Scheduler.digest b.Scheduler.digest;
    check Alcotest.int "resubmit reports completed work" 2 b.Scheduler.completed
  | Error m -> Alcotest.failf "idempotent resubmit rejected: %s" m);
  (match Scheduler.submit sched { sp with Wire.iterations = 101 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parameter drift under a reused id must be rejected");
  Scheduler.close sched

let test_scheduler_cancel () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let sp = spec ~campaign:"victim" ~runs:4 ~iterations:100 () in
  ignore (Result.get_ok (Scheduler.submit sched sp));
  ignore (Coordinator.run_local (executor sched) ~now:0);
  check Alcotest.bool "cancel known campaign" true
    (Scheduler.cancel sched ~campaign:"victim");
  check Alcotest.bool "cancelled campaigns stop scheduling" false
    (Scheduler.pending sched);
  check Alcotest.bool "cancel unknown campaign" false
    (Scheduler.cancel sched ~campaign:"ghost");
  check Alcotest.bool "no metrics for a cancelled campaign" true
    (Scheduler.metrics_payload sched ~campaign:"victim" = None);
  Scheduler.close sched

(* Kill -9 equivalence at the scheduler layer: for several kill points
   and jobs values, abandon the journal mid-campaign, resume it in a
   fresh scheduler (different jobs), and demand byte-identical records
   plus an undamaged journal. *)
let test_scheduler_kill_resume_equivalence () =
  with_scratch @@ fun () ->
  let sp = spec ~campaign:"kr" ~runs:5 ~iterations:120 ~seed:11 () in
  let reference, ref_metrics = reference_records sp in
  List.iter
    (fun (jobs_before, jobs_after, kill_after_steps) ->
      let path =
        in_scratch
          (Printf.sprintf "kr-%d-%d-%d.journal" jobs_before jobs_after
             kill_after_steps)
      in
      let s1 =
        Result.get_ok
          (Scheduler.create ~jobs:jobs_before ~journal:(Some path) ())
      in
      ignore (Result.get_ok (Scheduler.submit s1 sp));
      let co1 = executor s1 in
      for _ = 1 to kill_after_steps do
        ignore (Coordinator.run_local co1 ~now:0)
      done;
      let before = Scheduler.completed s1 ~campaign:"kr" in
      Scheduler.close s1;
      (* Restart over the same journal, different parallelism. *)
      let s2 =
        Result.get_ok
          (Scheduler.create ~jobs:jobs_after ~journal:(Some path) ())
      in
      let resumed = Result.get_ok (Scheduler.submit s2 sp) in
      check Alcotest.int
        (Printf.sprintf "journaled runs survive kill (%d/%d/%d)" jobs_before
           jobs_after kill_after_steps)
        before resumed.Scheduler.completed;
      run_to_completion s2;
      check
        Alcotest.(list string)
        (Printf.sprintf "records byte-identical (%d/%d/%d)" jobs_before
           jobs_after kill_after_steps)
        reference
        (all_records s2 ~campaign:"kr");
      check Alcotest.string
        (Printf.sprintf "metrics payload identical (%d/%d/%d)" jobs_before
           jobs_after kill_after_steps)
        ref_metrics
        (Option.get (Scheduler.metrics_payload s2 ~campaign:"kr"));
      Scheduler.close s2;
      match Journal.load path with
      | Error m -> Alcotest.failf "journal unreadable after resume: %s" m
      | Ok r ->
        check Alcotest.int "no damaged bytes after clean shutdown" 0
          r.Journal.dropped_bytes)
    [ (1, 4, 0); (1, 1, 2); (4, 1, 1); (2, 3, 3); (4, 2, 99) ]

let test_scheduler_draining_marker_resumes () =
  with_scratch @@ fun () ->
  let path = in_scratch "drain.journal" in
  let sp = spec ~campaign:"dr" ~runs:3 ~iterations:100 () in
  let s1 = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
  ignore (Result.get_ok (Scheduler.submit s1 sp));
  ignore (Coordinator.run_local (executor s1) ~now:0);
  Scheduler.note_draining s1;
  Scheduler.close s1;
  (* The marker must not poison the resume path. *)
  let s2 = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
  let resumed = Result.get_ok (Scheduler.submit s2 sp) in
  check Alcotest.int "one run survived the drain" 1 resumed.Scheduler.completed;
  run_to_completion s2;
  check Alcotest.bool "campaign finishes after drained restart" true
    (Scheduler.is_complete s2 ~campaign:"dr");
  Scheduler.close s2

(* --- server/client sans-IO --------------------------------------------------- *)

let fast_session =
  { Session.default_config with heartbeat_every = 50; liveness_timeout = 500 }

let fast_client = { Client.heartbeat_every = 50; liveness_timeout = 500 }

exception Settled

(* Shuttle bytes between one sans-IO client and the server until the
   client reaches a terminal status; returns ticks consumed. *)
let drive ?(budget = 10_000) server conn client =
  (try
     for now = 0 to budget do
       let cbytes = Framed.take_all (Client.output client) in
       if cbytes <> "" then Server.input server ~conn ~now cbytes;
       let sbytes = Server.flush server ~conn in
       if sbytes <> "" then Client.input client ~now sbytes;
       Server.tick server ~now;
       Client.tick client ~now;
       if Client.status client <> Client.Pending then raise Settled
     done
   with Settled -> ());
  (* Deliver the client's parting bytes (its [Drain]) so the server
     session can complete its half of the handshake. *)
  let cbytes = Framed.take_all (Client.output client) in
  if cbytes <> "" then Server.input server ~conn ~now:(budget + 1) cbytes;
  Client.status client

let test_server_happy_path () =
  let sp = spec ~campaign:"happy" ~runs:3 ~iterations:150 () in
  let reference, ref_metrics = reference_records sp in
  let sched = Result.get_ok (Scheduler.create ~jobs:2 ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conn = Server.connect server ~now:0 in
  let client = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (match drive server conn client with
  | Client.Done outcome ->
    check Alcotest.(list string) "streamed records match the reference"
      reference outcome.Client.records;
    check Alcotest.string "metrics chunk matches the reference" ref_metrics
      outcome.Client.metrics;
    check Alcotest.int "nothing was journaled before accept" 0
      outcome.Client.completed_at_accept
  | Client.Failed m -> Alcotest.failf "happy path failed: %s" m
  | Client.Pending -> Alcotest.fail "happy path hung");
  (* The clean Drain handshake completes the server session too. *)
  check Alcotest.bool "server session completed" true
    (Server.terminal server ~conn = Some Session.Completed);
  Scheduler.close sched

(* Closed connections leave the core: after N completed sessions are
   released, no session, buffer or subscription is left for a turn to
   tick or stream to.  A connection that is still open is never
   released. *)
let test_server_releases_closed_connections () =
  let sched = Result.get_ok (Scheduler.create ~jobs:2 ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conns =
    List.init 4 (fun i ->
        let sp = spec ~campaign:(Printf.sprintf "rel%d" i) ~runs:2 () in
        let conn = Server.connect server ~now:0 in
        let client = Client.create ~config:fast_client ~spec:sp ~now:0 () in
        (match drive server conn client with
        | Client.Done _ -> ()
        | _ -> Alcotest.failf "session %d did not complete" i);
        ignore (Server.flush server ~conn);
        check Alcotest.bool "completed session is closed" true
          (Server.closed server ~conn);
        conn)
  in
  let live = Server.connect server ~now:0 in
  Server.release server ~conn:live;
  check Alcotest.bool "an open connection is not released" true
    (List.mem live (Server.connections server));
  Server.eof server ~conn:live ~now:0;
  ignore (Server.flush server ~conn:live);
  List.iter (fun conn -> Server.release server ~conn) (live :: conns);
  check Alcotest.(list int) "released connections are gone" []
    (Server.connections server);
  (* A turn long past every liveness deadline touches no session. *)
  Server.tick server ~now:100_000;
  List.iter
    (fun conn ->
      check Alcotest.string "no output for a released connection" ""
        (Server.flush server ~conn);
      check Alcotest.bool "no session state remains" true
        (Server.terminal server ~conn = None))
    (live :: conns);
  check Alcotest.bool "the core is idle" true (Server.idle server);
  Scheduler.close sched

let test_server_rejects_bad_spec () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conn = Server.connect server ~now:0 in
  let client =
    Client.create ~config:fast_client ~spec:(spec ~test:"no-such-test" ())
      ~now:0 ()
  in
  (match drive server conn client with
  | Client.Failed m ->
    check Alcotest.bool "rejection is classified" true
      (String.length m >= 8 && String.sub m 0 8 = "rejected")
  | _ -> Alcotest.fail "bad spec must fail the submission");
  Scheduler.close sched

let test_server_drain_refuses_submissions () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  Server.drain server ~now:0;
  let conn = Server.connect server ~now:0 in
  let client = Client.create ~config:fast_client ~spec:(spec ()) ~now:0 () in
  (match drive server conn client with
  | Client.Failed m ->
    check Alcotest.bool "draining is classified" true
      (String.length m >= 8 && String.sub m 0 8 = "draining")
  | _ -> Alcotest.fail "a draining daemon must refuse new work");
  check Alcotest.bool "draining failures are retryable" true
    (Client.retryable "draining: daemon is draining");
  check Alcotest.bool "rejections are not retryable" false
    (Client.retryable "rejected: unknown test");
  Scheduler.close sched

(* Kill the daemon between a client's records, restart over the same
   journal, and demand that a second client sees the exact bytes the
   first would have: the full stream, index order, journaled prefix
   included. *)
let test_server_kill_restart_stream_identity () =
  with_scratch @@ fun () ->
  let sp = spec ~campaign:"resurrect" ~runs:5 ~iterations:130 ~seed:23 () in
  let reference, ref_metrics = reference_records sp in
  let path = in_scratch "server.journal" in
  let s1 = Result.get_ok (Scheduler.create ~jobs:2 ~journal:(Some path) ()) in
  let server1 = Server.create ~session_config:fast_session ~scheduler:s1 () in
  let conn1 = Server.connect server1 ~now:0 in
  let client1 = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (* Let the submission land and at least one batch retire, then
     simulate kill -9: the scheduler journal fd closes, nothing drains. *)
  let cbytes = Framed.take_all (Client.output client1) in
  Server.input server1 ~conn:conn1 ~now:0 cbytes;
  Client.input client1 ~now:0 (Server.flush server1 ~conn:conn1);
  Server.input server1 ~conn:conn1 ~now:1
    (Framed.take_all (Client.output client1));
  Server.tick server1 ~now:1;
  let journaled = Scheduler.completed s1 ~campaign:"resurrect" in
  check Alcotest.bool "kill point is mid-campaign" true
    (journaled > 0 && journaled < 5);
  Scheduler.close s1;
  (* Restart: fresh scheduler and server over the same journal. *)
  let s2 = Result.get_ok (Scheduler.create ~jobs:1 ~journal:(Some path) ()) in
  let server2 = Server.create ~session_config:fast_session ~scheduler:s2 () in
  let conn2 = Server.connect server2 ~now:0 in
  let client2 = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (match drive server2 conn2 client2 with
  | Client.Done outcome ->
    (* The restarted daemon resumes campaigns in the background, so by
       the time the submit lands it may have retired more runs than the
       kill point journaled — never fewer. *)
    check Alcotest.bool "accept covers the journaled prefix" true
      (outcome.Client.completed_at_accept >= journaled
      && outcome.Client.completed_at_accept <= 5);
    check Alcotest.(list string) "restarted stream is byte-identical"
      reference outcome.Client.records;
    check Alcotest.string "metrics survive the crash byte-identically"
      ref_metrics outcome.Client.metrics
  | Client.Failed m -> Alcotest.failf "restarted stream failed: %s" m
  | Client.Pending -> Alcotest.fail "restarted stream hung");
  Scheduler.close s2

(* --- chaos ------------------------------------------------------------------- *)

let chaos_budget = 20_000

(* One seeded schedule: a client submits through a pair of chaos
   proxies; transport-level deaths are retried on a fresh connection
   (the daemon survives, the journal persists).  Returns the terminal
   classification, which must exist — running out of ticks is a hang,
   the one forbidden outcome. *)
let run_chaos_schedule ~seed sched =
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let sp = spec ~campaign:"chaos" ~runs:2 ~iterations:60 ~seed:(seed land 0xFF) () in
  let profile = Chaos.rough in
  let attempt = ref 0 in
  let finished = ref None in
  let now = ref 0 in
  while !finished = None && !now < chaos_budget do
    incr attempt;
    let c2s = Chaos.create ~seed:((seed * 31) + !attempt) profile in
    let s2c = Chaos.create ~seed:((seed * 67) + !attempt) profile in
    let conn = Server.connect server ~now:!now in
    let client = Client.create ~config:fast_client ~spec:sp ~now:!now () in
    let server_saw_eof = ref false in
    let client_saw_eof = ref false in
    (try
       while !now < chaos_budget do
         let t = !now in
         Chaos.push c2s ~now:t (Framed.take_all (Client.output client));
         (match Chaos.pull c2s ~now:t with
         | `Data bytes -> Server.input server ~conn ~now:t bytes
         | `Idle -> ()
         | `Cut ->
           if not !server_saw_eof then begin
             server_saw_eof := true;
             Server.eof server ~conn ~now:t
           end);
         Chaos.push s2c ~now:t (Server.flush server ~conn);
         (match Chaos.pull s2c ~now:t with
         | `Data bytes -> Client.input client ~now:t bytes
         | `Idle -> ()
         | `Cut ->
           if not !client_saw_eof then begin
             client_saw_eof := true;
             Client.eof client ~now:t
           end);
         Server.tick server ~now:t;
         Client.tick client ~now:t;
         incr now;
         match Client.status client with
         | Client.Pending -> ()
         | Client.Done _ as s ->
           finished := Some s;
           raise Settled
         | Client.Failed reason as s ->
           if Client.retryable reason && !attempt < 5 then raise Settled
           else begin
             finished := Some s;
             raise Settled
           end
       done
     with Settled -> ());
    (* The dead connection is closed server-side, as a real driver
       would; the daemon itself lives on. *)
    if Server.terminal server ~conn = None then Server.eof server ~conn ~now:!now
  done;
  match !finished with
  | Some status -> status
  | None ->
    Alcotest.failf "chaos schedule %d HUNG after %d ticks (attempt %d)" seed
      chaos_budget !attempt

(* >= 500 seeded fault schedules, every one ending classified with an
   undamaged journal.  Successful schedules must also stream the
   reference bytes — chaos may slow the protocol down, never bend it. *)
let test_chaos_schedules () =
  with_scratch @@ fun () ->
  let references = Hashtbl.create 16 in
  let reference seed =
    match Hashtbl.find_opt references (seed land 0xFF) with
    | Some r -> r
    | None ->
      let r =
        reference_records
          (spec ~campaign:"chaos" ~runs:2 ~iterations:60 ~seed:(seed land 0xFF) ())
      in
      Hashtbl.replace references (seed land 0xFF) r;
      r
  in
  let done_count = ref 0 and failed_count = ref 0 in
  for seed = 0 to 499 do
    let path = in_scratch "chaos.journal" in
    if Sys.file_exists path then Sys.remove path;
    let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
    (match run_chaos_schedule ~seed sched with
    | Client.Done outcome ->
      incr done_count;
      let ref_records, ref_metrics = reference seed in
      if outcome.Client.records <> ref_records then
        Alcotest.failf "chaos schedule %d streamed wrong records" seed;
      if outcome.Client.metrics <> ref_metrics then
        Alcotest.failf "chaos schedule %d streamed wrong metrics" seed
    | Client.Failed reason ->
      incr failed_count;
      if String.length reason = 0 then
        Alcotest.failf "chaos schedule %d failed without a reason" seed
    | Client.Pending -> Alcotest.failf "chaos schedule %d unsettled" seed);
    Scheduler.close sched;
    match Journal.load path with
    | Error m -> Alcotest.failf "chaos schedule %d corrupted journal: %s" seed m
    | Ok r ->
      if r.Journal.dropped_bytes <> 0 then
        Alcotest.failf "chaos schedule %d left %d damaged journal bytes" seed
          r.Journal.dropped_bytes
  done;
  check Alcotest.int "every schedule classified" 500
    (!done_count + !failed_count);
  if !done_count = 0 then
    Alcotest.fail "chaos suite never succeeded: retry discipline is broken";
  if !failed_count = 0 then
    Alcotest.fail
      "chaos suite never failed: fault injection is not reaching the wire"

(* Same seed, same faults, same metrics dump — the observability
   satellite's determinism contract. *)
let test_chaos_metrics_deterministic () =
  with_scratch @@ fun () ->
  let dump () =
    let sink = Metrics.create_sink () in
    Metrics.scoped sink (fun () ->
        let path = in_scratch "det.journal" in
        if Sys.file_exists path then Sys.remove path;
        let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
        ignore (run_chaos_schedule ~seed:42 sched);
        Scheduler.close sched);
    Json.to_string (Metrics.to_json sink)
  in
  let first = dump () in
  let second = dump () in
  check Alcotest.string "chaos metrics dump is seed-deterministic" first
    second;
  check Alcotest.bool "chaos counters were actually recorded" true
    (let contains_sub s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains_sub first "chaos." && contains_sub first "service.")

(* Chaos proxy unit behavior: determinism and FIFO ordering. *)
let test_chaos_proxy_deterministic () =
  let transcript seed =
    let c = Chaos.create ~seed Chaos.rough in
    let out = Buffer.create 64 in
    for now = 0 to 200 do
      if now mod 7 = 0 then
        Chaos.push c ~now (Printf.sprintf "payload-%d;" now);
      match Chaos.pull c ~now with
      | `Data d -> Buffer.add_string out d
      | `Idle -> Buffer.add_string out "."
      | `Cut -> Buffer.add_string out "!"
    done;
    Buffer.contents out
  in
  check Alcotest.string "same seed, same mangling" (transcript 9) (transcript 9);
  if transcript 9 = transcript 10 then
    Alcotest.fail "different seeds should mangle differently";
  (* A quiet profile is a transparent, order-preserving pipe. *)
  let c = Chaos.create ~seed:1 Chaos.quiet in
  Chaos.push c ~now:0 "abc";
  Chaos.push c ~now:0 "def";
  let got = Buffer.create 8 in
  for now = 0 to 3 do
    match Chaos.pull c ~now with
    | `Data d -> Buffer.add_string got d
    | `Idle | `Cut -> ()
  done;
  check Alcotest.string "quiet profile preserves bytes and order" "abcdef"
    (Buffer.contents got);
  check Alcotest.int "quiet profile injects nothing" 0 (Chaos.faults c)

(* --- journal directory durability (satellite fix) ---------------------------- *)

let test_journal_create_fsyncs_directory () =
  with_scratch @@ fun () ->
  (* Functional regression for the directory-fsync fix: creation in a
     fresh directory and in the working directory (dirname ".") both
     succeed, and reopening an existing journal doesn't re-create. *)
  let dir = in_scratch "nested" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "j.log" in
  let j = Journal.create path in
  Journal.append j (Json.Obj [ ("kind", Json.String "header") ]);
  Journal.close j;
  let j = Journal.open_append path in
  Journal.append j (Json.Obj [ ("kind", Json.String "x") ]);
  Journal.close j;
  (match Journal.load path with
  | Ok r ->
    check Alcotest.int "both records durable" 2 (List.length r.Journal.records)
  | Error m -> Alcotest.failf "reload failed: %s" m);
  let cwd = Sys.getcwd () in
  Sys.chdir scratch;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let j = Journal.create "relative.log" in
  Journal.append j (Json.Obj [ ("kind", Json.String "header") ]);
  Journal.close j;
  check Alcotest.bool "relative path (dirname = .) works" true
    (Sys.file_exists "relative.log")

(* --- daemon end-to-end over a real socket ------------------------------------ *)

let binary =
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/perple.exe"; "_build/default/bin/perple.exe" ])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* Spawn [perple serve --socket SOCK ARGS] in a fresh scratch directory
   and run [f] against it; the daemon is SIGKILLed when [f] returns. *)
let with_daemon ~args f =
  match Lazy.force binary with
  | None -> () (* binary not built in this context; CI smoke covers it *)
  | Some bin ->
    with_scratch @@ fun () ->
    let bin =
      if Filename.is_relative bin then Filename.concat (Sys.getcwd ()) bin
      else bin
    in
    (* Unix socket paths are capped around 104 bytes; keep it short. *)
    let sock = Filename.concat scratch "e2e.sock" in
    let serve_cmd =
      Printf.sprintf "%s serve --socket %s %s > %s 2>&1 & echo $! > %s"
        (Filename.quote bin) (Filename.quote sock) args
        (Filename.quote (in_scratch "serve.log"))
        (Filename.quote (in_scratch "serve.pid"))
    in
    if Sys.command serve_cmd <> 0 then Alcotest.fail "could not spawn daemon";
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.05
    done;
    if not (Sys.file_exists sock) then
      Alcotest.failf "daemon never bound its socket:\n%s"
        (read_file (in_scratch "serve.log"));
    let pid = int_of_string (String.trim (read_file (in_scratch "serve.pid"))) in
    Fun.protect ~finally:(fun () ->
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    @@ fun () -> f ~bin ~sock ~pid

let test_daemon_end_to_end () =
  let journal = in_scratch "e2e.journal" in
  with_daemon ~args:("--journal " ^ Filename.quote journal ^ " --jobs 2")
  @@ fun ~bin ~sock ~pid ->
  let submit out =
    Sys.command
      (Printf.sprintf
         "%s submit e2e podwr000 --socket %s --runs 3 --iterations 500 > %s \
          2> %s"
         (Filename.quote bin) (Filename.quote sock)
         (Filename.quote (in_scratch out))
         (Filename.quote (in_scratch (out ^ ".err"))))
  in
  if submit "first.stream" <> 0 then
    Alcotest.failf "first submit failed:\n%s"
      (read_file (in_scratch "first.stream.err"));
  if submit "second.stream" <> 0 then
    Alcotest.failf "resubmit failed:\n%s"
      (read_file (in_scratch "second.stream.err"));
  check Alcotest.string "daemon re-streams byte-identically"
    (read_file (in_scratch "first.stream"))
    (read_file (in_scratch "second.stream"));
  check Alcotest.bool "stream carries records and metrics" true
    (let text = read_file (in_scratch "first.stream") in
     String.length text > 0
     && List.length (String.split_on_char '\n' text) >= 4);
  (* SIGTERM drains: socket gone, draining marker journaled. *)
  Unix.kill pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Sys.file_exists sock && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if Sys.file_exists sock then Alcotest.fail "daemon did not drain on SIGTERM";
  match Journal.load journal with
  | Error m -> Alcotest.failf "drained journal unreadable: %s" m
  | Ok r ->
    check Alcotest.int "drained journal undamaged" 0 r.Journal.dropped_bytes;
    check Alcotest.bool "draining marker present" true
      (List.exists
         (fun j -> Json.member "kind" j = Some (Json.String "draining"))
         r.Journal.records)

(* The daemon's turns are event-driven: a campaign of 12 one-run
   batches (--jobs 1) runs them back to back instead of sleeping out an
   idle tick (50 ms) between batches, which alone would take 550 ms —
   and an idle daemon does not spin. *)
let test_daemon_runs_batches_back_to_back () =
  with_daemon ~args:"--jobs 1" @@ fun ~bin ~sock ~pid ->
  let out = in_scratch "turns.stream" in
  let started = Unix.gettimeofday () in
  let rc =
    Sys.command
      (Printf.sprintf
         "%s submit turns sb --socket %s --runs 12 --iterations 200 > %s 2> %s"
         (Filename.quote bin) (Filename.quote sock) (Filename.quote out)
         (Filename.quote (out ^ ".err")))
  in
  let wall_ms = (Unix.gettimeofday () -. started) *. 1000. in
  if rc <> 0 then Alcotest.failf "submit failed:\n%s" (read_file (out ^ ".err"));
  check Alcotest.bool "stream carries 12 records and metrics" true
    (List.length (String.split_on_char '\n' (read_file out)) >= 13);
  if wall_ms > 300. then
    Alcotest.failf "12 batches took %.0f ms: the daemon waited between them"
      wall_ms;
  (* utime + stime, fields 14 and 15 of /proc/PID/stat, counted in
     USER_HZ = 100 ticks per second; the fields after the parenthesised
     command name start at field 3. *)
  let stat = Printf.sprintf "/proc/%d/stat" pid in
  if Sys.file_exists stat then begin
    let cpu_ticks () =
      let text = In_channel.with_open_bin stat In_channel.input_all in
      let after = String.rindex text ')' + 2 in
      let fields =
        String.split_on_char ' '
          (String.sub text after (String.length text - after))
      in
      int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)
    in
    let before = cpu_ticks () in
    Unix.sleepf 1.0;
    let used_ms = (cpu_ticks () - before) * 10 in
    if used_ms >= 100 then
      Alcotest.failf "idle daemon burned %d ms of CPU in 1 s: it spins" used_ms
  end

(* --- suite ------------------------------------------------------------------- *)

let suite =
  [
    ( "service.wire",
      List.map QCheck_alcotest.to_alcotest
        (roundtrip_properties
        @ [ truncation_property; corruption_never_raises_property ])
      @ [ Alcotest.test_case "hostile inputs classified" `Quick
            test_wire_hostile ] );
    ( "service.framed",
      [
        Alcotest.test_case "fifo buffer" `Quick test_framed_fifo;
        Alcotest.test_case "nonblocking pipe io" `Quick test_framed_pipe;
      ] );
    ( "service.session",
      [
        Alcotest.test_case "handshake" `Quick test_session_handshake;
        Alcotest.test_case "quarantine discipline" `Quick
          test_session_quarantines;
        Alcotest.test_case "heartbeats and liveness" `Quick
          test_session_liveness;
        Alcotest.test_case "backpressure" `Quick test_session_backpressure;
        Alcotest.test_case "drain completes" `Quick
          test_session_drain_completes;
      ] );
    ( "service.scheduler",
      [
        Alcotest.test_case "spec validation" `Quick test_scheduler_validation;
        Alcotest.test_case "idempotent resubmit" `Quick
          test_scheduler_idempotent_submit;
        Alcotest.test_case "cancellation" `Quick test_scheduler_cancel;
        Alcotest.test_case "kill -9 resume equivalence" `Slow
          test_scheduler_kill_resume_equivalence;
        Alcotest.test_case "draining marker resumes" `Quick
          test_scheduler_draining_marker_resumes;
      ] );
    ( "service.server",
      [
        Alcotest.test_case "happy path streams the reference" `Quick
          test_server_happy_path;
        Alcotest.test_case "releases closed connections" `Quick
          test_server_releases_closed_connections;
        Alcotest.test_case "rejects bad specs" `Quick
          test_server_rejects_bad_spec;
        Alcotest.test_case "drain refuses submissions" `Quick
          test_server_drain_refuses_submissions;
        Alcotest.test_case "kill/restart stream identity" `Slow
          test_server_kill_restart_stream_identity;
      ] );
    ( "service.chaos",
      [
        Alcotest.test_case "proxy is deterministic and fifo" `Quick
          test_chaos_proxy_deterministic;
        Alcotest.test_case "500 seeded fault schedules" `Slow
          test_chaos_schedules;
        Alcotest.test_case "metrics deterministic under fixed seed" `Slow
          test_chaos_metrics_deterministic;
      ] );
    ( "service.durability",
      [
        Alcotest.test_case "journal creation fsyncs its directory" `Quick
          test_journal_create_fsyncs_directory;
      ] );
    ( "service.daemon",
      [
        Alcotest.test_case "end-to-end over a unix socket" `Slow
          test_daemon_end_to_end;
        Alcotest.test_case "batches run back to back, idle never spins" `Slow
          test_daemon_runs_batches_back_to_back;
      ] );
  ]
