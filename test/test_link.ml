(* The service's peer link seen from outside.  A golden metrics dump
   pins every service counter name and value of one fixed chaos
   schedule (a client, a coordinator and one worker), and the two
   blocking drivers — [Client.submit_blocking] and
   [Worker.work_blocking] — run over real Unix sockets against absent
   peers and fake peers on a domain, pinning retry counts, the daemon's
   [Busy] back-off hint and the worker's retry-budget refill. *)

module Framed = Perple_util.Framed
module Json = Perple_util.Json
module Metrics = Perple_util.Metrics
module Wire = Perple_service.Wire
module Scheduler = Perple_service.Scheduler
module Client = Perple_service.Client
module Worker = Perple_service.Worker
module Chaos = Perple_service.Chaos
module Link = Perple_service.Link

let check = Alcotest.check

let scratch = Filename.concat (Filename.get_temp_dir_name ()) "perple-link-test"

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let in_scratch name = Filename.concat scratch name

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_sub = Test_coordinator.contains_sub

(* --- golden metrics ------------------------------------------------------------ *)

(* Seed 12 draws four worker faults (one revoked lease, one lost
   session, one missed heartbeat stretch) and still completes the
   client, so the dump names client, worker, session, coordinator and
   chaos counters alike. *)
let golden_dump () =
  let sink = Metrics.create_sink () in
  Metrics.scoped sink (fun () ->
      let path = in_scratch "golden.journal" in
      let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
      let sp = Test_coordinator.spec ~runs:6 ~iterations:50 ~seed:3 () in
      (match
         Test_coordinator.run_schedule ~seed:12 ~workers:1
           ~profile:Chaos.rough_workers ~max_attempts:4 ~sp sched
       with
      | Client.Done _, _ -> ()
      | Client.Failed m, _ -> Alcotest.failf "golden schedule failed: %s" m
      | Client.Pending, _ -> Alcotest.fail "golden schedule hung");
      Scheduler.close sched);
  Json.to_string (Metrics.to_json sink) ^ "\n"

(* The dump must match the committed bytes: a renamed, merged or
   recounted service counter fails here even when two runs of the new
   code agree with each other. *)
let test_golden_metrics () =
  with_scratch @@ fun () ->
  let got = golden_dump () in
  let want =
    In_channel.with_open_bin
      (Filename.concat "fixtures" "service_metrics.json")
      In_channel.input_all
  in
  if got <> want then begin
    Out_channel.with_open_bin (in_scratch "service_metrics.json") (fun oc ->
        output_string oc got);
    Alcotest.failf "metrics dump differs from fixtures/service_metrics.json \
                    (actual written to %s)"
      (in_scratch "service_metrics.json")
  end;
  List.iter
    (fun name ->
      if not (contains_sub got (Printf.sprintf "%S" name)) then
        Alcotest.failf "golden dump lacks %s" name)
    [ "service.client.frames_out"; "service.worker.frames_out";
      "service.frames_out"; "service.heartbeats_missed" ]

(* --- fake peers ----------------------------------------------------------------- *)

(* The fake daemon or coordinator runs on its own domain rather than in
   a forked process: OCaml 5 refuses [Unix.fork] once any domain has
   been created, and earlier suites run domain pools.  Every wait it
   makes is bounded by [peer_deadline], so a driver that gives up early
   fails the test instead of hanging it. *)
let peer_deadline = 5.0

let ready fd ~until =
  let left = until -. Unix.gettimeofday () in
  left > 0.
  &&
  match Unix.select [ fd ] [] [] left with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Bind [sock] and run [serve ~accept ~stop_listening] on a domain while
   [f] runs here.  [accept ()] is the next connection, or [None] past
   the deadline; [stop_listening] closes the listening socket (once).
   Returns [f]'s result and [serve]'s, [-1] if [serve] raised. *)
let with_fake_peer ~sock ~serve f =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 8;
  let until = Unix.gettimeofday () +. peer_deadline in
  let listening = ref true in
  let stop_listening () =
    if !listening then begin
      listening := false;
      Unix.close listener
    end
  in
  let accept () =
    if !listening && ready listener ~until then Some (fst (Unix.accept listener))
    else None
  in
  let peer =
    Domain.spawn (fun () ->
        Fun.protect ~finally:stop_listening (fun () ->
            try serve ~accept ~stop_listening ~until with _ -> -1))
  in
  match f () with
  | result -> (result, Domain.join peer)
  | exception e ->
    ignore (Domain.join peer);
    raise e

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Reads into a fresh buffer until [stop] holds for a decoded frame, the
   peer closes or the deadline passes; frames are decoded with the
   daemon's codec. *)
let read_until fd ~until ~stop =
  let buf = Framed.create () in
  let chunk = Bytes.create 4096 in
  let rec frames () =
    match Wire.next_frame buf with
    | `Frame f -> stop f || frames ()
    | `Need_more | `Corrupt _ -> false
  in
  let rec go () =
    if (not (frames ())) && ready fd ~until then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Framed.add_string buf (Bytes.sub_string chunk 0 n);
        go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ()

let daemon_hello = Wire.encode (Wire.Hello { version = Wire.protocol_version; peer = "fake" })

(* --- client driver ------------------------------------------------------------- *)

let submit_spec = Test_service.spec ~campaign:"link" ~runs:1 ~iterations:50 ()

let test_client_absent_socket () =
  with_scratch @@ fun () ->
  let sink = Metrics.create_sink () in
  let result =
    Metrics.scoped sink (fun () ->
        Client.submit_blocking ~socket:(in_scratch "absent.sock") ~attempts:3
          ~spec:submit_spec ())
  in
  (match result with
  | Error m ->
    if not (starts_with "connect: " m) then
      Alcotest.failf "expected a connect failure, got %S" m
  | Ok _ -> Alcotest.fail "a submit to an absent socket cannot succeed");
  check Alcotest.int "two retries after the first attempt" 2
    (Metrics.counter sink "service.client.retries");
  check Alcotest.int "no machine is built without a connection" 0
    (Metrics.counter sink "service.client.frames_out")

(* A fake daemon that answers every connection with [Hello] then
   [Busy {retry_after = 300}]: the client must sleep at least the hint
   (its own backoff would be 50 ms) before its second and last try. *)
let test_client_honours_busy_hint () =
  with_scratch @@ fun () ->
  let sock = in_scratch "busy.sock" in
  let reply = daemon_hello ^ Wire.encode (Wire.Busy { retry_after = 300 }) in
  let serve ~accept ~stop_listening:_ ~until =
    let served = ref 0 in
    while !served < 2 && (match accept () with
      | None -> false
      | Some fd ->
        write_all fd reply 0;
        read_until fd ~until ~stop:(fun _ -> false);
        Unix.close fd;
        incr served;
        true) do () done;
    !served
  in
  let sink = Metrics.create_sink () in
  let (result, elapsed), served =
    with_fake_peer ~sock ~serve (fun () ->
        Metrics.scoped sink (fun () ->
            let started = Unix.gettimeofday () in
            let r =
              Client.submit_blocking ~socket:sock ~attempts:2 ~spec:submit_spec ()
            in
            (r, Unix.gettimeofday () -. started)))
  in
  check Alcotest.int "the fake daemon served both connections" 2 served;
  (match result with
  | Error m ->
    if not (starts_with "busy" m) then Alcotest.failf "expected busy, got %S" m
  | Ok _ -> Alcotest.fail "a busy daemon cannot complete a submit");
  check Alcotest.int "one retry" 1 (Metrics.counter sink "service.client.retries");
  if elapsed < 0.3 then
    Alcotest.failf "retried after %.0f ms, before the 300 ms hint" (elapsed *. 1000.)

(* --- worker driver ------------------------------------------------------------- *)

let reconnect_notes notes =
  List.length (List.filter (fun l -> contains_sub l "reconnecting") notes)

let test_worker_absent_socket () =
  with_scratch @@ fun () ->
  let notes = ref [] in
  let attempts = 3 in
  (match
     Worker.work_blocking
       ~address:(`Unix_socket (in_scratch "absent.sock"))
       ~attempts ~initial_delay_ms:1
       ~on_note:(fun l -> notes := l :: !notes)
       ()
   with
  | Error m ->
    if not (starts_with "connect: " m) then
      Alcotest.failf "expected a connect failure, got %S" m
  | Ok _ -> Alcotest.fail "a worker with no coordinator cannot stop cleanly");
  check Alcotest.int "k - 1 reconnect notes before giving up" (attempts - 1)
    (reconnect_notes !notes)

(* A fake coordinator that grants one lease per connection, collects the
   shard's outcome and hangs up, [served] times, then stops listening.
   Every connection took a lease, so each refills the worker's retry
   budget: it is reconnected to more than [attempts] times. *)
let test_worker_budget_refill () =
  with_scratch @@ fun () ->
  let sock = in_scratch "coord.sock" in
  let attempts = 2 and served = 4 in
  let spec = { submit_spec with Wire.campaign = "refill" } in
  let digest =
    match Scheduler.resolve_spec spec with
    | Ok r -> r.Scheduler.r_digest
    | Error m -> Alcotest.failf "spec does not resolve: %s" m
  in
  let grant epoch =
    daemon_hello
    ^ Wire.encode
        (Wire.Lease
           { campaign = "refill"; digest; shard = 0; epoch; lo = 0; hi = 1;
             lease_ticks = 10_000; spec })
  in
  let serve ~accept ~stop_listening ~until =
    let collected = ref 0 in
    let rec next epoch =
      if epoch <= served then
        match accept () with
        | None -> ()
        | Some fd ->
          (* Stop listening before the last hang-up, so the reconnect
             that follows is refused rather than parked in the backlog. *)
          if epoch = served then stop_listening ();
          write_all fd (grant epoch) 0;
          read_until fd ~until ~stop:(function
            | Wire.Shard_result _ | Wire.Shard_failed _ ->
              incr collected;
              true
            | _ -> false);
          Unix.close fd;
          next (epoch + 1)
    in
    next 1;
    !collected
  in
  let notes = ref [] in
  let result, collected =
    with_fake_peer ~sock ~serve (fun () ->
        Worker.work_blocking ~address:(`Unix_socket sock) ~attempts
          ~initial_delay_ms:1
          ~on_note:(fun l -> notes := l :: !notes)
          ())
  in
  check Alcotest.int "every connection's lease came back" served collected;
  (match result with
  | Error m ->
    if not (starts_with "connect: " m) then
      Alcotest.failf "expected a refused reconnect, got %S" m
  | Ok _ -> Alcotest.fail "the worker cannot stop cleanly");
  check Alcotest.int "one reconnect note per leased connection" served
    (reconnect_notes !notes)

(* --- the pump's terminal flush ---------------------------------------------------- *)

(* A finished machine with 1 MiB queued for a peer that neither reads
   nor closes: the pump waits for writability instead of spinning, and
   drops what is still unsent once the link's liveness timeout passes. *)
let test_terminal_flush_bounded () =
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close near; Unix.close far) @@ fun () ->
  Unix.set_nonblock near;
  let liveness_timeout = 300 in
  let link =
    Link.create { heartbeat_every = 50; liveness_timeout } ~metrics:"test.link"
      ~now:0
  in
  let out = Link.output link in
  Framed.add_string out (String.make (1 lsl 20) 'x');
  let epoch = Unix.gettimeofday () in
  let now () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.) in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let cpu_before = cpu () in
  Link.pump near ~now
    { link; input = (fun ~now:_ _ -> ()); eof = (fun ~now:_ -> ());
      advance = (fun ~now:_ -> ()); step = (fun () -> `Finish ()) };
  let wall_ms = now () and cpu_ms = (cpu () -. cpu_before) *. 1000. in
  check Alcotest.bool "unsent bytes dropped" true (Framed.is_empty out);
  if wall_ms < liveness_timeout then
    Alcotest.failf "gave up after %d ms, before the %d ms bound" wall_ms
      liveness_timeout;
  if wall_ms > liveness_timeout + 1_000 then
    Alcotest.failf "flush took %d ms against a %d ms bound" wall_ms
      liveness_timeout;
  if cpu_ms > float_of_int liveness_timeout /. 2. then
    Alcotest.failf "flush burned %.0f ms of CPU in %d ms: it spins" cpu_ms
      wall_ms

let suite =
  [
    ( "service.link",
      [
        Alcotest.test_case "golden chaos metrics dump" `Quick test_golden_metrics;
        Alcotest.test_case "client gives up on an absent socket" `Quick
          test_client_absent_socket;
        Alcotest.test_case "client sleeps at least a Busy hint" `Quick
          test_client_honours_busy_hint;
        Alcotest.test_case "worker gives up after k fruitless connections" `Quick
          test_worker_absent_socket;
        Alcotest.test_case "a leased connection refills the worker's budget"
          `Quick test_worker_budget_refill;
        Alcotest.test_case "terminal flush is bounded and never spins" `Quick
          test_terminal_flush_bounded;
      ] );
  ]
