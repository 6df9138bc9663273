(* Daemon core (sans-IO) and its select-loop driver.

   The core never blocks and never touches a socket: connections are
   integer ids, time is an integer the driver advances, and all bytes
   move through explicit [input]/[flush] calls.  The driver at the
   bottom of this file is deliberately dumb — accept, read, tick,
   write, close — so that everything the chaos suite exercises is
   exactly what production runs. *)

module Framed = Perple_util.Framed
module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event

(* One subscription: a client waiting for a campaign's stream.  [cursor]
   is the next run index to send; records below it have been queued and
   therefore (journal-before-stream) are on disk. *)
type sub = {
  campaign : string;
  mutable cursor : int;
  mutable metrics_sent : bool;
  mutable last_progress : (int * int * int * int) option;
      (** (runs done, shards done/leased/failed) last pushed, so
          progress frames only flow when something moved. *)
}

type conn = {
  cid : int;
  session : Session.t;
  mutable subs : sub list;  (** In subscription order. *)
}

type t = {
  scheduler : Scheduler.t;
  coordinator : Coordinator.t;
      (** The only planner: the local pool and any workers both execute
          shards claimed from its table. *)
  admit_workers : bool;
  session_config : Session.config;
  conns : (int, conn) Hashtbl.t;
  mutable next_id : int;
  mutable draining : bool;
  mutable now : int;  (** The clock of the latest {!tick}. *)
}

(* The one constructor, for [create] and [serve]: [admit_workers] is
   whether the caller asked for a coordinator. *)
let make ?(session_config = Session.default_config) ~coordinator
    ~admit_workers ~scheduler () =
  {
    scheduler;
    coordinator;
    admit_workers;
    session_config;
    conns = Hashtbl.create 8;
    next_id = 0;
    draining = false;
    now = 0;
  }

let create ?session_config ?coordinator ~scheduler () =
  let admit_workers = coordinator <> None in
  let coordinator =
    match coordinator with
    | Some co -> co
    | None -> (
      match Coordinator.create ~scheduler () with
      | Ok co -> co
      | Error m -> invalid_arg ("Server.create: " ^ m))
  in
  make ?session_config ~coordinator ~admit_workers ~scheduler ()

let conn t id = Hashtbl.find_opt t.conns id

let connections t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.conns [] |> List.sort compare

let draining t = t.draining

(* --- streaming ------------------------------------------------------------- *)

(* Push whatever the subscription is owed, stopping at the first
   [`Overflow] — the cursor only advances on accepted sends, so
   backpressure is just "try again next tick". *)
let advance_sub t c sub =
  let s = t.scheduler in
  let campaign = sub.campaign in
  match Scheduler.runs s ~campaign with
  | None -> true (* campaign vanished: impossible, but drop the sub *)
  | Some runs ->
    let rec push () =
      if Scheduler.is_cancelled s ~campaign then begin
        Session.send_control c.session
          (Wire.Error { code = Wire.Cancelled; message = campaign });
        true
      end
      else
        match Scheduler.failed s ~campaign with
        | Some m ->
          Session.send_control c.session
            (Wire.Error
               { code = Wire.Internal;
                 message = Printf.sprintf "campaign %s: %s" campaign m });
          true
        | None ->
          if sub.cursor < runs then
            match Scheduler.record s ~campaign ~index:sub.cursor with
            | None -> false (* not executed yet *)
            | Some line -> (
              match
                Session.send c.session
                  (Wire.Run_record
                     { campaign; index = sub.cursor; record = line })
              with
              | `Overflow -> false
              | `Ok ->
                sub.cursor <- sub.cursor + 1;
                Metrics.incr "service.records_streamed";
                push ())
          else if not sub.metrics_sent then
            match Scheduler.metrics_payload s ~campaign with
            | None -> false
            | Some payload -> (
              match
                Session.send c.session (Wire.Metrics_chunk { campaign; payload })
              with
              | `Overflow -> false
              | `Ok ->
                sub.metrics_sent <- true;
                true)
          else true
    in
    push ()

(* Advisory campaign progress: pushed whenever the counts moved, skipped
   under backpressure (the next tick retries), never required for
   completion. *)
let push_progress t c sub =
  match Scheduler.runs t.scheduler ~campaign:sub.campaign with
  | None -> ()
  | Some runs ->
    let runs_done = Scheduler.completed t.scheduler ~campaign:sub.campaign in
    let shards_done, shards_leased, shards_failed =
      Coordinator.shard_counts t.coordinator ~campaign:sub.campaign
    in
    let key = (runs_done, shards_done, shards_leased, shards_failed) in
    if sub.last_progress <> Some key then
      match
        Session.send c.session
          (Wire.Progress
             { campaign = sub.campaign; runs_total = runs; runs_done;
               shards_done; shards_leased; shards_failed })
      with
      | `Ok ->
        sub.last_progress <- Some key;
        Metrics.incr "service.progress_streamed"
      | `Overflow -> ()

let advance_conn t c =
  if Session.active c.session then begin
    List.iter (fun sub -> push_progress t c sub) c.subs;
    c.subs <- List.filter (fun sub -> not (advance_sub t c sub)) c.subs
  end

(* --- session events -------------------------------------------------------- *)

let dispatch t commands =
  List.iter
    (fun { Coordinator.target; frame } ->
      match conn t target with
      | None -> () (* worker vanished between decision and delivery *)
      | Some c -> Session.send_control c.session frame)
    commands

let rec on_event t c ~now = function
  | Session.Hello_received _ -> ()
  | Session.Terminated _ ->
    (* Harmless for plain clients: the coordinator only knows worker
       ids, so this is a no-op unless a lease-holder just died. *)
    Coordinator.remove_worker t.coordinator ~id:c.cid ~now
  | Session.Worker_joined name ->
    if t.admit_workers then Coordinator.add_worker t.coordinator ~id:c.cid ~name
    else begin
      (* A worker dialled a plain daemon: classify and close — the
         session already replied [Hello], so explain before EOF. *)
      Session.send_control c.session
        (Wire.Error
           { code = Wire.Rejected; message = "daemon is not a coordinator" });
      List.iter (on_event t c ~now) (Session.eof c.session ~now)
    end
  | Session.Lease_renewed { campaign; shard; epoch } ->
    dispatch t
      (Coordinator.renew t.coordinator ~worker:c.cid ~campaign ~shard ~epoch
         ~now)
  | Session.Shard_done { campaign; shard; epoch; records } ->
    dispatch t
      (Coordinator.shard_result t.coordinator ~worker:c.cid ~campaign ~shard
         ~epoch ~records ~now)
  | Session.Shard_faulted { campaign; shard; epoch; reason } ->
    dispatch t
      (Coordinator.shard_failed t.coordinator ~worker:c.cid ~campaign ~shard
         ~epoch ~reason ~now)
  | Session.Submitted spec ->
    if t.draining then
      Session.send_control c.session
        (Wire.Error { code = Wire.Draining; message = "daemon is draining" })
    else begin
      match Scheduler.submit t.scheduler spec with
      | Error m ->
        Session.send_control c.session
          (Wire.Error { code = Wire.Rejected; message = m })
      | Ok { Scheduler.digest; runs; completed } ->
        Session.send_control c.session
          (Wire.Accepted { campaign = spec.Wire.campaign; digest; runs; completed });
        if
          not
            (List.exists (fun s -> s.campaign = spec.Wire.campaign) c.subs)
        then
          c.subs <-
            c.subs
            @ [ { campaign = spec.Wire.campaign; cursor = 0;
                  metrics_sent = false; last_progress = None } ]
    end
  | Session.Cancel_requested campaign ->
    if not (Scheduler.cancel t.scheduler ~campaign) then
      Session.send_control c.session
        (Wire.Error
           { code = Wire.Rejected;
             message = Printf.sprintf "unknown campaign %S" campaign })

let handle t c ~now events =
  List.iter (on_event t c ~now) events;
  advance_conn t c

(* --- driver-facing surface ------------------------------------------------- *)

let connect t ~now =
  let id = t.next_id in
  t.next_id <- id + 1;
  let session = Session.create ~config:t.session_config ~id ~now () in
  let c = { cid = id; session; subs = [] } in
  Hashtbl.replace t.conns id c;
  if t.draining then begin
    (* Too late: explain and shut the session immediately; the bytes
       still flush so the client gets a classification, not a reset. *)
    Session.send_control session
      (Wire.Error { code = Wire.Draining; message = "daemon is draining" });
    ignore (Session.eof session ~now)
  end;
  id

let input t ~conn:id ~now bytes =
  match conn t id with
  | None -> ()
  | Some c -> handle t c ~now (Session.feed c.session ~now bytes)

let eof t ~conn:id ~now =
  match conn t id with
  | None -> ()
  | Some c -> List.iter (on_event t c ~now) (Session.eof c.session ~now)

(* The pool executes only while no worker is connected — a plain daemon,
   or a coordinator whose fleet is gone, so a campaign never waits on
   workers that are not coming back.  With workers connected, pending
   work is theirs to lease. *)
let runnable t =
  (not t.draining)
  && Coordinator.worker_count t.coordinator = 0
  && Coordinator.claimable t.coordinator ~now:t.now

let tick t ~now =
  t.now <- now;
  Hashtbl.iter
    (fun _ c -> List.iter (on_event t c ~now) (Session.tick c.session ~now))
    t.conns;
  if not t.draining then dispatch t (Coordinator.tick t.coordinator ~now);
  (* [runnable]'s rule, less the claimable test [run_local] makes itself.
     One claim per turn keeps client I/O interleaved between claims. *)
  if (not t.draining) && Coordinator.worker_count t.coordinator = 0 then
    ignore (Coordinator.run_local t.coordinator ~now);
  (* Deterministic streaming order so tests can compare transcripts. *)
  List.iter
    (fun id -> match conn t id with None -> () | Some c -> advance_conn t c)
    (connections t)

let flush t ~conn:id =
  match conn t id with
  | None -> ""
  | Some c -> Framed.take_all (Session.output c.session)

let closed t ~conn:id =
  match conn t id with
  | None -> true
  | Some c ->
    Session.terminal c.session <> None
    && Framed.is_empty (Session.output c.session)

let terminal t ~conn:id =
  match conn t id with None -> None | Some c -> Session.terminal c.session

let release t ~conn:id = if closed t ~conn:id then Hashtbl.remove t.conns id

let idle t =
  (not (Scheduler.pending t.scheduler))
  && Hashtbl.fold
       (fun _ c acc -> acc && Session.terminal c.session <> None)
       t.conns true

let drain t ~now =
  if not t.draining then begin
    t.draining <- true;
    Scheduler.note_draining t.scheduler;
    Metrics.incr "service.drains";
    Hashtbl.iter
      (fun _ c ->
        if Session.terminal c.session = None then begin
          Session.send_control c.session
            (Wire.Error { code = Wire.Draining; message = "daemon is draining" });
          ignore (Session.eof c.session ~now)
        end)
      t.conns
  end

(* --- real transport -------------------------------------------------------- *)

(* A live socket plus its staging buffers.  [stage] collects raw reads
   before they are handed to the core; [out] collects core output until
   the socket accepts it. *)
type io_conn = { fd : Unix.file_descr; stage : Framed.buf; out : Framed.buf }

let now_ms epoch = int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.)

(* A socket file can be a live daemon or the debris of a dead one; only
   a connection attempt can tell which. *)
let claim_unix_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then Error (Printf.sprintf "socket %s: a daemon is already listening" path)
    else begin
      (try Sys.remove path with Sys_error _ -> ());
      Ok ()
    end
  end
  else Ok ()

let listen_unix path =
  match claim_unix_socket path with
  | Error _ as e -> e
  | Ok () ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64;
       Unix.set_nonblock fd;
       Ok fd
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Error (Printf.sprintf "socket %s: %s" path (Unix.error_message e)))

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Printf.sprintf "tcp port %d: %s" port (Unix.error_message e))

let serve ~socket ?tcp_port ?(jobs = 1) ?session_config ?coordinator ~journal
    () =
  match Scheduler.create ~jobs ~journal () with
  | Error _ as e -> e
  | Ok scheduler -> (
    let finish_scheduler () = Scheduler.close scheduler in
    let admit_workers = coordinator <> None in
    match Coordinator.create ?config:coordinator ~scheduler () with
    | Error m ->
      finish_scheduler ();
      Error m
    | Ok coordinator -> (
    match listen_unix socket with
    | Error m ->
      finish_scheduler ();
      Error m
    | Ok unix_fd -> (
      let tcp =
        match tcp_port with
        | None -> Ok None
        | Some p -> Result.map Option.some (listen_tcp p)
      in
      match tcp with
      | Error m ->
        Unix.close unix_fd;
        (try Sys.remove socket with Sys_error _ -> ());
        finish_scheduler ();
        Error m
      | Ok tcp_fd ->
        let core =
          make ?session_config ~coordinator ~admit_workers ~scheduler ()
        in
        let epoch = Unix.gettimeofday () in
        let stop = ref None in
        let handler s = stop := Some s in
        let old_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
        let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
        (* A client that vanishes mid-write must surface as [`Closed]
           (EPIPE) on that one connection, not kill the daemon. *)
        let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let listeners = unix_fd :: Option.to_list tcp_fd in
        let ios : (int, io_conn) Hashtbl.t = Hashtbl.create 8 in
        let close_io id io =
          Hashtbl.remove ios id;
          release core ~conn:id;
          try Unix.close io.fd with Unix.Unix_error _ -> ()
        in
        let accept_on lfd =
          match Unix.accept ~cloexec:true lfd with
          | fd, _ ->
            Unix.set_nonblock fd;
            let id = connect core ~now:(now_ms epoch) in
            Hashtbl.replace ios id
              { fd; stage = Framed.create (); out = Framed.create () }
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
            ()
        in
        let pump_io () =
          (* Read side, then core turn, then write side. *)
          let now = now_ms epoch in
          Hashtbl.iter
            (fun id io ->
              match Framed.read_into io.fd io.stage with
              | `Read _ -> input core ~conn:id ~now (Framed.take_all io.stage)
              | `Would_block -> ()
              | `Closed | `Error _ -> eof core ~conn:id ~now)
            ios;
          tick core ~now:(now_ms epoch);
          let dead = ref [] in
          Hashtbl.iter
            (fun id io ->
              Framed.add_string io.out (flush core ~conn:id);
              (if not (Framed.is_empty io.out) then
                 match Framed.write_from io.fd io.out with
                 | `Wrote _ | `Would_block -> ()
                 | `Closed | `Error _ ->
                   eof core ~conn:id ~now:(now_ms epoch);
                   Framed.consume io.out (Framed.length io.out));
              if closed core ~conn:id && Framed.is_empty io.out then
                dead := (id, io) :: !dead)
            ios;
          List.iter (fun (id, io) -> close_io id io) !dead
        in
        let finally () =
          Sys.set_signal Sys.sigint old_int;
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigpipe old_pipe;
          Hashtbl.iter (fun _ io -> try Unix.close io.fd with _ -> ()) ios;
          List.iter (fun fd -> try Unix.close fd with _ -> ()) listeners;
          (try Sys.remove socket with Sys_error _ -> ());
          finish_scheduler ()
        in
        Fun.protect ~finally @@ fun () ->
        let rec loop () =
          match !stop with
          | Some signum ->
            (* Drain: marker journaled, sessions told why, outputs given
               a bounded window to reach their peers. *)
            drain core ~now:(now_ms epoch);
            let deadline = Unix.gettimeofday () +. 2.0 in
            let rec flush_out () =
              pump_io ();
              if Hashtbl.length ios > 0 && Unix.gettimeofday () < deadline
              then begin
                ignore (Unix.select [] [] [] 0.02);
                flush_out ()
              end
            in
            flush_out ();
            Ok signum
          | None ->
            let conn_fds = Hashtbl.fold (fun _ io acc -> io.fd :: acc) ios [] in
            let writers =
              Hashtbl.fold
                (fun _ io acc ->
                  if Framed.is_empty io.out then acc else io.fd :: acc)
                ios []
            in
            (* Event-driven turns: never sleep while the core has a
               batch it could run now; otherwise wake on I/O or after
               the idle tick that drives heartbeats and lease expiry. *)
            let timeout = if runnable core then 0. else 0.05 in
            (match Unix.select (listeners @ conn_fds) writers [] timeout with
            | readable, _, _ ->
              List.iter
                (fun lfd -> if List.mem lfd readable then accept_on lfd)
                listeners
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            pump_io ();
            loop ()
        in
        loop ())))
