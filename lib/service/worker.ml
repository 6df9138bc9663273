(* The worker half of the coordinator protocol: sans-IO core first (so
   the multi-worker chaos suite can run hundreds of seeded failure
   schedules without a socket), then the reconnecting blocking driver
   behind [perple worker]. *)

module Framed = Perple_util.Framed
module Metrics = Perple_util.Metrics
module Supervisor = Perple_harness.Supervisor
module Ledger = Perple_core.Ledger
module Convert = Perple_core.Convert

type config = { heartbeat_every : int; liveness_timeout : int }

let default_config = { heartbeat_every = 1_000; liveness_timeout = 10_000 }

type lease = {
  t_campaign : string;
  t_digest : string;
  t_spec : Wire.spec;
  t_shard : int;
  t_epoch : int;
  t_lo : int;
  t_hi : int;
  mutable t_next : int;  (** Next run index to execute. *)
  mutable t_got : (int * string) list;  (** Completed records, reversed. *)
}

type task = { spec : Wire.spec; digest : string; index : int }

type status = Running | Stopped of string

type t = {
  config : config;
  inbound : Framed.buf;
  outbound : Framed.buf;
  mutable active : bool;  (** Hello handshake completed. *)
  mutable stopped : string option;
  mutable current : lease option;
  mutable queue : lease list;
      (** Leases granted while busy, in grant order; at most one in
          practice (the coordinator leases one shard per worker). *)
  mutable last_seen : int;
  mutable last_beat : int;
  mutable leases_taken : int;
}

let send t frame =
  Framed.add_string t.outbound (Wire.encode frame);
  Metrics.incr "service.worker.frames_out"

let create ?(config = default_config) ?(name = "perple-worker") ~now () =
  let t =
    {
      config;
      inbound = Framed.create ();
      outbound = Framed.create ();
      active = false;
      stopped = None;
      current = None;
      queue = [];
      last_seen = now;
      last_beat = now;
      leases_taken = 0;
    }
  in
  send t (Wire.Worker_hello { version = Wire.protocol_version; worker = name });
  t

let output t = t.outbound
let status t = match t.stopped with Some r -> Stopped r | None -> Running
let leases_taken t = t.leases_taken

let stop t reason =
  if t.stopped = None then begin
    Metrics.incr "service.worker.stops";
    t.stopped <- Some reason
  end

let lease_key l = (l.t_campaign, l.t_shard, l.t_epoch)

let promote t =
  match t.queue with
  | [] -> t.current <- None
  | l :: rest ->
    t.current <- Some l;
    t.queue <- rest

let on_frame t ~now frame =
  Metrics.incr "service.worker.frames_in";
  match frame with
  | Wire.Heartbeat _ -> ()
  | Wire.Hello { version; _ } ->
    if t.active then stop t "protocol: duplicate hello"
    else if version <> Wire.protocol_version then
      stop t
        (Printf.sprintf "protocol: coordinator speaks version %d, want %d"
           version Wire.protocol_version)
    else t.active <- true
  | Wire.Lease { campaign; digest; shard; epoch; lo; hi; lease_ticks = _; spec } ->
    if not t.active then stop t "protocol: lease before hello"
    else if lo < 0 || hi < lo || hi > spec.Wire.runs then
      (* Never execute a range the spec cannot contain; report instead
         of guessing. *)
      send t
        (Wire.Shard_failed
           { campaign; shard; epoch; reason = "malformed lease range" })
    else begin
      let l =
        {
          t_campaign = campaign;
          t_digest = digest;
          t_spec = spec;
          t_shard = shard;
          t_epoch = epoch;
          t_lo = lo;
          t_hi = hi;
          t_next = lo;
          t_got = [];
        }
      in
      let known k = match t.current with
        | Some c when lease_key c = k -> true
        | _ -> List.exists (fun q -> lease_key q = k) t.queue
      in
      if known (lease_key l) then () (* duplicated grant: keep the first *)
      else begin
        t.leases_taken <- t.leases_taken + 1;
        Metrics.incr "service.worker.leases_taken";
        (* Acknowledge immediately: the grant-to-first-renewal gap must
           not count against the lease deadline however long the first
           run takes. *)
        send t (Wire.Lease_renew { campaign; shard; epoch; sent_at = now });
        match t.current with
        | None -> t.current <- Some l
        | Some _ -> t.queue <- t.queue @ [ l ]
      end
    end
  | Wire.Revoke { campaign; shard; epoch; reason = _ } ->
    let key = (campaign, shard, epoch) in
    (match t.current with
    | Some c when lease_key c = key ->
      Metrics.incr "service.worker.leases_revoked";
      promote t
    | _ ->
      let before = List.length t.queue in
      t.queue <- List.filter (fun q -> lease_key q <> key) t.queue;
      if List.length t.queue < before then
        Metrics.incr "service.worker.leases_revoked")
  | Wire.Error { code; message } ->
    stop t (Printf.sprintf "%s: %s" (Wire.error_code_name code) message)
  | Wire.Drain -> stop t "draining: coordinator closed"
  | Wire.Submit _ | Wire.Accepted _ | Wire.Run_record _
  | Wire.Metrics_chunk _ | Wire.Cancel _ | Wire.Worker_hello _
  | Wire.Lease_renew _ | Wire.Shard_result _ | Wire.Shard_failed _
  | Wire.Busy _ | Wire.Progress _ ->
    stop t
      (Printf.sprintf "protocol: unexpected %s frame" (Wire.frame_name frame))

let input t ~now bytes =
  match t.stopped with
  | Some _ -> ()
  | None ->
    if String.length bytes > 0 then t.last_seen <- now;
    Framed.add_string t.inbound bytes;
    let rec drain () =
      match t.stopped with
      | Some _ -> ()
      | None -> (
        match Wire.next_frame t.inbound with
        | `Need_more -> ()
        | `Corrupt m -> stop t (Printf.sprintf "corrupt stream: %s" m)
        | `Frame f ->
          on_frame t ~now f;
          drain ())
    in
    drain ()

let eof t ~now =
  ignore now;
  if t.stopped = None then stop t "disconnected"

let tick t ~now =
  match t.stopped with
  | Some _ -> ()
  | None ->
    if now - t.last_seen >= t.config.liveness_timeout then
      stop t
        (Printf.sprintf "timed out: no traffic in %d ticks" (now - t.last_seen))
    else if now - t.last_beat >= t.config.heartbeat_every then begin
      t.last_beat <- now;
      send t (Wire.Heartbeat { sent_at = now });
      (* The lease renews on the same cadence as the heartbeat: one
         silence budget for both disciplines. *)
      match t.current with
      | Some l ->
        send t
          (Wire.Lease_renew
             { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
               sent_at = now })
      | None -> ()
    end

let task t =
  if t.stopped <> None then None
  else
    match t.current with
    | Some l when l.t_next < l.t_hi ->
      Some { spec = l.t_spec; digest = l.t_digest; index = l.t_next }
    | _ -> None

let task_done t ~now ~record =
  match t.current with
  | None -> ()
  | Some l ->
    l.t_got <- (l.t_next, record) :: l.t_got;
    l.t_next <- l.t_next + 1;
    if l.t_next >= l.t_hi then begin
      send t
        (Wire.Shard_result
           { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
             records = List.rev l.t_got });
      Metrics.incr "service.worker.shards_completed";
      promote t
    end
    else
      send t
        (Wire.Lease_renew
           { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
             sent_at = now })

let task_failed t ~reason =
  match t.current with
  | None -> ()
  | Some l ->
    send t
      (Wire.Shard_failed
         { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch; reason });
    Metrics.incr "service.worker.shards_failed";
    promote t

(* --- execution --------------------------------------------------------------- *)

(* One campaign run through the scheduler's engine helper, the same
   call the daemon's local executor makes: this is what makes a
   worker-merged ledger byte-identical to a single-node --jobs run. *)
let run_index ~resolved ~(spec : Wire.spec) ~index =
  let out = ref None in
  match
    Scheduler.run_indices ~jobs:1 resolved ~spec ~indices:[ index ]
      ~on_summary:(fun summary -> out := Some (Ledger.record_line summary))
  with
  | Error reason ->
    Error (Format.asprintf "not convertible: %a" Convert.pp_reason reason)
  | Ok _ -> (
    match !out with
    | Some line -> Ok line
    | None -> Error (Printf.sprintf "run %d produced no entry" index))

(* --- blocking driver --------------------------------------------------------- *)

type address = [ `Unix_socket of string | `Tcp of int ]

let connect_fd address =
  let domain, addr =
    match address with
    | `Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "connect: %s" (Unix.error_message e))
  | fd -> (
    match Unix.connect fd addr with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect: %s" (Unix.error_message e))
    | () ->
      Unix.set_nonblock fd;
      Ok fd)

(* Same classification as the client: transport loss, draining daemons
   and timeouts are transient; protocol verdicts are not. *)
let retryable = Client.retryable

let work_blocking ~address ?(name = "perple-worker") ?(attempts = 10)
    ?(backoff = 2.0) ?(initial_delay_ms = 100) ?(on_note = fun _ -> ()) () =
  if attempts < 1 then invalid_arg "Worker.work_blocking: attempts < 1";
  let stop_signal = ref None in
  let note_signal s = stop_signal := Some s in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle note_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle note_signal) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore () =
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally:restore @@ fun () ->
  let cache : (string, Scheduler.resolved) Hashtbl.t = Hashtbl.create 4 in
  let execute { spec; digest; index } =
    let resolved =
      match Hashtbl.find_opt cache digest with
      | Some r -> Ok r
      | None -> (
        match Scheduler.resolve_spec spec with
        | Ok r ->
          if r.Scheduler.r_digest <> digest then
            Error "digest mismatch: coordinator and worker disagree on config"
          else begin
            Hashtbl.replace cache digest r;
            Ok r
          end
        | Error m -> Error (Printf.sprintf "spec rejected: %s" m))
    in
    match resolved with
    | Error _ as e -> e
    | Ok r -> run_index ~resolved:r ~spec ~index
  in
  (* One connection: pump the state machine and execute leased runs
     until it stops; returns the stop reason. *)
  let drive_once () =
    match connect_fd address with
    | Error m -> m
    | Ok fd ->
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally @@ fun () ->
      let epoch = Unix.gettimeofday () in
      let now () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.) in
      let w = create ~name ~now:(now ()) () in
      let rec loop () =
        if !stop_signal <> None then "signalled"
        else
          match status w with
          | Stopped reason when Framed.is_empty (output w) -> reason
          | Stopped _ ->
            (match Framed.write_from fd w.outbound with
            | `Wrote _ | `Would_block -> ()
            | `Closed | `Error _ ->
              Framed.consume w.outbound (Framed.length w.outbound));
            loop ()
          | Running ->
            (match task w with
            | Some tk -> (
              match execute tk with
              | Ok record -> task_done w ~now:(now ()) ~record
              | Error reason ->
                on_note (Printf.sprintf "shard failed: %s" reason);
                task_failed w ~reason)
            | None -> ());
            let timeout = if task w = None then 0.05 else 0. in
            let writers = if Framed.is_empty w.outbound then [] else [ fd ] in
            (match Unix.select [ fd ] writers [] timeout with
            | readable, writable, _ ->
              (if writable <> [] then
                 match Framed.write_from fd w.outbound with
                 | `Wrote _ | `Would_block -> ()
                 | `Closed | `Error _ -> eof w ~now:(now ()));
              (if readable <> [] then
                 let stage = Framed.create () in
                 match Framed.read_into fd stage with
                 | `Read _ -> input w ~now:(now ()) (Framed.take_all stage)
                 | `Would_block -> ()
                 | `Closed | `Error _ -> eof w ~now:(now ()))
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            tick w ~now:(now ());
            loop ()
      in
      let reason = loop () in
      if leases_taken w > 0 then reason ^ "\x00worked" else reason
  in
  let policy =
    { Supervisor.watchdog_rounds = max_int; min_retired = 1;
      max_retries = attempts - 1; backoff }
  in
  let rec go attempt delay_ms =
    match !stop_signal with
    | Some s -> Ok s
    | None ->
      let raw = drive_once () in
      let worked, reason =
        match String.index_opt raw '\x00' with
        | Some i -> (true, String.sub raw 0 i)
        | None -> (false, raw)
      in
      if reason = "signalled" then Ok (Option.value !stop_signal ~default:Sys.sigterm)
      else if retryable reason then begin
        (* Progress on the last connection refills the retry budget: a
           worker only gives up after [attempts] consecutive fruitless
           connections (a restarting coordinator is fine; a gone one is
           not). *)
        let attempt, delay_ms =
          if worked then (0, initial_delay_ms) else (attempt, delay_ms)
        in
        if attempt + 1 < attempts then begin
          on_note (Printf.sprintf "%s; reconnecting in %d ms" reason delay_ms);
          Unix.sleepf (float_of_int delay_ms /. 1000.);
          go (attempt + 1) (Supervisor.backed_off policy delay_ms)
        end
        else Error reason
      end
      else Error reason
  in
  go 0 initial_delay_ms
