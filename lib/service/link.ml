(* One peer connection's discipline: the sans-IO core every end of the
   wire shares, then the blocking pump and reconnect loop behind
   [perple submit] and [perple worker]. *)

module Framed = Perple_util.Framed
module Metrics = Perple_util.Metrics
module Supervisor = Perple_harness.Supervisor

type config = { heartbeat_every : int; liveness_timeout : int }

let default_config = { heartbeat_every = 1_000; liveness_timeout = 10_000 }

type t = {
  config : config;
  inbound : Framed.buf;
  outbound : Framed.buf;
  frames_in : string;  (** Metric names, built once per link. *)
  frames_out : string;
  mutable last_seen : int;  (** Clock of the most recent inbound bytes. *)
  mutable last_beat : int;  (** Clock of our most recent heartbeat. *)
}

let create config ~metrics ~now =
  {
    config;
    inbound = Framed.create ();
    outbound = Framed.create ();
    frames_in = metrics ^ ".frames_in";
    frames_out = metrics ^ ".frames_out";
    last_seen = now;
    last_beat = now;
  }

let send t frame =
  Framed.add_string t.outbound (Wire.encode frame);
  Metrics.incr t.frames_out

let output t = t.outbound

let feed t ~now bytes ~live ~frame ~corrupt =
  let rec drain () =
    if live () then
      match Wire.next_frame t.inbound with
      | `Need_more -> ()
      | `Corrupt m -> corrupt m
      | `Frame f ->
        Metrics.incr t.frames_in;
        frame f;
        drain ()
  in
  if live () then begin
    if String.length bytes > 0 then t.last_seen <- now;
    Framed.add_string t.inbound bytes;
    drain ()
  end

let silence t ~now = now - t.last_seen

let tick t ~now =
  if silence t ~now >= t.config.liveness_timeout then `Dead (silence t ~now)
  else if now - t.last_beat >= t.config.heartbeat_every then begin
    t.last_beat <- now;
    send t (Wire.Heartbeat { sent_at = now });
    `Beat
  end
  else `Idle

(* --- blocking driver -------------------------------------------------------- *)

type address = [ `Unix_socket of string | `Tcp of int ]

let connect address =
  let domain, addr =
    match address with
    | `Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let refused e = Error (Printf.sprintf "connect: %s" (Unix.error_message e)) in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> refused e
  | fd -> (
    try
      Unix.connect fd addr;
      Unix.set_nonblock fd;
      Ok fd
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      refused e)

type 'r step = [ `Wait of float | `Finish of 'r | `Quit of 'r ]

type 'r machine = {
  link : t;
  input : now:int -> string -> unit;
  eof : now:int -> unit;
  advance : now:int -> unit;
  step : unit -> 'r step;
}

let drop buf = Framed.consume buf (Framed.length buf)

let pump fd ~now m =
  let out = m.link.outbound in
  let stage = Framed.create () in
  (* [until]: the clock past which a finished machine's unsent output is
     dropped, set by its first flush attempt. *)
  let rec loop until =
    match m.step () with
    | `Quit r -> r
    | `Finish r when Framed.is_empty out || now () >= until ->
      drop out;
      r
    | `Finish _ ->
      (match Framed.write_from fd out with
      | `Wrote _ -> ()
      | `Would_block -> (
        (* The kernel buffer is full: wait for room, never spin. *)
        try ignore (Unix.select [] [ fd ] [] 0.05)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | `Closed | `Error _ -> drop out);
      loop (min until (now () + m.link.config.liveness_timeout))
    | `Wait timeout ->
      let writers = if Framed.is_empty out then [] else [ fd ] in
      (match Unix.select [ fd ] writers [] timeout with
      | readable, writable, _ ->
        (if writable <> [] then
           match Framed.write_from fd out with
           | `Wrote _ | `Would_block -> ()
           | `Closed | `Error _ -> m.eof ~now:(now ()));
        if readable <> [] then (
          match Framed.read_into fd stage with
          | `Read _ -> m.input ~now:(now ()) (Framed.take_all stage)
          | `Would_block -> ()
          | `Closed | `Error _ -> m.eof ~now:(now ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      m.advance ~now:(now ());
      loop until
  in
  loop max_int

type 'a ending =
  | Finished of 'a
  | Lost of { reason : string; worked : bool; retry_after : int option }

let with_connection address f =
  match connect address with
  | Error reason -> Lost { reason; worked = false; retry_after = None }
  | Ok fd ->
    (* A peer killed mid-write must classify as a retryable disconnect,
       not SIGPIPE this process. *)
    let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let finally () =
      Sys.set_signal Sys.sigpipe old_pipe;
      try Unix.close fd with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally @@ fun () ->
    let epoch = Unix.gettimeofday () in
    f fd ~now:(fun () -> int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.))

let retryable reason =
  let has_prefix p = String.length reason >= String.length p
                     && String.sub reason 0 (String.length p) = p in
  has_prefix "disconnected" || has_prefix "timed out"
  || has_prefix "corrupt stream" || has_prefix "draining"
  || has_prefix "connect:" || has_prefix "busy"

let reconnect ~attempts ~backoff ~initial_delay_ms ~on_retry connection =
  (* The supervisor's budget-growth rounding for the sleeps: one
     discipline for "try again, less eagerly" across the repo. *)
  let policy =
    { Supervisor.watchdog_rounds = max_int; min_retired = 1;
      max_retries = attempts - 1; backoff }
  in
  let rec go attempt delay_ms =
    match connection () with
    | Finished v -> Ok v
    | Lost { reason; worked; retry_after } ->
      (* Progress refills the budget: only [attempts] consecutive
         fruitless connections give up (a restarting peer is fine; a
         gone one is not). *)
      let attempt, delay_ms =
        if worked then (0, initial_delay_ms) else (attempt, delay_ms)
      in
      if attempt + 1 < attempts && retryable reason then begin
        (* A peer that names its own back-off knows its refill schedule
           better than our exponential guess. *)
        let delay_ms =
          match retry_after with Some h -> max delay_ms h | None -> delay_ms
        in
        on_retry ~reason ~delay_ms;
        Unix.sleepf (float_of_int delay_ms /. 1000.);
        go (attempt + 1) (Supervisor.backed_off policy delay_ms)
      end
      else Error reason
  in
  go 0 initial_delay_ms
