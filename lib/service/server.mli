(** The daemon: sessions multiplexed over one scheduler.

    The sans-IO core ({!create} … {!closed}) owns every decision —
    handshakes, accepting and journaling specs, streaming records in
    index order, backpressure, heartbeats, quarantine, draining — over
    an abstract integer clock.  Tests drive it directly (through
    {!Chaos} proxies, with virtual ticks); {!serve} drives the same core
    from a [select] loop over real sockets, adding nothing but byte
    shuffling.

    Streaming contract (what the CI smoke job checks end to end): after
    [Accepted], a client receives every run record of its campaign
    exactly once, in index order, as canonical
    {!Perple_core.Ledger.record_line} bytes — journaled records first
    (replayed after a crash), then live ones as they retire — followed
    by one [Metrics_chunk] built from the per-run captures.  The stream
    is therefore byte-identical whatever [--jobs] was and wherever a
    [kill -9] split the campaign. *)

type t

val create :
  ?session_config:Session.config ->
  ?coordinator:Coordinator.t ->
  scheduler:Scheduler.t ->
  unit ->
  t
(** With a [coordinator], worker sessions are admitted and campaigns
    are sharded out as leases; without one, a [Worker_hello] is
    rejected and closed.  The coordinator must have been created over
    the same scheduler. *)

val connect : t -> now:int -> int
(** Register a new connection; returns its id. *)

val input : t -> conn:int -> now:int -> string -> unit
(** Bytes that arrived from the connection's peer. *)

val eof : t -> conn:int -> now:int -> unit

val tick : t -> now:int -> unit
(** One turn of the daemon: advance session clocks, run the
    coordinator's lease bookkeeping, run at most one scheduler batch if
    {!runnable} holds, stream newly available records to subscribed
    connections (respecting backpressure).  One batch per turn keeps
    client I/O interleaved between batches and bounds what a [kill -9]
    can lose to one batch. *)

val runnable : t -> bool
(** The next {!tick} would run a local scheduler batch: the daemon is
    not draining, some campaign has unexecuted runs, and there is
    either no coordinator or a coordinator with no connected workers
    (graceful degradation).  False while connected workers hold the
    pending work, so a driver may poll with a zero timeout exactly when
    this holds without busy-waiting on a fleet. *)

val flush : t -> conn:int -> string
(** Take the connection's pending outbound bytes (empty if none). *)

val closed : t -> conn:int -> bool
(** The session reached a terminal state and its output is drained —
    the driver should close the transport. *)

val terminal : t -> conn:int -> Session.terminal option

val release : t -> conn:int -> unit
(** Forget a connection once it is {!closed}: its session, buffers and
    subscriptions are dropped, so later turns neither tick nor stream
    to it and its id leaves {!connections}.  A no-op for a connection
    that is not closed yet. *)

val connections : t -> int list
(** Ids of the connections not yet released, in ascending order. *)

val drain : t -> now:int -> unit
(** Begin shutdown: journal the ["draining"] marker, notify every live
    session with an [Error Draining] control frame and close it.  New
    connections are refused afterwards. *)

val draining : t -> bool

val idle : t -> bool
(** No live sessions and no pending scheduler work. *)

(** {1 Real transport} *)

val serve :
  socket:string ->
  ?tcp_port:int ->
  ?jobs:int ->
  ?session_config:Session.config ->
  ?coordinator:Coordinator.config ->
  journal:string option ->
  unit ->
  (int, string) result
(** Run the daemon over a Unix-domain socket at [socket] (a stale
    socket file from a dead daemon is detected and replaced) and
    optionally a localhost TCP port.  If [journal] names an existing
    file, the scheduler resumes it — the daemon restart contract needs
    no flag.  With [coordinator], the daemon also accepts workers and
    shards campaigns into leases, falling back to local execution
    whenever no worker is connected.  Each loop turn waits in [select]
    with a zero timeout exactly when {!runnable} holds, and otherwise up
    to a 50 ms idle tick (heartbeats, lease deadlines), so a campaign
    never sleeps between its batches; a transport is {!release}d from
    the core as soon as it closes.  Blocks until SIGINT or SIGTERM,
    then drains (marker journaled, sessions notified, outputs flushed)
    and returns the signal number for the caller to turn into exit
    130/143. *)
