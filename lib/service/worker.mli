(** Worker-side protocol state machine and blocking driver.

    The sans-IO machine mirrors a coordinator-mode {!Session} from the
    other end of the wire: [Worker_hello] handshake, then a loop of
    granted {!Wire.frame.Lease}s.  The embedding executes the leased
    run range one index at a time through {!task} / {!task_done} /
    {!task_failed}; the machine renews the lease after every completed
    run and on each heartbeat, ships the full record batch as one
    {!Wire.frame.Shard_result}, and honours {!Wire.frame.Revoke} by
    dropping the named lease (current or queued).  Any protocol
    violation, corrupt stream, daemon error, silence past the liveness
    deadline or EOF moves the machine to [Stopped] with a reason the
    {!Link.retryable} classification understands.

    {!work_blocking} drives the machine over a real socket and
    reconnects on retryable stops with the
    {!Perple_harness.Supervisor.backed_off} growth discipline;
    reconnecting is safe because the coordinator detects the lost
    session, revokes the lease, and treats any late result from the
    old epoch as a zombie.

    The connection discipline — framing, heartbeats and liveness, the
    [select] pump with its bounded terminal flush, and the reconnect
    loop — is {!Link}'s, shared with {!Client} and {!Session}; this
    module keeps leases, tasks, the renew-on-beat rule and the
    driver's lease execution and signal handling. *)

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

val default_config : config

type task = {
  spec : Wire.spec;  (** Campaign parameters, embedded in the lease. *)
  digest : string;  (** Coordinator's parameter digest, for cross-check. *)
  index : int;  (** The run index to execute. *)
}

type status = Running | Stopped of string

type t

val create : ?config:config -> ?name:string -> now:int -> unit -> t
(** A fresh machine with its [Worker_hello] already queued. *)

val input : t -> now:int -> string -> unit
val eof : t -> now:int -> unit
val tick : t -> now:int -> unit
val output : t -> Perple_util.Framed.buf
val status : t -> status

val leases_taken : t -> int
(** Leases accepted over this connection's lifetime. *)

val task : t -> task option
(** The next run to execute under the current lease, if any.  Stable
    until {!task_done} or {!task_failed} is called. *)

val task_done : t -> now:int -> record:string -> unit
(** The pending {!task} produced [record] (a canonical ledger line).
    Queues a lease renewal, or the [Shard_result] batch when this was
    the shard's last run. *)

val task_failed : t -> reason:string -> unit
(** The pending {!task} could not be executed (unresolvable spec,
    digest mismatch, engine fault).  Reports [Shard_failed] and drops
    the lease; the coordinator reassigns or abandons the shard. *)

val run_index :
  resolved:Scheduler.resolved -> spec:Wire.spec -> index:int ->
  (string, string) result
(** Execute one campaign run through {!Scheduler.run_indices} — the
    same engine call the daemon's local executor makes: same config,
    counter and pre-split seeds, every sibling index skipped — and
    return the canonical record line.  This shared path is what makes
    worker-merged ledgers byte-identical to a single-node [--jobs]
    run. *)

type address = Link.address
(** Coordinator endpoint: a filesystem socket or a loopback TCP port. *)

val work_blocking :
  address:address ->
  ?name:string ->
  ?attempts:int ->
  ?backoff:float ->
  ?initial_delay_ms:int ->
  ?on_note:(string -> unit) ->
  unit ->
  (int, string) result
(** Connect to the coordinator, execute leases until told to stop.
    Retryable disconnections reconnect ({!Link.reconnect}) up to
    [attempts] consecutive fruitless times with exponentially grown
    sleeps; a connection that took at least one lease refills the
    budget and restarts the sleep at [initial_delay_ms], so a
    restarting coordinator is survived and a gone one is not.  A
    stopped machine's queued output is flushed for at most its
    liveness timeout before the connection closes.  Returns [Ok
    signal] at once when SIGINT/SIGTERM arrives (SIGPIPE is ignored
    for the whole call), [Error reason] when the coordinator rejected
    us or the retry budget ran dry.  [on_note] receives human-readable
    progress lines. *)
