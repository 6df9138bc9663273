(** Client-side protocol state machine and blocking submitter.

    The sans-IO machine mirrors {!Session} from the other end of the
    wire: hello handshake, submit, then a strict record stream —
    records must arrive in index order, exactly [runs] of them,
    followed by one [Metrics_chunk].  Anything else (an error frame, a
    corrupt stream, silence past the liveness deadline, EOF mid-stream)
    moves the machine to [Failed] with a reason — a client can always
    classify how its submission ended, never hang.

    {!submit_blocking} drives the machine over a real socket and
    retries retryable failures (disconnects, timeouts, draining
    daemons) with the {!Perple_harness.Supervisor.backed_off} growth
    discipline; retrying is safe because submits are idempotent per
    campaign id and the daemon re-streams from the journal.

    The connection discipline — framing, heartbeats and liveness, the
    [select] pump with its bounded terminal flush, and the reconnect
    loop — is {!Link}'s, shared with {!Worker} and {!Session}; this
    module keeps the phases, the record stream and the [Busy] hint. *)

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

val default_config : config

type outcome = {
  digest : string;  (** Parameter digest echoed by [Accepted]. *)
  completed_at_accept : int;
      (** Runs already journaled server-side when we were accepted. *)
  records : string list;  (** Canonical record lines, index order. *)
  metrics : string;  (** The [Metrics_chunk] payload. *)
}

type progress = {
  runs_total : int;
  runs_done : int;
  shards_done : int;
  shards_leased : int;
  shards_failed : int;
}
(** A {!Wire.frame.Progress} update for our campaign.  Shard counts are
    zero against a non-coordinator daemon. *)

type status = Pending | Done of outcome | Failed of string

type t

val create :
  ?config:config -> ?peer:string -> ?on_progress:(progress -> unit) ->
  spec:Wire.spec -> now:int -> unit -> t
(** A fresh machine with its [Hello] already queued.  [on_progress] is
    invoked on every progress frame (the [--follow] hook); progress is
    advisory and never required for completion. *)

val input : t -> now:int -> string -> unit
val eof : t -> now:int -> unit
val tick : t -> now:int -> unit
val output : t -> Perple_util.Framed.buf
val status : t -> status

val progress : t -> progress option
(** The most recent progress update, if any arrived. *)

val retryable : string -> bool
(** Whether a [Failed] reason is worth a reconnection (transport-level
    loss, a draining daemon, or a [Busy] rate-limit verdict) rather
    than a verdict (rejection, protocol error); {!Link.retryable}. *)

val submit_blocking :
  socket:string ->
  ?attempts:int ->
  ?backoff:float ->
  ?initial_delay_ms:int ->
  ?on_progress:(progress -> unit) ->
  spec:Wire.spec ->
  unit ->
  (outcome, string) result
(** Connect to the daemon at [socket], run the machine to a terminal
    status, and retry retryable failures up to [attempts] times with
    exponentially grown sleeps ([initial_delay_ms] scaled by [backoff]
    per retry, {!Perple_harness.Supervisor.backed_off} rounding).  When
    the daemon answers [Busy], the sleep honours its retry-after hint
    if that is longer than the backoff's own delay.  Each connection
    runs {!Link.pump}; SIGPIPE is ignored while a connection is open. *)
