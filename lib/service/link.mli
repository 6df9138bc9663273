(** One peer connection's discipline, shared by all three ends of the
    wire: the daemon's {!Session}, the {!Client} and the {!Worker}.

    The sans-IO core owns what every end keeps identically — the
    inbound and outbound {!Perple_util.Framed} buffers, the clocks of
    the last inbound traffic and the last heartbeat, the frame-drain
    loop and the liveness/heartbeat tick — and counts frames under the
    caller's metric prefix ([<prefix>.frames_in], [<prefix>.frames_out]).
    The protocol machines on top keep only what differs: phases,
    leases, quarantine, rate limiting.

    The blocking half is what [perple submit] and [perple worker] run:
    one connection wrapper ({!with_connection}), one nonblocking
    [select] pump ({!pump}) and one backed-off reconnect loop
    ({!reconnect}).  The daemon's own
    listen loop ({!Server.serve}) serves many links at once and drives
    {!Session}s directly. *)

type config = { heartbeat_every : int; liveness_timeout : int }
(** In ticks (milliseconds in the blocking drivers): a heartbeat is
    queued after [heartbeat_every] ticks without one, and a peer silent
    for [liveness_timeout] ticks is dead. *)

val default_config : config
(** 1000-tick heartbeats, 10 000-tick liveness. *)

(** {1 Sans-IO core} *)

type t

val create : config -> metrics:string -> now:int -> t
(** A fresh link whose frames count under [metrics ^ ".frames_in"] and
    [metrics ^ ".frames_out"]. *)

val send : t -> Wire.frame -> unit
(** Queue a frame for the peer. *)

val output : t -> Perple_util.Framed.buf
(** The outbound byte queue; drivers write from it. *)

val feed :
  t -> now:int -> string -> live:(unit -> bool) ->
  frame:(Wire.frame -> unit) -> corrupt:(string -> unit) -> unit
(** Inbound bytes, discarded unless [live ()]: non-empty ones count as
    traffic at [now].  Complete frames are handed to [frame] in order
    while [live ()] holds; the drain stops at the first incomplete
    frame, or after a corrupt one (its reason handed to [corrupt]). *)

val tick : t -> now:int -> [ `Dead of int | `Beat | `Idle ]
(** Clock advance.  [`Dead n]: no inbound traffic for [n >=
    liveness_timeout] ticks.  [`Beat]: a heartbeat was due and is now
    queued.  [`Idle]: neither. *)

val silence : t -> now:int -> int
(** Ticks since the last inbound traffic. *)

(** {1 Blocking driver} *)

type address = [ `Unix_socket of string | `Tcp of int ]
(** A filesystem socket or a loopback TCP port. *)

type 'r step = [ `Wait of float | `Finish of 'r | `Quit of 'r ]
(** What a machine wants after its local work: pump the socket with
    this [select] timeout, end the connection once the queued output is
    flushed, or end it at once. *)

type 'r machine = {
  link : t;
  input : now:int -> string -> unit;
  eof : now:int -> unit;
  advance : now:int -> unit;  (** The machine's tick. *)
  step : unit -> 'r step;
}
(** A protocol machine as the pump sees it. *)

val pump : Unix.file_descr -> now:(unit -> int) -> 'r machine -> 'r
(** Run [machine] over [fd] until its {!step} finishes or quits.  Each
    round calls [step], then waits in [select] for readability (and
    writability while output is queued), writes, reads, and advances
    the machine; a write or read that finds the peer gone is the
    machine's [eof].  After [`Finish], the queued output is flushed
    with the same 50 ms [select] cap, and whatever is still unsent
    [liveness_timeout] ticks later — a peer that neither reads nor
    closes — is dropped: the pump always returns. *)

type 'a ending =
  | Finished of 'a
  | Lost of { reason : string; worked : bool; retry_after : int option }
      (** The connection ended without the result.  [worked]: it made
          progress, which refills the retry budget.  [retry_after]: the
          peer's own back-off hint, in ms. *)

val with_connection :
  address -> (Unix.file_descr -> now:(unit -> int) -> 'a ending) -> 'a ending
(** Connect to [address] (nonblocking), run [f] with a millisecond
    clock starting at zero while SIGPIPE is ignored, then close the
    socket.  A failed connect is a [Lost] connection whose reason
    starts ["connect: "]. *)

val retryable : string -> bool
(** Whether a [Lost] reason is worth a reconnection: transport loss
    ([disconnected], [timed out], [corrupt stream], [connect:]), a
    draining peer or a [busy] rate-limit verdict.  Everything else is
    the peer's verdict. *)

val reconnect :
  attempts:int ->
  backoff:float ->
  initial_delay_ms:int ->
  on_retry:(reason:string -> delay_ms:int -> unit) ->
  (unit -> 'a ending) ->
  ('a, string) result
(** Run connections until one is [Finished], a reason is not
    {!retryable}, or [attempts] consecutive connections that did no
    work were lost.  A connection that [worked] restarts both the count
    and the sleep at [initial_delay_ms].  Between connections the loop
    sleeps the larger of the current delay and the peer's hint,
    announced first through [on_retry]; each later delay grows by
    [backoff] with {!Perple_harness.Supervisor.backed_off} rounding. *)
