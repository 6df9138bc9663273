(** Fault-tolerant campaign sharding: the service's one planner.

    The coordinator splits every accepted campaign into shards of
    [shard_runs] consecutive run indices.  Its shard table decides every
    execution: the daemon's in-process pool claims shards from it
    ({!run_local}), and connected workers are granted them as
    {e leases}, both through the same round-robin scan and eligibility
    rule.  A lease names the shard's run range, the
    campaign spec (so the worker can execute the runs locally against
    the same pre-split seeds) and a {e lease epoch}.  The worker renews
    the lease ({!Wire.frame.Lease_renew}) while it computes; a lease
    that is not renewed within [lease_ticks] is revoked and its shard
    reassigned.

    Failure taxonomy, all handled by revoke-and-reassign with
    {!Perple_harness.Supervisor.backed_off} backoff:

    - {e deadline missed} — worker wedged or partitioned; it is also
      cooled (no new lease) until it speaks again;
    - {e worker disconnected} — EOF/reset, or quarantined after a
      CRC-corrupt frame (detected in {!Wire.decode}, surfaced as a
      session terminal);
    - {e shard fault} — the worker itself reported
      {!Wire.frame.Shard_failed};
    - {e malformed result} — a CRC-valid frame whose records fail
      validation (wrong indices, seed mismatch, non-canonical line).

    After [max_attempts] failed leases a shard is abandoned: its
    remaining runs are journaled as classified [Unrecoverable] records
    (crashed entries with the abandonment reason) so the campaign
    completes and streams — graceful degradation, never a hang.

    {e Zombie discipline}: epochs are monotonic per shard, across
    coordinator restarts — every grant is journaled.  A result or
    renewal carrying a (campaign, shard, epoch) triple that does not
    match the live lease is discarded idempotently; record slots are
    additionally guarded by index+seed validation in
    {!Scheduler.record_external}, so even a pathological duplicate can
    only ever re-assert identical bytes.

    Everything is journaled through the scheduler ("lease", "revoke",
    "shard-dead" extras plus ordinary "crun" records), so a [kill -9]'d
    coordinator re-created over the same journal resumes with the same
    epochs and produces a byte-identical merged ledger and metrics —
    for any worker count, failure schedule or kill point. *)

type config = {
  shard_runs : int;  (** Runs per shard (last shard may be smaller). *)
  lease_ticks : int;  (** Renewal deadline per lease. *)
  max_attempts : int;  (** Failed leases before a shard is abandoned. *)
  retry_delay : int;  (** Initial reassignment backoff, in ticks. *)
  retry_backoff : float;  (** Backoff multiplier per failed lease. *)
}

val default_config : config
(** 4-run shards, 10 s leases, 5 attempts, 100 ms initial backoff
    doubling per failure. *)

type t

val create : ?config:config -> scheduler:Scheduler.t -> unit -> (t, string) result
(** Build the shard tables for every campaign the scheduler knows and
    replay the journal's coordinator extras: lease epochs resume
    monotonic, abandoned shards stay abandoned (missing [Unrecoverable]
    records are re-derived), completed shards are recognized by their
    journaled runs.  [Error] on a malformed coordinator record, or on
    one whose shard range does not match this table (a journal written
    under another [shard_runs]) — validation, not best-effort, like the
    scheduler's own resume. *)

type command = { target : int; frame : Wire.frame }
(** A frame to deliver to worker connection [target]. *)

val add_worker : t -> id:int -> name:string -> unit
(** A worker session completed its [Worker_hello] handshake. *)

val remove_worker : t -> id:int -> now:int -> unit
(** The worker's session terminated (disconnect, quarantine, timeout):
    its lease, if any, is revoked and the shard reassigned. *)

val worker_count : t -> int

val renew : t ->
  worker:int -> campaign:string -> shard:int -> epoch:int -> now:int ->
  command list
(** Extend the lease deadline if (worker, campaign, shard, epoch) names
    the live lease; otherwise tell the zombie to stop ([Revoke]). *)

val shard_result : t ->
  worker:int -> campaign:string -> shard:int -> epoch:int ->
  records:(int * string) list -> now:int ->
  command list
(** Ingest a completed shard: exactly the leased indices, each record
    validated and journaled via {!Scheduler.record_external}.  A stale
    epoch is discarded idempotently; a malformed result revokes the
    lease and reassigns the shard. *)

val shard_failed : t ->
  worker:int -> campaign:string -> shard:int -> epoch:int -> reason:string ->
  now:int ->
  command list

val tick : t -> now:int -> command list
(** Clock advance: pick up newly accepted campaigns, revoke leases of
    cancelled campaigns and leases past their deadline, then grant new
    leases — idle workers in id order, campaigns round-robin (the fair
    interleave), shards in index order once their backoff has passed. *)

val claimable : t -> now:int -> bool
(** {!run_local} would claim a shard now. *)

val run_local : t -> now:int -> string option
(** The in-process executor's turn: claim the shard {!tick} would grant
    next, plus more of the same campaign while the scheduler's [jobs]
    exceed the claimed missing runs, and run their missing indices
    ({!Scheduler.execute}).  Journals no ["lease"].  Returns the claimed
    campaign, or [None] when no shard is eligible. *)

val shard_counts : t -> campaign:string -> int * int * int
(** (completed, leased, abandoned) shard counts, for progress frames. *)
