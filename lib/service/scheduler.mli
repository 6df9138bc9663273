(** Campaign scheduler: the daemon's journal and run-record store.

    Each accepted {!Wire.spec} is journaled; each executed run — run
    locally by {!execute} or shipped by a worker through
    {!record_external} — passes the one ingest path: index and seed
    checked against the campaign's pre-split, canonicalised as a
    {!Perple_core.Ledger.record_line}, and appended to the journal as a
    ["crun"] record {e before} it can be streamed.  [kill -9] at any
    point therefore loses at most the runs in flight, never work
    acknowledged: a scheduler re-created over the same journal path
    reloads the specs and completed runs, re-streams the journaled
    records byte-for-byte and leaves only the missing indices to run.

    Which runs execute next is not decided here: {!Coordinator} plans
    every execution, remote and local, from its shard table.

    Everything the scheduler stores is deterministic in the campaign
    parameters: records are keyed by run index, so the streamed bytes
    are identical for any [jobs] value, worker count and kill/restart
    split — the property the daemon smoke job in CI enforces end to
    end. *)

type t

val create : ?jobs:int -> journal:string option -> unit -> (t, string) result
(** [journal = Some path]: open (creating) or replay-and-resume the
    journal at [path]; [Error] if its contents belong to a different
    command or fail validation.  [journal = None] runs in-memory
    (tests).  With [jobs > 1] a persistent {!Perple_core.Pool} is
    spawned once here and reused by every {!execute} call of every
    campaign (joined by {!close}) — no domain is spawned per
    claim. *)

type resolved = {
  r_digest : string;  (** Config digest, as acknowledged to clients. *)
  r_test : Perple_litmus.Ast.t;
  r_counter : Perple_core.Engine.counter;
  r_model : Perple_sim.Config.model;
  r_seeds : int array;  (** The campaign's pre-split per-run seeds. *)
}

val resolve_spec : Wire.spec -> (resolved, string) result
(** Validate a spec exactly as {!submit} would, without a scheduler:
    the worker side of the coordinator protocol re-derives the digest
    and seeds from the leased spec and refuses a lease whose digest
    disagrees — a config-skew guard between coordinator and worker. *)

type accepted = { digest : string; runs : int; completed : int }

val submit : t -> Wire.spec -> (accepted, string) result
(** Validate and accept a spec, journaling it.  Resubmitting a known
    campaign id with identical parameters is idempotent and reports how
    many runs are already journaled; a parameter mismatch, an unknown
    test, a non-convertible test or nonsensical numbers are [Error]
    (surfaced to the client as a [Rejected] error frame). *)

val cancel : t -> campaign:string -> bool
(** Journal a cancellation and stop scheduling the campaign's remaining
    runs.  False if the campaign is unknown. *)

val runs : t -> campaign:string -> int option
val completed : t -> campaign:string -> int
val is_cancelled : t -> campaign:string -> bool
val is_complete : t -> campaign:string -> bool
val failed : t -> campaign:string -> string option
(** A campaign-level execution failure (e.g. the test stopped
    converting), distinct from per-run crashes, which are ordinary
    classified records. *)

val record : t -> campaign:string -> index:int -> string option
(** The canonical record line for a completed run index. *)

val campaign_ids : t -> string list
(** Accepted campaign ids, in submit order. *)

val spec_of : t -> campaign:string -> (Wire.spec * resolved) option

val record_external : t -> campaign:string -> line:string ->
  ([ `Recorded | `Duplicate ], string) result
(** Ingest a worker-computed record line: parse it, then take the same
    path as a locally executed run (index and seed validated, canonical
    line journaled as a ["crun"], slot filled).  [`Duplicate] if the
    identical canonical record is already present (idempotent); [Error]
    on any mismatch — the coordinator treats that as a faulty shard
    result and reassigns. *)

val extras : t -> Perple_util.Json.t list
(** Coordinator records (["lease"], ["revoke"], ["shard-dead"]) replayed
    from the journal, in append order. *)

val append_extra : t -> Perple_util.Json.t -> unit
(** Journal a coordinator record; it is preserved verbatim (and in
    order) through compaction on every future resume. *)

val metrics_payload : t -> campaign:string -> string option
(** The campaign's terminal {!Wire.frame.Metrics_chunk} payload: the
    per-run metrics captures of all [runs] records merged (addition is
    commutative), serialized deterministically.  [Some] once the
    campaign is complete. *)

val pending : t -> bool
(** Some campaign still has unexecuted runs. *)

val jobs : t -> int
(** How many runs one local claim should give the pool. *)

val run_indices :
  ?pool:Perple_core.Pool.t ->
  jobs:int ->
  resolved ->
  spec:Wire.spec ->
  indices:int list ->
  on_summary:(Perple_core.Ledger.t -> unit) ->
  (Perple_core.Engine.entry option array, Perple_core.Convert.reason) result
(** The service's one call into {!Perple_core.Engine.campaign_entries}:
    run [indices] exactly as a single-node campaign runs them, every
    other index skipped; [on_summary] sees each run as it retires.
    Shared by {!execute} and {!Worker.run_index}. *)

val execute : t -> campaign:string -> indices:int list -> unit
(** Run the given missing indices on the scheduler's pool, storing each
    through the one ingest path as it retires.  A test that stops
    converting marks the campaign {!failed}.  Traced as ["service.scheduler.step"]; called by
    {!Coordinator.run_local}, which chooses the indices. *)

val note_draining : t -> unit
(** Append a ["draining"] marker — the serve-side analogue of the CLI's
    interrupted marker, written during signal shutdown. *)

val close : t -> unit
(** Close the journal and join the worker pool. *)
