(** Serializable per-run campaign summaries — the records of the
    durability journal ([perple run/supervise --journal FILE]).

    A {!t} captures everything the campaign ledger printers need from an
    {!Engine.report} (plus the supervision ledger and the run's isolated
    metrics), so a resumed campaign can reprint journaled runs
    byte-identically without re-executing them.  JSON round-trip is
    exact: [of_json (to_json s) = Ok s]. *)

module Json := Perple_util.Json

type attempt = {
  a_index : int;
  a_outcome : string;  (** {!Perple_harness.Supervisor.outcome_name}. *)
  a_requested : int;
  a_retired : int;
  a_rounds : int;
  a_lost_stores : int;
  a_exn : string option;
}

type supervision = {
  s_outcome : string;
  s_total_rounds : int;
  s_lost : bool;  (** True iff the supervised run salvaged nothing. *)
  s_attempts : attempt list;
}

type crash = { c_message : string; c_backtrace : string }

type t = {
  index : int;  (** Position in the campaign, 0-based. *)
  seed : int;  (** The pre-split per-run seed. *)
  crashed : crash option;
      (** [Some _] iff the run raised; the numeric fields are then 0. *)
  iterations : int;  (** Effective (possibly salvaged) iterations. *)
  requested_iterations : int;
  frames_examined : int;
  evaluations : int;
  virtual_runtime : int;
  counts : int array;  (** Occurrences per outcome of interest. *)
  degraded : bool;
  salvaged_iterations : int;
  supervision : supervision option;
  metrics : Json.t option;
      (** The run's isolated metrics capture, replayed on resume. *)
}

val of_entry : Engine.entry -> t
val target_count : t -> int

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** {1 Journal records}

    A journal is a header record followed by one ["run"] record per
    completed run (any order), optionally ending with an ["interrupted"]
    marker left by a signal handler. *)

val digest_of_params : (string * string) list -> string
(** Canonical digest (MD5, hex) of the campaign parameters, so a resume
    refuses a journal written under different settings. *)

val campaign_digest :
  command:string -> Perple_litmus.Ast.t -> (string * string) list -> string
(** {!digest_of_params} of the command, the test's hash (MD5 of its
    printed form) and then [params]: the configuration digest of every
    journaled campaign. *)

type header = { h_command : string; h_digest : string; h_runs : int }

val header_to_json : header -> Json.t
val parse_header : Json.t -> (header, string) result

val kind : Json.t -> string option
(** The record's ["kind"] field: ["header"], ["run"], ["interrupted"],
    or — in service journals — ["spec"], ["cancel"] and ["draining"]. *)

val interrupted_marker : Json.t

val draining_marker : Json.t
(** Appended by [perple serve] on SIGINT/SIGTERM after sessions drain;
    skipped (like ["interrupted"]) when the journal is replayed. *)

val open_journal :
  ?prog:string ->
  ?fresh_if_empty:bool ->
  path:string ->
  resume:bool ->
  what:string ->
  ingest:(Json.t -> (unit, string) result) ->
  live:(unit -> Json.t list) ->
  header ->
  (Perple_util.Journal.t, string) result
(** Opens the journal at [path] for the campaign whose header is given.

    Without [resume] the file is created (truncated) and the header is
    appended, fsync'd.  With [resume] the file is loaded once; a dropped
    damaged tail is noted on stderr under [prog] (default ["perple"]);
    the header must match in command, digest and run count ([what]
    names the units in the mismatch message); every later record except
    the ["interrupted"] and ["draining"] markers goes to [ingest] in
    file order; then the file is compacted to the header plus [live ()]
    and reopened for append.  A file that already holds exactly those
    records — nothing dropped, the header line first, the [live ()]
    records in any order — is kept and fsync'd rather than rewritten
    ({!Perple_util.Journal.compact}), so resuming a clean journal writes
    nothing.  A journal with no intact record is an error unless
    [fresh_if_empty], which starts it over.  Every error is prefixed
    ["cannot resume: "].  I/O failures raise [Unix.Unix_error]
    or [Sys_error]. *)

val record_line : t -> string
(** The canonical single-line serialization of a run record
    ([Json.to_string] of {!to_json}, no trailing newline) — the exact
    bytes the service streams for the record, live or replayed. *)
