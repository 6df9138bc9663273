(** High-level PerpLE pipeline: convert a litmus test, run its perpetual
    version on the simulated machine, and count outcomes of interest
    (paper, Fig 3 control flow).

    This is the API the examples and the CLI use; the report layer drives
    the lower-level modules directly when it needs finer control. *)

module Ast := Perple_litmus.Ast
module Outcome := Perple_litmus.Outcome

type counter =
  | Exhaustive
      (** Exhaustive counting over the full [N^{T_L}] frame space, via the
          factorized kernel when the outcome set permits
          ({!Count.exhaustive}); counts are byte-identical to the
          reference either way. *)
  | Exhaustive_reference
      (** The naive [N^{T_L}] odometer ({!Count.exhaustive_reference}) —
          the paper's Algorithm 1 cost model, kept for fidelity
          comparisons (Fig 10) and as the factorized kernel's
          correctness baseline. *)
  | Heuristic

val counter_of_name : string -> counter option
(** Accepts each counter's short and long spelling ([heur]/[heuristic],
    [exh]/[exhaustive], [exh-ref]/[reference]). *)

val counter_name : counter -> string
(** The long spelling the CLI prints and [run] hashes into its journal
    digest: [heuristic], [exhaustive], [exhaustive-reference]. *)

val counter_short_name : counter -> string
(** The wire spelling, hashed by the service's campaign digest: [heur],
    [exh], [exh-ref]. *)

type report = {
  conversion : Convert.t;
  run : Perple_harness.Perpetual.run;
      (** The (possibly salvaged) run the counts were computed over;
          [run.iterations] is the {e effective} length — see
          [requested_iterations]. *)
  outcomes : Outcome.t list;  (** The outcomes of interest, in order. *)
  counts : int array;  (** Occurrences per outcome of interest. *)
  frames_examined : int;
      (** Size of the frame space the counts cover ([N^{T_L}] exhaustive,
          [N] heuristic) — a property of the algorithm, not of the kernel
          that computed it. *)
  evaluations : int;
      (** Outcome-predicate evaluations the counter actually performed —
          the counting work charged to [virtual_runtime]. *)
  counter : counter;
  virtual_runtime : int;
      (** Execution plus counting ([evaluations]), in virtual rounds —
          the paper's "runtime including both test execution and outcome
          counting".  For supervised runs this includes every retried
          attempt. *)
  requested_iterations : int;
      (** The caller's iteration request, before the exhaustive-counter
          cap and before any fault salvage; compare with
          [run.iterations] to see how much actually ran. *)
  degraded : bool;
      (** True iff faults (or watchdog aborts) left fewer iterations than
          the effective request: the counts cover a salvaged prefix. *)
  salvaged_iterations : int;
      (** Iterations the counts actually cover; equals [run.iterations]. *)
  supervision : Perple_harness.Supervisor.supervised option;
      (** The per-attempt ledger, when a supervision policy was used. *)
}

val run :
  ?config:Perple_sim.Config.t ->
  ?faults:Perple_sim.Fault.profile ->
  ?policy:Perple_harness.Supervisor.policy ->
  ?counter:counter ->
  ?outcomes:Outcome.t list ->
  ?exhaustive_cap:int ->
  ?stress_threads:int ->
  seed:int ->
  iterations:int ->
  Ast.t ->
  (report, Convert.reason) result
(** Runs the full pipeline.  [outcomes] defaults to the test's own target
    outcome; [counter] defaults to [Heuristic].  With [Exhaustive], the run
    length is capped so that the frame count stays within [exhaustive_cap]
    (default [2.5e8]); the paper itself deems the exhaustive counter
    impractical at scale (Sec VII-B); the effective length is surfaced via
    [requested_iterations] vs [run.iterations] instead of being applied
    silently.

    [faults] (overriding [config.faults]) injects failures; [policy]
    supervises the run — watchdog, retries with backoff and split RNGs,
    and checkpoint salvage ({!Perple_harness.Supervisor}).  Without a
    policy, runs truncated by crash faults are still salvaged: counting
    proceeds over the completed prefix and the report is marked
    [degraded].  Beware that a hang or livelock fault without a policy
    leaves no watchdog to bound the run. *)

val convertible :
  ?outcomes:Outcome.t list -> Ast.t -> (unit, Convert.reason) result
(** The conversion checks {!run} makes before executing anything (the
    test body and every outcome of interest convert), so a campaign can
    fail before it creates a journal. *)

type crash = {
  message : string;  (** [Printexc.to_string] of the task's exception. *)
  backtrace : string;  (** Raw backtrace, printed; may be empty. *)
}

type entry = {
  run_index : int;  (** Position in the campaign, [0 .. runs-1]. *)
  run_seed : int;  (** The pre-split seed this run was given. *)
  outcome : (report, crash) result;
      (** [Error] means the run raised; siblings were unaffected. *)
  run_metrics : Perple_util.Json.t option;
      (** This run's isolated metrics capture ({!Perple_util.Metrics.to_json}),
          present whenever metrics are enabled or [on_entry] is set. *)
}

val campaign_seeds : runs:int -> seed:int -> int array
(** The per-run seed sequence a campaign with this [seed] uses: one
    [bits64] draw per run from a campaign RNG, in run order, masked
    non-negative.  Exposed so a resume can verify journaled seeds. *)

val campaign_entries :
  ?config:Perple_sim.Config.t ->
  ?faults:Perple_sim.Fault.profile ->
  ?policy:Perple_harness.Supervisor.policy ->
  ?counter:counter ->
  ?outcomes:Outcome.t list ->
  ?exhaustive_cap:int ->
  ?stress_threads:int ->
  ?pool:Pool.t ->
  ?jobs:int ->
  ?skip:(int -> bool) ->
  ?on_entry:(entry -> unit) ->
  runs:int ->
  seed:int ->
  iterations:int ->
  Ast.t ->
  (entry option array, Convert.reason) result
(** Like {!campaign}, but fault-isolated and resumable.  A run that
    raises becomes an [Error crash] entry in its own slot while every
    sibling runs to completion (via {!Pool.map_result}).  [skip i]
    (default: never) excludes run [i] from execution — its slot stays
    [None] — without perturbing any other run's seed; a resume skips the
    journaled runs this way.  [on_entry] is invoked once per completed
    run, serialized, as runs retire — the journaling hook.  The
    worker-count clamp is computed from the full [runs], not from the
    pending subset, so clamp notes and metrics are identical between a
    clean campaign and any resume of it.  [pool] reuses an existing
    persistent worker pool ({!Pool.create}) across calls — the service
    scheduler passes one so repeated step batches never spawn domains;
    without it, parallel dispatch uses the shared process-wide pool. *)

val campaign :
  ?config:Perple_sim.Config.t ->
  ?faults:Perple_sim.Fault.profile ->
  ?policy:Perple_harness.Supervisor.policy ->
  ?counter:counter ->
  ?outcomes:Outcome.t list ->
  ?exhaustive_cap:int ->
  ?stress_threads:int ->
  ?pool:Pool.t ->
  ?jobs:int ->
  runs:int ->
  seed:int ->
  iterations:int ->
  Ast.t ->
  (report array, Convert.reason) result
(** A campaign of [runs] independent pipeline runs of the same test,
    distributed over up to [jobs] domains ({!Pool}).  Each run's seed is
    drawn from a campaign RNG seeded with [seed] {e before} dispatch
    (one draw per run, in run order), so the resulting report array is
    bit-identical for every [jobs] value — including under fault
    injection and supervised retries, whose randomness derives from the
    per-run seed alone.  Other options are passed through to {!run}
    unchanged. *)

val target_count : report -> int
(** Occurrences of the first outcome of interest (the target). *)

val rate_per_mround : targets:int -> rounds:int -> float
(** Target occurrences per million virtual rounds ([0.] when [rounds = 0])
    — the paper's target outcome detection rate metric (Sec VI-B3),
    against the virtual clock. *)

val detection_rate : report -> float
(** {!rate_per_mround} of one report. *)

val exhaustive_iterations_cap : tl:int -> cap:int -> requested:int -> int
(** Largest [N <= requested] with [N^tl <= cap]. *)
