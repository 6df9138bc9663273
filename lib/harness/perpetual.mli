(** Execution of perpetual litmus tests: the PerpLE Harness's run phase
    (paper, Sec V-B).

    Threads synchronise once at launch, then run [N] iterations free of any
    synchronisation.  Each load-performing thread appends its registers to a
    [buf] array at every iteration ([buf_t\[r_t * n + i\]], paper Sec III-B);
    outcome counting over the collected bufs is {!Perple_core.Count}'s job.

    The runner is generic over the executable image, which the PerpLE
    Converter produces; it only needs to know how many loads each thread
    performs per iteration (the Converter's [t_reads] output). *)

type run = {
  bufs : int array array;
      (** One array per test thread (empty for store-only threads);
          [bufs.(t).(r_t * n + i)] is the value loaded by thread [t]'s
          [i]-th load in iteration [n]. *)
  t_reads : int array;  (** Loads per iteration for every thread. *)
  iterations : int;
  virtual_runtime : int;
      (** Rounds: machine + perpetual bookkeeping; excludes outcome
          counting, which is charged separately (paper reports runtimes
          including counting — the report layer adds the two). *)
  machine : Perple_sim.Machine.stats;
}

val iteration_overhead : int
(** Virtual rounds charged per iteration for the perpetual loop's
    bookkeeping (appending registers to [buf]); smaller than litmus7's
    because no outcome comparison happens during the run. *)

val run :
  ?config:Perple_sim.Config.t ->
  ?on_sample:(round:int -> iterations:int array -> unit) ->
  ?on_event:(round:int -> Perple_sim.Machine.event -> unit) ->
  ?on_iteration_end:(thread:int -> iteration:int -> regs:int array -> unit) ->
  ?watchdog:(round:int -> iterations:int array -> bool) ->
  ?stress_threads:int ->
  rng:Perple_util.Rng.t ->
  image:Perple_sim.Program.image ->
  t_reads:int array ->
  iterations:int ->
  unit ->
  run
(** Registers in the image must be numbered by load slot (the Converter
    guarantees this): thread [t]'s [i]-th load targets register [i].
    [stress_threads] (default 0) adds {!Stress} threads that perturb
    scheduling without touching test locations.

    [on_iteration_end] runs after the perpetual buf bookkeeping for the
    same iteration; the [regs] array is the machine's live register file
    (see {!Perple_sim.Machine.run} — copy if retained).  [watchdog] is
    forwarded to the machine; when it aborts, the returned [bufs] are
    valid over the retired prefix only (see {!retired}).

    Which machine path runs is decided here, from these inputs only.
    With no [on_sample], [on_event], [on_iteration_end] or [watchdog],
    [config.faults = []] and no [Flush]/[Drain] in the stress-extended
    image, the run goes through the compiled kernel
    {!Perple_sim.Machine.run_perpetual}, which writes loaded values
    straight into [bufs]; otherwise through {!Perple_sim.Machine.run}
    with a per-iteration register copy.  Both give the same [run] — and
    the same metrics and trace span — for the same seed. *)

val retired : run -> int
(** The number of iterations every test thread fully retired — the
    longest prefix of [bufs] that holds real data.  Equals [iterations]
    for a completed, fault-free run. *)

val truncate : run -> iterations:int -> run
(** [truncate run ~iterations] keeps the first [iterations] iterations of
    every buf — the checkpoint-salvage step for runs cut short by faults
    or the watchdog.  [virtual_runtime] and machine stats are kept (the
    rounds were spent regardless).  Raises [Invalid_argument] if
    [iterations] exceeds the run's. *)

val empty :
  t_reads:int array ->
  virtual_runtime:int ->
  termination:Perple_sim.Machine.termination ->
  run
(** A zero-iteration run, used when supervision exhausts its retries
    without salvageable data. *)
