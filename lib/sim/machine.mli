(** The simulated multicore machine.

    Executes one {!Program.image} for a given number of iterations per
    thread, under a {!Config.t}.  Time advances in rounds; in each round
    every runnable thread may execute at most one instruction and every
    non-empty store buffer may drain one entry.  The round counter is the
    {e virtual clock}: harness-level costs (synchronisation barriers,
    per-iteration bookkeeping, outcome counting) are charged against it by
    {!Perple_harness}, which lets the reproduction compare testing runtimes
    the way the paper's Fig 10 does without real x86 hardware. *)

type barrier =
  | No_barrier
      (** Threads run all their iterations freely (perpetual tests, and
          litmus7's [none] mode). *)
  | Every_iteration of { cost : int; max_release_skew : int }
      (** All threads rendezvous after each iteration; the rendezvous
          advances the virtual clock by [cost] rounds and drains all store
          buffers (a real barrier is long enough for buffers to empty).
          On release each thread restarts after an independent uniform delay
          in [\[0, max_release_skew\]] rounds — the start-time misalignment
          that makes per-iteration thread interaction rare on real hardware
          and distinguishes litmus7's synchronisation modes (a timebase
          barrier aligns tightly; a pthread barrier poorly). *)

type event =
  | Exec of { thread : int; iteration : int; instr : Program.instr; value : int }
      (** An instruction retired; [value] is the stored or loaded value
          (0 for fences). *)
  | Drain of { thread : int; loc : int; value : int }
      (** A store-buffer entry became globally visible. *)
  | Barrier_release  (** All threads passed the per-iteration barrier. *)
  | Stall of { thread : int; until : int }  (** OS-jitter preemption. *)

type termination =
  | Completed  (** Every thread retired all its iterations. *)
  | Watchdog_abort  (** The [watchdog] callback requested an abort. *)
  | Hung
      (** Fault injection left every unfinished thread hung (or parked at
          a barrier a hung thread can never release) with empty buffers:
          no event could ever happen again. *)

val termination_name : termination -> string
(** ["completed"], ["watchdog_abort"] or ["hung"] — the spelling used in
    metrics counter names and trace span arguments. *)

type stats = {
  rounds : int;  (** Final virtual clock value. *)
  instructions : int;  (** Instructions executed across all threads. *)
  drains : int;  (** Store-buffer drain events. *)
  barriers : int;  (** Barrier rendezvous performed. *)
  stalls : int;  (** Jitter preemptions suffered. *)
  termination : termination;
      (** [Completed] unless the run was cut short; aborted runs skip the
          termination flush, so in-flight stores stay unperformed. *)
  iterations_retired : int array;
      (** Per thread, the number of fully retired iterations; equals
          [iterations] everywhere iff the run completed without crash
          faults. *)
  lost_stores : int;
      (** Stores silently dropped by {!Fault.Store_loss} injection. *)
  persisted : int array array option;
      (** The persisted image [loc -> cell -> value], present iff the
          program uses the persistence domain ([Flush]/[Drain]).  For a
          crashed run this is the image frozen at the first crash fault
          (durable state plus a seeded coin flip per pending writeback);
          otherwise the durable state at termination. *)
}

val run :
  ?on_iteration_end:(thread:int -> iteration:int -> regs:int array -> unit) ->
  ?on_sample:(round:int -> iterations:int array -> unit) ->
  ?on_event:(round:int -> event -> unit) ->
  ?watchdog:(round:int -> iterations:int array -> bool) ->
  ?sample_interval:int ->
  config:Config.t ->
  rng:Perple_util.Rng.t ->
  image:Program.image ->
  iterations:int ->
  barrier:barrier ->
  unit ->
  stats
(** Runs every thread for [iterations] iterations of its body.

    [on_iteration_end] fires when a thread finishes an iteration, with that
    thread's register file.  {b Hazard}: the [regs] array is the thread's
    live register file, reused across calls — a callback that retains it
    without [Array.copy] will observe the values being clobbered by later
    iterations (regression-tested in [test_sim]; the supervision layer
    copies defensively).

    [watchdog] is polled at the sampling cadence with the current round and
    per-thread iteration counts; returning [true] aborts the run with
    [termination = Watchdog_abort].  Partial results (register files already
    delivered through [on_iteration_end]) remain valid — this is how the
    supervisor bounds runs that fault injection has hung or livelocked.

    Fault injection ([config.faults]) is armed per thread at run start from
    [rng]; an empty profile draws nothing from it.  The hot loop's own
    scheduling randomness (offsets, progress/drain/jitter coins, buggy-model
    drain picks) comes from a lane stream (see {!Lane}) seeded by one [rng] draw
    taken after arming, so a run is a pure function of the run seed and the
    fault-arming draws sit at a fixed point of the [rng] stream regardless
    of schedule length.

    [on_sample] fires every [sample_interval] rounds (default 64) with each
    thread's current iteration index; used to measure ground-truth thread
    skew against the paper's value-decoding estimate.

    [on_event] observes every instruction retirement, buffer drain, barrier
    release and jitter stall with the current virtual round — the machine's
    execution trace (pretty-printed by {!Perple_harness.Trace} and the
    [perple trace] command).  Observation only; the schedule is unchanged.

    Memory for [Indexed] operands has one cell per iteration, as litmus7
    allocates; [Shared] operands use a single cell per location.

    @raise Failure ("livelock") after 2M rounds in which no instruction
    retired and no store drained; a store stalled on a full buffer or a
    fence waiting for an empty one is not progress. *)

val run_perpetual :
  config:Config.t ->
  rng:Perple_util.Rng.t ->
  image:Program.image ->
  iterations:int ->
  t_reads:int array ->
  bufs:int array array ->
  stats
(** The compiled perpetual kernel: exactly
    [run ~config ~rng ~image ~iterations ~barrier:No_barrier ()] with
    every thread [t < Array.length t_reads] copying its registers
    [0 .. t_reads.(t) - 1] into [bufs.(t).(t_reads.(t) * n + i)] at the
    end of iteration [n] — the same stats, the same [bufs], the same
    [machine.*] metrics and [machine.run] trace span.  The run first
    compiles every thread's body into flat int ops whose kinds are
    resolved from the model and the program (a store buffered or
    written through, a load with or without the forwarding scan, a
    fence that waits or retires at once), then runs them in one inlined
    round loop instead of [run]'s closures.
    {!Perple_harness.Perpetual.run} selects it whenever it is given no
    hook and no watchdog; every other run, and the test oracle for this
    one, is [run].

    Preconditions: [config.faults = []] and no [Flush]/[Drain] in
    [image].  A load writes its value to its [bufs] slot when it
    retires; since registers are written only by loads and every load
    retires once per iteration, this leaves the register values an
    end-of-iteration copy would see.
    @raise Invalid_argument when [iterations <= 0] (with [run]'s
    message), when [config.faults] is non-empty or [image] uses the
    persistence domain, or when [bufs] and [t_reads] disagree in length
    or a buffer is shorter than [t_reads.(t) * iterations].
    @raise Failure with [run]'s livelock message under [run]'s rule. *)
