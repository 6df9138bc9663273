(** Configuration of the simulated multicore machine.

    This is the substitution for the paper's hardware under test (an Intel
    Xeon cluster): a discrete-round simulator in which every round each
    thread may execute one instruction, store buffers drain probabilistically
    and the OS-jitter model occasionally preempts a thread for a long burst —
    the source of the wide thread-skew distribution of the paper's Fig 12.

    The [model] field selects the consistency behaviour.  [Tso] is the
    x86-TSO abstract machine and is the default; the buggy variants violate
    it in controlled ways so that forbidden target outcomes become observable
    and the violation-detection workflow can be demonstrated end to end. *)

type model =
  | Sc  (** Stores bypass the buffer: sequential consistency. *)
  | Tso  (** FIFO store buffer with forwarding: x86-TSO. *)
  | Pso
      (** Store buffer FIFO per location only: stores to different
          locations drain out of order (SPARC-PSO-style; the weaker-model
          extension the paper's conclusion gestures at).  Coherence is
          preserved, unlike {!Tso_store_reorder}. *)
  | Tso_store_reorder
      (** Buggy: the buffer drains in random order, so same-thread stores
          can be reordered (breaks e.g. [mp]). *)
  | Tso_fence_ignored
      (** Buggy: [MFENCE] neither drains nor waits (breaks e.g. [amd5]). *)

type persistency =
  | Epoch
      (** Correct epoch ordering: [drain] commits the thread's pending
          flushes to the persistence domain in order, so flushes separated
          by a drain persist in that order. *)
  | Eager
      (** Buggy controller: [drain] fails to commit — every flushed line
          persists lazily and independently, so flushes from different
          epochs can reach the persistence domain out of order (breaks e.g.
          [pm-epoch-order]). *)

type t = {
  model : model;
  persistency : persistency;
      (** Persistency behaviour of [flush]/[drain]; irrelevant (and
          drawing no randomness) for programs without those instructions. *)
  progress_chance : float;
      (** Per round, the chance a runnable thread executes its next
          instruction; models per-core speed variation. *)
  drain_chance : float;
      (** Per round, the chance a non-empty store buffer drains one entry. *)
  buffer_capacity : int;
      (** Stores stall when the buffer is full. *)
  jitter_chance : float;
      (** Per instruction attempt, the chance the thread is preempted. *)
  jitter_mean : int;
      (** Mean preemption length in rounds (geometric). *)
  faults : Fault.profile;
      (** Fault-injection profile (default empty).  With an empty profile
          the machine draws no extra random numbers, so fault-free runs
          stay bit-identical to builds that predate fault injection. *)
}

val default : t
(** TSO with moderate buffering and OS jitter; the configuration used by the
    paper-reproduction experiments. *)

val model_name : model -> string

val model_of_name : string -> model option
(** Inverse of {!model_name}. *)

val persistency_name : persistency -> string
(** ["epoch"] or ["eager-bug"]. *)

val persistency_of_name : string -> persistency option
(** Inverse of {!persistency_name}; also accepts ["eager"]. *)

val with_model : model -> t -> t

val with_persistency : persistency -> t -> t

val no_jitter : t -> t
(** Same machine without preemption bursts; useful in unit tests that need
    tightly interleaved threads. *)

val with_faults : Fault.profile -> t -> t
