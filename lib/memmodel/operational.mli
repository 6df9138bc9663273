(** Exhaustive operational model checking of litmus tests.

    Enumerates every reachable execution of a test under an abstract machine
    for the chosen memory model and reports the set of reachable outcomes.
    This plays the role the herd simulator plays in the paper (Sec VII-A):
    deciding which target outcomes x86-TSO allows or forbids (Table II).

    The TSO machine is the x86-TSO abstract machine of Owens, Sarkar and
    Sewell: per-thread FIFO store buffers, store forwarding from the own
    buffer, loads reading main memory otherwise, [MFENCE] draining the own
    buffer.  The SC machine has no buffers.  The PSO machine (an
    extension beyond the paper's x86-TSO focus, exercising its claim that
    the approach applies to weaker models) keeps the store buffer FIFO only
    {e per location}, so same-thread stores to different locations can take
    effect out of program order — [mp]'s target becomes allowed.  Tests are
    tiny, so exhaustive enumeration with state memoisation terminates
    quickly.

    The machines do not read {!Perple_litmus.Model.preserved}, which
    {!Axiomatic} and {!Solver} are built from: they are the independent
    oracle the tests hold that table to. *)

module Ast := Perple_litmus.Ast
module Outcome := Perple_litmus.Outcome
module Model := Perple_litmus.Model

val reachable_outcomes : Model.t -> Ast.t -> Outcome.t list
(** All outcomes some complete execution of the test can produce, sorted.
    Uses {!Perple_litmus} outcome conventions: one binding per load. *)

val condition_reachable : Model.t -> Ast.t -> partial:Outcome.t -> bool
(** Is some reachable outcome consistent with the partial outcome? *)

val condition_always : Model.t -> Ast.t -> partial:Outcome.t -> bool
(** Does {e every} reachable outcome satisfy the partial outcome?  The
    semantics of litmus7's [forall] conditions. *)

val condition_verdict : Model.t -> Ast.t -> (bool, string) result
(** The test's own condition under its quantifier: [exists] (and
    [~exists], whose truth is the negation reported by the caller) checks
    reachability; [forall] checks universality.  [Error] when the condition
    mentions shared locations. *)

val target_allowed : Model.t -> Ast.t -> (bool, string) result
(** Whether the test's own final condition (as a partial outcome) is
    reachable; [Error] if the condition is not expressible over registers. *)

val state_count : Model.t -> Ast.t -> int
(** Number of distinct abstract-machine states explored; exposed for tests
    and for the simulator documentation. *)
