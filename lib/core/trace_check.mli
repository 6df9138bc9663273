(** Whole-trace verification of perpetual runs via the solver backend.

    A perpetual run's sequenced store values make every load's reads-from
    source unambiguous ({!Convert.decode}), so the entire run — thousands
    of events — unrolls into one concrete execution that
    {!Perple_memmodel.Solver.check} checks against the model's
    axioms directly.  The report layer uses this instead of per-iteration
    outcome classification: it validates the inter-iteration orderings the
    outcome view cannot see, and it is the detection instrument for the
    planted simulator bugs (their traces violate honest TSO). *)

module Config := Perple_sim.Config
module Operational := Perple_memmodel.Operational
module Solver := Perple_memmodel.Solver
module Perpetual := Perple_harness.Perpetual

val spec_model : Config.model -> Operational.model
(** The model a trace from this simulator configuration must satisfy.
    The buggy variants map to honest TSO: that is how their deviations
    are caught. *)

exception Undecodable of string
(** A recorded load value that no store of its location can have
    produced, or that names a store iteration beyond the one its writer
    was in when the run ended. *)

val execution : Convert.t -> Perpetual.run -> Solver.execution
(** Unroll a run straight into the kernel's flat arrays, with decoded
    reads-from sources.  Fully retired iterations contribute their whole
    skeleton (flushes excluded — no volatile axiom can touch them);
    iterations a writer had not retired contribute only its stores, and
    only as far as another thread observed them.  A writer's stores can
    come from at most the iteration it was in when the run ended, so the
    execution is bounded by the run length whatever the loaded values.

    @raise Undecodable on a value no store can have produced. *)

val trace_of_run :
  Convert.t -> Perpetual.run -> Solver.trace_event array array
(** {!execution} as a boxed per-thread event trace (global ids
    thread-major, as {!Solver.classify_trace} expects).

    @raise Undecodable as {!execution}. *)

val verify :
  model:Operational.model -> Convert.t -> Perpetual.run -> Solver.verdict
(** {!execution} checked by {!Solver.check}; an undecodable value is
    reported as an inconsistent verdict rather than raised.  A violation
    names its first stuck event by thread, iteration and event id.

    {!Solver.check_graphs} on the same {!execution} is the reference for
    this check: the test suite holds the two to equal verdicts over random
    catalog runs on every machine configuration, including runs with a
    corrupted load. *)
