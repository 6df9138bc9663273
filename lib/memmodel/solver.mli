(** Constraint-solver model checking of litmus tests and whole traces.

    The third backend, independent of both {!Operational} (abstract-machine
    enumeration) and {!Axiomatic} (candidate-execution enumeration).  An
    execution is a {e constraint problem}: the reads-from source of every
    load and the coherence order of every location are variables, and
    validity is acyclicity of two graphs — uniproc [po-loc ∪ rf ∪ ws ∪ fr]
    and the per-model graph ([po] for SC, the reduced [ppo ∪ fenced ∪ rfe]
    chains for TSO/PSO).  When every location has one writer thread, the
    coherence orders are fixed by program order and no graph is built:
    uniproc is one coherence-shape scan and the model axiom a sweep over
    per-thread program-order chains.  Otherwise both graphs are maintained
    incrementally, with derived [fr] edges materialized by unit
    propagation; coherence pairs forced by reachability are oriented
    without search (the Chakraborty-style polynomial fast path), and a
    hand-rolled DPLL core branches on the remaining interleaving points
    with trail-based undo.

    Because the per-location coherence orders are solved rather than
    enumerated, the solver classifies executions far beyond the
    {!Axiomatic} candidate product and the {!Operational} state cap —
    including whole perpetual-run traces via {!classify_trace}. *)

module Ast := Perple_litmus.Ast
module Outcome := Perple_litmus.Outcome

(** {1 Litmus-test interface}

    Mirrors {!Operational} and {!Axiomatic}; the test suite checks
    three-way agreement on the catalog and on generated tests. *)

val reachable_outcomes : Operational.model -> Ast.t -> Outcome.t list
(** All register outcomes of valid executions, sorted; {!Operational} and
    {!Axiomatic} conventions (one binding per load). *)

val condition_reachable : Operational.model -> Ast.t -> partial:Outcome.t -> bool
(** Is some valid execution consistent with the partial outcome? *)

val condition_always : Operational.model -> Ast.t -> partial:Outcome.t -> bool
(** Does every valid execution satisfy the partial outcome ([forall])? *)

val condition_verdict : Operational.model -> Ast.t -> (bool, string) result
(** The test's own condition under its quantifier.  Unlike
    {!Operational.condition_verdict}, [exists] conditions over shared
    locations ([Loc_eq]) are decided (the coherence-maximal write is a
    solver constraint); [forall] over locations remains an [Error]. *)

val target_allowed : Operational.model -> Ast.t -> (bool, string) result
(** Whether the test's own final condition (as a partial outcome) is
    reachable; [Error] if not expressible over registers — the exact
    contract of {!Operational.target_allowed}. *)

val final_condition_reachable : Operational.model -> Ast.t -> bool
(** Whether some valid execution satisfies the test's own final condition
    including [Loc_eq] atoms — the contract of
    {!Axiomatic.condition_reachable}. *)

val classify : Operational.model -> Ast.t -> Outcome.t -> bool
(** Whether the exact outcome is reachable — the per-outcome
    classification the report layer applies to observed outcomes. *)

(** {1 Whole-trace verification} *)

type verdict = {
  consistent : bool;
  events : int;
  violation : string option;
      (** which acyclicity axiom broke, when inconsistent:
          [cycle in <graph> graph: ...] naming the first stuck event (for
          a uniproc shape, the read and the two writes it orders), or
          [no admissible coherence ...]/[exhausted coherence ...] from
          search *)
  decisions : int;  (** free coherence choices explored; [0] means the
                        polynomial fast path decided the execution *)
  backtracks : int;  (** abandoned search branches *)
}

type ekind = Write | Read | Fence | Flush

type execution = {
  locations : string array;  (** dense location id -> name *)
  thread_start : int array;
      (** length [threads + 1]: thread [t] owns ids [thread_start.(t)] to
          [thread_start.(t + 1) - 1], in program order *)
  kind : ekind array;
  loc : int array;  (** dense location id; ignored for fences *)
  rf : int array;
      (** a read's source: the id of a same-location write, or [-1] for
          the initial value; ignored for other kinds *)
}
(** One concrete execution as flat arrays — the kernel's input, built
    without boxing an event. *)

val check :
  ?label:(int -> string) -> Operational.model -> execution -> verdict
(** Verify one concrete execution against the model's axioms.  Only the
    coherence orders are solved for.  When no location has writers on
    more than one thread, they are forced, and the check is linear with
    no graph: a coherence scan for uniproc (CoRR, CoWR and CoRW shapes),
    then a sweep advancing per-thread program-order chains (SC: one; TSO:
    reads and fences, writes; PSO: reads and fences, writes per location)
    while their rfe, fr and cross-chain ppo sources are done.  Otherwise
    the CSR graphs of {!check_graphs} are searched.  [label] names an
    event id in the violation (default ["thread T event ID"]).

    @raise Invalid_argument if a read's source is not a same-location
    write. *)

val check_graphs : Operational.model -> execution -> verdict
(** {!check} through the graph path for every execution: both graphs as
    CSR arrays, Kahn passes and, for multi-writer locations, the coherence
    search.  The reference the tests hold {!check}'s single-writer path
    to: [consistent], [events], [decisions] and [backtracks] agree, and a
    violation names the same graph.

    @raise Invalid_argument as {!check}. *)

type trace_event =
  | T_write of string  (** store to a location *)
  | T_read of string * int option
      (** load with its decoded reads-from source: the global id of a
          same-location [T_write], or [None] for the initial value.
          Global ids number events thread-major: all of thread 0 in
          program order, then thread 1, … *)
  | T_fence

val classify_trace : Operational.model -> trace_event array array -> verdict
(** {!check} on a boxed trace: [threads.(t)] lists thread [t]'s events in
    program order; reads carry their decoded reads-from source.

    @raise Invalid_argument if a read's source is not a same-location
    write. *)
