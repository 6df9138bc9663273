(** Axiomatic model checking of litmus tests (herd-style).

    Enumerates candidate executions — a reads-from choice for every load and
    a write-serialisation (coherence) order for every location — and keeps
    those satisfying the model's axioms, one formulation for every
    {!Perple_litmus.Model.t}:

    - {b uniproc}: acyclicity of [po-loc ∪ rf ∪ ws ∪ fr] (coherence);
    - {b model}: acyclicity of [ppo ∪ rfe ∪ ws ∪ fr], where [ppo] keeps
      the program-order pairs of memory events that
      {!Perple_litmus.Model.preserved} keeps or a fence separates, and
      [rfe] is external reads-from (Owens/Sarkar/Sewell's axiomatic
      x86-TSO, generalised by the table).

    The test suite checks agreement with the hand-written machines of
    {!Operational} on every catalog test and on random programs,
    mirroring the equivalence theorem for x86-TSO.  Unlike
    {!Operational}, this checker also evaluates final-memory ([Loc_eq])
    conditions, since the final value of a location is the [ws]-maximal
    store. *)

module Ast := Perple_litmus.Ast
module Outcome := Perple_litmus.Outcome
module Model := Perple_litmus.Model

val reachable_outcomes : Model.t -> Ast.t -> Outcome.t list
(** All register outcomes of valid executions, sorted. *)

val condition_reachable : Model.t -> Ast.t -> bool
(** Whether some valid execution satisfies the test's own final condition,
    including [Loc_eq] atoms. *)

val candidate_count : Ast.t -> int
(** Number of candidate executions enumerated (before axiom filtering). *)
