(** Shared event-graph extraction for the declarative checkers.

    A litmus test's program becomes a list of {!event}s — one per
    instruction, numbered in (thread, program-order) order — the common
    substrate of the {!Axiomatic} enumerator and the {!Solver} constraint
    backend.  [MFENCE] and [SFENCE]/[DRAIN] both become {!Fence} (their
    volatile semantics coincide on x86-TSO; only {!Persistency}
    distinguishes them) and [CLFLUSH] becomes the volatile no-op
    {!Flush}. *)

module Ast := Perple_litmus.Ast

type kind =
  | Write of string * int
  | Read of int * string  (** register, location *)
  | Fence
  | Flush of string

type event = { id : int; thread : int; po : int; kind : kind }

val events_of_test : Ast.t -> event list
(** All instructions as events, ids dense from 0 in (thread, po) order. *)

val location : kind -> string option
(** The location a memory event touches; [None] for fences and
    flushes. *)

val is_write : event -> bool
val is_read : event -> bool
val is_fence : event -> bool

val is_mem : event -> bool
(** Writes and reads; fences and flushes are not memory events. *)

val writes_to : event list -> string -> event list
(** Write events to a location, in id order. *)

val reads : event list -> event list

val po_pairs : event list -> (event * event) list
(** The full (transitive) program-order relation as event pairs. *)

val acyclic : (int * int) list -> int -> bool
(** Whether the edge list over ids [0..n-1] is a DAG. *)
