(** Test conversion: litmus test -> perpetual litmus test (paper, Sec III).

    Every store of a positive constant [a] to a location [mem] becomes a
    store of the arithmetic-sequence member [k_mem * n_t + a], where [k_mem]
    is the number of distinct constants stored to [mem] across the whole
    test and [n_t] is the storing thread's iteration index.  Loads and
    fences are unchanged; per-iteration memory zeroing disappears because
    stored values are globally unique (Table I).

    Constants are first {e canonicalised} per location to [1..k_mem]
    (ascending by original value), so that a loaded value [v > 0] decodes
    uniquely: the store is identified by [((v - 1) mod k) + 1] and its
    iteration by [(v - canonical) / k]; [v = 0] is the initial value. *)

module Ast := Perple_litmus.Ast
module Program := Perple_sim.Program

type store = {
  location : string;
  loc_id : int;  (** Interned location id in the produced image. *)
  thread : int;
  instr_index : int;
  constant : int;  (** The constant in the original litmus test. *)
  canonical : int;  (** Its canonical residue in [1..k]. *)
  k : int;  (** [k_mem] of the location. *)
}

type t = {
  test : Ast.t;
  image : Program.image;
      (** The perpetual executable: [Seq]-operand stores, [Shared]
          addressing, loads renumbered so thread [t]'s [i]-th load targets
          register [i]. *)
  t_reads : int array;
      (** Loads per iteration per thread — the Converter's parameter file
          output ([t_0_reads] ... in the paper, Sec V-A). *)
  load_threads : int array;
      (** Load-performing threads, ascending; length is [T_L]. *)
  frame_index : int array;
      (** [frame_index.(thread)] is the thread's position among
          [load_threads], or [-1] for store-only threads. *)
  stores : store list;
  k_by_loc : int array;  (** [k_mem] per interned location id. *)
  by_residue : store option array array;
      (** [by_residue.(loc_id).(r)]: the store writing canonical residue
          [r] to the location (the first in [stores] order). *)
}

type reason =
  | Memory_condition of Ast.location
      (** The final condition inspects a shared location; such outcomes
          cannot be determined after a perpetual run (paper, Sec V-C). *)
  | Nonzero_initial of Ast.location
      (** Arithmetic-sequence decoding reserves 0 for the initial value. *)
  | Invalid of Ast.error

val pp_reason : Format.formatter -> reason -> unit

val convert : Ast.t -> (t, reason) result
(** Fails on invalid tests and on tests whose own final condition is not
    convertible.  Use {!convert_body} to convert the program while ignoring
    the condition (e.g. to analyse a different outcome set). *)

val convert_body : Ast.t -> (t, reason) result
(** Like {!convert} but does not require the test's own condition to be
    register-only. *)

type decoded =
  | Initial  (** The value 0: no store has hit the location yet. *)
  | Member of { store : store; iteration : int }

val decode : t -> loc_id:int -> value:int -> decoded option
(** [None] when the value is no member of any sequence of the location
    (negative, or a non-positive iteration would result). *)

val member : t -> loc_id:int -> value:int -> store option
(** The store whose sequence a positive value belongs to, [None] when no
    store of the location has its residue (or the value is not
    positive).  Allocation-free: {!decode} for hot loops. *)

val iteration_of : store -> value:int -> int
(** The iteration at which a {!member} value was stored: the inverse of
    {!seq_value}. *)

val store_for_value : t -> location:string -> value:int -> store option
(** The unique store instruction writing original constant [value] to the
    location, if any. *)

val seq_value : store -> iteration:int -> int
(** The value this store writes at the given iteration:
    [k * iteration + canonical]. *)

val slot_of_register : t -> thread:int -> reg:int -> int option
(** Load-slot index of an original register (the perpetual image renumbers
    registers to slots). *)
