(** diy-style litmus test generation from relaxation cycles.

    The diy suite — the toolbox litmus7 belongs to, and the source of the
    paper's [safe]/[rfi]/[podwr] test families — synthesizes litmus tests
    from {e cycles} of relations: program-order edges within a thread and
    communication edges across threads.  A test generated from a cycle has
    a canonical target outcome that makes every communication edge of the
    cycle hold; the outcome is forbidden under a memory model exactly when
    the model preserves every program-order edge of the cycle (the cycle
    then being a happens-before cycle), and allowed as soon as one edge is
    relaxable.

    This module reproduces that construction for the models of
    {!Model}: a [Pod] step is relaxable exactly when {!Model.preserved}
    drops it, [Fenced] edges are never relaxable, and communication edges
    ([Rfe], [Fre], [Wse]) never are either (single-copy-atomic
    substrate).

    Example: [PodWR Fre PodWR Fre] is the sb test; [PodWW Rfe PodRR Fre]
    is mp; [Wse] edges yield final-memory conditions and therefore
    non-convertible tests (paper, Sec V-C).

    The generator's prediction is cross-validated against the
    {!Perple_memmodel} checkers by the test suite. *)

type direction = Model.access = W | R

type edge =
  | Pod of direction * direction
      (** Program order to the {e next} event, different location. *)
  | Fenced of direction * direction
      (** Program order with an [MFENCE] in between. *)
  | Rfe  (** External reads-from: a write feeding another thread's read. *)
  | Fre
      (** External from-read: a read older than another thread's write. *)
  | Wse  (** External write serialisation: coherence between writes. *)

val edge_of_string : string -> (edge, string) result
(** diy-ish names, case-insensitive: ["PodWR"], ["PodRW"], ["PodWW"],
    ["PodRR"], ["MFencedWR"] (etc.), ["Rfe"], ["Fre"], ["Wse"]. *)

val edge_to_string : edge -> string

val parse_cycle : string -> (edge list, string) result
(** Whitespace-separated edge names. *)

val of_cycle : name:string -> edge list -> (Ast.t, string) result
(** Build the litmus test realising the cycle.  Fails when the cycle is
    ill-formed: endpoint directions that do not chain, fewer than two
    communication edges, more threads or events than the instruction set
    supports, or location constraints that cannot be satisfied. *)

val predict : Model.t -> edge list -> bool
(** Whether the target outcome is {e allowed} under the model, from cycle
    shape alone: allowed iff in some thread neither {!Model.preserved}
    program order nor a fence orders the entry event before the exit
    event. *)

val well_formed : edge list -> (unit, string) result

val random_cycle : Perple_util.Rng.t -> max_edges:int -> edge list
(** A random well-formed cycle with at least two communication edges and
    between 4 and [max_edges] edges.  Useful for property tests. *)

val named_cycles : (string * string) list
(** A catalog of classic cycles and their diy spellings, e.g.
    [("sb", "PodWR Fre PodWR Fre")]. *)
