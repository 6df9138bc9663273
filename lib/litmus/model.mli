(** The memory models, defined once.

    PerpLE judges counts and traces against x86-TSO (paper, Sec II); this
    repository also checks SC and PSO.  A model is fixed here by one
    table, {!preserved}: which fence-free program-order pairs of a thread
    it keeps.  Everything else is shared by all three models: coherence
    (uniproc), reads-from between threads (rfe), write serialisation (ws),
    from-reads (fr), and a fence ordering every access before it with
    every access after it.

    The declarative checkers read this table: {!Perple_memmodel.Axiomatic}
    builds ppo from it, {!Perple_memmodel.Solver} takes its per-thread
    chains ({!chain_count}, {!write_chain}) from it, and
    {!Generate.predict} decides cycles with it.  The abstract machines of
    {!Perple_memmodel.Operational} do not read it: they are the
    independent oracle the tests hold the table to. *)

type t = Sc | Tso | Pso

val all : t list
(** [[Sc; Tso; Pso]], weakest last. *)

val to_string : t -> string
(** ["SC"], ["TSO"], ["PSO"]. *)

type access = W | R

val preserved : t -> access -> access -> same_loc:bool -> bool
(** [preserved m a b ~same_loc]: does [m] keep program order from an
    access [a] to a po-later access [b] of the same thread with no fence
    between?  [same_loc] says both access one location.  SC keeps every
    pair; TSO relaxes W→R (store buffering); PSO also relaxes W→W across
    locations. *)

(** {1 Per-thread chains}

    Preserved program order splits each thread into chains: totally
    ordered sequences whose consecutive members carry every ppo edge of
    the chain, so a checker can follow [k] cursors per thread instead of a
    graph.  Chain 0 holds the reads and fences.  A write joins chain 0 iff
    W→R is preserved.  Otherwise all writes share chain 1 iff W→W across
    locations is preserved.  Otherwise the writes of dense location [x]
    form chain [1 + x].  Flushes are in no chain.

    The split is exact only because R→R and R→W are never relaxed (every
    read precedes every po-later access), W→W to one location never is,
    and a model that keeps W→R keeps W→W.  A table edit that breaks one of
    these needs a different split; the test suite checks them for every
    model in {!all}. *)

val chain_count : t -> nlocs:int -> int
(** Chains per thread of an execution over [nlocs] dense locations. *)

val write_chain : t -> loc:int -> int
(** The chain of a write to dense location [loc]: 0, 1 or [1 + loc]. *)
