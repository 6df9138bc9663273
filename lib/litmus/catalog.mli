(** The perpetual litmus suite (paper, Table II) and companion tests.

    The paper names 34 x86-TSO tests but gives bodies only for [sb], [lb] and
    [podwr001] (Fig 2).  The remaining bodies are reconstructed from the
    x86-TSO literature (Owens/Sarkar/Sewell's test suite, the Intel/AMD
    manual examples, and the shapes of diy-generated [safe]/[rfi] families)
    under two invariants, both checked by the test suite against the
    {!Perple_memmodel} checkers:

    - the [\[T, T_L\]] signature matches Table II, and
    - the target outcome is allowed/forbidden under x86-TSO exactly as
      Table II classifies it.

    Where the literature reuses one body under several names (e.g. [amd3]
    and [iwp2.3.b] are the same manual example), so do we. *)

type classification =
  | Allowed  (** Target outcome observable on x86-TSO hardware. *)
  | Forbidden  (** Target outcome must never be observed on x86-TSO. *)

type entry = {
  test : Ast.t;
  classification : classification;
      (** Table II's grouping of the target outcome under x86-TSO. *)
}

val suite : entry list
(** The 34 tests of Table II, in the table's order (allowed group first). *)

val allowed : entry list
(** The 12 tests whose target outcome x86-TSO allows. *)

val forbidden : entry list
(** The 22 tests whose target outcome x86-TSO forbids. *)

val find : string -> entry option
(** Look up a suite or companion test by name. *)

val find_exn : string -> Ast.t
(** @raise Not_found if the name is unknown. *)

val sb : Ast.t
val lb : Ast.t
val podwr001 : Ast.t
val mp : Ast.t

val non_convertible : Ast.t list
(** Companion tests whose final conditions inspect shared memory locations
    and therefore cannot be converted to perpetual form (paper, Sec V-C):
    classic diy shapes [2+2w], [s], [r], [coww], [w+rw]. *)

type pm_entry = {
  pm_test : Ast.t;
  holds_epoch : bool;
      (** Whether the post-crash condition holds at every crash point under
          correct epoch-ordered persistency. *)
  holds_eager : bool;
      (** Same, under the buggy {e eager} variant whose drain commits
          nothing. *)
}

val pm_suite : pm_entry list
(** Persistent-memory crash-consistency tests: classic shapes
    ([pm-epoch-order], [pm-flush-before-fence], [pm-torn-pair],
    [pm-unflushed], [pm-2t-epoch-order]) with expected verdicts per
    persistency model.  Evaluated by [perple crash-suite], not by the
    perpetual workflow; their volatile condition is the trivial
    [exists ()]. *)

val find_pm : string -> pm_entry option
(** Look up a PM test by name. *)

val extended_88 : unit -> (Ast.t * bool) list
(** A model of the paper's full 88-test campaign (Sec VII-G): the 34
    convertible suite tests (flag [true]) plus 54 non-convertible tests
    (flag [false]) — the named companions and variants of suite tests whose
    conditions also pin a final memory value.  Built by the cycle
    generator on the first call and memoised. *)

val all_names : string list
(** Names of every test known to the catalog (suite + companions). *)
