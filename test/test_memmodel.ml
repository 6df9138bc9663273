(* Tests for Perple_memmodel: known outcome sets for classic tests, SC/TSO
   inclusion, Table II classification, and the operational-vs-axiomatic
   agreement property (the model-equivalence cross-check), both on the
   catalog and on random tests. *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Axiomatic = Perple_memmodel.Axiomatic

let check = Alcotest.check

let outcome_set model test = Operational.reachable_outcomes model test

let labels outcomes = List.map Outcome.short_label outcomes

(* --- Known outcome sets -------------------------------------------------- *)

let test_sb_outcomes () =
  check
    (Alcotest.list Alcotest.string)
    "SC excludes 00" [ "01"; "10"; "11" ]
    (labels (outcome_set Model.Sc Catalog.sb));
  check
    (Alcotest.list Alcotest.string)
    "TSO allows all four" [ "00"; "01"; "10"; "11" ]
    (labels (outcome_set Model.Tso Catalog.sb))

let test_lb_outcomes () =
  let lb = Catalog.lb in
  check
    (Alcotest.list Alcotest.string)
    "TSO forbids 11" [ "00"; "01"; "10" ]
    (labels (outcome_set Model.Tso lb));
  check
    (Alcotest.list Alcotest.string)
    "SC same for lb" [ "00"; "01"; "10" ]
    (labels (outcome_set Model.Sc lb))

let test_mp_outcomes () =
  check
    (Alcotest.list Alcotest.string)
    "TSO forbids 10" [ "00"; "01"; "11" ]
    (labels (outcome_set Model.Tso Catalog.mp))

let test_forwarding_tso_only () =
  (* amd3's target needs store forwarding: reachable under TSO only. *)
  let amd3 = Catalog.find_exn "amd3" in
  let target = Result.get_ok (Outcome.of_condition amd3) in
  check Alcotest.bool "TSO" true
    (Operational.condition_reachable Model.Tso amd3 ~partial:target);
  check Alcotest.bool "SC" false
    (Operational.condition_reachable Model.Sc amd3 ~partial:target)

let test_fence_restores_order () =
  (* amd5 = sb + mfences: the relaxed outcome disappears. *)
  let amd5 = Catalog.find_exn "amd5" in
  check
    (Alcotest.list Alcotest.string)
    "amd5 TSO" [ "01"; "10"; "11" ]
    (labels (outcome_set Model.Tso amd5))

let test_sc_subset_tso_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      let sc = outcome_set Model.Sc test in
      let tso = outcome_set Model.Tso test in
      List.iter
        (fun o ->
          if not (List.exists (Outcome.equal o) tso) then
            Alcotest.failf "%s: SC outcome %s missing under TSO"
              test.Ast.name (Outcome.to_string o))
        sc)
    Catalog.suite

let test_table_ii_classification () =
  List.iter
    (fun (e : Catalog.entry) ->
      let expected = e.Catalog.classification = Catalog.Allowed in
      let got =
        Result.get_ok (Operational.target_allowed Model.Tso e.Catalog.test)
      in
      check Alcotest.bool e.Catalog.test.Ast.name expected got)
    Catalog.suite

let test_targets_are_genuine () =
  (* Every allowed target is SC-unreachable: it distinguishes the models
     (paper: "the most informative outcome"). *)
  List.iter
    (fun (e : Catalog.entry) ->
      let got =
        Result.get_ok (Operational.target_allowed Model.Sc e.Catalog.test)
      in
      check Alcotest.bool (e.Catalog.test.Ast.name ^ " not SC") false got)
    Catalog.allowed

let test_state_count () =
  check Alcotest.bool "sb explores states" true
    (Operational.state_count Model.Tso Catalog.sb > 10);
  check Alcotest.bool "SC smaller than TSO" true
    (Operational.state_count Model.Sc Catalog.sb
    < Operational.state_count Model.Tso Catalog.sb)

(* --- Axiomatic ----------------------------------------------------------- *)

let test_candidate_count () =
  (* sb: 2 loads x 2 rf choices each, ws orders trivial. *)
  check Alcotest.int "sb candidates" 4 (Axiomatic.candidate_count Catalog.sb);
  let n5 = Catalog.find_exn "n5" in
  (* n5: 2 loads x 3 choices each, 2 ws orders for x. *)
  check Alcotest.int "n5 candidates" 18 (Axiomatic.candidate_count n5)

let test_agreement_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      List.iter
        (fun model ->
          let op = Operational.reachable_outcomes model test in
          let ax = Axiomatic.reachable_outcomes model test in
          if
            List.length op <> List.length ax
            || not (List.for_all2 Outcome.equal op ax)
          then
            Alcotest.failf "%s under %s: operational and axiomatic disagree"
              test.Ast.name
              (Model.to_string model))
        [ Model.Sc; Model.Tso ])
    Catalog.suite

let test_axiomatic_final_memory () =
  (* 2+2w: exists (x=1 /\ y=1) needs each location's last write to be the
     other thread's *first* store — a ws/po cycle under any model that
     keeps same-thread W->W order.  Forbidden under SC and TSO; PSO drops
     W->W order across locations, making it reachable. *)
  let t = List.hd Catalog.non_convertible in
  check Alcotest.string "is 2+2w" "2+2w" t.Ast.name;
  check Alcotest.bool "2+2w forbidden under TSO" false
    (Axiomatic.condition_reachable Model.Tso t);
  check Alcotest.bool "2+2w forbidden under SC" false
    (Axiomatic.condition_reachable Model.Sc t);
  check Alcotest.bool "2+2w reachable under PSO" true
    (Axiomatic.condition_reachable Model.Pso t)

let test_forall_semantics () =
  (* Coherence always holds: a single-writer load can only return 0 or 1,
     and under any model reading 1 is not guaranteed but reading "0 or 1"
     universally is not expressible; instead check a genuinely universal
     fact: after mp+fences, seeing y=1 forces x=1 — as a forall over a
     strengthened test body it must hold, and its violation must not. *)
  let always model test atoms =
    Operational.condition_always model test
      ~partial:
        (List.map
           (fun (t, r, v) -> { Outcome.thread = t; reg = r; value = v })
           atoms)
  in
  (* Thread 1 of this test loads x after an mfence-separated handshake in
     which it can only start once y=1; every execution ends with r0=1. *)
  let t =
    Ast.make ~name:"always1"
      ~threads:[ [ Ast.Store ("x", 1) ]; [ Ast.Load (0, "x") ] ]
      ~condition:{ Ast.quantifier = Ast.Forall; atoms = [ Ast.Reg_eq (1, 0, 1) ] }
      ()
  in
  (* Not universal: the load may run before the store. *)
  check Alcotest.bool "not always 1" false
    (always Model.Tso t [ (1, 0, 1) ]);
  (* Universal tautology over the only loaded register's possible values
     is not expressible as one atom; but a test whose only store precedes
     its own load in one thread always reads it. *)
  let own =
    Ast.make ~name:"always2"
      ~threads:[ [ Ast.Store ("x", 1); Ast.Load (0, "x") ] ]
      ~condition:{ Ast.quantifier = Ast.Forall; atoms = [ Ast.Reg_eq (0, 0, 1) ] }
      ()
  in
  check Alcotest.bool "own store always read" true
    (always Model.Tso own [ (0, 0, 1) ]);
  check Alcotest.bool "verdict forall" true
    (Result.get_ok (Operational.condition_verdict Model.Tso own));
  check Alcotest.bool "verdict exists (sb)" true
    (Result.get_ok (Operational.condition_verdict Model.Tso Catalog.sb))

(* --- PSO extension -------------------------------------------------------- *)

let test_pso_relaxes_mp () =
  (* Under PSO, same-thread stores to different locations reorder: mp's
     target becomes observable; TSO still forbids it. *)
  let target = Result.get_ok (Outcome.of_condition Catalog.mp) in
  check Alcotest.bool "PSO allows mp" true
    (Operational.condition_reachable Model.Pso Catalog.mp
       ~partial:target);
  check Alcotest.bool "TSO forbids mp" false
    (Operational.condition_reachable Model.Tso Catalog.mp
       ~partial:target)

let test_pso_keeps_fences () =
  (* mp+fences and safe022 fence the writer: still forbidden under PSO. *)
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      check Alcotest.bool (name ^ " forbidden under PSO") false
        (Result.get_ok (Operational.target_allowed Model.Pso test)))
    [ "mp+fences"; "safe022"; "amd5" ]

let test_pso_superset_of_tso () =
  (* Everything TSO can do, PSO can do. *)
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      let tso = outcome_set Model.Tso test in
      let pso = outcome_set Model.Pso test in
      List.iter
        (fun o ->
          if not (List.exists (Outcome.equal o) pso) then
            Alcotest.failf "%s: TSO outcome %s missing under PSO"
              test.Ast.name (Outcome.to_string o))
        tso)
    Catalog.suite

let test_pso_coherent () =
  (* PSO preserves per-location order: staleld (coherence) tests stay
     forbidden. *)
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      check Alcotest.bool (name ^ " forbidden under PSO") false
        (Result.get_ok (Operational.target_allowed Model.Pso test)))
    [ "mp+staleld"; "n4"; "n5"; "co-iriw" ]

let test_pso_agreement_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      let op = Operational.reachable_outcomes Model.Pso test in
      let ax = Axiomatic.reachable_outcomes Model.Pso test in
      if
        List.length op <> List.length ax
        || not (List.for_all2 Outcome.equal op ax)
      then
        Alcotest.failf "%s under PSO: operational and axiomatic disagree"
          test.Ast.name)
    Catalog.suite

let agreement_property =
  QCheck.Test.make ~name:"operational = axiomatic on random tests" ~count:50
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:2 ())
    (fun test ->
      List.for_all
        (fun model ->
          let op = Operational.reachable_outcomes model test in
          let ax = Axiomatic.reachable_outcomes model test in
          List.length op = List.length ax
          && List.for_all2 Outcome.equal op ax)
        Model.all)

let sc_subset_property =
  QCheck.Test.make ~name:"SC outcomes are TSO outcomes on random tests"
    ~count:50
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:2 ())
    (fun test ->
      let sc = Operational.reachable_outcomes Model.Sc test in
      let tso = Operational.reachable_outcomes Model.Tso test in
      List.for_all (fun o -> List.exists (Outcome.equal o) tso) sc)

(* --- The model table ------------------------------------------------------ *)

(* The per-thread chain split that {!Model} derives from its table is
   exact only under these conditions (see model.mli). *)
let test_chain_split_preconditions () =
  List.iter
    (fun m ->
      let keeps what a b ~same_loc =
        check Alcotest.bool (Model.to_string m ^ " keeps " ^ what) true
          (Model.preserved m a b ~same_loc)
      in
      List.iter
        (fun same_loc ->
          keeps "R->R" Model.R Model.R ~same_loc;
          keeps "R->W" Model.R Model.W ~same_loc)
        [ true; false ];
      keeps "same-location W->W" Model.W Model.W ~same_loc:true;
      if Model.preserved m Model.W Model.R ~same_loc:false then
        keeps "W->W with W->R" Model.W Model.W ~same_loc:false)
    Model.all

(* --- Solver backend ------------------------------------------------------- *)

module Solver = Perple_memmodel.Solver

let models = Model.all

let test_solver_agreement_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      List.iter
        (fun model ->
          let op = Operational.reachable_outcomes model test in
          let sv = Solver.reachable_outcomes model test in
          if
            List.length op <> List.length sv
            || not (List.for_all2 Outcome.equal op sv)
          then
            Alcotest.failf "%s under %s: solver and operational disagree"
              test.Ast.name
              (Model.to_string model))
        models)
    Catalog.suite

let test_solver_table_ii () =
  List.iter
    (fun (e : Catalog.entry) ->
      let expected = e.Catalog.classification = Catalog.Allowed in
      let got =
        Result.get_ok (Solver.target_allowed Model.Tso e.Catalog.test)
      in
      check Alcotest.bool e.Catalog.test.Ast.name expected got)
    Catalog.suite

let test_solver_final_memory () =
  (* Same Loc_eq semantics as the axiomatic checker, including on the
     non-convertible tests. *)
  List.iter
    (fun t ->
      List.iter
        (fun model ->
          check Alcotest.bool
            (Printf.sprintf "%s under %s" t.Ast.name
               (Model.to_string model))
            (Axiomatic.condition_reachable model t)
            (Solver.final_condition_reachable model t))
        models)
    (List.map (fun (e : Catalog.entry) -> e.Catalog.test) Catalog.suite
    @ Catalog.non_convertible)

let test_solver_forall () =
  let own =
    Ast.make ~name:"always2"
      ~threads:[ [ Ast.Store ("x", 1); Ast.Load (0, "x") ] ]
      ~condition:
        { Ast.quantifier = Ast.Forall; atoms = [ Ast.Reg_eq (0, 0, 1) ] }
      ()
  in
  check Alcotest.bool "verdict forall" true
    (Result.get_ok (Solver.condition_verdict Model.Tso own));
  check Alcotest.bool "verdict exists (sb)" true
    (Result.get_ok (Solver.condition_verdict Model.Tso Catalog.sb))

let solver_agreement_property =
  QCheck.Test.make ~name:"solver = operational = axiomatic on random tests"
    ~count:300
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:2 ())
    (fun test ->
      List.for_all
        (fun model ->
          let op = Operational.reachable_outcomes model test in
          let ax = Axiomatic.reachable_outcomes model test in
          let sv = Solver.reachable_outcomes model test in
          List.length op = List.length ax
          && List.for_all2 Outcome.equal op ax
          && List.length op = List.length sv
          && List.for_all2 Outcome.equal op sv)
        models)

(* --- Solver trace verification -------------------------------------------- *)

(* A perpetual-style sb trace: t0 repeats [W x; R y], t1 repeats
   [W y; R x], and every read sources the other thread's
   previous-iteration write (buffers one iteration deep).  Relaxed but
   TSO-consistent; SC-inconsistent from iteration 0 on (both threads
   read past the other's already-issued store). *)
let sb_trace iters =
  let t0 =
    Array.init (2 * iters) (fun j ->
        if j mod 2 = 0 then Solver.T_write "x"
        else
          let i = j / 2 in
          Solver.T_read
            ("y", if i = 0 then None else Some (2 * iters + (2 * (i - 1)))))
  in
  let t1 =
    Array.init (2 * iters) (fun j ->
        if j mod 2 = 0 then Solver.T_write "y"
        else
          let i = j / 2 in
          Solver.T_read ("x", if i = 0 then None else Some (2 * (i - 1))))
  in
  [| t0; t1 |]

(* A perpetual mp violation: t0 repeats [W x; W y], t1 repeats
   [R y; R x], and each iteration reads the fresh y but the stale x —
   forbidden under TSO (W->W is ordered), allowed under PSO. *)
let mp_trace iters =
  let t0 =
    Array.init (2 * iters) (fun j ->
        if j mod 2 = 0 then Solver.T_write "x" else Solver.T_write "y")
  in
  let t1 =
    Array.init (2 * iters) (fun j ->
        let i = j / 2 in
        if j mod 2 = 0 then Solver.T_read ("y", Some ((2 * i) + 1))
        else Solver.T_read ("x", if i = 0 then None else Some (2 * (i - 1))))
  in
  [| t0; t1 |]

let test_solver_trace_long () =
  (* 2000 events: far beyond what enumerating executions can reach. *)
  let v = Solver.classify_trace Model.Tso (sb_trace 500) in
  check Alcotest.int "2000 events" 2000 v.Solver.events;
  check Alcotest.bool "TSO-consistent" true v.Solver.consistent;
  check Alcotest.int "decided by the fast path" 0 v.Solver.decisions;
  let v = Solver.classify_trace Model.Sc (sb_trace 500) in
  check Alcotest.bool "SC-inconsistent" false v.Solver.consistent

let test_solver_trace_violation () =
  let v = Solver.classify_trace Model.Tso (mp_trace 500) in
  check Alcotest.bool "TSO rejects stale mp" false v.Solver.consistent;
  check Alcotest.bool "names the broken axiom" true
    (v.Solver.violation <> None);
  let v = Solver.classify_trace Model.Pso (mp_trace 500) in
  check Alcotest.bool "PSO allows stale mp" true v.Solver.consistent

(* Violations say where they are: a uniproc shape names the read and the
   two writes it orders; a model-graph cycle names the first stuck event
   and what it waits for. *)
let test_solver_trace_where () =
  let violation threads =
    Option.value ~default:"(consistent)"
      (Solver.classify_trace Model.Tso threads).Solver.violation
  in
  let w = Solver.T_write "x" and r src = Solver.T_read ("x", src) in
  check Alcotest.string "CoRR"
    "cycle in uniproc graph: thread 1 event 3 reads [x] from thread 0 event \
     0, coherence-before thread 0 event 1, which a po-earlier read observed \
     (CoRR)"
    (violation [| [| w; w |]; [| r (Some 1); r (Some 0) |] |]);
  check Alcotest.string "CoWR"
    "cycle in uniproc graph: thread 0 event 1 reads [x] from the initial \
     value, coherence-before its own po-earlier write thread 0 event 0 (CoWR)"
    (violation [| [| w; r None |] |]);
  check Alcotest.string "CoRW"
    "cycle in uniproc graph: thread 0 event 0 reads [x] from its own \
     po-later write thread 0 event 1 (CoRW)"
    (violation [| [| r (Some 1); w |] |]);
  check Alcotest.string "CoRW past the next own write"
    "cycle in uniproc graph: thread 0 event 0 reads [x] from thread 0 event \
     2, coherence-after its own po-later write thread 0 event 1 (CoRW)"
    (violation [| [| r (Some 2); w; w |] |]);
  (* mp's stale read of x: t0's first write of x waits for t1's read of
     the initial x, which waits (via t1's read of y) for t0's write of y
     behind it *)
  check Alcotest.string "model graph: first stuck event"
    "cycle in TSO graph: thread 0 event 0 (write [x]) waits for the readers \
     of the initial value"
    (violation (mp_trace 3))

(* A read's source must be a same-location write, on either path. *)
let test_solver_rf_validated () =
  let rejects name threads =
    Alcotest.check_raises name
      (Invalid_argument "Solver: rf source is not a same-location write")
      (fun () -> ignore (Solver.classify_trace Model.Tso threads))
  in
  let w x = Solver.T_write x and r src = Solver.T_read ("x", Some src) in
  rejects "another location" [| [| w "y"; r 0 |] |];
  rejects "a fence" [| [| Solver.T_fence; r 0 |] |];
  rejects "out of range" [| [| r 5 |] |];
  rejects "multi-writer trace" [| [| w "x"; w "y" |]; [| w "x"; r 1 |] |]

let test_solver_trace_search () =
  (* Two threads race stores to one location with no reads: nothing
     forces the interleaving, so the fast path stalls and the DPLL
     branch decides (any interleaving works). *)
  let writes n = Array.make n (Solver.T_write "x") in
  let v = Solver.classify_trace Model.Tso [| writes 300; writes 300 |] in
  check Alcotest.bool "write race consistent" true v.Solver.consistent;
  check Alcotest.bool "search was needed" true (v.Solver.decisions > 0);
  (* A read pinning one write order plus a fence-framed contradiction:
     t1's read of t0's *first* store after t1's own store makes t1's
     store coherence-first... combined with t0 reading t1's store after
     t0's own second store, the orders clash under SC. *)
  let t0 = [| Solver.T_write "x"; Solver.T_write "x" |] in
  let t1 = [| Solver.T_write "x"; Solver.T_read ("x", Some 0) |] in
  let v = Solver.classify_trace Model.Sc [| t0; t1 |] in
  check Alcotest.bool "pinned race consistent" true v.Solver.consistent

(* --- An independent oracle for trace classification ------------------- *)

(* Small random traces: 2 or 3 threads of 1 to 3 events (at most 9)
   over two locations, x twice as likely so that writes race on it.
   Every read is sourced from the initial value or, half the time, from
   a same-location write anywhere in the trace — own and po-later writes
   included, so violations arise. *)
let trace_gen =
  let open QCheck.Gen in
  let* shape =
    list_size (int_range 2 3)
      (list_size (int_range 1 3)
         (pair
            (frequencyl [ (2, `W); (2, `R); (1, `F) ])
            (oneofl [ "x"; "x"; "y" ])))
  in
  let shape = Array.of_list (List.map Array.of_list shape) in
  let flat = Array.concat (Array.to_list shape) in
  let writes x =
    List.filter
      (fun id -> flat.(id) = (`W, x))
      (List.init (Array.length flat) Fun.id)
  in
  let+ sources =
    flatten_a
      (Array.map
         (fun (k, x) ->
           match (k, writes x) with
           | `R, (_ :: _ as ws) ->
             frequency [ (1, return None); (1, map Option.some (oneofl ws)) ]
           | _ -> return None)
         flat)
  in
  let id = ref (-1) in
  Array.map
    (Array.map (fun (k, x) ->
         incr id;
         match k with
         | `W -> Solver.T_write x
         | `R -> Solver.T_read (x, sources.(!id))
         | `F -> Solver.T_fence))
    shape

let show_trace threads =
  let id = ref (-1) in
  Array.to_list threads
  |> List.map (fun evs ->
         Array.to_list evs
         |> List.map (fun ev ->
                incr id;
                Printf.sprintf "%d:%s" !id
                  (match ev with
                  | Solver.T_write x -> "W" ^ x
                  | Solver.T_read (x, None) -> "R" ^ x ^ "<-init"
                  | Solver.T_read (x, Some w) -> Printf.sprintf "R%s<-%d" x w
                  | Solver.T_fence -> "F"))
         |> String.concat " ")
  |> String.concat " || "

let rec permutations = function
  | [] -> Seq.return []
  | l ->
    Seq.flat_map
      (fun x ->
        Seq.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      (List.to_seq l)

(* The axioms stated directly over every coherence order: uniproc
   [po-loc ∪ rf ∪ ws ∪ fr] acyclic, and [po ∪ rf ∪ ws ∪ fr] (SC) or
   [ppo ∪ fenced ∪ rfe ∪ ws ∪ fr] (TSO, PSO) acyclic, each checked by
   {!Event_graph.acyclic}.  No solver code is shared. *)
let oracle_consistent model threads =
  let evs =
    Array.concat
      (Array.to_list
         (Array.mapi (fun t evs -> Array.map (fun e -> (t, e)) evs) threads))
  in
  let n = Array.length evs in
  let ids = List.init n Fun.id in
  let thread id = fst evs.(id) and ev id = snd evs.(id) in
  let loc id =
    match ev id with
    | Solver.T_write x | Solver.T_read (x, _) -> Some x
    | Solver.T_fence -> None
  in
  let is_write id = match ev id with Solver.T_write _ -> true | _ -> false in
  let is_read id = match ev id with Solver.T_read _ -> true | _ -> false in
  let is_mem id = is_write id || is_read id in
  let po =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if thread a = thread b && a < b then Some (a, b) else None)
          ids)
      ids
  in
  let po_loc = List.filter (fun (a, b) -> loc a <> None && loc a = loc b) po in
  let rf =
    List.filter_map
      (fun r ->
        match ev r with Solver.T_read (_, Some w) -> Some (w, r) | _ -> None)
      ids
  in
  let rfe = List.filter (fun (w, r) -> thread w <> thread r) rf in
  let ppo =
    List.filter
      (fun (a, b) ->
        is_mem a && is_mem b
        && not
             ((is_write a && is_read b)
             || (model = Model.Pso && is_write a && is_write b
                && loc a <> loc b)))
      po
  in
  let fenced =
    List.filter
      (fun (a, b) ->
        is_mem a && is_mem b
        && List.exists
             (fun f ->
               ev f = Solver.T_fence && List.mem (a, f) po && List.mem (f, b) po)
             ids)
      po
  in
  let rec orders = function
    | [] -> Seq.return []
    | x :: rest ->
      let ws = List.filter (fun id -> is_write id && loc id = Some x) ids in
      Seq.flat_map
        (fun perm -> Seq.map (fun tl -> (x, perm) :: tl) (orders rest))
        (permutations ws)
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let rec after w = function
    | [] -> []
    | w' :: rest -> if w' = w then rest else after w rest
  in
  let valid co =
    let ws = List.concat_map (fun (_, perm) -> pairs perm) co in
    let fr =
      List.concat_map
        (fun r ->
          match ev r with
          | Solver.T_read (x, src) ->
            let perm = List.assoc x co in
            let later = match src with None -> perm | Some w -> after w perm in
            List.map (fun w -> (r, w)) later
          | _ -> [])
        ids
    in
    let acyclic edges = Perple_memmodel.Event_graph.acyclic edges n in
    acyclic (po_loc @ rf @ ws @ fr)
    &&
    match model with
    | Model.Sc -> acyclic (po @ rf @ ws @ fr)
    | Model.Tso | Model.Pso ->
      acyclic (ppo @ fenced @ rfe @ ws @ fr)
  in
  let locations = List.sort_uniq compare (List.filter_map loc ids) in
  Seq.exists valid (orders locations)

let trace_oracle_property =
  QCheck.Test.make ~name:"classify_trace = coherence-enumeration oracle"
    ~count:10000
    (QCheck.make ~print:show_trace trace_gen)
    (fun threads ->
      List.for_all
        (fun model ->
          (Solver.classify_trace model threads).Solver.consistent
          = oracle_consistent model threads)
        models)

(* The generator reaches every kernel path: fast-path verdicts both
   ways, searched verdicts, and violations the multi-writer merge finds
   (backtracking needs larger traces than the oracle can enumerate). *)
let test_trace_oracle_coverage () =
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:3000 trace_gen
  in
  let verdicts =
    List.concat_map
      (fun t -> List.map (fun m -> Solver.classify_trace m t) models)
      sample
  in
  let seen p = List.exists p verdicts in
  check Alcotest.bool "fast path, consistent" true
    (seen (fun (v : Solver.verdict) -> v.consistent && v.decisions = 0));
  check Alcotest.bool "fast path, violation" true
    (seen (fun (v : Solver.verdict) -> (not v.consistent) && v.decisions = 0));
  check Alcotest.bool "searched, consistent" true
    (seen (fun (v : Solver.verdict) -> v.consistent && v.decisions > 0));
  check Alcotest.bool "coherence conflict while merging writers" true
    (seen (fun (v : Solver.verdict) ->
         match v.violation with
         | Some m -> String.starts_with ~prefix:"no admissible coherence" m
         | None -> false))

let suite =
  [
    ( "memmodel.operational",
      [
        Alcotest.test_case "sb outcomes" `Quick test_sb_outcomes;
        Alcotest.test_case "lb outcomes" `Quick test_lb_outcomes;
        Alcotest.test_case "mp outcomes" `Quick test_mp_outcomes;
        Alcotest.test_case "forwarding TSO-only" `Quick
          test_forwarding_tso_only;
        Alcotest.test_case "fences restore order" `Quick
          test_fence_restores_order;
        Alcotest.test_case "SC subset of TSO (catalog)" `Quick
          test_sc_subset_tso_catalog;
        Alcotest.test_case "Table II classification" `Quick
          test_table_ii_classification;
        Alcotest.test_case "targets distinguish models" `Quick
          test_targets_are_genuine;
        Alcotest.test_case "state counts" `Quick test_state_count;
      ] );
    ( "memmodel.axiomatic",
      [
        Alcotest.test_case "candidate counts" `Quick test_candidate_count;
        Alcotest.test_case "agreement on catalog" `Quick
          test_agreement_catalog;
        Alcotest.test_case "final-memory conditions" `Quick
          test_axiomatic_final_memory;
        QCheck_alcotest.to_alcotest agreement_property;
        QCheck_alcotest.to_alcotest sc_subset_property;
      ] );
    ( "memmodel.forall",
      [ Alcotest.test_case "forall semantics" `Quick test_forall_semantics ] );
    ( "memmodel.model",
      [
        Alcotest.test_case "chain split preconditions" `Quick
          test_chain_split_preconditions;
      ] );
    ( "memmodel.solver",
      [
        Alcotest.test_case "agreement on catalog" `Quick
          test_solver_agreement_catalog;
        Alcotest.test_case "Table II classification" `Quick
          test_solver_table_ii;
        Alcotest.test_case "final-memory conditions" `Quick
          test_solver_final_memory;
        Alcotest.test_case "forall semantics" `Quick test_solver_forall;
        QCheck_alcotest.to_alcotest solver_agreement_property;
      ] );
    ( "memmodel.solver-trace",
      [
        Alcotest.test_case "2000-event trace" `Quick test_solver_trace_long;
        Alcotest.test_case "perpetual mp violation" `Quick
          test_solver_trace_violation;
        Alcotest.test_case "violations say where" `Quick
          test_solver_trace_where;
        Alcotest.test_case "rf sources validated" `Quick
          test_solver_rf_validated;
        Alcotest.test_case "write-race search" `Quick
          test_solver_trace_search;
        QCheck_alcotest.to_alcotest trace_oracle_property;
        Alcotest.test_case "oracle sample covers every path" `Quick
          test_trace_oracle_coverage;
      ] );
    ( "memmodel.pso",
      [
        Alcotest.test_case "relaxes mp" `Quick test_pso_relaxes_mp;
        Alcotest.test_case "fences hold" `Quick test_pso_keeps_fences;
        Alcotest.test_case "superset of TSO" `Quick test_pso_superset_of_tso;
        Alcotest.test_case "coherence holds" `Quick test_pso_coherent;
        Alcotest.test_case "checker agreement" `Quick
          test_pso_agreement_catalog;
      ] );
  ]
