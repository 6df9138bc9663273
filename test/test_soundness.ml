(* Cross-layer soundness: the simulated machine, the harnesses and the
   model checkers must tell one consistent story.

   - Every outcome the litmus7-style runner observes on the faithful
     machine is reachable according to the operational checker (the
     machine is an implementation of the abstract machine).
   - Same under SC and PSO configurations, against the matching model.
   - Same for random tests (property).
   - The perpetual pipeline agrees with the litmus7 pipeline on which
     outcomes are observable at all (over a decent run). *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Config = Perple_sim.Config
module Litmus7 = Perple_harness.Litmus7
module Sync_mode = Perple_harness.Sync_mode
module Convert = Perple_core.Convert
module OC = Perple_core.Outcome_convert
module Count = Perple_core.Count
module Perpetual = Perple_harness.Perpetual
module Rng = Perple_util.Rng

let check = Alcotest.check

let model_pairs =
  [
    (Config.Sc, Operational.Sc);
    (Config.Tso, Operational.Tso);
    (Config.Pso, Operational.Pso);
  ]

let observed_subset_of_reachable ~test ~sim_model ~checker_model ~seed =
  let reachable = Operational.reachable_outcomes checker_model test in
  let result =
    Litmus7.run
      ~config:(Config.with_model sim_model Config.default)
      ~rng:(Rng.create seed) ~test ~mode:Sync_mode.Timebase ~iterations:300 ()
  in
  List.iter
    (fun outcome ->
      if not (List.exists (Outcome.equal outcome) reachable) then
        Alcotest.failf "%s on %s: machine produced %s, checker forbids it"
          test.Ast.name
          (Config.model_name sim_model)
          (Outcome.to_string outcome))
    (Litmus7.observed result)

let test_machine_implements_models () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun (sim_model, checker_model) ->
          observed_subset_of_reachable ~test:e.Catalog.test ~sim_model
            ~checker_model ~seed:17)
        model_pairs)
    Catalog.suite

let machine_soundness_property =
  QCheck.Test.make
    ~name:"machine outcomes are checker-reachable (random tests)" ~count:30
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:2 ())
    (fun test ->
      List.for_all
        (fun (sim_model, checker_model) ->
          let reachable =
            Operational.reachable_outcomes checker_model test
          in
          let result =
            Litmus7.run
              ~config:(Config.with_model sim_model Config.default)
              ~rng:(Rng.create 23) ~test ~mode:Sync_mode.Timebase
              ~iterations:300 ()
          in
          List.for_all
            (fun o -> List.exists (Outcome.equal o) reachable)
            (Litmus7.observed result))
        model_pairs)

(* The perpetual pipeline's exhaustive counter and the litmus7 runner agree
   on observability: over a generous run, any outcome one sees the other
   can see — both being filtered through the checker keeps this from
   flaking (we only assert checker-reachability, the strongest property
   that is deterministic). *)
let test_perpetual_counts_reachable_only () =
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      let conv = Result.get_ok (Convert.convert test) in
      let run =
        Perpetual.run ~rng:(Rng.create 29) ~image:conv.Convert.image
          ~t_reads:conv.Convert.t_reads ~iterations:400 ()
      in
      let outcomes = Outcome.all test in
      let converted =
        List.map (fun o -> Result.get_ok (OC.convert conv o)) outcomes
      in
      let result = Count.exhaustive_independent conv ~outcomes:converted ~run in
      let reachable = Operational.reachable_outcomes Operational.Tso test in
      List.iteri
        (fun i o ->
          if
            result.Count.counts.(i) > 0
            && not (List.exists (Outcome.equal o) reachable)
          then
            Alcotest.failf "%s: perpetual counter observed forbidden %s" name
              (Outcome.to_string o))
        outcomes)
    [ "sb"; "lb"; "mp"; "iwp23b"; "rfi013"; "n5"; "podwr001"; "iriw" ]

(* The extension models get the same guarantee: perpetual counting on the
   PSO machine never counts a PSO-forbidden outcome, and mp's target (PSO-
   allowed) is found there. *)
let test_perpetual_pso_soundness () =
  let config = Config.with_model Config.Pso Config.default in
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      let conv = Result.get_ok (Convert.convert test) in
      let run =
        Perpetual.run ~config ~rng:(Rng.create 31) ~image:conv.Convert.image
          ~t_reads:conv.Convert.t_reads ~iterations:600 ()
      in
      let outcomes = Outcome.all test in
      let converted =
        List.map (fun o -> Result.get_ok (OC.convert conv o)) outcomes
      in
      let result =
        Count.exhaustive_independent conv ~outcomes:converted ~run
      in
      let reachable = Operational.reachable_outcomes Operational.Pso test in
      List.iteri
        (fun i o ->
          if
            result.Count.counts.(i) > 0
            && not (List.exists (Outcome.equal o) reachable)
          then
            Alcotest.failf "%s on PSO: counted PSO-forbidden %s" name
              (Outcome.to_string o))
        outcomes)
    [ "sb"; "mp"; "lb"; "amd5"; "safe022"; "n5" ];
  (* And the PSO-allowed mp target is actually observed. *)
  let test = Catalog.mp in
  let conv = Result.get_ok (Convert.convert test) in
  let run =
    Perpetual.run ~config ~rng:(Rng.create 33) ~image:conv.Convert.image
      ~t_reads:conv.Convert.t_reads ~iterations:3_000 ()
  in
  let target =
    Result.get_ok
      (OC.convert conv (Result.get_ok (Outcome.of_condition test)))
  in
  let count =
    (Count.heuristic_auto conv ~outcomes:[ target ] ~run).Count.counts.(0)
  in
  check Alcotest.bool "mp target observed under PSO" true (count > 0)

(* --- Whole-trace verification --------------------------------------------- *)

module Trace_check = Perple_core.Trace_check

let perpetual_for config seed test ~iterations =
  let conv = Result.get_ok (Convert.convert test) in
  let run =
    Perpetual.run ~config ~rng:(Rng.create seed) ~image:conv.Convert.image
      ~t_reads:conv.Convert.t_reads ~iterations ()
  in
  (conv, run)

(* A faithful machine's whole trace must satisfy its own model's axioms —
   across every catalog test and all three clean configurations. *)
let test_traces_verify () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun (sim_model, checker_model) ->
          let conv, run =
            perpetual_for
              (Config.with_model sim_model Config.default)
              41 e.Catalog.test ~iterations:150
          in
          let v = Trace_check.verify ~model:checker_model conv run in
          if not v.Perple_memmodel.Solver.consistent then
            Alcotest.failf "%s on %s: trace violates %s: %s"
              e.Catalog.test.Ast.name
              (Config.model_name sim_model)
              (Operational.model_to_string checker_model)
              (Option.value ~default:"?" v.Perple_memmodel.Solver.violation))
        model_pairs)
    Catalog.suite

(* The acceptance-scale case: a 2000-event sb run classified whole.  The
   operational enumerator explores outcome reachability of the 4-event
   test; it has no way to validate a concrete 2000-event execution. *)
let test_trace_2000_events () =
  let conv, run =
    perpetual_for Config.default 43 Catalog.sb ~iterations:500
  in
  let v = Trace_check.verify ~model:Operational.Tso conv run in
  check Alcotest.bool "consistent" true v.Perple_memmodel.Solver.consistent;
  check Alcotest.bool ">= 2000 events" true
    (v.Perple_memmodel.Solver.events >= 2000);
  check Alcotest.int "fast path decided" 0
    v.Perple_memmodel.Solver.decisions

(* The planted bugs must be caught: a buggy machine's trace, judged
   against honest TSO, is inconsistent for some seed within a few
   hundred iterations. *)
let test_trace_detects_planted_bugs () =
  List.iter
    (fun (bug, test_name) ->
      let test = Catalog.find_exn test_name in
      let detected = ref false in
      let seed = ref 1 in
      while (not !detected) && !seed <= 20 do
        let conv, run =
          perpetual_for
            (Config.with_model bug Config.default)
            !seed test ~iterations:300
        in
        let v = Trace_check.verify ~model:Operational.Tso conv run in
        if not v.Perple_memmodel.Solver.consistent then detected := true;
        incr seed
      done;
      check Alcotest.bool
        (Config.model_name bug ^ " detected on " ^ test_name)
        true !detected)
    [
      (Config.Tso_store_reorder, "mp");
      (* ignoring MFENCE shows up on the store-fence-load shape: the
         buffered store lets the fenced load run early, which honest TSO
         forbids *)
      (Config.Tso_fence_ignored, "amd5");
    ]

(* A load value names a store iteration, and a writer can have stored
   only up to the iteration it was in when the run ended.  A value
   naming a later one is undecodable: before that bound, one corrupted
   word stretched the trace to whatever iteration it named (millions of
   events, hundreds of MB) before any axiom was checked. *)
let test_trace_value_bounded () =
  let conv, run = perpetual_for Config.default 43 Catalog.sb ~iterations:100 in
  (* sb: thread 0's only load reads y, whose only store is thread 1's;
     iteration [i] of that store writes [i + 1]. *)
  let with_value value =
    let bufs = Array.map Array.copy run.Perpetual.bufs in
    bufs.(0).(5) <- value;
    { run with Perpetual.bufs }
  in
  let undecodable (v : Perple_memmodel.Solver.verdict) =
    match v.violation with
    | Some m -> String.starts_with ~prefix:"undecodable read" m
    | None -> false
  in
  let verify value =
    Trace_check.verify ~model:Operational.Tso conv (with_value value)
  in
  let v = verify 2_000_001 in
  check Alcotest.bool "inconsistent" false v.Perple_memmodel.Solver.consistent;
  check Alcotest.bool "as an undecodable read" true (undecodable v);
  check Alcotest.int "no trace built" 0 v.Perple_memmodel.Solver.events;
  check Alcotest.bool "trace_of_run raises" true
    (match Trace_check.trace_of_run conv (with_value 2_000_001) with
    | _ -> false
    | exception Trace_check.Undecodable _ -> true);
  let retired =
    run.Perpetual.machine.Perple_sim.Machine.iterations_retired.(1)
  in
  check Alcotest.bool "the writer's in-flight iteration decodes" false
    (undecodable (verify (retired + 1)));
  check Alcotest.bool "the one after it does not" true
    (undecodable (verify (retired + 2)))

let suite =
  [
    ( "soundness",
      [
        Alcotest.test_case "machine implements the models (suite)" `Slow
          test_machine_implements_models;
        QCheck_alcotest.to_alcotest machine_soundness_property;
        Alcotest.test_case "perpetual counts reachable only" `Quick
          test_perpetual_counts_reachable_only;
        Alcotest.test_case "PSO perpetual soundness" `Quick
          test_perpetual_pso_soundness;
      ] );
    ( "soundness.trace",
      [
        Alcotest.test_case "clean traces verify (suite x models)" `Quick
          test_traces_verify;
        Alcotest.test_case "2000-event trace classified" `Quick
          test_trace_2000_events;
        Alcotest.test_case "planted bugs detected" `Quick
          test_trace_detects_planted_bugs;
        Alcotest.test_case "load values cannot outgrow the run" `Quick
          test_trace_value_bounded;
      ] );
  ]
