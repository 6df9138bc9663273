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

(* --- The single-writer path against the graph reference ------------------ *)

module Solver = Perple_memmodel.Solver

(* Catalog tests where no location has stores on two threads: their whole
   traces take {!Solver.check}'s graph-free path, which {!Solver.check_graphs}
   (CSR graphs, Kahn passes) checks edge by edge.  Multi-writer tests run
   the same search in both and are left out. *)
let single_writer_tests =
  List.filter_map
    (fun (e : Catalog.entry) ->
      (* each thread's stored locations, once per thread *)
      let stored =
        Array.to_list e.Catalog.test.Ast.threads
        |> List.concat_map (fun instrs ->
               Array.to_list instrs
               |> List.filter_map (function
                    | Ast.Store (x, _) -> Some x
                    | _ -> None)
               |> List.sort_uniq compare)
      in
      match Convert.convert e.Catalog.test with
      | Ok conv
        when List.length stored = List.length (List.sort_uniq compare stored)
        ->
        Some conv
      | _ -> None)
    Catalog.suite

let all_configs =
  [
    Config.Sc;
    Config.Tso;
    Config.Pso;
    Config.Tso_store_reorder;
    Config.Tso_fence_ignored;
  ]

(* A run with one load overwritten by another value of its location that
   still decodes: the initial value, or some store's value from an
   iteration its writer reached.  A third of the picks take any such value
   (mostly uniproc shapes); a third stay within two iterations of the
   value read; a third give a load of its thread's last retired iteration
   one of the newest values, which nothing later in the thread
   contradicts, so the cycles it closes run through the model graph. *)
let corrupt_load (conv : Convert.t) (run : Perpetual.run) pick =
  let rand = Random.State.make [| pick |] in
  let int n = Random.State.int rand n in
  let choose l = List.nth l (int (List.length l)) in
  let retired = run.Perpetual.machine.Perple_sim.Machine.iterations_retired in
  let threads = conv.Convert.test.Ast.threads in
  let loads t =
    List.filter_map
      (function Ast.Load (_, x) -> Some x | _ -> None)
      (Array.to_list threads.(t))
  in
  match
    List.filter
      (fun t -> retired.(t) > 0 && loads t <> [])
      (List.init (Array.length threads) Fun.id)
  with
  | [] -> run
  | readers ->
    let t = choose readers in
    let s = int (List.length (loads t)) in
    let x = List.nth (loads t) s in
    let stores =
      List.filter
        (fun (st : Convert.store) -> st.Convert.location = x)
        conv.Convert.stores
    in
    let slot i = (run.Perpetual.t_reads.(t) * i) + s in
    let at (st : Convert.store) it =
      Convert.seq_value st
        ~iteration:(max 0 (min it retired.(st.Convert.thread)))
    in
    let i, value =
      match (int 3, stores) with
      | _, [] -> (0, 0) (* nothing stores [x]: every value read is 0 *)
      | 0, _ ->
        let st = choose stores in
        ( int retired.(t),
          if int 8 = 0 then 0
          else at st (int (retired.(st.Convert.thread) + 1)) )
      | 1, st0 :: _ -> (
        let i = int retired.(t) in
        let old = run.Perpetual.bufs.(t).(slot i) in
        let d = choose [ -2; -1; 1; 2 ] in
        match Convert.member conv ~loc_id:st0.Convert.loc_id ~value:old with
        | Some st -> (i, at st (Convert.iteration_of st ~value:old + d))
        | None -> (i, at (choose stores) (abs d - 1)) (* was the initial value *))
      | _ ->
        let st = choose stores in
        (retired.(t) - 1, at st (retired.(st.Convert.thread) - int 3))
    in
    let bufs = Array.map Array.copy run.Perpetual.bufs in
    bufs.(t).(slot i) <- value;
    { run with Perpetual.bufs }

let graph_of (v : Solver.verdict) =
  Option.map
    (fun m -> List.hd (String.split_on_char ':' m))
    v.Solver.violation

let single_writer_gen =
  QCheck.Gen.(
    tup5
      (int_bound (List.length single_writer_tests - 1))
      (oneofl all_configs) (int_bound 10_000) (int_range 50 3000)
      (opt ~ratio:0.5 (int_bound 1_000_000)))

let single_writer_execution (ti, config, seed, iterations, pick) =
  let conv = List.nth single_writer_tests ti in
  let _, run =
    perpetual_for
      (Config.with_model config Config.default)
      seed conv.Convert.test ~iterations
  in
  let run = match pick with None -> run | Some p -> corrupt_load conv run p in
  Trace_check.execution conv run

let single_writer_agrees_property =
  let print (ti, config, seed, iterations, pick) =
    Printf.sprintf "%s on %s, seed %d, %d iterations, corrupt %s"
      (List.nth single_writer_tests ti).Convert.test.Ast.name
      (Config.model_name config) seed iterations
      (match pick with None -> "none" | Some p -> string_of_int p)
  in
  QCheck.Test.make
    ~name:"check = check_graphs on single-writer perpetual traces" ~count:500
    (QCheck.make ~print single_writer_gen)
    (fun case ->
      let e = single_writer_execution case in
      List.for_all
        (fun (_, model) ->
          let v = Solver.check model e and g = Solver.check_graphs model e in
          v.Solver.consistent = g.Solver.consistent
          && v.Solver.events = g.Solver.events
          && v.Solver.decisions = g.Solver.decisions
          && v.Solver.backtracks = g.Solver.backtracks
          && graph_of v = graph_of g)
        model_pairs)

(* The property's inputs reach every verdict: consistent traces, uniproc
   shapes and model-graph cycles. *)
let test_single_writer_coverage () =
  let verdicts =
    List.concat_map
      (fun case ->
        let e = single_writer_execution case in
        List.map (fun (_, model) -> Solver.check model e) model_pairs)
      (QCheck.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:60
         single_writer_gen)
  in
  let seen graph = List.exists (fun v -> graph_of v = graph) verdicts in
  check Alcotest.bool "consistent" true (seen None);
  check Alcotest.bool "uniproc violation" true
    (seen (Some "cycle in uniproc graph"));
  List.iter
    (fun model ->
      check Alcotest.bool (model ^ " violation") true
        (seen (Some ("cycle in " ^ model ^ " graph"))))
    [ "SC"; "TSO"; "PSO" ]

(* A violation names where it is: the planted store-reorder bug's mp
   trace, with the thread, iteration and event id of the first stuck
   event agreeing with the execution's own layout (mp: two events per
   iteration on both threads). *)
let test_violation_names_event () =
  let rec first_violation seed =
    let conv, run =
      perpetual_for
        (Config.with_model Config.Tso_store_reorder Config.default)
        seed Catalog.mp ~iterations:500
    in
    let v = Trace_check.verify ~model:Operational.Tso conv run in
    if v.Solver.consistent then first_violation (seed + 1) else (conv, run, v)
  in
  let conv, run, v = first_violation 3 in
  let m = Option.get v.Solver.violation in
  let prefix, rest =
    match String.index_opt m ':' with
    | Some i -> (String.sub m 0 i, String.sub m (i + 2) (String.length m - i - 2))
    | None -> Alcotest.failf "no location in %S" m
  in
  check Alcotest.bool "keeps the graph prefix" true
    (List.mem prefix [ "cycle in uniproc graph"; "cycle in TSO graph" ]);
  let e = Trace_check.execution conv run in
  Scanf.sscanf rest "thread %d iteration %d event %d" (fun t i id ->
      let lo = e.Solver.thread_start.(t) in
      check Alcotest.bool "event lies in its thread" true
        (lo <= id && id < e.Solver.thread_start.(t + 1));
      check Alcotest.int "iteration of the event" ((id - lo) / 2) i)

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
        QCheck_alcotest.to_alcotest single_writer_agrees_property;
        Alcotest.test_case "single-writer inputs cover every verdict" `Quick
          test_single_writer_coverage;
        Alcotest.test_case "violations name their event" `Quick
          test_violation_names_event;
      ] );
  ]
