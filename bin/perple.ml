(* perple — command-line front end for the PerpLE reproduction.

   Subcommands mirror the PerpLE workflow (paper, Fig 3): inspect litmus
   tests, convert them to perpetual form, run them on the simulated machine
   with either outcome counter, run the litmus7-style baseline, emit the
   Converter's C/assembly artifacts, and regenerate the paper's tables and
   figures. *)

open Cmdliner
module Ast = Perple_litmus.Ast
module Parser = Perple_litmus.Parser
module Printer = Perple_litmus.Printer
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Axiomatic = Perple_memmodel.Axiomatic
module Solver = Perple_memmodel.Solver
module Trace_check = Perple_core.Trace_check
module Config = Perple_sim.Config
module Fault = Perple_sim.Fault
module Sync_mode = Perple_harness.Sync_mode
module Litmus7 = Perple_harness.Litmus7
module Supervisor = Perple_harness.Supervisor
module Convert = Perple_core.Convert
module Outcome_convert = Perple_core.Outcome_convert
module Engine = Perple_core.Engine
module Codegen = Perple_core.Codegen
module Report = Perple_report

let load_test spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then begin
    match Parser.parse_file spec with
    | Ok test -> Ok test
    | Error e -> Error (Format.asprintf "%s: %a" spec Parser.pp_error e)
  end
  else begin
    match Catalog.find spec with
    | Some entry -> Ok entry.Catalog.test
    | None ->
      Error
        (Printf.sprintf
           "unknown test %S (not a catalog name or a readable file); try \
            'perple list'"
           spec)
  end

let test_arg =
  let doc = "Catalog test name (see $(b,perple list)) or path to a .litmus file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST" ~doc)

let iterations_arg =
  let doc = "Number of test iterations N." in
  Arg.(value & opt int 10_000 & info [ "n"; "iterations" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed; equal seeds reproduce runs exactly." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* An enumerated option: parsed by [of_name], printed by [name]. *)
let name_conv ~of_name ~name expected =
  Arg.conv
    ( (fun s ->
        Option.to_result (of_name s) ~none:(`Msg ("expected " ^ expected))),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let model_conv =
  name_conv ~of_name:Config.model_of_name ~name:Config.model_name
    "sc, tso, pso, tso+store-reorder-bug or tso+fence-ignored-bug"

let model_arg =
  let doc =
    "Simulated hardware model: $(b,sc), $(b,tso) (default), $(b,pso), \
     $(b,tso+store-reorder-bug) or $(b,tso+fence-ignored-bug)."
  in
  Arg.(value & opt model_conv Config.Tso & info [ "model" ] ~docv:"MODEL" ~doc)

let config_of_model model = Config.with_model model Config.default

let stress_arg =
  Arg.(
    value & opt int 0
    & info [ "stress" ] ~docv:"K"
        ~doc:
          "Add $(docv) stress threads hammering scratch locations (paper, \
           Sec II-B1).")

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let reason_msg r = Format.asprintf "%a" Convert.pp_reason r

(* Every resumable subcommand (run, supervise, crash-suite) shares this
   up-front check, so --resume without --journal fails immediately with
   the same actionable message instead of partway into setup. *)
let check_resume ~journal ~resume =
  if resume && journal = None then
    Error
      "--resume requires --journal FILE: resume continues the campaign \
       recorded in that journal, so pass the same --journal path the \
       interrupted command used"
  else Ok ()

(* --- observability -------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans across the pipeline (engine, machine, counters, \
           supervisor, pool) and write them to $(docv) as Chrome \
           trace-event JSON (loadable in chrome://tracing or Perfetto).  \
           Observation only: the printed ledger is byte-identical with or \
           without tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON summary of deterministic pipeline counters \
           (machine rounds, counter evaluations, supervisor retries, ...) \
           to $(docv).  The summary is bit-identical for any $(b,--jobs) \
           value and with or without $(b,--trace).")

(* Install ambient sinks for [f], then write the requested files.  Notes
   go to stderr so the stdout ledger stays byte-identical with and
   without observability. *)
let with_observability ~trace ~metrics f =
  let module Tr = Perple_util.Trace_event in
  let module Mx = Perple_util.Metrics in
  let tsink = Option.map (fun _ -> Tr.create_sink ()) trace in
  let msink = Option.map (fun _ -> Mx.create_sink ()) metrics in
  Option.iter Tr.install tsink;
  Option.iter Mx.install msink;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Tr.uninstall ();
        Mx.uninstall ())
      f
  in
  (match (trace, tsink) with
  | Some path, Some sink ->
    Tr.write sink ~path;
    Printf.eprintf "perple: wrote %d trace events to %s\n%!"
      (Tr.length sink) path
  | _ -> ());
  (match (metrics, msink) with
  | Some path, Some sink ->
    Mx.write sink ~path;
    Printf.eprintf "perple: wrote metrics summary to %s\n%!" path
  | _ -> ());
  result

let wrap f =
  let report = function
    | Ok () -> ()
    | Error m ->
      prerr_endline ("perple: " ^ m);
      Stdlib.exit 1
  in
  Term.(const report $ f)

(* --- durability: campaign journal and resume ------------------------------ *)

module Journal = Perple_util.Journal
module Ledger = Perple_core.Ledger

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append every completed run to $(docv) as a CRC-checksummed, \
           fsync'd record the moment it retires, so an interrupted campaign \
           can be continued with $(b,--resume).  Refuses to overwrite an \
           existing journal unless resuming.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue the campaign recorded in $(b,--journal): journaled runs \
           are replayed from the journal and only the missing ones execute.  \
           Per-run seeds are pre-split from the campaign seed, so the \
           resumed ledger is byte-identical to an uninterrupted one.  The \
           journal must match this command's configuration digest.")

let journal_errors f =
  try f () with
  | Unix.Unix_error (e, op, arg) ->
    fail "journal: %s %s: %s" op arg (Unix.error_message e)
  | Sys_error m -> fail "journal: %s" m

(* Resume replays the metrics of journaled runs instead of re-executing
   them; additions are commutative, so merging them up front keeps the
   final --metrics dump byte-identical to an uninterrupted campaign. *)
let merge_journaled_metrics completed =
  match Perple_util.Metrics.active () with
  | None -> Ok ()
  | Some sink ->
    Hashtbl.fold
      (fun i (s : Ledger.t) acc ->
        Result.bind acc @@ fun () ->
        match s.Ledger.metrics with
        | None -> Ok ()
        | Some m ->
          Result.map_error (Printf.sprintf "journal: run %d: %s" i)
            (Perple_util.Metrics.merge_json sink m))
      completed (Ok ())

(* SIGINT and SIGTERM end a command with the shell's codes, 130 and 143,
   so scripts and the CI smoke jobs can tell a drain from a crash; [note]
   first prints its message with the signal's word. *)
let exit_on_signal signum note =
  let interrupted = signum = Sys.sigint in
  note (if interrupted then "interrupted" else "terminated");
  Stdlib.exit (if interrupted then 130 else 143)

(* While a journaled campaign runs, SIGINT/SIGTERM flush an interrupted
   marker (via the handler-safe {!Journal.try_append}) and point at
   --resume; completed runs are already on disk, fsync'd. *)
let with_journal_signals journal ~runs ~what ~journaled f =
  match journal with
  | Some (j, path) ->
    let handler signum =
      ignore (Journal.try_append j Ledger.interrupted_marker);
      exit_on_signal signum (fun _ ->
          Printf.eprintf
            "\n\
             perple: interrupted: %d of %d %s journaled in %s\n\
             perple: rerun the same command with --resume to finish the \
             campaign\n\
             %!"
            !journaled runs what path)
    in
    let old_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
    let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigint old_int;
        Sys.set_signal Sys.sigterm old_term;
        Journal.close j)
      f
  | None -> f ()

(* The journaled campaign body, generic over the record kind (a run's
   ledger summary, a crash point's record): open or resume the journal
   through {!Ledger.open_journal}, skip journaled units, journal each
   retiring one under the SIGINT/SIGTERM handlers, and return one record
   per unit — journaled or freshly computed — for the printers.  A
   resumed record must parse ([of_record]), index a unit of this
   campaign and pass the command's [validate].  [prepare] runs once the
   journal is open, before anything executes. *)
let campaign_records ~journal ~resume ~command ~digest ~runs ~what
    ~record_kind ~of_record ~to_record ~index_of
    ?(validate = fun _ _ -> Ok ()) ?(prepare = fun _ -> Ok ()) ~execute () =
  let completed = Hashtbl.create 16 in
  let ingest path r =
    match Ledger.kind r with
    | Some k when k = record_kind ->
      Result.bind (of_record r) @@ fun s ->
      let i = index_of s in
      if i < 0 || i >= runs then
        fail "journal %s has %s index %d out of range" path record_kind i
      else Result.map (fun () -> Hashtbl.replace completed i s) (validate i s)
    | Some k -> fail "journal %s has an unexpected %S record" path k
    | None -> fail "journal %s has a record without a kind" path
  in
  let live () =
    List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) completed [])
    |> List.map (fun i -> to_record (Hashtbl.find completed i))
  in
  journal_errors @@ fun () ->
  let opened =
    match journal with
    | None -> Ok None
    | Some path when (not resume) && Sys.file_exists path ->
      fail
        "journal %s already exists; pass --resume to continue it or remove \
         it first"
        path
    | Some path ->
      Ledger.open_journal ~path ~resume ~what ~ingest:(ingest path) ~live
        { Ledger.h_command = command; h_digest = digest; h_runs = runs }
      |> Result.map (fun j ->
             if resume then
               Printf.eprintf
                 "perple: resuming: %d of %d %s journaled in %s\n%!"
                 (Hashtbl.length completed) runs what path;
             Some (j, path))
  in
  Result.bind opened @@ fun journal ->
  Result.bind (prepare completed) @@ fun () ->
  let journaled = ref (Hashtbl.length completed) in
  let on_record =
    Option.map
      (fun (j, _) r ->
        Journal.append j (to_record r);
        incr journaled)
      journal
  in
  let skip i = Hashtbl.mem completed i in
  Result.map
    (fun computed ->
      Array.init runs (fun i ->
          match computed.(i) with
          | Some r -> r
          | None -> Hashtbl.find completed i))
    (with_journal_signals journal ~runs ~what ~journaled (fun () ->
         execute ~skip ~on_record))

(* The one campaign driver behind [run] and [supervise]: argument
   checks, observability, the test, the conversion checks (made before
   any journal exists, so a failing campaign leaves none behind), the
   journal digest (the command's [params] plus "command", the test's
   hash and "runs") and the journaled ledger of seeded engine runs,
   whose journaled seeds must match the pre-split ones and whose
   journaled metrics are replayed into the --metrics sink.  [print test]
   runs before the campaign and returns the ledger printer; [single]
   takes a one-run [run]. *)
let campaign ~command ~params ~runs ~jobs ~seed ~journal ~resume ~trace
    ~metrics ~checks ?(all_outcomes = false) ?single ~execute ~print
    spec =
  if runs <= 0 then fail "--runs must be positive"
  else if jobs <= 0 then fail "--jobs must be positive"
  else
    match List.find_opt fst checks with
    | Some (_, m) -> Error m
    | None ->
      Result.bind (check_resume ~journal ~resume) @@ fun () ->
      with_observability ~trace ~metrics @@ fun () ->
      Result.bind (load_test spec) @@ fun test ->
      let outcomes = if all_outcomes then Some (Outcome.all test) else None in
      match single with
      | Some single when runs = 1 -> single test outcomes
      | _ ->
        let report = print test in
        Result.bind
          (Result.map_error reason_msg (Engine.convertible ?outcomes test))
        @@ fun () ->
        let digest =
          Ledger.campaign_digest ~command test
            (params @ [ ("runs", string_of_int runs) ])
        in
        let seeds = Engine.campaign_seeds ~runs ~seed in
        let validate i (s : Ledger.t) =
          if s.Ledger.seed <> seeds.(i) then
            fail
              "journal run %d was seeded with %d, this campaign pre-splits %d"
              i s.Ledger.seed seeds.(i)
          else Ok ()
        in
        Result.map report
          (campaign_records ~journal ~resume ~command ~digest ~runs
             ~what:"runs" ~record_kind:"run" ~of_record:Ledger.of_json
             ~to_record:Ledger.to_json
             ~index_of:(fun (s : Ledger.t) -> s.Ledger.index)
             ~validate ~prepare:merge_journaled_metrics
             ~execute:(fun ~skip ~on_record ->
               let on_entry =
                 Option.map (fun f e -> f (Ledger.of_entry e)) on_record
               in
               execute test outcomes ~skip ~on_entry
               |> Result.map_error reason_msg
               |> Result.map (Array.map (Option.map Ledger.of_entry)))
             ())

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Perpetual litmus suite (Table II):";
    List.iter
      (fun (e : Catalog.entry) ->
        Printf.printf "  %-14s %s  %s\n" e.Catalog.test.Ast.name
          (match e.Catalog.classification with
          | Catalog.Allowed -> "allowed  "
          | Catalog.Forbidden -> "forbidden")
          e.Catalog.test.Ast.doc)
      Catalog.suite;
    print_endline "Non-convertible companions (Sec V-C):";
    List.iter
      (fun t -> Printf.printf "  %-14s %s\n" t.Ast.name t.Ast.doc)
      Catalog.non_convertible;
    Ok ()
  in
  Cmd.v (Cmd.info "list" ~doc:"List the tests the catalog knows.")
    (wrap Term.(const run $ const ()))

(* --- show ---------------------------------------------------------------- *)

let show_cmd =
  let run spec =
    Result.map
      (fun test ->
        print_string (Printer.to_string test);
        Printf.printf "\n%s\n" (Printer.summary test);
        (match
           ( test.Ast.condition.Ast.quantifier,
             Operational.condition_verdict Model.Tso test )
         with
        | Ast.Forall, Ok holds ->
          Printf.printf "forall condition under x86-TSO: %s\n"
            (if holds then "holds in every execution" else "violated")
        | (Ast.Exists | Ast.Not_exists), Ok allowed ->
          Printf.printf "target under x86-TSO: %s\n"
            (if allowed then "allowed" else "forbidden")
        | _, Error m -> Printf.printf "target under x86-TSO: n/a (%s)\n" m);
        match Convert.convert test with
        | Ok _ -> print_endline "convertible to perpetual form: yes"
        | Error r ->
          Format.printf "convertible to perpetual form: no (%a)@."
            Convert.pp_reason r)
      (load_test spec)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a test in litmus7 format with analysis.")
    (wrap Term.(const run $ test_arg))

(* --- check --------------------------------------------------------------- *)

type backend = Operational_b | Axiomatic_b | Solver_b

let backend_name = function
  | Operational_b -> "operational"
  | Axiomatic_b -> "axiomatic"
  | Solver_b -> "solver"

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (function
         | "operational" -> Ok Operational_b
         | "axiomatic" -> Ok Axiomatic_b
         | "solver" -> Ok Solver_b
         | _ -> Error (`Msg "expected operational, axiomatic or solver")),
        fun ppf b -> Format.pp_print_string ppf (backend_name b) )
  in
  Arg.(
    value
    & opt backend_conv Operational_b
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Consistency checker: $(b,operational) (default, state-space \
           enumeration), $(b,axiomatic) (candidate executions against the \
           acyclicity axioms) or $(b,solver) (constraint search over rf \
           choices and write orderings, with a polynomial fast path).")

let crosscheck_arg =
  Arg.(
    value & flag
    & info [ "crosscheck" ]
        ~doc:
          "Run all three backends and fail if any two disagree on the \
           reachable outcomes or the condition verdict.")

let reachable_with backend model test =
  match backend with
  | Operational_b -> Operational.reachable_outcomes model test
  | Axiomatic_b -> Axiomatic.reachable_outcomes model test
  | Solver_b -> Solver.reachable_outcomes model test

let same_outcomes a b =
  let sort = List.sort Outcome.compare in
  let a = sort a and b = sort b in
  List.length a = List.length b && List.for_all2 Outcome.equal a b

let check_cmd =
  let print_verdict test = function
    | Ok v ->
      (match test.Ast.condition.Ast.quantifier with
      | Ast.Forall ->
        Printf.printf "  forall condition: %s\n"
          (if v then "holds in every execution" else "violated")
      | Ast.Exists | Ast.Not_exists ->
        Printf.printf "  target: %s\n" (if v then "allowed" else "forbidden"))
    | Error m -> Printf.printf "  target: n/a (%s)\n" m
  in
  let crosscheck test =
    let failures = ref 0 in
    List.iter
      (fun model ->
        let name = Model.to_string model in
        let op = Operational.reachable_outcomes model test in
        let ax = Axiomatic.reachable_outcomes model test in
        let sv = Solver.reachable_outcomes model test in
        let outcomes_ok = same_outcomes op ax && same_outcomes op sv in
        (* The axiomatic and solver backends both evaluate the final
           condition over full executions, so Loc_eq conditions the
           operational register view cannot express still crosscheck. *)
        let fc_ax = Axiomatic.condition_reachable model test in
        let fc_sv = Solver.final_condition_reachable model test in
        let verdict_ok =
          fc_ax = fc_sv
          &&
          match
            (Operational.target_allowed model test, Solver.target_allowed model test)
          with
          | Ok a, Ok b -> a = b
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false
        in
        if outcomes_ok && verdict_ok then
          Printf.printf "%s: all three backends agree (%d outcomes)\n" name
            (List.length op)
        else begin
          incr failures;
          Printf.printf "%s: BACKEND DISAGREEMENT\n" name;
          List.iter
            (fun (b, outcomes) ->
              Printf.printf "  %-12s %s\n" b
                (String.concat "; " (List.map Outcome.to_string outcomes)))
            [ ("operational", op); ("axiomatic", ax); ("solver", sv) ];
          Printf.printf "  final condition: axiomatic=%b solver=%b\n" fc_ax
            fc_sv
        end)
      Model.all;
    if !failures = 0 then Ok ()
    else fail "%d model(s) with backend disagreement" !failures
  in
  let check_one backend test =
    List.iter
      (fun model ->
        let outcomes = reachable_with backend model test in
        Printf.printf "%s reachable outcomes (%s):\n"
          (Model.to_string model)
          (backend_name backend);
        List.iter
          (fun o -> Printf.printf "  %s\n" (Outcome.to_string o))
          outcomes;
        (match backend with
        | Operational_b ->
          print_verdict test (Operational.condition_verdict model test)
        | Solver_b -> print_verdict test (Solver.condition_verdict model test)
        | Axiomatic_b ->
          (* Axiomatic reachability is quantifier-blind; a forall verdict
             needs the operational or solver backend. *)
          print_verdict test
            (match test.Ast.condition.Ast.quantifier with
            | Ast.Forall ->
              Error "forall verdicts need --backend operational or solver"
            | Ast.Exists | Ast.Not_exists ->
              Ok (Axiomatic.condition_reachable model test)));
        if backend <> Solver_b then begin
          let ax = Axiomatic.reachable_outcomes model test in
          Printf.printf "  axiomatic checker agrees: %b\n"
            (same_outcomes ax outcomes)
        end)
      Model.all;
    Ok ()
  in
  let run spec backend crosscheck_flag =
    Result.bind (load_test spec) (fun test ->
        if crosscheck_flag then crosscheck test else check_one backend test)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Enumerate reachable outcomes under SC, x86-TSO and PSO with a \
          chosen backend, or crosscheck all three.")
    (wrap Term.(const run $ test_arg $ backend_arg $ crosscheck_arg))

(* --- convert ------------------------------------------------------------- *)

let convert_cmd =
  let run spec =
    Result.bind (load_test spec) (fun test ->
        match Convert.convert test with
        | Error r -> Error (reason_msg r)
        | Ok conv ->
          Printf.printf "Perpetual version of %s:\n" test.Ast.name;
          Array.iteri
            (fun t (program : Perple_sim.Program.thread) ->
              Printf.printf "  thread %d (%d loads/iteration):\n" t
                conv.Convert.t_reads.(t);
              Array.iter
                (fun instr ->
                  Format.printf "    %a@."
                    (Perple_sim.Program.pp_instr
                       ~location_names:
                         conv.Convert.image.Perple_sim.Program.location_names)
                    instr)
                program.Perple_sim.Program.body)
            conv.Convert.image.Perple_sim.Program.programs;
          List.iter
            (fun x ->
              Printf.printf "  k_%s = %d\n" x
                (List.length (Ast.store_constants test x)))
            (Ast.locations test);
          print_endline "Perpetual outcomes (step 4 inequalities):";
          List.iter
            (fun o ->
              match Outcome_convert.convert conv o with
              | Ok c ->
                Printf.printf "  %-12s %s\n" (Outcome.short_label o)
                  (Outcome_convert.describe conv c);
                let plan = Outcome_convert.heuristic_plan conv c in
                Printf.printf "  %-12s heuristic: %s\n" ""
                  (Outcome_convert.describe_heuristic conv c plan)
              | Error m ->
                Printf.printf "  %-12s (not convertible: %s)\n"
                  (Outcome.short_label o) m)
            (Outcome.all test);
          Ok ())
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Show the perpetual test and its converted outcomes.")
    (wrap Term.(const run $ test_arg))

(* --- run ----------------------------------------------------------------- *)

let counter_arg =
  let counter_conv =
    name_conv ~of_name:Engine.counter_of_name ~name:Engine.counter_short_name
      "heur, exh or exh-ref"
  in
  Arg.(
    value
    & opt counter_conv Engine.Heuristic
    & info [ "counter" ] ~docv:"COUNTER"
        ~doc:
          "Outcome counter: $(b,heur) (linear), $(b,exh) (full N^TL frame \
           space via the factorized kernel) or $(b,exh-ref) (the naive \
           N^TL odometer, for fidelity/correctness baselines).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Distribute campaign runs over $(docv) domains.  Per-run seeds \
           are pre-split from the campaign seed, so output is \
           bit-identical for every $(docv).")

let all_outcomes_arg =
  Arg.(
    value & flag
    & info [ "all-outcomes" ]
        ~doc:"Count every possible outcome, not just the target.")

let cap_arg =
  Arg.(
    value
    & opt int 250_000_000
    & info [ "cap" ] ~docv:"FRAMES"
        ~doc:
          "Frame budget for the exhaustive counter; the run length is \
           capped to stay within it (the cap is reported, not silent).")

let run_cmd =
  let runs_arg =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"R"
          ~doc:
            "Run a campaign of $(docv) independent runs (seeds pre-split \
             from $(b,--seed)) instead of a single run.")
  in
  let print_single counter model report =
    Printf.printf "PerpLE run of %s: %d iterations, %s counter, model %s\n"
      report.Engine.conversion.Convert.test.Ast.name
      report.Engine.run.Perple_harness.Perpetual.iterations
      (Engine.counter_name counter) (Config.model_name model);
    if
      report.Engine.run.Perple_harness.Perpetual.iterations
      <> report.Engine.requested_iterations
    then
      Printf.printf
        "note: requested %d iterations, ran %d (exhaustive counter \
         cap keeps the frame count within budget)\n"
        report.Engine.requested_iterations
        report.Engine.run.Perple_harness.Perpetual.iterations;
    List.iteri
      (fun i o ->
        Printf.printf "  %-24s %d\n" (Outcome.to_string o)
          report.Engine.counts.(i))
      report.Engine.outcomes;
    Printf.printf
      "frames examined: %d; virtual runtime: %d rounds; target \
       detection rate: %.3f per Mround\n"
      report.Engine.frames_examined report.Engine.virtual_runtime
      (Engine.detection_rate report)
  in
  let print_campaign ~test ~runs ~iterations ~counter ~model
      (summaries : Ledger.t array) =
    Printf.printf
      "PerpLE campaign of %s: %d runs x %d iterations, %s counter, model \
       %s\n"
      test.Ast.name runs iterations (Engine.counter_name counter)
      (Config.model_name model);
    let total_targets = ref 0 and total_runtime = ref 0 in
    Array.iteri
      (fun i (s : Ledger.t) ->
        match s.Ledger.crashed with
        | Some c ->
          Printf.printf "run %3d  crashed: %s\n" (i + 1) c.Ledger.c_message
        | None ->
          total_targets := !total_targets + Ledger.target_count s;
          total_runtime := !total_runtime + s.Ledger.virtual_runtime;
          Printf.printf
            "run %3d  iterations %d  frames %d  runtime %d  target %d%s\n"
            (i + 1) s.Ledger.iterations s.Ledger.frames_examined
            s.Ledger.virtual_runtime (Ledger.target_count s)
            (if s.Ledger.degraded then "  [degraded]" else ""))
      summaries;
    Printf.printf
      "campaign total: %d target occurrences; %d virtual rounds; detection \
       rate %.3f per Mround\n"
      !total_targets !total_runtime
      (Engine.rate_per_mround ~targets:!total_targets ~rounds:!total_runtime)
  in
  let verify_trace_arg =
    Arg.(
      value & flag
      & info [ "verify-trace" ]
          ~doc:
            "After the run, decode the whole perpetual trace and verify it \
             against the model's axioms with the solver backend \
             (single-run only).  Buggy machine variants are judged against \
             honest TSO; a violation fails the command.")
  in
  let print_trace_verdict model (report : Engine.report) =
    let spec = Trace_check.spec_model model in
    let v =
      Trace_check.verify ~model:spec report.Engine.conversion
        report.Engine.run
    in
    Printf.printf
      "trace verification against %s: %s (%d events, %d decisions, %d \
       backtracks)\n"
      (Model.to_string spec)
      (if v.Solver.consistent then "consistent" else "VIOLATION")
      v.Solver.events v.Solver.decisions v.Solver.backtracks;
    if v.Solver.consistent then Ok ()
    else
      fail "trace violates %s: %s"
        (Model.to_string spec)
        (Option.value ~default:"?" v.Solver.violation)
  in
  let run spec iterations seed counter model all_outcomes stress cap runs
      jobs journal resume verify_trace trace metrics =
    let config = config_of_model model in
    campaign ~command:"run" ~runs ~jobs ~seed ~journal ~resume ~trace ~metrics
      ~checks:
        [
          ( verify_trace && runs <> 1,
            "--verify-trace works on a single run (--runs 1)" );
          ( journal <> None && runs < 2,
            "--journal records campaigns; it requires --runs >= 2" );
        ]
      ~all_outcomes
      ~single:(fun test outcomes ->
        match
          Engine.run ~config ~counter ?outcomes ~exhaustive_cap:cap
            ~stress_threads:stress ~seed ~iterations test
        with
        | Error r -> Error (reason_msg r)
        | Ok report ->
          print_single counter model report;
          if verify_trace then print_trace_verdict model report else Ok ())
      ~params:
        [
          ("iterations", string_of_int iterations);
          ("seed", string_of_int seed);
          ("counter", Engine.counter_name counter);
          ("model", Config.model_name model);
          ("all_outcomes", string_of_bool all_outcomes);
          ("stress", string_of_int stress);
          ("cap", string_of_int cap);
        ]
      ~execute:(fun test outcomes ~skip ~on_entry ->
        Engine.campaign_entries ~config ~counter ?outcomes ~exhaustive_cap:cap
          ~stress_threads:stress ~jobs ~skip ?on_entry ~runs ~seed ~iterations
          test)
      ~print:(fun test ->
        print_campaign ~test ~runs ~iterations ~counter ~model)
      spec
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Convert a test and run its perpetual version on the simulator.")
    (wrap
       Term.(
         const run $ test_arg $ iterations_arg $ seed_arg $ counter_arg
         $ model_arg $ all_outcomes_arg $ stress_arg $ cap_arg $ runs_arg
         $ jobs_arg $ journal_arg $ resume_arg $ verify_trace_arg $ trace_arg
         $ metrics_arg))

(* --- litmus7 baseline ---------------------------------------------------- *)

let mode_arg =
  let mode_conv =
    name_conv ~of_name:Sync_mode.of_name ~name:Sync_mode.name
      "user, userfence, pthread, timebase or none"
  in
  Arg.(
    value
    & opt mode_conv Sync_mode.User
    & info [ "mode" ] ~docv:"MODE" ~doc:"litmus7 synchronisation mode.")

let litmus7_cmd =
  let run spec iterations seed mode model stress =
    Result.map
      (fun test ->
        let rng = Perple_util.Rng.create seed in
        let result =
          Litmus7.run ~config:(config_of_model model) ~stress_threads:stress
            ~rng ~test ~mode ~iterations ()
        in
        Printf.printf "litmus7-style run of %s: %d iterations, %s mode\n"
          test.Ast.name iterations (Sync_mode.name mode);
        List.iter
          (fun (o, n) ->
            if n > 0 then Printf.printf "  %-24s %d\n" (Outcome.to_string o) n)
          result.Litmus7.histogram;
        (match Outcome.of_condition test with
        | Ok target ->
          Printf.printf "target occurrences: %d\n"
            (Litmus7.count result ~partial:target)
        | Error _ -> ());
        Printf.printf "virtual runtime: %d rounds\n"
          result.Litmus7.virtual_runtime)
      (load_test spec)
  in
  Cmd.v
    (Cmd.info "litmus7"
       ~doc:"Run the litmus7-style synchronised baseline on the simulator.")
    (wrap
       Term.(
         const run $ test_arg $ iterations_arg $ seed_arg $ mode_arg
         $ model_arg $ stress_arg))

(* --- supervise ------------------------------------------------------------ *)

let fault_conv =
  Arg.conv
    ( (fun s ->
        match Fault.of_string s with
        | Ok f -> Ok f
        | Error m -> Error (`Msg m)),
      Fault.pp )

let supervise_cmd =
  let faults_arg =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ] ~docv:"KIND@PROB"
          ~doc:
            "Inject a fault (repeatable): $(b,hang\\@P), $(b,crash\\@P), \
             $(b,livelock\\@P) trigger per thread per run with probability \
             P; $(b,store-loss\\@P) silently drops each drained store with \
             probability P.")
  in
  let runs_arg =
    Arg.(
      value & opt int 10
      & info [ "runs" ] ~docv:"R"
          ~doc:"Number of supervised runs in the campaign.")
  in
  let watchdog_arg =
    Arg.(
      value & opt (some int) None
      & info [ "watchdog-rounds" ] ~docv:"ROUNDS"
          ~doc:
            "Abort an attempt past this many virtual rounds (default: \
             64*N + 10000).")
  in
  let min_retired_arg =
    Arg.(
      value & opt (some int) None
      & info [ "min-retired" ] ~docv:"K"
          ~doc:
            "Smallest salvageable prefix: an aborted attempt with at least \
             $(docv) retired iterations is accepted as truncated (default: \
             N/100).")
  in
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "max-retries" ] ~docv:"R"
          ~doc:"Retries per run after the first attempt.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.5
      & info [ "backoff" ] ~docv:"F"
          ~doc:
            "Iteration-budget multiplier per retry (> 0): < 1 retries \
             with a shrunken budget, > 1 grows it.")
  in
  (* The ledger is printed sequentially from per-run summaries, in run
     order — the same summaries the journal stores, so a resumed
     campaign's stdout is byte-identical to an uninterrupted one. *)
  let print_ledger ~iterations (summaries : Ledger.t array) =
    let by_class = Hashtbl.create 4 in
    let tally cls =
      Hashtbl.replace by_class cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_class cls))
    in
    let total_retries = ref 0 in
    let total_targets = ref 0 in
    let total_runtime = ref 0 in
    let failed = ref 0 in
    Array.iteri
      (fun idx (s : Ledger.t) ->
        let i = idx + 1 in
        let crashed_line m =
          tally Supervisor.Crashed;
          incr failed;
          Printf.printf "run %3d  crashed: %s\n" i m
        in
        match (s.Ledger.crashed, s.Ledger.supervision) with
        | Some c, _ -> crashed_line c.Ledger.c_message
        | None, None -> crashed_line "journal record lacks supervision data"
        | None, Some sup ->
          let attempts = sup.Ledger.s_attempts in
          tally
            (Option.value ~default:Supervisor.Crashed
               (Supervisor.outcome_of_name sup.Ledger.s_outcome));
          total_retries := !total_retries + List.length attempts - 1;
          total_targets := !total_targets + Ledger.target_count s;
          total_runtime := !total_runtime + s.Ledger.virtual_runtime;
          if sup.Ledger.s_lost then incr failed;
          Printf.printf
            "run %3d  %-9s  attempts %d  retired %d/%d  rounds %d  target \
             %d%s\n"
            i sup.Ledger.s_outcome (List.length attempts)
            s.Ledger.salvaged_iterations iterations sup.Ledger.s_total_rounds
            (Ledger.target_count s)
            (if s.Ledger.degraded then "  [degraded]" else "");
          if List.length attempts > 1 then
            List.iter
              (fun (a : Ledger.attempt) ->
                Printf.printf
                  "         #%d %-9s  retired %d/%d  rounds %d%s%s\n"
                  a.Ledger.a_index a.Ledger.a_outcome a.Ledger.a_retired
                  a.Ledger.a_requested a.Ledger.a_rounds
                  (if a.Ledger.a_lost_stores > 0 then
                     Printf.sprintf "  lost stores %d" a.Ledger.a_lost_stores
                   else "")
                  (match a.Ledger.a_exn with
                  | Some m -> "  exn: " ^ m
                  | None -> ""))
              attempts)
      summaries;
    let count cls =
      Option.value ~default:0 (Hashtbl.find_opt by_class cls)
    in
    Printf.printf
      "campaign summary: %d ok, %d truncated, %d timeout, %d crashed; %d \
       retries; %d runs lost\n"
      (count Supervisor.Ok)
      (count Supervisor.Truncated)
      (count Supervisor.Timeout)
      (count Supervisor.Crashed)
      !total_retries !failed;
    Printf.printf
      "total target occurrences: %d; total virtual runtime: %d rounds; \
       detection rate: %.3f per Mround\n"
      !total_targets !total_runtime
      (Engine.rate_per_mround ~targets:!total_targets ~rounds:!total_runtime)
  in
  let run spec iterations seed model stress faults runs watchdog min_retired
      retries backoff jobs journal resume trace metrics =
    let base = Supervisor.default_policy ~iterations in
    let policy =
      {
        Supervisor.watchdog_rounds =
          Option.value watchdog ~default:base.Supervisor.watchdog_rounds;
        min_retired =
          Option.value min_retired ~default:base.Supervisor.min_retired;
        max_retries = retries;
        backoff;
      }
    in
    campaign ~command:"supervise" ~runs ~jobs ~seed ~journal ~resume ~trace
      ~metrics
      ~checks:[ (backoff <= 0.0, "--backoff must be positive") ]
      ~params:
        [
          ("iterations", string_of_int iterations);
          ("seed", string_of_int seed);
          ("model", Config.model_name model);
          ("stress", string_of_int stress);
          ("faults", Fault.profile_to_string faults);
          ("watchdog_rounds", string_of_int policy.Supervisor.watchdog_rounds);
          ("min_retired", string_of_int policy.Supervisor.min_retired);
          ("max_retries", string_of_int policy.Supervisor.max_retries);
          ("backoff", Printf.sprintf "%.17g" policy.Supervisor.backoff);
        ]
      ~execute:(fun test _ ~skip ~on_entry ->
        Engine.campaign_entries
          ~config:(Config.with_faults faults (config_of_model model))
          ~policy ~stress_threads:stress ~jobs ~skip ?on_entry ~runs ~seed
          ~iterations test)
      ~print:(fun test ->
        Printf.printf
          "supervised campaign: %s, %d runs x %d iterations, faults: %s\n"
          test.Ast.name runs iterations
          (Fault.profile_to_string faults);
        Printf.printf
          "policy: watchdog %d rounds, min retired %d, max retries %d, \
           backoff %.2f\n"
          policy.Supervisor.watchdog_rounds policy.Supervisor.min_retired
          policy.Supervisor.max_retries policy.Supervisor.backoff;
        print_ledger ~iterations)
      spec
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run a fault-injected campaign under the supervisor: watchdog, \
          outcome classification, retry with backoff, checkpoint salvage; \
          prints the per-run supervision ledger.")
    (wrap
       Term.(
         const run $ test_arg $ iterations_arg $ seed_arg $ model_arg
         $ stress_arg $ faults_arg $ runs_arg $ watchdog_arg
         $ min_retired_arg $ retries_arg $ backoff_arg $ jobs_arg
         $ journal_arg $ resume_arg $ trace_arg $ metrics_arg))

(* --- crash-suite ---------------------------------------------------------- *)

module Crashsim = Perple_sim.Crashsim
module Crash_suite = Perple_core.Crash_suite
module Persistency = Perple_memmodel.Persistency

let persistency_conv =
  name_conv ~of_name:Config.persistency_of_name ~name:Config.persistency_name
    "epoch or eager-bug"

let persistency_arg =
  Arg.(
    value
    & opt persistency_conv Config.Epoch
    & info [ "persistency" ] ~docv:"MODEL"
        ~doc:
          "Persistency controller model: $(b,epoch) (default: a drain \
           commits the thread's pending writebacks in flush order) or \
           $(b,eager-bug) (the planted bug: drain commits nothing, \
           writebacks persist lazily and independently).")

let crash_suite_cmd =
  (* The report is printed in point order from the indexed record array —
     never in completion order — so stdout is bit-identical for every
     --jobs value and for any kill/resume split. *)
  let print_suite ~test ~persistency ~crosscheck
      (records : Crash_suite.record array) =
    Printf.printf "crash suite of %s: %d crash points, persistency %s\n"
      test.Ast.name (Array.length records)
      (Config.persistency_name persistency);
    if test.Ast.post_crash = None then
      Printf.printf
        "note: %s has no post-crash condition; reporting reachable images \
         only\n"
        test.Ast.name;
    let violating = ref 0 and unrecoverable = ref 0 and images = ref 0 in
    Array.iter
      (fun (r : Crash_suite.record) ->
        match r.Crash_suite.outcome with
        | Supervisor.Unrecoverable ->
          incr unrecoverable;
          Printf.printf "point %3d  unrecoverable: %s\n" r.Crash_suite.point
            (Option.value ~default:"recovery failed" r.Crash_suite.error)
        | _ ->
          images := !images + r.Crash_suite.images;
          if r.Crash_suite.violations > 0 then begin
            incr violating;
            Printf.printf "point %3d  images %3d  VIOLATED x%d%s\n"
              r.Crash_suite.point r.Crash_suite.images r.Crash_suite.violations
              (match r.Crash_suite.witness with
              | Some w ->
                "  witness "
                ^ String.concat " "
                    (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) w)
              | None -> "")
          end
          else
            Printf.printf "point %3d  images %3d  ok\n" r.Crash_suite.point
              r.Crash_suite.images)
      records;
    Printf.printf
      "suite verdict: %s (%d of %d points violated, %d unrecoverable, %d \
       images examined)\n"
      (if !violating > 0 then "VIOLATED"
       else if !unrecoverable > 0 then "UNRECOVERABLE"
       else "consistent")
      !violating (Array.length records) !unrecoverable !images;
    if crosscheck then
      Printf.printf "axiomatic cross-check: %s\n"
        (let model =
           match persistency with
           | Config.Epoch -> Persistency.Epoch
           | Config.Eager -> Persistency.Eager
         in
         let operational_holds = !violating = 0 && !unrecoverable = 0 in
         if Persistency.condition_holds model test = operational_holds then
           "agrees"
         else "DISAGREES (checker bug)")
  in
  let crosscheck_arg =
    Arg.(
      value & flag
      & info [ "crosscheck" ]
          ~doc:
            "Also evaluate the post-crash condition with the declarative \
             (axiomatic) persistency checker and report whether the two \
             verdicts agree.")
  in
  let run spec persistency jobs journal resume crosscheck =
    if jobs <= 0 then fail "--jobs must be positive"
    else
      Result.bind (check_resume ~journal ~resume) @@ fun () ->
      Result.bind (load_test spec) @@ fun test ->
      let points = Crashsim.crash_points test in
      let digest =
        Ledger.campaign_digest ~command:"crash-suite" test
          [
            ("persistency", Config.persistency_name persistency);
            ("points", string_of_int points);
          ]
      in
      Result.bind
        (campaign_records ~journal ~resume ~command:"crash-suite" ~digest
           ~runs:points ~what:"crash points" ~record_kind:"point"
           ~of_record:Crash_suite.of_json ~to_record:Crash_suite.to_json
           ~index_of:(fun (r : Crash_suite.record) -> r.Crash_suite.point)
           ~execute:(fun ~skip ~on_record ->
             Ok
               (Crash_suite.evaluate ~jobs ~skip ?on_record ~persistency test))
           ())
      @@ fun records ->
      print_suite ~test ~persistency ~crosscheck records;
      Ok ()
  in
  Cmd.v
    (Cmd.info "crash-suite"
       ~doc:
         "Exhaustively crash a test at every instruction boundary and \
          evaluate its post-crash condition against every reachable \
          persisted image; a violation means the persistency model lets a \
          crash expose inconsistent durable state.")
    (wrap
       Term.(
         const run $ test_arg $ persistency_arg $ jobs_arg $ journal_arg
         $ resume_arg $ crosscheck_arg))

(* --- emit ---------------------------------------------------------------- *)

let emit_cmd =
  let out_arg =
    Arg.(
      value & opt string "perple-out"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also compile the emitted harness with $(b,cc) and run it on \
             the host (requires a C toolchain; the artifacts target x86-64).")
  in
  let native_iters_arg =
    Arg.(
      value & opt int 100_000
      & info [ "native-iterations" ] ~docv:"N"
          ~doc:"Iteration count passed to the native harness.")
  in
  let run spec dir native native_iters =
    Result.bind (load_test spec) (fun test ->
        match Convert.convert test with
        | Error r -> Error (reason_msg r)
        | Ok conv -> (
          match Codegen.all_files conv ~outcomes:(Outcome.all test) with
          | Error m -> fail "outcome conversion failed: %s" m
          | Ok files ->
            Codegen.write_to_dir ~dir files;
            List.iter
              (fun (f : Codegen.file) ->
                Printf.printf "wrote %s\n"
                  (Filename.concat dir f.Codegen.filename))
              files;
            if not native then Ok ()
            else begin
              let name =
                String.map
                  (function
                    | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
                    | _ -> '_')
                  test.Ast.name
              in
              let sources =
                List.filter
                  (fun (f : Codegen.file) ->
                    Filename.check_suffix f.Codegen.filename ".c"
                    || Filename.check_suffix f.Codegen.filename ".s")
                  files
              in
              let cmd =
                Printf.sprintf "cc -O2 -pthread -o %s %s 2>/dev/null"
                  (Filename.quote (Filename.concat dir (name ^ "_native")))
                  (String.concat " "
                     (List.map
                        (fun (f : Codegen.file) ->
                          Filename.quote
                            (Filename.concat dir f.Codegen.filename))
                        sources))
              in
              if Sys.command cmd <> 0 then
                fail "native build failed (is a C toolchain available?)"
              else begin
                Printf.printf "running native harness (%d iterations)...\n%!"
                  native_iters;
                let run_cmd =
                  Printf.sprintf "%s %d"
                    (Filename.quote (Filename.concat dir (name ^ "_native")))
                    native_iters
                in
                if Sys.command run_cmd <> 0 then fail "native run failed"
                else Ok ()
              end
            end))
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Emit the Converter's x86 assembly, C counters, parameters and \
          harness files.")
    (wrap Term.(const run $ test_arg $ out_arg $ native_arg $ native_iters_arg))

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let events_arg =
    Arg.(
      value & opt int 60
      & info [ "events" ] ~docv:"K" ~doc:"Number of events to record.")
  in
  let run spec iterations seed model events =
    Result.bind (load_test spec) (fun test ->
        match Convert.convert test with
        | Error r -> Error (reason_msg r)
        | Ok conv ->
          let module Trace = Perple_harness.Trace in
          let trace, _run =
            Trace.trace_perpetual ~config:(config_of_model model)
              ~limit:events
              ~rng:(Perple_util.Rng.create seed)
              ~image:conv.Convert.image ~t_reads:conv.Convert.t_reads
              ~iterations ()
          in
          Printf.printf
            "First %d machine events of the perpetual %s run (model %s):\n"
            (Trace.length trace) test.Ast.name (Config.model_name model);
          print_string
            (Trace.render
               ~location_names:
                 conv.Convert.image.Perple_sim.Program.location_names
               trace);
          Ok ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a perpetual test while recording the machine's event trace \
          (instruction retirements, buffer drains, stalls).")
    (wrap
       Term.(
         const run $ test_arg $ iterations_arg $ seed_arg $ model_arg
         $ events_arg))

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let cycle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CYCLE"
          ~doc:
            "Whitespace-separated relaxation-cycle edges (diy style): \
             $(b,PodWR) $(b,PodWW) $(b,PodRW) $(b,PodRR), fenced variants \
             $(b,MFencedWR) ..., and communication edges $(b,Rfe) $(b,Fre) \
             $(b,Wse); or one of the named cycles from $(b,--list-cycles).")
  in
  let name_arg =
    Arg.(
      value & opt string "generated"
      & info [ "name" ] ~docv:"NAME" ~doc:"Name for the generated test.")
  in
  let run spec name =
    let module Generate = Perple_litmus.Generate in
    let cycle_text =
      match List.assoc_opt spec Generate.named_cycles with
      | Some text -> text
      | None -> spec
    in
    Result.bind
      (Generate.parse_cycle cycle_text)
      (fun cycle ->
        match Generate.of_cycle ~name cycle with
        | Error m -> fail "cannot realise cycle: %s" m
        | Ok test ->
          print_string (Printer.to_string test);
          let verdict allowed = if allowed then "allowed" else "forbidden" in
          Printf.printf "\npredicted target: %s (from cycle shape)\n"
            (String.concat ", "
               (List.map
                  (fun model ->
                    Model.to_string model ^ " "
                    ^ verdict (Generate.predict model cycle))
                  Model.all));
          let allowed =
            match Outcome.of_condition test with
            | Ok _ ->
              fun model -> Result.get_ok (Operational.target_allowed model test)
            | Error _ ->
              print_endline
                "condition inspects final memory (Wse edge): not convertible \
                 to perpetual form; checker verdicts via the axiomatic model:";
              fun model -> Axiomatic.condition_reachable model test
          in
          List.iter
            (fun model ->
              Printf.printf "checker verdict under %s: %s\n"
                (Model.to_string model) (verdict (allowed model)))
            Model.all;
          Ok ())
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a litmus test from a diy-style relaxation cycle and \
          classify its target.")
    (wrap Term.(const run $ cycle_arg $ name_arg))

(* --- export -------------------------------------------------------------- *)

let export_cmd =
  let dir_arg =
    Arg.(
      value & opt string "litmus"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write test =
      let path = Filename.concat dir (test.Ast.name ^ ".litmus") in
      let oc = open_out path in
      output_string oc (Printer.to_string test);
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    List.iter (fun (e : Catalog.entry) -> write e.Catalog.test) Catalog.suite;
    List.iter write Catalog.non_convertible;
    Ok ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write every catalog test as a .litmus file (litmus7 format).")
    (wrap Term.(const run $ dir_arg))

(* --- suite / experiment -------------------------------------------------- *)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use small iteration counts (smoke-test scale).")

let opt_iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Override iteration count.")

let opt_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Override the experiment seed (default: the paper-run seed).")

let params_of quick iterations seed =
  let base =
    if quick then Report.Common.quick_params else Report.Common.default_params
  in
  let base =
    match iterations with
    | Some n -> { base with Report.Common.iterations = n }
    | None -> base
  in
  match seed with
  | Some seed -> { base with Report.Common.seed }
  | None -> base

let experiment_cmd =
  let id_arg =
    let doc =
      Printf.sprintf "Experiment id: %s, or $(b,all)."
        (String.concat ", " Report.Experiments.ids)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id quick iterations seed =
    let params = params_of quick iterations seed in
    if id = "all" then begin
      List.iter
        (fun (id, text) -> Printf.printf "==== %s ====\n%s\n" id text)
        (Report.Experiments.run_all params);
      Ok ()
    end
    else Result.map print_string (Report.Experiments.run params id)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables/figures (or all).")
    (wrap
       Term.(const run $ id_arg $ quick_arg $ opt_iterations_arg $ opt_seed_arg))

let suite_cmd =
  let run quick iterations seed =
    let params = params_of quick iterations seed in
    print_string (Report.Fig9.render params);
    Ok ()
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the whole perpetual litmus suite (Fig 9 summary).")
    (wrap Term.(const run $ quick_arg $ opt_iterations_arg $ opt_seed_arg))

(* --- serve / submit ------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "perpled.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the daemon listens on (a stale socket file \
           left by a dead daemon is detected and replaced).")

let serve_cmd =
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Also listen on localhost TCP port $(docv).")
  in
  let coordinator_arg =
    Arg.(
      value & flag
      & info [ "coordinator" ]
          ~doc:
            "Shard campaigns into leased work units and farm them out to \
             $(b,perple worker) processes (the daemon's own pool claims \
             shards while no worker is connected).  Leases that miss their \
             renewal deadline are revoked and reassigned; the merged ledger \
             stays byte-identical to a single-node run.")
  in
  let shard_runs_arg =
    Arg.(
      value
      & opt int Perple_service.Coordinator.default_config.shard_runs
      & info [ "shard-runs" ] ~docv:"N"
          ~doc:
            "Runs per shard (with $(b,--coordinator)): the size of a leased \
             work unit and of each claim the daemon's own pool makes.")
  in
  let lease_ms_arg =
    Arg.(
      value
      & opt int Perple_service.Coordinator.default_config.lease_ticks
      & info [ "lease-ms" ] ~docv:"MS"
          ~doc:
            "Lease renewal deadline in milliseconds (with \
             $(b,--coordinator)): a worker silent for $(docv) ms loses its \
             shard.")
  in
  let run socket tcp jobs journal coordinator shard_runs lease_ms trace
      metrics =
    if jobs <= 0 then fail "--jobs must be positive"
    else if shard_runs <= 0 then fail "--shard-runs must be positive"
    else if lease_ms <= 0 then fail "--lease-ms must be positive"
    else begin
      Printf.eprintf "perpled: listening on %s%s, %d job%s%s%s\n%!" socket
        (match tcp with
        | None -> ""
        | Some p -> Printf.sprintf " and tcp 127.0.0.1:%d" p)
        jobs
        (if jobs = 1 then "" else "s")
        (if coordinator then
           Printf.sprintf ", coordinating %d-run shards under %d ms leases"
             shard_runs lease_ms
         else "")
        (match journal with
        | None -> " (no journal: campaigns are lost on restart)"
        | Some path ->
          if Sys.file_exists path then
            Printf.sprintf ", resuming journal %s" path
          else Printf.sprintf ", journal %s" path);
      let coordinator =
        if coordinator then
          Some
            {
              Perple_service.Coordinator.default_config with
              shard_runs;
              lease_ticks = lease_ms;
            }
        else None
      in
      match
        with_observability ~trace ~metrics @@ fun () ->
        Perple_service.Server.serve ~socket ?tcp_port:tcp ~jobs ?coordinator
          ~journal ()
      with
      | Error m -> Error m
      | Ok signum ->
        (* observability files were already written by
           [with_observability] *)
        exit_on_signal signum (fun word ->
            Printf.eprintf
              "\nperpled: %s: drained, journal flushed\nperpled: resume \
               with: perple serve --socket %s%s%s%s\n%!"
              word socket
              (match journal with
              | None -> ""
              | Some path -> " --journal " ^ Filename.quote path)
              (if jobs = 1 then "" else Printf.sprintf " --jobs %d" jobs)
              (if coordinator = None then ""
               else Printf.sprintf " --coordinator --shard-runs %d" shard_runs))
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: accept submitted campaigns over a \
          length-prefixed binary protocol, journal every accepted spec and \
          completed run, and stream back records that are byte-identical \
          across crashes, restarts and $(b,--jobs) values.")
    (wrap
       Term.(
         const run $ socket_arg $ tcp_arg $ jobs_arg $ journal_arg
         $ coordinator_arg $ shard_runs_arg $ lease_ms_arg $ trace_arg
         $ metrics_arg))

let submit_cmd =
  let campaign_arg =
    let doc =
      "Campaign identifier.  Resubmitting the same identifier with the \
       same parameters is idempotent: already-journaled runs are \
       re-streamed byte-for-byte."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CAMPAIGN" ~doc)
  in
  let submit_test_arg =
    let doc =
      "Catalog test name (see $(b,perple list)) or path to a .litmus file \
       (the file's contents are shipped to the daemon)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TEST" ~doc)
  in
  let runs_arg =
    Arg.(
      value & opt int 2
      & info [ "runs" ] ~docv:"R"
          ~doc:"Campaign size: $(docv) runs with pre-split seeds.")
  in
  let retries_arg =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Reconnection attempts on transport loss (exponentially \
             backed-off sleeps); safe because submits are idempotent.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Print live campaign progress to stderr as the daemon streams \
             it (runs done, and shard counts under a $(b,--coordinator) \
             daemon).")
  in
  let run campaign spec socket iterations seed runs counter model retries
      follow =
    if retries < 1 then fail "--retries must be positive"
    else
      (* Validate locally first for a fast, friendly error; ship file
         contents so the daemon needs no access to our filesystem. *)
      Result.bind (load_test spec) @@ fun test ->
      let payload =
        if Sys.file_exists spec && not (Sys.is_directory spec) then
          In_channel.with_open_bin spec In_channel.input_all
        else spec
      in
      ignore test;
      let wire_spec =
        {
          Perple_service.Wire.campaign;
          test = payload;
          iterations;
          seed;
          runs;
          counter = Engine.counter_short_name counter;
          model = Config.model_name model;
        }
      in
      let on_progress =
        if not follow then None
        else
          Some
            (fun p ->
              Printf.eprintf
                "perple: %s: %d/%d runs%s\n%!" campaign
                p.Perple_service.Client.runs_done
                p.Perple_service.Client.runs_total
                (if
                   p.Perple_service.Client.shards_done
                   + p.Perple_service.Client.shards_leased
                   + p.Perple_service.Client.shards_failed
                   > 0
                 then
                   Printf.sprintf
                     " (shards: %d done, %d leased, %d abandoned)"
                     p.Perple_service.Client.shards_done
                     p.Perple_service.Client.shards_leased
                     p.Perple_service.Client.shards_failed
                 else ""))
      in
      match
        Perple_service.Client.submit_blocking ~socket ~attempts:retries
          ?on_progress ~spec:wire_spec ()
      with
      | Error m -> fail "submit %s: %s" campaign m
      | Ok outcome ->
        Printf.eprintf
          "perple: campaign %s accepted (digest %s, %d of %d runs were \
           already journaled)\n%!"
          campaign outcome.Perple_service.Client.digest
          outcome.Perple_service.Client.completed_at_accept runs;
        List.iter print_endline outcome.Perple_service.Client.records;
        Printf.printf "metrics: %s\n" outcome.Perple_service.Client.metrics;
        Ok ()
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a running $(b,perple serve) daemon and \
          stream its records to stdout (one canonical ledger line per run, \
          index order, then one metrics line).")
    (wrap
       Term.(
         const run $ campaign_arg $ submit_test_arg $ socket_arg
         $ iterations_arg $ seed_arg $ runs_arg $ counter_arg $ model_arg
         $ retries_arg $ follow_arg))

let worker_cmd =
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Connect to the coordinator on localhost TCP port $(docv) \
             instead of the Unix-domain socket.")
  in
  let name_arg =
    Arg.(
      value
      & opt string (Printf.sprintf "worker-%d" (Unix.getpid ()))
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Worker name reported in the handshake (default: worker-PID).")
  in
  let retries_arg =
    Arg.(
      value & opt int 10
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Consecutive fruitless reconnection attempts before giving up \
             (a connection that executed at least one lease refills the \
             budget, so a restarting coordinator is survived).")
  in
  let run socket tcp name retries trace metrics =
    if retries < 1 then fail "--retries must be positive"
    else begin
      let address =
        match tcp with Some p -> `Tcp p | None -> `Unix_socket socket
      in
      Printf.eprintf "perple worker %s: dialling %s\n%!" name
        (match address with
        | `Tcp p -> Printf.sprintf "tcp 127.0.0.1:%d" p
        | `Unix_socket s -> s);
      match
        with_observability ~trace ~metrics @@ fun () ->
        Perple_service.Worker.work_blocking ~address ~name ~attempts:retries
          ~on_note:(fun line ->
            Printf.eprintf "perple worker %s: %s\n%!" name line)
          ()
      with
      | Error m -> fail "worker %s: %s" name m
      | Ok signum ->
        exit_on_signal signum
          (Printf.eprintf "perple worker %s: %s, stopping\n%!" name)
    end
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Execute leased campaign shards for a $(b,perple serve \
          --coordinator) daemon.  Runs are computed with the same engine \
          and pre-split seeds as a local campaign, so the coordinator's \
          merged ledger is byte-identical to a single-node run; on \
          disconnect the worker reconnects with backed-off sleeps and any \
          half-finished lease is safely reassigned.")
    (wrap
       Term.(
         const run $ socket_arg $ tcp_arg $ name_arg $ retries_arg
         $ trace_arg $ metrics_arg))

let main_cmd =
  let info =
    Cmd.info "perple" ~version:"1.0.0"
      ~doc:
        "Perpetual litmus tests for memory consistency testing (PerpLE, \
         MICRO 2020 reproduction)."
  in
  Cmd.group info
    [
      list_cmd;
      show_cmd;
      check_cmd;
      convert_cmd;
      run_cmd;
      litmus7_cmd;
      supervise_cmd;
      crash_suite_cmd;
      emit_cmd;
      trace_cmd;
      generate_cmd;
      export_cmd;
      suite_cmd;
      experiment_cmd;
      serve_cmd;
      submit_cmd;
      worker_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
