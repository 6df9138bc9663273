(* End-to-end tests of the perple CLI binary: every subcommand runs, exits
   zero on valid input and nonzero with a useful message on invalid input.
   The binary is a declared dune dependency, available at a stable relative
   path inside the build sandbox. *)

let check = Alcotest.check

let binary =
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/perple.exe"; "_build/default/bin/perple.exe" ])

let have_binary = lazy (Lazy.force binary <> None)

let binary_path () = Option.get (Lazy.force binary)

let scratch = Filename.concat (Filename.get_temp_dir_name ()) "perple-cli-test"

(* Run the CLI, with [env] assignments before it; return (exit code,
   stdout+stderr). *)
let run_cli ?(env = "") args =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  let out = Filename.concat scratch "out.txt" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" env
      (Filename.quote (binary_path ()))
      args (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  (code, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let expect_ok ?(grep = "") args =
  if Lazy.force have_binary then begin
    let code, text = run_cli args in
    if code <> 0 then
      Alcotest.failf "perple %s exited %d:\n%s" args code text;
    if grep <> "" && not (contains ~sub:grep text) then
      Alcotest.failf "perple %s: %S not found in output:\n%s" args grep text
  end

let expect_fail ?(grep = "") args =
  if Lazy.force have_binary then begin
    let code, text = run_cli args in
    if code = 0 then Alcotest.failf "perple %s unexpectedly succeeded" args;
    if grep <> "" && not (contains ~sub:grep text) then
      Alcotest.failf "perple %s: %S not found in error output:\n%s" args grep
        text
  end

let test_help () = expect_ok ~grep:"COMMANDS" "--help"

let test_list () = expect_ok ~grep:"podwr001" "list"

let test_show () = expect_ok ~grep:"convertible to perpetual form: yes" "show sb"

let test_show_non_convertible () =
  expect_ok ~grep:"convertible to perpetual form: no" "show 2+2w"

let test_check () = expect_ok ~grep:"axiomatic checker agrees: true" "check lb"

let test_check_solver () =
  expect_ok ~grep:"reachable outcomes (solver)" "check sb --backend solver"

let test_check_crosscheck () =
  expect_ok ~grep:"all three backends agree" "check n5 --crosscheck"

let test_check_bad_backend () =
  expect_fail ~grep:"expected operational, axiomatic or solver"
    "check sb --backend herd"

let test_verify_trace () =
  expect_ok ~grep:"trace verification against TSO: consistent"
    "run mp -n 400 --verify-trace"

let test_verify_trace_catches_bug () =
  expect_fail ~grep:"trace violates TSO"
    "run mp -n 400 --model tso+store-reorder-bug --seed 3 --verify-trace"

let test_verify_trace_needs_single_run () =
  expect_fail ~grep:"single run" "run sb -n 100 --runs 2 --verify-trace"

let test_convert () =
  expect_ok ~grep:"buf1[m] >= n + 1" "convert sb"

let test_run () =
  expect_ok ~grep:"target detection rate" "run sb -n 500 --seed 2"

let test_run_pso () =
  expect_ok ~grep:"model pso" "run mp -n 500 --model pso"

let test_run_stress () = expect_ok "run sb -n 300 --stress 2"

let test_litmus7 () =
  expect_ok ~grep:"target occurrences" "litmus7 sb -n 300 --mode timebase"

let test_trace () = expect_ok ~grep:"exec" "trace sb -n 3 --events 10"

let test_generate () =
  expect_ok ~grep:"checker verdict under TSO: forbidden"
    "generate \"PodWW Rfe PodRR Fre\""

let test_generate_named () = expect_ok ~grep:"PSO: allowed" "generate 2+2w"

let test_emit () =
  expect_ok ~grep:"sb_counth.c"
    (Printf.sprintf "emit sb -o %s" (Filename.quote (scratch ^ "/emit")))

let test_export () =
  expect_ok ~grep:"sb.litmus"
    (Printf.sprintf "export -o %s" (Filename.quote (scratch ^ "/litmus")))

let test_experiment_table2 () =
  expect_ok ~grep:"mismatches vs paper's grouping: 0" "experiment table2"

let test_parse_file () =
  if Lazy.force have_binary then begin
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
    Sys.mkdir scratch 0o755;
    let path = Filename.concat scratch "own.litmus" in
    let oc = open_out path in
    output_string oc
      "X86 own\n{ x=0; }\n P0          | P1          ;\n MOV [x],$1  | MOV \
       EAX,[x] ;\nexists (1:EAX=1)\n";
    close_out oc;
    let code =
      Sys.command
        (Printf.sprintf "%s show %s > /dev/null 2>&1"
           (Filename.quote (binary_path ()))
           (Filename.quote path))
    in
    check Alcotest.int "file test accepted" 0 code
  end

let test_supervise () =
  expect_ok ~grep:"campaign summary:"
    "supervise sb --fault hang@0.05 -n 2000 --runs 3 --seed 1"

let test_supervise_deterministic () =
  if Lazy.force have_binary then begin
    let args = "supervise sb --fault hang@0.1 -n 1500 --runs 4 --seed 9" in
    let code_a, text_a = run_cli args in
    let code_b, text_b = run_cli args in
    check Alcotest.int "first run ok" 0 code_a;
    check Alcotest.int "second run ok" 0 code_b;
    check Alcotest.string "same ledger for same seed" text_a text_b
  end

let test_supervise_fault_free () =
  expect_ok ~grep:"0 retries; 0 runs lost"
    "supervise sb -n 500 --runs 2 --seed 3"

let test_run_campaign () =
  expect_ok ~grep:"campaign total:" "run sb -n 300 --runs 4 --jobs 2 --seed 5"

let test_run_campaign_jobs_identical () =
  (* The whole point of the seed-presplit campaign engine: the printed
     report is bit-identical whatever the domain count. *)
  if Lazy.force have_binary then begin
    let output jobs =
      let code, text =
        run_cli (Printf.sprintf "run sb -n 300 --runs 4 --seed 5 --jobs %d" jobs)
      in
      check Alcotest.int (Printf.sprintf "jobs=%d ok" jobs) 0 code;
      text
    in
    let baseline = output 1 in
    check Alcotest.string "jobs=2 identical" baseline (output 2);
    check Alcotest.string "jobs=4 identical" baseline (output 4)
  end

let test_supervise_jobs_identical () =
  if Lazy.force have_binary then begin
    let output jobs =
      let code, text =
        run_cli
          (Printf.sprintf
             "supervise sb --fault hang@0.1 -n 1500 --runs 4 --seed 9 \
              --jobs %d"
             jobs)
      in
      check Alcotest.int (Printf.sprintf "jobs=%d ok" jobs) 0 code;
      text
    in
    let baseline = output 1 in
    check Alcotest.string "parallel supervise identical" baseline (output 2)
  end

(* Run the CLI capturing stdout only (stderr discarded) — for byte-identity
   checks on the ledger, which the observability notes on stderr must not
   perturb. *)
let run_cli_stdout args =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  let out = Filename.concat scratch "stdout.txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null"
      (Filename.quote (binary_path ()))
      args (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  (code, text)

let obs_dir = Filename.concat (Filename.get_temp_dir_name ()) "perple-cli-obs"

let with_obs_dir f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote obs_dir)));
  Sys.mkdir obs_dir 0o755;
  f ()

let parse_json_file path =
  match Perple_util.Json.parse_file path with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" path e

let test_run_trace_metrics () =
  if Lazy.force have_binary then
    with_obs_dir (fun () ->
        let trace = Filename.concat obs_dir "run.trace.json" in
        let metrics = Filename.concat obs_dir "run.metrics.json" in
        let code, text =
          run_cli
            (Printf.sprintf "run sb -n 300 --seed 2 --trace %s --metrics %s"
               (Filename.quote trace) (Filename.quote metrics))
        in
        if code <> 0 then Alcotest.failf "run with observability exited %d:\n%s" code text;
        (* Trace file is a loadable Chrome trace-event document... *)
        (match Perple_util.Json.member "traceEvents" (parse_json_file trace) with
        | Some (Perple_util.Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "traceEvents missing or empty");
        (* ...and the metrics dump carries the expected schema tag. *)
        match Perple_util.Json.member "schema" (parse_json_file metrics) with
        | Some (Perple_util.Json.String "perple-metrics/1") -> ()
        | _ -> Alcotest.fail "metrics schema missing")

let test_supervise_trace_metrics () =
  if Lazy.force have_binary then
    with_obs_dir (fun () ->
        let trace = Filename.concat obs_dir "sup.trace.json" in
        let metrics = Filename.concat obs_dir "sup.metrics.json" in
        let code, text =
          run_cli
            (Printf.sprintf
               "supervise sb --fault hang@0.1 -n 1000 --runs 2 --seed 9 \
                --trace %s --metrics %s"
               (Filename.quote trace) (Filename.quote metrics))
        in
        if code <> 0 then
          Alcotest.failf "supervise with observability exited %d:\n%s" code text;
        ignore (parse_json_file trace);
        let doc = parse_json_file metrics in
        match
          Option.bind
            (Perple_util.Json.member "counters" doc)
            (Perple_util.Json.member "supervisor.attempts")
        with
        | Some (Perple_util.Json.Int n) when n > 0 -> ()
        | _ -> Alcotest.fail "supervisor.attempts counter missing")

let test_ledger_identical_with_observability () =
  (* ISSUE acceptance: the run ledger on stdout is byte-identical with
     tracing on and off — observability output goes to files and stderr. *)
  if Lazy.force have_binary then
    with_obs_dir (fun () ->
        let base_args = "run sb -n 300 --runs 3 --seed 5 --jobs 2" in
        let code_a, bare = run_cli_stdout base_args in
        let code_b, observed =
          run_cli_stdout
            (Printf.sprintf "%s --trace %s --metrics %s" base_args
               (Filename.quote (Filename.concat obs_dir "t.json"))
               (Filename.quote (Filename.concat obs_dir "m.json")))
        in
        check Alcotest.int "bare ok" 0 code_a;
        check Alcotest.int "observed ok" 0 code_b;
        check Alcotest.string "ledger unchanged by observability" bare observed)

let test_metrics_identical_across_jobs () =
  (* ISSUE acceptance: the metrics file is bit-identical for --jobs 1 and
     --jobs 4 on the same seed. *)
  if Lazy.force have_binary then
    with_obs_dir (fun () ->
        let metrics_for jobs =
          let path =
            Filename.concat obs_dir (Printf.sprintf "m%d.json" jobs)
          in
          let code, text =
            run_cli_stdout
              (Printf.sprintf "run sb -n 300 --runs 4 --seed 5 --jobs %d --metrics %s"
                 jobs (Filename.quote path))
          in
          check Alcotest.int (Printf.sprintf "jobs=%d ok" jobs) 0 code;
          ignore text;
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let bytes = really_input_string ic n in
          close_in ic;
          bytes
        in
        check Alcotest.string "metrics bytes jobs 1 = jobs 4" (metrics_for 1)
          (metrics_for 4))

(* --- crash-suite ---------------------------------------------------------- *)

let test_crash_suite_epoch_clean () =
  expect_ok ~grep:"suite verdict: consistent (0 of 7 points violated"
    "crash-suite pm-epoch-order"

let test_crash_suite_finds_planted_bug () =
  expect_ok ~grep:"VIOLATED"
    "crash-suite pm-epoch-order --persistency eager-bug"

let test_crash_suite_crosscheck () =
  expect_ok ~grep:"axiomatic cross-check: agrees"
    "crash-suite pm-flush-before-fence --persistency eager-bug --crosscheck";
  expect_ok ~grep:"axiomatic cross-check: agrees"
    "crash-suite pm-flush-before-fence --crosscheck"

let test_crash_suite_jobs_identical () =
  if Lazy.force have_binary then begin
    let output jobs =
      let code, text =
        run_cli_stdout
          (Printf.sprintf
             "crash-suite pm-torn-pair --persistency eager-bug --jobs %d"
             jobs)
      in
      check Alcotest.int (Printf.sprintf "jobs=%d ok" jobs) 0 code;
      text
    in
    let baseline = output 1 in
    check Alcotest.string "jobs=4 identical" baseline (output 4)
  end

(* Satellite: every resumable subcommand rejects --resume without
   --journal up front, with the same actionable message. *)
let test_resume_requires_journal () =
  List.iter
    (fun cmd ->
      expect_fail ~grep:"--resume requires --journal FILE" cmd)
    [
      "crash-suite pm-epoch-order --resume";
      "run sb -n 100 --runs 2 --resume";
      "supervise sb -n 100 --runs 2 --resume";
    ]

let cs_dir = Filename.concat (Filename.get_temp_dir_name ()) "perple-cli-cs"

let test_crash_suite_kill_resume_identical () =
  (* ISSUE acceptance: a journaled suite killed at an arbitrary point and
     resumed prints a ledger byte-identical to an uninterrupted run.  The
     kill is simulated by truncating the journal mid-file — Journal.load
     drops the damaged tail, resume re-executes only the missing points. *)
  if Lazy.force have_binary then begin
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote cs_dir)));
    Sys.mkdir cs_dir 0o755;
    let journal = Filename.concat cs_dir "cs.journal" in
    let args extra =
      Printf.sprintf
        "crash-suite pm-epoch-order --persistency eager-bug --journal %s%s"
        (Filename.quote journal) extra
    in
    let code_base, baseline = run_cli_stdout (args "") in
    check Alcotest.int "journaled run ok" 0 code_base;
    (* Chop the journal to 60%%: header survives, trailing records die. *)
    let size = (Unix.stat journal).Unix.st_size in
    let fd = Unix.openfile journal [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd (size * 3 / 5);
    Unix.close fd;
    let code_resumed, resumed = run_cli_stdout (args " --resume") in
    check Alcotest.int "resumed run ok" 0 code_resumed;
    check Alcotest.string "resumed ledger identical" baseline resumed;
    (* Resuming the now-complete journal replays it verbatim. *)
    let code_replay, replayed = run_cli_stdout (args " --resume") in
    check Alcotest.int "replay ok" 0 code_replay;
    check Alcotest.string "replayed ledger identical" baseline replayed
  end

let test_crash_suite_wrong_config_rejected () =
  if Lazy.force have_binary then begin
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote cs_dir)));
    Sys.mkdir cs_dir 0o755;
    let journal = Filename.concat cs_dir "cs.journal" in
    let code, _ =
      run_cli_stdout
        (Printf.sprintf "crash-suite pm-epoch-order --journal %s"
           (Filename.quote journal))
    in
    check Alcotest.int "journaled run ok" 0 code;
    expect_fail ~grep:"different configuration"
      (Printf.sprintf
         "crash-suite pm-epoch-order --persistency eager-bug --journal %s \
          --resume"
         (Filename.quote journal))
  end

(* A campaign that fails its conversion checks creates no journal, so
   the same command rerun reports the conversion error again instead of
   refusing to overwrite a header-only journal. *)
let test_failed_campaign_leaves_no_journal () =
  if Lazy.force have_binary then begin
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote cs_dir)));
    Sys.mkdir cs_dir 0o755;
    let journal = Filename.concat cs_dir "failed.journal" in
    List.iter
      (fun cmd ->
        let args =
          Printf.sprintf "%s 2+2w -n 50 --runs 2 --journal %s" cmd
            (Filename.quote journal)
        in
        expect_fail ~grep:"Sec V-C" args;
        check Alcotest.bool (cmd ^ ": no journal left") false
          (Sys.file_exists journal);
        let _, text = run_cli args in
        if contains ~sub:"already exists" text then
          Alcotest.failf "perple %s: rerun refused:\n%s" args text;
        expect_fail ~grep:"Sec V-C" args)
      [ "run"; "supervise" ]
  end

let test_bad_jobs () =
  expect_fail ~grep:"--jobs must be positive" "run sb -n 100 --jobs 0";
  expect_fail ~grep:"--runs must be positive" "run sb -n 100 --runs 0"

let test_run_cap_note () =
  expect_ok ~grep:"requested 5000"
    "run sb -n 5000 --counter exhaustive --cap 10000"

let test_unknown_test () = expect_fail ~grep:"unknown test" "show nope"

let test_bad_fault_spec () =
  expect_fail "supervise sb --fault meteor@0.1 -n 100"

let test_bad_fault_probability () =
  expect_fail "supervise sb --fault hang@1.5 -n 100"

let test_bad_cycle () =
  expect_fail ~grep:"communication" "generate \"PodWR PodRW\""

let test_bad_model () = expect_fail "run sb --model alpha"

(* Module initialisation runs in every process, [perple --version]
   included, so no library may compute there.  The runtime's exit
   statistics (OCAMLRUNPARAM v=0x400) count the words it allocated. *)
let test_startup_allocation () =
  if Lazy.force have_binary then begin
    let code, text = run_cli "--version" ~env:"OCAMLRUNPARAM=v=0x400" in
    check Alcotest.int "--version ok" 0 code;
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "allocated_words: %d" Fun.id)
        (String.split_on_char '\n' text)
    with
    | None -> Alcotest.failf "no allocation statistics in:\n%s" text
    | Some words ->
      if words > 25_000 then
        Alcotest.failf "perple --version allocated %d words (bound 25000)"
          words
  end

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "--help" `Quick test_help;
        Alcotest.test_case "list" `Quick test_list;
        Alcotest.test_case "show" `Quick test_show;
        Alcotest.test_case "show non-convertible" `Quick
          test_show_non_convertible;
        Alcotest.test_case "check" `Quick test_check;
        Alcotest.test_case "check solver backend" `Quick test_check_solver;
        Alcotest.test_case "check crosscheck" `Quick test_check_crosscheck;
        Alcotest.test_case "check bad backend" `Quick test_check_bad_backend;
        Alcotest.test_case "run verify-trace" `Quick test_verify_trace;
        Alcotest.test_case "run verify-trace catches bug" `Quick
          test_verify_trace_catches_bug;
        Alcotest.test_case "verify-trace single-run only" `Quick
          test_verify_trace_needs_single_run;
        Alcotest.test_case "convert" `Quick test_convert;
        Alcotest.test_case "run" `Quick test_run;
        Alcotest.test_case "run pso" `Quick test_run_pso;
        Alcotest.test_case "run stress" `Quick test_run_stress;
        Alcotest.test_case "litmus7" `Quick test_litmus7;
        Alcotest.test_case "trace" `Quick test_trace;
        Alcotest.test_case "generate" `Quick test_generate;
        Alcotest.test_case "generate named" `Quick test_generate_named;
        Alcotest.test_case "emit" `Quick test_emit;
        Alcotest.test_case "export" `Quick test_export;
        Alcotest.test_case "experiment table2" `Quick test_experiment_table2;
        Alcotest.test_case "parse file" `Quick test_parse_file;
        Alcotest.test_case "supervise" `Quick test_supervise;
        Alcotest.test_case "supervise determinism" `Quick
          test_supervise_deterministic;
        Alcotest.test_case "supervise fault-free" `Quick
          test_supervise_fault_free;
        Alcotest.test_case "run campaign" `Quick test_run_campaign;
        Alcotest.test_case "run campaign jobs-identical" `Quick
          test_run_campaign_jobs_identical;
        Alcotest.test_case "supervise jobs-identical" `Quick
          test_supervise_jobs_identical;
        Alcotest.test_case "run --trace/--metrics" `Quick
          test_run_trace_metrics;
        Alcotest.test_case "supervise --trace/--metrics" `Quick
          test_supervise_trace_metrics;
        Alcotest.test_case "ledger identical with observability" `Quick
          test_ledger_identical_with_observability;
        Alcotest.test_case "metrics identical across jobs" `Quick
          test_metrics_identical_across_jobs;
        Alcotest.test_case "crash-suite epoch clean" `Quick
          test_crash_suite_epoch_clean;
        Alcotest.test_case "crash-suite finds planted bug" `Quick
          test_crash_suite_finds_planted_bug;
        Alcotest.test_case "crash-suite crosscheck" `Quick
          test_crash_suite_crosscheck;
        Alcotest.test_case "crash-suite jobs-identical" `Quick
          test_crash_suite_jobs_identical;
        Alcotest.test_case "resume requires journal" `Quick
          test_resume_requires_journal;
        Alcotest.test_case "crash-suite kill/resume identical" `Quick
          test_crash_suite_kill_resume_identical;
        Alcotest.test_case "crash-suite wrong config rejected" `Quick
          test_crash_suite_wrong_config_rejected;
        Alcotest.test_case "failed campaign leaves no journal" `Quick
          test_failed_campaign_leaves_no_journal;
        Alcotest.test_case "bad --runs/--jobs" `Quick test_bad_jobs;
        Alcotest.test_case "run cap note" `Quick test_run_cap_note;
        Alcotest.test_case "unknown test" `Quick test_unknown_test;
        Alcotest.test_case "bad cycle" `Quick test_bad_cycle;
        Alcotest.test_case "bad model" `Quick test_bad_model;
        Alcotest.test_case "start-up allocation" `Quick
          test_startup_allocation;
        Alcotest.test_case "bad fault spec" `Quick test_bad_fault_spec;
        Alcotest.test_case "bad fault probability" `Quick
          test_bad_fault_probability;
      ] );
  ]
