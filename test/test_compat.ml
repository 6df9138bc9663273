(* Journal compatibility across versions.  The files under fixtures/ were
   written by an earlier perple binary (see fixtures/README.md) and are
   never regenerated: a change that moves a configuration digest, a
   record's bytes or the resume protocol fails here instead of silently
   orphaning journals that users already have on disk. *)

module Scheduler = Perple_service.Scheduler

let check = Alcotest.check

let binary =
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/perple.exe"; "_build/default/bin/perple.exe" ])

let scratch =
  Filename.concat (Filename.get_temp_dir_name ()) "perple-compat-test"

let in_scratch name = Filename.concat scratch name

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fixture name = read_file (Filename.concat "fixtures" name)

(* A writable copy: resuming compacts the journal in place. *)
let copy_fixture name =
  let path = in_scratch name in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (fixture name));
  path

(* Run the CLI; return (exit code, stdout, stderr). *)
let run_cli args =
  let out = in_scratch "stdout.txt" and err = in_scratch "stderr.txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s"
         (Filename.quote (Option.get (Lazy.force binary)))
         args (Filename.quote out) (Filename.quote err))
  in
  (code, read_file out, read_file err)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The commands the fixtures were written with (fixtures/README.md). *)
let campaigns =
  [
    ("run", "run sb -n 300 --seed 5 --runs 3");
    ( "supervise",
      "supervise sb -n 1200 --seed 9 --runs 3 --fault crash@0.3 --fault \
       hang@0.1 --min-retired 1000" );
    ("crash-suite", "crash-suite pm-epoch-order --persistency eager-bug");
  ]

(* Resuming an old complete journal replays it; resuming an old partial
   one (a torn tail included) finishes it.  Both print the old binary's
   stdout byte for byte and leave the old binary's complete journal. *)
let test_cli_resumes_old_journals () =
  if Lazy.force binary <> None then
    with_scratch @@ fun () ->
    List.iter
      (fun (name, args) ->
        List.iter
          (fun kind ->
            let journal = copy_fixture (name ^ kind ^ ".journal") in
            let code, stdout, stderr =
              run_cli
                (Printf.sprintf "%s --journal %s --resume" args
                   (Filename.quote journal))
            in
            let label = name ^ kind in
            if code <> 0 then
              Alcotest.failf "%s: exit %d: %s" label code stderr;
            check Alcotest.string (label ^ ": stdout")
              (fixture (name ^ ".stdout"))
              stdout;
            check Alcotest.string (label ^ ": journal bytes")
              (fixture (name ^ ".journal"))
              (read_file journal))
          [ ""; ".partial" ])
      campaigns

let serve_records () =
  String.split_on_char '\n' (fixture "serve.stdout")
  |> List.filter (fun l -> l <> "")

(* A daemon restarted over an old serve journal re-streams the records
   and the metrics line the old daemon sent, and compacts the journal
   to the old bytes minus the shutdown marker. *)
let test_scheduler_restreams_old_journal () =
  with_scratch @@ fun () ->
  let path = copy_fixture "serve.journal" in
  match Scheduler.create ~journal:(Some path) () with
  | Error m -> Alcotest.failf "old serve journal refused: %s" m
  | Ok sched ->
    let expected = serve_records () in
    let runs = List.length expected - 1 in
    check Alcotest.(option int) "runs" (Some runs)
      (Scheduler.runs sched ~campaign:"fx");
    check
      Alcotest.(list string)
      "records"
      (List.filteri (fun i _ -> i < runs) expected)
      (List.init runs (fun index ->
           Option.value ~default:"<missing>"
             (Scheduler.record sched ~campaign:"fx" ~index)));
    check Alcotest.string "metrics line"
      (List.nth expected runs)
      ("metrics: "
      ^ Option.value ~default:"<none>"
          (Scheduler.metrics_payload sched ~campaign:"fx"));
    Scheduler.close sched;
    let old_lines =
      String.split_on_char '\n' (fixture "serve.journal")
      |> List.filter (fun l -> l <> "" && not (contains ~sub:"draining" l))
    in
    check Alcotest.string "compacted journal"
      (String.concat "" (List.map (fun l -> l ^ "\n") old_lines))
      (read_file path)

(* Each side refuses the other's journal by its header command, and
   leaves it untouched. *)
let test_foreign_journals_refused () =
  with_scratch @@ fun () ->
  let path = copy_fixture "run.journal" in
  (match Scheduler.create ~journal:(Some path) () with
  | Ok _ -> Alcotest.fail "a run journal was accepted by the scheduler"
  | Error m ->
    if not (contains ~sub:"written by 'perple run', not 'perple serve'" m)
    then Alcotest.failf "unexpected refusal: %s" m);
  check Alcotest.string "run journal untouched" (fixture "run.journal")
    (read_file path);
  if Lazy.force binary <> None then begin
    let path = copy_fixture "serve.journal" in
    let code, _, stderr =
      run_cli
        (Printf.sprintf "%s --journal %s --resume" (List.assoc "run" campaigns)
           (Filename.quote path))
    in
    check Alcotest.bool "serve journal refused by run" true (code <> 0);
    if not (contains ~sub:"written by 'perple serve', not 'perple run'" stderr)
    then Alcotest.failf "unexpected refusal: %s" stderr;
    check Alcotest.string "serve journal untouched" (fixture "serve.journal")
      (read_file path)
  end

let suite =
  [
    ( "compat.journal",
      [
        Alcotest.test_case "CLI resumes old journals" `Quick
          test_cli_resumes_old_journals;
        Alcotest.test_case "scheduler re-streams old serve journal" `Quick
          test_scheduler_restreams_old_journal;
        Alcotest.test_case "foreign journals refused" `Quick
          test_foreign_journals_refused;
      ] );
  ]
