(* Durability tests: CRC-32 vectors, journal recovery from arbitrarily
   truncated or bit-flipped tails, atomic file replacement, metrics
   capture/merge round-trips, ledger summary serialization, and
   end-to-end CLI resume determinism (stdout AND metrics byte-identity
   for any interruption point and any --jobs). *)

module Json = Perple_util.Json
module Journal = Perple_util.Journal
module Atomic_file = Perple_util.Atomic_file
module Metrics = Perple_util.Metrics
module Ledger = Perple_core.Ledger

let check = Alcotest.check

let scratch =
  Filename.concat (Filename.get_temp_dir_name ()) "perple-journal-test"

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let in_scratch name = Filename.concat scratch name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let write_raw path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* --- CRC-32 ---------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* Standard zlib/IEEE 802.3 check values. *)
  check Alcotest.int "crc32(\"\")" 0 (Journal.crc32 "");
  check Alcotest.int "crc32(\"123456789\")" 0xCBF43926
    (Journal.crc32 "123456789");
  check Alcotest.int "crc32(\"a\")" 0xE8B7BE43 (Journal.crc32 "a")

let test_crc32_bit_sensitivity () =
  let base = Journal.crc32 "the quick brown fox" in
  let flipped = Bytes.of_string "the quick brown fox" in
  Bytes.set flipped 4 (Char.chr (Char.code (Bytes.get flipped 4) lxor 1));
  if Journal.crc32 (Bytes.to_string flipped) = base then
    Alcotest.fail "single-bit flip left the CRC unchanged"

(* --- Record encoding ------------------------------------------------------- *)

let sample_records =
  [
    Json.Obj [ ("kind", Json.String "header"); ("runs", Json.Int 4) ];
    Json.Obj
      [
        ("kind", Json.String "run");
        ("index", Json.Int 0);
        ("counts", Json.List [ Json.Int 3; Json.Int 0 ]);
        ("note", Json.String "with \"quotes\" and \n newline");
      ];
    Json.Obj [ ("kind", Json.String "run"); ("index", Json.Int 1) ];
    Json.Obj [ ("kind", Json.String "interrupted") ];
  ]

let write_journal path records =
  let j = Journal.create path in
  List.iter (Journal.append j) records;
  Journal.close j

let test_append_load_roundtrip () =
  with_scratch @@ fun () ->
  let path = in_scratch "j.log" in
  write_journal path sample_records;
  match Journal.load path with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok r ->
    check Alcotest.int "no dropped bytes" 0 r.Journal.dropped_bytes;
    check Alcotest.bool "records round-trip" true
      (r.Journal.records = sample_records)

let test_load_missing_file () =
  with_scratch @@ fun () ->
  match Journal.load (in_scratch "absent.log") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing journal should be an I/O error"

let test_load_empty_file () =
  with_scratch @@ fun () ->
  let path = in_scratch "empty.log" in
  write_raw path "";
  match Journal.load path with
  | Error m -> Alcotest.failf "empty journal should load: %s" m
  | Ok r ->
    check Alcotest.int "no records" 0 (List.length r.Journal.records);
    check Alcotest.int "no dropped bytes" 0 r.Journal.dropped_bytes

(* The central recovery property: truncate a valid journal at EVERY byte
   offset; load must always succeed, return a prefix of the original
   record list, and account for every byte as valid or dropped. *)
let test_truncate_every_offset () =
  with_scratch @@ fun () ->
  let path = in_scratch "full.log" in
  write_journal path sample_records;
  let full = read_file path in
  let n = String.length full in
  let cut = in_scratch "cut.log" in
  for len = 0 to n do
    write_raw cut (String.sub full 0 len);
    match Journal.load cut with
    | Error m -> Alcotest.failf "truncated at %d: load failed: %s" len m
    | Ok r ->
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      if not (is_prefix r.Journal.records sample_records) then
        Alcotest.failf "truncated at %d: salvage is not a record prefix" len;
      check Alcotest.int
        (Printf.sprintf "truncated at %d: bytes accounted" len)
        len
        (r.Journal.valid_bytes + r.Journal.dropped_bytes);
      (* Whole-line truncation keeps every complete record. *)
      if len = n then
        check Alcotest.int "full file keeps all records"
          (List.length sample_records)
          (List.length r.Journal.records)
  done

(* Flip every byte of the tail record in turn (one at a time): recovery
   must never fail, and must never hallucinate a fourth record out of
   damage — the flipped line dies, earlier lines survive. *)
let test_bit_flip_tail () =
  with_scratch @@ fun () ->
  let path = in_scratch "flip.log" in
  write_journal path sample_records;
  let full = read_file path in
  let n = String.length full in
  let last_line_start = 1 + String.rindex_from full (n - 2) '\n' in
  let flip = in_scratch "flipped.log" in
  for pos = last_line_start to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string full in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      write_raw flip (Bytes.to_string b);
      match Journal.load flip with
      | Error m -> Alcotest.failf "flip at %d.%d: load failed: %s" pos bit m
      | Ok r ->
        if List.length r.Journal.records > List.length sample_records then
          Alcotest.failf "flip at %d.%d: salvaged more records than written"
            pos bit;
        let expected_prefix =
          List.filteri
            (fun i _ -> i < List.length r.Journal.records)
            sample_records
        in
        if
          List.length r.Journal.records = List.length sample_records
          && r.Journal.records <> sample_records
        then
          Alcotest.failf "flip at %d.%d: damage masqueraded as data" pos bit;
        if
          List.length r.Journal.records < List.length sample_records
          && r.Journal.records <> expected_prefix
        then
          Alcotest.failf "flip at %d.%d: salvage is not a clean prefix" pos
            bit
    done
  done

let record_gen =
  QCheck.Gen.(
    let small_string = string_size (int_bound 12) ~gen:printable in
    map
      (fun (i, s, l) ->
        Json.Obj
          [
            ("kind", Json.String "run");
            ("index", Json.Int i);
            ("s", Json.String s);
            ("l", Json.List (List.map (fun x -> Json.Int x) l));
          ])
      (triple int small_string (list_size (int_bound 5) int)))

let journal_roundtrip_property =
  QCheck.Test.make ~name:"journal round-trips random records" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_bound 10) record_gen))
    (fun records ->
      with_scratch @@ fun () ->
      let path = in_scratch "q.log" in
      write_journal path records;
      match Journal.load path with
      | Error _ -> false
      | Ok r -> r.Journal.records = records && r.Journal.dropped_bytes = 0)

let test_compact () =
  with_scratch @@ fun () ->
  let path = in_scratch "compact.log" in
  write_journal path sample_records;
  (* Simulate damage, then compact to just the first two records. *)
  write_raw path (read_file path ^ "garbage without checksum\n");
  let keep = List.filteri (fun i _ -> i < 2) sample_records in
  (match Journal.load path with
  | Ok loaded -> Journal.compact ~loaded ~path keep
  | Error m -> Alcotest.failf "damaged journal load failed: %s" m);
  match Journal.load path with
  | Error m -> Alcotest.failf "compacted journal load failed: %s" m
  | Ok r ->
    check Alcotest.bool "compaction kept exactly the given records" true
      (r.Journal.records = keep);
    check Alcotest.int "compaction left no damage" 0 r.Journal.dropped_bytes

let test_try_append () =
  with_scratch @@ fun () ->
  let path = in_scratch "try.log" in
  let j = Journal.create path in
  check Alcotest.bool "uncontended try_append succeeds" true
    (Journal.try_append j (List.hd sample_records));
  Journal.close j;
  match Journal.load path with
  | Ok r -> check Alcotest.int "record landed" 1 (List.length r.Journal.records)
  | Error m -> Alcotest.failf "load failed: %s" m

(* --- Atomic_file ----------------------------------------------------------- *)

let test_atomic_write () =
  with_scratch @@ fun () ->
  let path = in_scratch "atomic.txt" in
  Atomic_file.write ~path "first";
  check Alcotest.string "content written" "first" (read_file path);
  Atomic_file.write ~path "second, longer content";
  check Alcotest.string "content replaced" "second, longer content"
    (read_file path);
  (* No temporary litter left behind. *)
  let leftovers =
    Array.to_list (Sys.readdir scratch)
    |> List.filter (fun f -> f <> "atomic.txt")
  in
  check
    (Alcotest.list Alcotest.string)
    "no temp files left" [] leftovers

(* --- Metrics capture and merge --------------------------------------------- *)

let json_bytes j = Json.to_string j

let test_metrics_merge_json_roundtrip () =
  let src = Metrics.create_sink () in
  Metrics.add src "a.count" 3;
  Metrics.add src "b.count" 40;
  Metrics.observe src "h" 2;
  Metrics.observe src "h" 2;
  Metrics.observe src "h" 7;
  let dump = Metrics.to_json src in
  let dst = Metrics.create_sink () in
  (match Metrics.merge_json dst dump with
  | Ok () -> ()
  | Error m -> Alcotest.failf "merge_json failed: %s" m);
  check Alcotest.string "replayed dump is byte-identical"
    (json_bytes dump)
    (json_bytes (Metrics.to_json dst))

let test_metrics_merge_json_strict () =
  let dst = Metrics.create_sink () in
  let bad = Json.Obj [ ("counters", Json.Int 3) ] in
  (match Metrics.merge_json dst bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "malformed counters accepted");
  let bad_bucket =
    Json.Obj
      [
        ("counters", Json.Obj []);
        ( "histograms",
          Json.Obj
            [
              ( "h",
                Json.Obj
                  [ ("buckets", Json.Obj [ ("oops", Json.Int 1) ]) ] );
            ] );
      ]
  in
  match Metrics.merge_json dst bad_bucket with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-integer bucket key accepted"

let test_metrics_scoped_capture () =
  (* A scoped sink captures in isolation; merging the capture into the
     ambient sink reproduces direct recording exactly. *)
  let direct = Metrics.create_sink () in
  Metrics.install direct;
  Metrics.incr "x";
  Metrics.incr "x";
  Metrics.record ~value:5 "h";
  Metrics.uninstall ();
  let ambient = Metrics.create_sink () in
  Metrics.install ambient;
  let capture = Metrics.create_sink () in
  Metrics.scoped capture (fun () ->
      Metrics.incr "x";
      Metrics.incr "x";
      Metrics.record ~value:5 "h";
      match Metrics.active () with
      | Some s when s == capture -> ()
      | _ -> Alcotest.fail "scoped sink not active inside the scope");
  (match Metrics.active () with
  | Some s when s == ambient -> ()
  | _ -> Alcotest.fail "ambient sink not restored after the scope");
  Metrics.merge ambient capture;
  Metrics.uninstall ();
  check Alcotest.string "scoped capture + merge = direct recording"
    (json_bytes (Metrics.to_json direct))
    (json_bytes (Metrics.to_json ambient))

(* --- Ledger summaries ------------------------------------------------------ *)

let sample_summary =
  {
    Ledger.index = 3;
    seed = 123456789;
    crashed = None;
    iterations = 400;
    requested_iterations = 500;
    frames_examined = 400;
    evaluations = 400;
    virtual_runtime = 3210;
    counts = [| 7; 0; 2 |];
    degraded = true;
    salvaged_iterations = 400;
    supervision =
      Some
        {
          Ledger.s_outcome = "truncated";
          s_total_rounds = 4321;
          s_lost = false;
          s_attempts =
            [
              {
                Ledger.a_index = 0;
                a_outcome = "crashed";
                a_requested = 500;
                a_retired = 12;
                a_rounds = 0;
                a_lost_stores = 0;
                a_exn = Some "Boom";
              };
              {
                Ledger.a_index = 1;
                a_outcome = "truncated";
                a_requested = 250;
                a_retired = 200;
                a_rounds = 900;
                a_lost_stores = 3;
                a_exn = None;
              };
            ];
        };
    metrics = Some (Json.Obj [ ("counters", Json.Obj []) ]);
  }

let test_ledger_roundtrip () =
  let j = Ledger.to_json sample_summary in
  match Ledger.of_json j with
  | Error m -> Alcotest.failf "of_json failed: %s" m
  | Ok s ->
    check Alcotest.bool "summary round-trips" true (s = sample_summary);
    check Alcotest.int "target count" 7 (Ledger.target_count s)

let test_ledger_crashed_roundtrip () =
  let crashed =
    {
      sample_summary with
      Ledger.crashed =
        Some { Ledger.c_message = "Failure(\"x\")"; c_backtrace = "bt" };
      supervision = None;
      metrics = None;
      counts = [||];
    }
  in
  match Ledger.of_json (Ledger.to_json crashed) with
  | Error m -> Alcotest.failf "of_json failed: %s" m
  | Ok s ->
    check Alcotest.bool "crashed summary round-trips" true (s = crashed);
    check Alcotest.int "crashed target count" 0 (Ledger.target_count s)

let test_ledger_rejects_damage () =
  let j = Ledger.to_json sample_summary in
  let without field =
    match j with
    | Json.Obj fields -> Json.Obj (List.remove_assoc field fields)
    | _ -> assert false
  in
  List.iter
    (fun field ->
      match Ledger.of_json (without field) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "record without %S accepted" field)
    [ "kind"; "index"; "seed"; "counts"; "degraded" ]

let test_ledger_header () =
  let h = { Ledger.h_command = "run"; h_digest = "abc"; h_runs = 7 } in
  (match Ledger.parse_header (Ledger.header_to_json h) with
  | Ok h' -> check Alcotest.bool "header round-trips" true (h = h')
  | Error m -> Alcotest.failf "parse_header failed: %s" m);
  (match Ledger.parse_header (Json.Obj [ ("kind", Json.String "run") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-header accepted");
  check
    (Alcotest.option Alcotest.string)
    "kind of interrupted marker" (Some "interrupted")
    (Ledger.kind Ledger.interrupted_marker)

let test_digest_of_params () =
  let d1 = Ledger.digest_of_params [ ("a", "1"); ("b", "2") ] in
  let d2 = Ledger.digest_of_params [ ("a", "1"); ("b", "2") ] in
  let d3 = Ledger.digest_of_params [ ("a", "1"); ("b", "3") ] in
  check Alcotest.string "digest is deterministic" d1 d2;
  if d1 = d3 then Alcotest.fail "different params produced the same digest";
  check Alcotest.int "MD5 hex width" 32 (String.length d1)

(* --- CLI resume determinism ------------------------------------------------ *)

let binary =
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/perple.exe"; "_build/default/bin/perple.exe" ])

let have_binary = lazy (Lazy.force binary <> None)
let binary_path () = Option.get (Lazy.force binary)

(* stdout only — resume notes go to stderr and must not perturb the
   ledger. *)
let run_cli args =
  let out = in_scratch "stdout.txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null"
      (Filename.quote (binary_path ()))
      args (Filename.quote out)
  in
  let code = Sys.command cmd in
  (code, read_file out)

let journal_run_lines path =
  match Journal.load path with
  | Error m -> Alcotest.failf "journal load failed: %s" m
  | Ok r -> (
    match r.Journal.records with
    | header :: rest ->
      (header, List.filter (fun j -> Ledger.kind j = Some "run") rest)
    | [] -> Alcotest.fail "journal has no header")

(* The acceptance matrix: for each (command, runs, jobs) combination,
   interrupt the journal after k records and resume under a different
   job count; stdout and the metrics dump must be byte-identical to the
   uninterrupted campaign. *)
let resume_cases =
  [
    ("run sb -n 300 --seed 5 --runs 5", 5, 1, 3);
    ("run sb -n 300 --seed 5 --runs 5", 5, 3, 2);
    ( "supervise sb -n 1200 --seed 9 --runs 4 --fault crash@0.3 --fault \
       hang@0.1",
      4, 2, 3 );
  ]

let test_cli_resume_byte_identical () =
  if Lazy.force have_binary then
    with_scratch @@ fun () ->
    List.iteri
      (fun case (base, runs, jobs, resume_jobs) ->
        let clean_metrics = in_scratch (Printf.sprintf "clean%d.metrics" case) in
        let code, clean =
          run_cli
            (Printf.sprintf "%s --jobs %d --metrics %s" base jobs
               (Filename.quote clean_metrics))
        in
        check Alcotest.int (base ^ ": clean ok") 0 code;
        let clean_metrics_bytes = read_file clean_metrics in
        (* One full journaled run to harvest genuine journal records. *)
        let full = in_scratch (Printf.sprintf "full%d.log" case) in
        let code, journaled =
          run_cli
            (Printf.sprintf "%s --jobs %d --journal %s" base jobs
               (Filename.quote full))
        in
        check Alcotest.int (base ^ ": journaled ok") 0 code;
        check Alcotest.string (base ^ ": journaling changes nothing") clean
          journaled;
        let header, run_records = journal_run_lines full in
        check Alcotest.int
          (base ^ ": one record per run")
          runs
          (List.length run_records);
        List.iter
          (fun k ->
            (* Interrupt after k records, with a torn half-record tail —
               exactly what a SIGKILL mid-append leaves behind. *)
            let cut = in_scratch (Printf.sprintf "cut%d_%d.log" case k) in
            write_journal cut
              (header :: List.filteri (fun i _ -> i < k) run_records);
            write_raw cut (read_file cut ^ "0bad");
            let resumed_metrics =
              in_scratch (Printf.sprintf "resumed%d_%d.metrics" case k)
            in
            let code, resumed =
              run_cli
                (Printf.sprintf "%s --jobs %d --journal %s --resume \
                                 --metrics %s"
                   base resume_jobs (Filename.quote cut)
                   (Filename.quote resumed_metrics))
            in
            check Alcotest.int (Printf.sprintf "%s: resume k=%d ok" base k) 0
              code;
            check Alcotest.string
              (Printf.sprintf "%s: resume k=%d stdout identical" base k)
              clean resumed;
            check Alcotest.string
              (Printf.sprintf "%s: resume k=%d metrics identical" base k)
              clean_metrics_bytes
              (read_file resumed_metrics))
          [ 0; 1; runs - 1 ])
      resume_cases

let test_cli_resume_survives_corrupt_tail () =
  (* Bit-flip damage inside the journal body (not just the tail line):
     resume must never crash; it either salvages the clean prefix and
     recomputes the rest, or refuses with a clear error. *)
  if Lazy.force have_binary then
    with_scratch @@ fun () ->
    let base = "run sb -n 300 --seed 5 --runs 4" in
    let clean_code, clean = run_cli (base ^ " --jobs 2") in
    check Alcotest.int "clean ok" 0 clean_code;
    let full = in_scratch "corrupt.log" in
    let code, _ =
      run_cli
        (Printf.sprintf "%s --jobs 2 --journal %s" base (Filename.quote full))
    in
    check Alcotest.int "journaled ok" 0 code;
    let bytes = read_file full in
    let n = String.length bytes in
    (* Flip a byte at several depths of the tail half of the file. *)
    List.iter
      (fun frac ->
        let pos = n / 2 + (frac * (n / 2) / 10) in
        let pos = min pos (n - 1) in
        let b = Bytes.of_string bytes in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
        let damaged = in_scratch "damaged.log" in
        write_raw damaged (Bytes.to_string b);
        let code, resumed =
          run_cli
            (Printf.sprintf "%s --jobs 1 --journal %s --resume" base
               (Filename.quote damaged))
        in
        check Alcotest.int
          (Printf.sprintf "flip at %d: resume ok" pos)
          0 code;
        check Alcotest.string
          (Printf.sprintf "flip at %d: stdout identical" pos)
          clean resumed)
      [ 0; 3; 7; 9 ]

let test_cli_journal_guards () =
  if Lazy.force have_binary then
    with_scratch @@ fun () ->
    let j = in_scratch "guard.log" in
    (* --resume without --journal *)
    let code, _ = run_cli "run sb -n 100 --runs 2 --resume" in
    check Alcotest.bool "--resume without --journal fails" true (code <> 0);
    (* --journal on a single run *)
    let code, _ =
      run_cli (Printf.sprintf "run sb -n 100 --journal %s" (Filename.quote j))
    in
    check Alcotest.bool "--journal with --runs 1 fails" true (code <> 0);
    (* Fresh journal, then overwrite refusal. *)
    let code, _ =
      run_cli
        (Printf.sprintf "run sb -n 100 --runs 2 --seed 3 --journal %s"
           (Filename.quote j))
    in
    check Alcotest.int "fresh journal ok" 0 code;
    let code, _ =
      run_cli
        (Printf.sprintf "run sb -n 100 --runs 2 --seed 3 --journal %s"
           (Filename.quote j))
    in
    check Alcotest.bool "existing journal without --resume fails" true
      (code <> 0);
    (* Digest mismatch: same journal, different seed. *)
    let code, _ =
      run_cli
        (Printf.sprintf
           "run sb -n 100 --runs 2 --seed 4 --journal %s --resume"
           (Filename.quote j))
    in
    check Alcotest.bool "config drift is refused" true (code <> 0);
    (* Same configuration resumes cleanly (all runs already journaled). *)
    let code, _ =
      run_cli
        (Printf.sprintf
           "run sb -n 100 --runs 2 --seed 3 --journal %s --resume"
           (Filename.quote j))
    in
    check Alcotest.int "same config resumes" 0 code

(* --- Clean-journal resume ------------------------------------------------- *)

let inode path = (Unix.stat path).Unix.st_ino

let test_compact_keeps_clean_journal () =
  with_scratch @@ fun () ->
  let path = in_scratch "clean.log" in
  let header, rest = (List.hd sample_records, List.tl sample_records) in
  write_journal path (header :: List.rev rest);
  let loaded path =
    match Journal.load path with
    | Ok r -> r
    | Error m -> Alcotest.failf "load failed: %s" m
  in
  let bytes = read_file path and ino = inode path in
  Journal.compact ~loaded:(loaded path) ~path sample_records;
  check Alcotest.string "reordered journal kept" bytes (read_file path);
  check Alcotest.int "same file" ino (inode path);
  (* One record too many, or a different first line, is rewritten. *)
  write_journal path (sample_records @ [ List.hd rest ]);
  Journal.compact ~loaded:(loaded path) ~path sample_records;
  let compacted = read_file path in
  check Alcotest.string "duplicate dropped"
    (String.concat "" (List.map Journal.encode sample_records))
    compacted;
  write_journal path (List.hd rest :: header :: List.tl rest);
  Journal.compact ~loaded:(loaded path) ~path sample_records;
  check Alcotest.string "header moved back first" compacted (read_file path)

(* Resuming a journal that already is its own compaction writes nothing,
   in whatever order its runs retired; a journal with a marker, a torn
   tail or a duplicated run is still compacted, to header + runs by
   index. *)
let test_cli_clean_resume_keeps_journal () =
  if Lazy.force have_binary then
    with_scratch @@ fun () ->
    let base = "run sb -n 300 --seed 5 --runs 4" in
    let code, clean = run_cli base in
    check Alcotest.int "clean ok" 0 code;
    let ordered = in_scratch "ordered.log" in
    let code, _ =
      run_cli (Printf.sprintf "%s --journal %s" base (Filename.quote ordered))
    in
    check Alcotest.int "journaled ok" 0 code;
    let compacted = read_file ordered in
    let resume label path =
      let code, out =
        run_cli
          (Printf.sprintf "%s --jobs 2 --journal %s --resume" base
             (Filename.quote path))
      in
      check Alcotest.int (label ^ ": resume ok") 0 code;
      check Alcotest.string (label ^ ": stdout identical") clean out
    in
    let header, runs = journal_run_lines ordered in
    (* Runs in retirement order 1,0,2,3, as --jobs 2 often leaves them. *)
    let shuffled = in_scratch "shuffled.log" in
    write_journal shuffled
      (header :: List.nth runs 1 :: List.nth runs 0 :: List.tl (List.tl runs));
    let bytes = read_file shuffled and ino = inode shuffled in
    resume "runs 1,0,2,3" shuffled;
    check Alcotest.string "clean journal bytes kept" bytes (read_file shuffled);
    check Alcotest.int "clean journal not replaced" ino (inode shuffled);
    List.iter
      (fun (label, extra) ->
        let path = in_scratch "unclean.log" in
        write_raw path (compacted ^ extra);
        let ino = inode path in
        resume label path;
        check Alcotest.string (label ^ ": compacted") compacted
          (read_file path);
        check Alcotest.bool (label ^ ": rewritten") true (ino <> inode path))
      [
        ("interrupted marker", Journal.encode Ledger.interrupted_marker);
        ("torn tail", "0bad");
        ("duplicated run", Journal.encode (List.nth runs 2));
      ]

(* A daemon restarted over an old serve journal compacts away its
   shutdown marker; restarted again, it finds the journal clean and
   leaves the file alone. *)
let test_scheduler_restart_keeps_clean_journal () =
  with_scratch @@ fun () ->
  let fixture = read_file "fixtures/serve.journal" in
  let path = in_scratch "serve.journal" in
  write_raw path fixture;
  let restart () =
    match Perple_service.Scheduler.create ~journal:(Some path) () with
    | Error m -> Alcotest.failf "restart refused: %s" m
    | Ok sched -> Perple_service.Scheduler.close sched
  in
  let ino = inode path in
  restart ();
  let compacted = read_file path in
  check Alcotest.bool "first restart compacts" true
    (compacted <> fixture && inode path <> ino);
  let ino = inode path in
  restart ();
  check Alcotest.string "second restart keeps bytes" compacted
    (read_file path);
  check Alcotest.int "second restart keeps the file" ino (inode path)

let suite =
  [
    ( "util.journal",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "crc32 bit sensitivity" `Quick
          test_crc32_bit_sensitivity;
        Alcotest.test_case "append/load round-trip" `Quick
          test_append_load_roundtrip;
        Alcotest.test_case "missing file" `Quick test_load_missing_file;
        Alcotest.test_case "empty file" `Quick test_load_empty_file;
        Alcotest.test_case "truncate at every offset" `Quick
          test_truncate_every_offset;
        Alcotest.test_case "bit-flipped tail" `Quick test_bit_flip_tail;
        QCheck_alcotest.to_alcotest journal_roundtrip_property;
        Alcotest.test_case "compact" `Quick test_compact;
        Alcotest.test_case "compact keeps a clean journal" `Quick
          test_compact_keeps_clean_journal;
        Alcotest.test_case "try_append" `Quick test_try_append;
        Alcotest.test_case "atomic write" `Quick test_atomic_write;
      ] );
    ( "util.metrics.capture",
      [
        Alcotest.test_case "merge_json round-trip" `Quick
          test_metrics_merge_json_roundtrip;
        Alcotest.test_case "merge_json strictness" `Quick
          test_metrics_merge_json_strict;
        Alcotest.test_case "scoped capture" `Quick test_metrics_scoped_capture;
      ] );
    ( "core.ledger",
      [
        Alcotest.test_case "summary round-trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "crashed summary round-trip" `Quick
          test_ledger_crashed_roundtrip;
        Alcotest.test_case "rejects damaged records" `Quick
          test_ledger_rejects_damage;
        Alcotest.test_case "header round-trip" `Quick test_ledger_header;
        Alcotest.test_case "param digest" `Quick test_digest_of_params;
      ] );
    ( "cli.resume",
      [
        Alcotest.test_case "resume is byte-identical" `Slow
          test_cli_resume_byte_identical;
        Alcotest.test_case "resume survives corrupt tail" `Slow
          test_cli_resume_survives_corrupt_tail;
        Alcotest.test_case "journal guards" `Quick test_cli_journal_guards;
        Alcotest.test_case "clean resume keeps the journal" `Quick
          test_cli_clean_resume_keeps_journal;
        Alcotest.test_case "daemon restart keeps a clean journal" `Quick
          test_scheduler_restart_keeps_clean_journal;
      ] );
  ]
