(* Tests for Perple_litmus: Ast accessors and validation, Outcome
   enumeration, Parser/Printer (including a roundtrip property over random
   tests), and the Catalog's Table II invariants. *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Parser = Perple_litmus.Parser
module Printer = Perple_litmus.Printer
module Catalog = Perple_litmus.Catalog

let check = Alcotest.check
let sb = Catalog.sb
let mp = Catalog.mp

let exists atoms = { Ast.quantifier = Ast.Exists; atoms }

(* --- Ast accessors ------------------------------------------------------- *)

let test_thread_count () =
  check Alcotest.int "sb" 2 (Ast.thread_count sb);
  check Alcotest.int "podwr001" 3 (Ast.thread_count Catalog.podwr001)

let test_load_threads () =
  check (Alcotest.list Alcotest.int) "sb" [ 0; 1 ] (Ast.load_threads sb);
  check (Alcotest.list Alcotest.int) "mp" [ 1 ] (Ast.load_threads mp);
  check Alcotest.int "mp T_L" 1 (Ast.load_thread_count mp)

let test_loads_per_thread () =
  check (Alcotest.array Alcotest.int) "sb" [| 1; 1 |] (Ast.loads_per_thread sb);
  check (Alcotest.array Alcotest.int) "mp" [| 0; 2 |]
    (Ast.loads_per_thread mp)

let test_locations () =
  check
    (Alcotest.list Alcotest.string)
    "sb" [ "x"; "y" ] (Ast.locations sb)

let test_stores_to () =
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "sb stores to x"
    [ (0, 0, 1) ]
    (Ast.stores_to sb "x");
  let rfi013 = Catalog.find_exn "rfi013" in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "rfi013 stores to x"
    [ (0, 0, 1); (1, 2, 2) ]
    (Ast.stores_to rfi013 "x");
  check
    (Alcotest.list Alcotest.int)
    "rfi013 k_x constants" [ 1; 2 ]
    (Ast.store_constants rfi013 "x")

let test_load_slot () =
  let iwp23b = Catalog.find_exn "iwp23b" in
  check Alcotest.int "first load" 0 (Ast.load_slot iwp23b ~thread:0 ~instr:1);
  check Alcotest.int "second load" 1 (Ast.load_slot iwp23b ~thread:0 ~instr:2);
  Alcotest.check_raises "not a load" (Invalid_argument "Ast.load_slot: not a load")
    (fun () -> ignore (Ast.load_slot iwp23b ~thread:0 ~instr:0))

let test_register_load () =
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "sb thread 0 r0"
    (Some (1, "y"))
    (Ast.register_load sb ~thread:0 ~reg:0);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "missing" None
    (Ast.register_load sb ~thread:0 ~reg:5)

let test_initial_value () =
  check Alcotest.int "default" 0 (Ast.initial_value sb "x");
  let t =
    Ast.make ~name:"init" ~init:[ ("x", 7) ]
      ~threads:[ [ Ast.Load (0, "x") ] ]
      ~condition:(exists []) ()
  in
  check Alcotest.int "explicit" 7 (Ast.initial_value t "x")

let test_pp_helpers () =
  check Alcotest.string "pp store" "[x] <- 1"
    (Format.asprintf "%a" Ast.pp_instruction (Ast.Store ("x", 1)));
  check Alcotest.string "pp load" "r0 <- [y]"
    (Format.asprintf "%a" Ast.pp_instruction (Ast.Load (0, "y")));
  check Alcotest.string "pp fence" "mfence"
    (Format.asprintf "%a" Ast.pp_instruction Ast.Mfence);
  check Alcotest.string "pp reg atom" "1:r0=2"
    (Format.asprintf "%a" Ast.pp_atom (Ast.Reg_eq (1, 0, 2)));
  check Alcotest.string "pp loc atom" "[x]=1"
    (Format.asprintf "%a" Ast.pp_atom (Ast.Loc_eq ("x", 1)))

(* --- Validation ---------------------------------------------------------- *)

let validate_err test =
  match Ast.validate test with
  | Ok () -> Alcotest.fail "expected validation error"
  | Error e -> e

let test_validate_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      match Ast.validate e.Catalog.test with
      | Ok () -> ()
      | Error err ->
        Alcotest.failf "catalog test %s invalid: %s" e.Catalog.test.Ast.name
          (Format.asprintf "%a" Ast.pp_error err))
    Catalog.suite

let test_validate_empty () =
  let t = Ast.make ~name:"empty" ~threads:[] ~condition:(exists []) () in
  check Alcotest.bool "empty" true (validate_err t = Ast.Empty_test)

let test_validate_non_positive () =
  let t =
    Ast.make ~name:"bad" ~threads:[ [ Ast.Store ("x", 0) ] ]
      ~condition:(exists []) ()
  in
  check Alcotest.bool "non-positive" true
    (validate_err t = Ast.Non_positive_store (0, "x", 0))

let test_validate_duplicate_constant () =
  let t =
    Ast.make ~name:"dup"
      ~threads:[ [ Ast.Store ("x", 1) ]; [ Ast.Store ("x", 1) ] ]
      ~condition:(exists []) ()
  in
  check Alcotest.bool "duplicate" true
    (validate_err t = Ast.Duplicate_constant ("x", 1))

let test_validate_register_twice () =
  let t =
    Ast.make ~name:"twice"
      ~threads:[ [ Ast.Load (0, "x"); Ast.Load (0, "y") ] ]
      ~condition:(exists []) ()
  in
  check Alcotest.bool "register twice" true
    (validate_err t = Ast.Register_loaded_twice (0, 0))

let test_validate_condition_register () =
  let t =
    Ast.make ~name:"noreg"
      ~threads:[ [ Ast.Load (0, "x") ] ]
      ~condition:(exists [ Ast.Reg_eq (0, 3, 0) ])
      ()
  in
  check Alcotest.bool "unknown register" true
    (validate_err t = Ast.Condition_unknown_register (0, 3))

let test_validate_condition_location () =
  let t =
    Ast.make ~name:"noloc"
      ~threads:[ [ Ast.Load (0, "x") ] ]
      ~condition:(exists [ Ast.Loc_eq ("w", 0) ])
      ()
  in
  check Alcotest.bool "unknown location" true
    (validate_err t = Ast.Condition_unknown_location "w")

let test_validate_impossible_value () =
  let t =
    Ast.make ~name:"noval"
      ~threads:[ [ Ast.Store ("x", 1) ]; [ Ast.Load (0, "x") ] ]
      ~condition:(exists [ Ast.Reg_eq (1, 0, 9) ])
      ()
  in
  check Alcotest.bool "impossible value" true
    (validate_err t = Ast.Condition_impossible_value (1, 0, 9))

(* --- Outcome ------------------------------------------------------------- *)

let test_outcome_counts () =
  let count name = List.length (Outcome.all (Catalog.find_exn name)) in
  check Alcotest.int "sb" 4 (count "sb");
  check Alcotest.int "podwr001" 8 (count "podwr001");
  check Alcotest.int "mp" 4 (count "mp");
  (* rfi013: 2 loads; y has 1 constant (2 values), x has 2 (3 values). *)
  check Alcotest.int "rfi013" 6 (count "rfi013");
  check Alcotest.int "iriw" 16 (count "iriw")

let test_outcome_loads_order () =
  let loads = Outcome.loads (Catalog.find_exn "iwp23b") in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
    "iwp23b loads"
    [ (0, 0, "x"); (0, 1, "y"); (1, 0, "y"); (1, 1, "x") ]
    loads

let test_outcome_of_condition () =
  let target = Result.get_ok (Outcome.of_condition sb) in
  check Alcotest.string "sb target" "0:r0=0 && 1:r0=0"
    (Outcome.to_string target);
  let nc = List.hd Catalog.non_convertible in
  check Alcotest.bool "loc condition rejected" true
    (Result.is_error (Outcome.of_condition nc))

let test_outcome_matches () =
  let all = Outcome.all sb in
  let target = Result.get_ok (Outcome.of_condition sb) in
  let matching = List.filter (Outcome.matches ~partial:target) all in
  check Alcotest.int "one full outcome matches sb target" 1
    (List.length matching);
  (* A partial outcome on one register matches half of sb's outcomes. *)
  let partial = [ { Outcome.thread = 0; reg = 0; value = 0 } ] in
  check Alcotest.int "partial matches" 2
    (List.length (List.filter (Outcome.matches ~partial) all))

let test_outcome_labels () =
  let labels = List.map Outcome.short_label (Outcome.all sb) in
  check
    (Alcotest.list Alcotest.string)
    "sb labels" [ "00"; "01"; "10"; "11" ] labels

(* --- Parser / Printer ---------------------------------------------------- *)

let sb_text =
  {|X86 SB
"Store Buffering"
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
|}

let test_parse_sb () =
  let t = Result.get_ok (Parser.parse sb_text) in
  check Alcotest.string "name" "SB" t.Ast.name;
  check Alcotest.string "doc" "Store Buffering" t.Ast.doc;
  check Alcotest.int "threads" 2 (Ast.thread_count t);
  check Alcotest.bool "program" true
    (t.Ast.threads = sb.Ast.threads);
  check Alcotest.bool "condition" true
    (t.Ast.condition = sb.Ast.condition)

let test_parse_mfence_and_forall () =
  let text =
    "X86 fenced\n{ x=0; }\n P0         ;\n MOV [x],$1 ;\n MFENCE     ;\n\
     forall (x=1)\n"
  in
  let t = Result.get_ok (Parser.parse text) in
  check Alcotest.bool "fence" true (t.Ast.threads.(0).(1) = Ast.Mfence);
  check Alcotest.bool "forall" true
    (t.Ast.condition.Ast.quantifier = Ast.Forall);
  check Alcotest.bool "loc atom" true
    (t.Ast.condition.Ast.atoms = [ Ast.Loc_eq ("x", 1) ])

let test_parse_not_exists () =
  let text = "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[x] ;\n~exists (0:EAX=1)\n" in
  let t = Result.get_ok (Parser.parse text) in
  check Alcotest.bool "~exists" true
    (t.Ast.condition.Ast.quantifier = Ast.Not_exists)

let test_parse_empty_cells () =
  let text =
    "X86 uneven\n{ x=0; }\n P0          | P1          ;\n MOV [x],$1  | \
     MOV EAX,[x] ;\n             | MOV EBX,[x] ;\nexists (1:EAX=1)\n"
  in
  let t = Result.get_ok (Parser.parse text) in
  check Alcotest.int "thread 0 short" 1 (Array.length t.Ast.threads.(0));
  check Alcotest.int "thread 1 long" 2 (Array.length t.Ast.threads.(1))

let parse_error text =
  match Parser.parse text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e.Parser.message

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_parse_errors () =
  check Alcotest.bool "bad header" true
    (contains ~sub:"header" (parse_error "ARM t\n{x=0;}\n P0 ;\nexists (x=0)"));
  check Alcotest.bool "empty" true
    (contains ~sub:"empty" (parse_error ""));
  check Alcotest.bool "bad instruction" true
    (contains ~sub:"unsupported instruction"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n ADD EAX,EBX ;\nexists (x=0)\n"));
  check Alcotest.bool "store from register" true
    (contains ~sub:"store-from-register"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MOV [x],EAX ;\nexists (x=0)\n"));
  check Alcotest.bool "unknown register" true
    (contains ~sub:"unknown register"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MOV EZZ,[x] ;\nexists (x=0)\n"));
  check Alcotest.bool "register init" true
    (contains ~sub:"register initialisation"
       (parse_error "X86 t\n{ 0:EAX=1; }\n P0 ;\n MFENCE ;\nexists (x=0)\n"));
  check Alcotest.bool "missing condition" true
    (contains ~sub:"condition"
       (parse_error "X86 t\n{ x=0; }\n P0     ;\n MFENCE ;\n"))

(* Satellite: init-section bugs — duplicate bindings and malformed
   brackets used to be accepted silently (last-wins / empty-named
   location); both are now hard parse errors with the line number. *)
let test_parse_init_errors () =
  let duplicate =
    "X86 t\n{ x=0; x=1; }\n P0          ;\n MOV [x],$2  ;\nexists (x=2)\n"
  in
  check Alcotest.bool "duplicate init rejected" true
    (contains ~sub:"duplicate init binding for [x]" (parse_error duplicate));
  (match Parser.parse duplicate with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> check Alcotest.int "duplicate init line" 2 e.Parser.line);
  (* The bracket-tolerant spelling still parses... *)
  let t =
    Result.get_ok
      (Parser.parse
         "X86 t\n{ [x]=3; }\n P0          ;\n MOV EAX,[x] ;\nexists \
          (0:EAX=3)\n")
  in
  check Alcotest.int "bracketed init value" 3 (List.assoc "x" t.Ast.init);
  (* ...but an unterminated or empty bracket is an error, not an
     empty-named location. *)
  check Alcotest.bool "unterminated init bracket" true
    (contains ~sub:"unterminated bracket"
       (parse_error
          "X86 t\n{ [x=0; }\n P0          ;\n MOV [x],$1  ;\nexists (x=1)\n"));
  check Alcotest.bool "empty init bracket" true
    (contains ~sub:"empty location name"
       (parse_error
          "X86 t\n{ []=0; }\n P0          ;\n MOV [x],$1  ;\nexists (x=1)\n"));
  (* Same strictness in condition atoms. *)
  check Alcotest.bool "unterminated condition bracket" true
    (contains ~sub:"unterminated bracket"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MOV [x],$1  ;\nexists ([x=1)\n"));
  check Alcotest.bool "empty condition bracket" true
    (contains ~sub:"empty location name"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MOV [x],$1  ;\nexists ([]=1)\n"))

let test_parse_persistency () =
  let text =
    "X86 pm\n\
     { x=0; y=0; }\n\
     P0          ;\n\
     MOV [x],$1  ;\n\
     CLFLUSH [x] ;\n\
     SFENCE      ;\n\
     MOV [y],$1  ;\n\
     exists (x=1)\n\
     after recovery, y=1 => x=1\n"
  in
  let t = Result.get_ok (Parser.parse text) in
  check Alcotest.bool "flush" true (t.Ast.threads.(0).(1) = Ast.Flush "x");
  check Alcotest.bool "drain" true (t.Ast.threads.(0).(2) = Ast.Drain);
  (match t.Ast.post_crash with
  | Some pc ->
    check Alcotest.bool "assumes" true (pc.Ast.assumes = [ ("y", 1) ]);
    check Alcotest.bool "requires" true (pc.Ast.requires = [ ("x", 1) ])
  | None -> Alcotest.fail "post-crash clause missing");
  check Alcotest.bool "uses persistency" true (Ast.uses_persistency t);
  (* One-sided form: no antecedent. *)
  let t2 =
    Result.get_ok
      (Parser.parse
         "X86 pm2\n{ x=0; }\n P0          ;\n CLFLUSH [x] ;\nexists \
          (x=0)\nafter recovery x=0\n")
  in
  (match t2.Ast.post_crash with
  | Some pc ->
    check Alcotest.bool "empty assumes" true (pc.Ast.assumes = []);
    check Alcotest.bool "one-sided requires" true (pc.Ast.requires = [ ("x", 0) ])
  | None -> Alcotest.fail "one-sided clause missing")

(* Satellite: parser errors carry the line and, for instruction errors,
   the 1-based column of the offending token. *)
let test_parse_error_positions () =
  let error text =
    match Parser.parse text with
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error e -> e
  in
  let e =
    error "X86 t\n{ x=0; }\n P0          ;\n ADD EAX,EBX ;\nexists (x=0)\n"
  in
  check Alcotest.int "mnemonic error line" 4 e.Parser.line;
  check (Alcotest.option Alcotest.int) "mnemonic error column" (Some 2)
    e.Parser.column;
  check Alcotest.bool "offending token named" true
    (contains ~sub:"\"ADD\"" e.Parser.message);
  check Alcotest.bool "expected set listed" true
    (contains ~sub:"MOV" e.Parser.message);
  (* Second thread's cell: the column points into that cell, not at 1. *)
  let e2 =
    error
      "X86 t\n\
       { x=0; }\n\
       P0          | P1          ;\n\
       MOV [x],$1  | BAD EAX,[x] ;\n\
       exists (x=0)\n"
  in
  check Alcotest.int "second-cell line" 4 e2.Parser.line;
  check (Alcotest.option Alcotest.int) "second-cell column" (Some 15)
    e2.Parser.column;
  (* pp_error renders the position. *)
  check Alcotest.bool "pp_error shows position" true
    (contains ~sub:"line 4, column 15"
       (Format.asprintf "%a" Parser.pp_error e2));
  (* Errors with no meaningful column keep column = None. *)
  let e3 = error "" in
  check (Alcotest.option Alcotest.int) "no column on empty input" None
    e3.Parser.column

let test_parse_pm_errors () =
  check Alcotest.bool "register atom in post-crash" true
    (contains ~sub:"locations"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[x] ;\nexists \
           (0:EAX=0)\nafter recovery 0:EAX=1\n"));
  check Alcotest.bool "empty consequent" true
    (contains ~sub:"consequent"
       (parse_error
          "X86 t\n{ x=0; }\n P0          ;\n MFENCE ;\nexists (x=0)\nafter \
           recovery x=1 =>\n"));
  check Alcotest.bool "duplicate clause" true
    (contains ~sub:"duplicate"
       (parse_error
          "X86 t\n{ x=0; }\n P0     ;\n MFENCE ;\nexists (x=0)\nafter \
           recovery x=0\nafter recovery x=0\n"));
  check Alcotest.bool "flush needs memory operand" true
    (Result.is_error
       (Parser.parse
          "X86 t\n{ x=0; }\n P0          ;\n CLFLUSH EAX ;\nexists (x=0)\n"))

let test_register_names () =
  check (Alcotest.option Alcotest.int) "EAX" (Some 0)
    (Parser.register_index "EAX");
  check (Alcotest.option Alcotest.int) "rbx" (Some 1)
    (Parser.register_index "rbx");
  check (Alcotest.option Alcotest.int) "bad" None
    (Parser.register_index "XYZ");
  check Alcotest.string "name 2" "ECX" (Parser.register_name 2);
  check Alcotest.string "fallback" "R9" (Parser.register_name 9)

let test_roundtrip_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      let t = e.Catalog.test in
      match Parser.parse (Printer.to_string t) with
      | Error err ->
        Alcotest.failf "roundtrip parse failed for %s: %s" t.Ast.name
          err.Parser.message
      | Ok t' ->
        if not (Ast.equal t t') then
          Alcotest.failf "roundtrip mismatch for %s" t.Ast.name)
    (Catalog.suite
    @ List.map
        (fun t -> { Catalog.test = t; classification = Catalog.Forbidden })
        Catalog.non_convertible
    @ List.map
        (fun (e : Catalog.pm_entry) ->
          { Catalog.test = e.Catalog.pm_test;
            classification = Catalog.Allowed })
        Catalog.pm_suite)

let roundtrip_property =
  QCheck.Test.make ~name:"parser/printer roundtrip on random tests"
    ~count:200
    (Gen.arbitrary_test ())
    (fun t ->
      match Parser.parse (Printer.to_string t) with
      | Error _ -> false
      | Ok t' -> Ast.equal t t')

(* Satellite: the same roundtrip over the full extended AST — flushes,
   drains and post-crash conditions included. *)
let roundtrip_property_pm =
  QCheck.Test.make
    ~name:"parser/printer roundtrip on random persistency tests" ~count:200
    (Gen.arbitrary_test ~persistency:true ())
    (fun t ->
      match Parser.parse (Printer.to_string t) with
      | Error _ -> false
      | Ok t' -> Ast.equal t t')

(* The parser must return Ok/Error on any input — never raise. *)
let parser_total_on_noise =
  QCheck.Test.make ~name:"parser never raises on arbitrary input" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 200) Gen.printable)
    (fun s ->
      match Parser.parse s with Ok _ | Error _ -> true)

let parser_total_on_mutations =
  QCheck.Test.make ~name:"parser never raises on mutated tests" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 255))
    (fun (pos_seed, replacement) ->
      let base = Printer.to_string Catalog.sb in
      let bytes = Bytes.of_string base in
      let pos = pos_seed mod Bytes.length bytes in
      Bytes.set bytes pos (Char.chr replacement);
      match Parser.parse (Bytes.to_string bytes) with
      | Ok _ | Error _ -> true)

let generated_tests_valid =
  QCheck.Test.make ~name:"generated tests are valid" ~count:200
    (Gen.arbitrary_test ())
    (fun t -> Result.is_ok (Ast.validate t))

(* --- Catalog ------------------------------------------------------------- *)

(* [T, T_L] signatures straight from the paper's Table II. *)
let table_ii_signatures =
  [
    ("amd3", 2, 2); ("iwp23b", 2, 2); ("iwp24", 2, 2); ("n1", 3, 2);
    ("podwr000", 2, 2); ("podwr001", 3, 3); ("rfi009", 2, 2);
    ("rfi013", 2, 2); ("rfi015", 3, 2); ("rfi017", 2, 2);
    ("rwc-unfenced", 3, 2); ("sb", 2, 2); ("amd10", 2, 2); ("amd5", 2, 2);
    ("amd5+staleld", 2, 2); ("co-iriw", 4, 2); ("iriw", 4, 2); ("lb", 2, 2);
    ("mp", 2, 1); ("mp+staleld", 2, 1); ("mp+fences", 2, 1); ("n4", 2, 2);
    ("n5", 2, 2); ("rwc-fenced", 3, 2); ("safe006", 2, 2); ("safe007", 3, 3);
    ("safe012", 3, 2); ("safe018", 3, 2); ("safe022", 2, 1);
    ("safe024", 3, 2); ("safe027", 4, 2); ("safe028", 3, 2);
    ("safe036", 2, 2); ("wrc", 3, 2);
  ]

let test_catalog_size () =
  check Alcotest.int "34 tests" 34 (List.length Catalog.suite);
  check Alcotest.int "12 allowed" 12 (List.length Catalog.allowed);
  check Alcotest.int "22 forbidden" 22 (List.length Catalog.forbidden)

let test_catalog_signatures () =
  List.iter
    (fun (name, t, tl) ->
      let test = Catalog.find_exn name in
      check Alcotest.int (name ^ " T") t (Ast.thread_count test);
      check Alcotest.int (name ^ " TL") tl (Ast.load_thread_count test))
    table_ii_signatures;
  check Alcotest.int "all signatures covered" (List.length Catalog.suite)
    (List.length table_ii_signatures)

let test_catalog_find () =
  check Alcotest.bool "sb found" true (Catalog.find "sb" <> None);
  check Alcotest.bool "missing" true (Catalog.find "nope" = None);
  Alcotest.check_raises "find_exn" Not_found (fun () ->
      ignore (Catalog.find_exn "nope"))

let test_catalog_unique_names () =
  let names = List.map (fun (e : Catalog.entry) -> e.Catalog.test.Ast.name) Catalog.suite in
  check Alcotest.int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_extended_88 () =
  let extended_88 = Catalog.extended_88 () in
  check Alcotest.int "88 tests" 88 (List.length extended_88);
  check Alcotest.int "34 convertible" 34
    (List.length (List.filter snd extended_88));
  (* Convertibility flags are truthful. *)
  List.iter
    (fun (t, convertible) ->
      check Alcotest.bool
        (t.Ast.name ^ " flag")
        convertible
        (Result.is_ok (Perple_core.Convert.convert t)))
    extended_88

let test_non_convertible_companions () =
  check Alcotest.int "5 companions" 5 (List.length Catalog.non_convertible);
  List.iter
    (fun t ->
      check Alcotest.bool
        (t.Ast.name ^ " rejected")
        true
        (Result.is_error (Perple_core.Convert.convert t)))
    Catalog.non_convertible

let suite =
  [
    ( "litmus.ast",
      [
        Alcotest.test_case "thread_count" `Quick test_thread_count;
        Alcotest.test_case "load_threads" `Quick test_load_threads;
        Alcotest.test_case "loads_per_thread" `Quick test_loads_per_thread;
        Alcotest.test_case "locations" `Quick test_locations;
        Alcotest.test_case "stores_to" `Quick test_stores_to;
        Alcotest.test_case "load_slot" `Quick test_load_slot;
        Alcotest.test_case "register_load" `Quick test_register_load;
        Alcotest.test_case "initial_value" `Quick test_initial_value;
        Alcotest.test_case "pp helpers" `Quick test_pp_helpers;
      ] );
    ( "litmus.validate",
      [
        Alcotest.test_case "catalog valid" `Quick test_validate_catalog;
        Alcotest.test_case "empty" `Quick test_validate_empty;
        Alcotest.test_case "non-positive store" `Quick
          test_validate_non_positive;
        Alcotest.test_case "duplicate constant" `Quick
          test_validate_duplicate_constant;
        Alcotest.test_case "register twice" `Quick
          test_validate_register_twice;
        Alcotest.test_case "condition register" `Quick
          test_validate_condition_register;
        Alcotest.test_case "condition location" `Quick
          test_validate_condition_location;
        Alcotest.test_case "impossible value" `Quick
          test_validate_impossible_value;
      ] );
    ( "litmus.outcome",
      [
        Alcotest.test_case "counts" `Quick test_outcome_counts;
        Alcotest.test_case "loads order" `Quick test_outcome_loads_order;
        Alcotest.test_case "of_condition" `Quick test_outcome_of_condition;
        Alcotest.test_case "matches" `Quick test_outcome_matches;
        Alcotest.test_case "labels" `Quick test_outcome_labels;
      ] );
    ( "litmus.parser",
      [
        Alcotest.test_case "parse sb" `Quick test_parse_sb;
        Alcotest.test_case "mfence/forall" `Quick test_parse_mfence_and_forall;
        Alcotest.test_case "~exists" `Quick test_parse_not_exists;
        Alcotest.test_case "empty cells" `Quick test_parse_empty_cells;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "init errors" `Quick test_parse_init_errors;
        Alcotest.test_case "persistency syntax" `Quick test_parse_persistency;
        Alcotest.test_case "error positions" `Quick
          test_parse_error_positions;
        Alcotest.test_case "persistency errors" `Quick test_parse_pm_errors;
        Alcotest.test_case "register names" `Quick test_register_names;
        Alcotest.test_case "catalog roundtrip" `Quick test_roundtrip_catalog;
        QCheck_alcotest.to_alcotest roundtrip_property;
        QCheck_alcotest.to_alcotest roundtrip_property_pm;
        QCheck_alcotest.to_alcotest generated_tests_valid;
        QCheck_alcotest.to_alcotest parser_total_on_noise;
        QCheck_alcotest.to_alcotest parser_total_on_mutations;
      ] );
    ( "litmus.catalog",
      [
        Alcotest.test_case "size" `Quick test_catalog_size;
        Alcotest.test_case "Table II signatures" `Quick
          test_catalog_signatures;
        Alcotest.test_case "find" `Quick test_catalog_find;
        Alcotest.test_case "unique names" `Quick test_catalog_unique_names;
        Alcotest.test_case "extended 88" `Quick test_extended_88;
        Alcotest.test_case "non-convertible" `Quick
          test_non_convertible_companions;
      ] );
  ]

(* --- On-disk corpus ------------------------------------------------------- *)

(* The litmus/ directory carries the catalog exported as .litmus files
   (perple export); each must parse back to its catalog definition. *)
let corpus_dir () =
  let candidates = [ "../../../litmus"; "../litmus"; "litmus" ] in
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    candidates

let test_corpus_files () =
  match corpus_dir () with
  | None -> () (* corpus not materialised in this checkout *)
  | Some dir ->
    let files =
      List.filter
        (fun f -> Filename.check_suffix f ".litmus")
        (Array.to_list (Sys.readdir dir))
    in
    check Alcotest.bool "corpus present" true (List.length files >= 39);
    List.iter
      (fun f ->
        match Parser.parse_file (Filename.concat dir f) with
        | Error e ->
          Alcotest.failf "%s: parse error: %s" f e.Parser.message
        | Ok t -> (
          let name = Filename.chop_suffix f ".litmus" in
          check Alcotest.string (f ^ " name") name t.Ast.name;
          match Catalog.find name with
          | Some entry ->
            if not (Ast.equal entry.Catalog.test t) then
              Alcotest.failf "%s: differs from catalog" f
          | None ->
            (* non-convertible companions are not in find's entry table
               under their own classification; compare by printing *)
            ()))
      files

let suite =
  suite
  @ [
      ( "litmus.corpus",
        [ Alcotest.test_case "parse on-disk suite" `Quick test_corpus_files ]
      );
    ]
