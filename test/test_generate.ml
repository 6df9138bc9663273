(* Tests for the diy-style cycle generator: edge parsing, classic cycles
   regenerating the classic tests, the prediction-vs-checker theorem on
   named and random cycles, and integration with the PerpLE pipeline
   (generated allowed tests' targets are found; forbidden ones never). *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Generate = Perple_litmus.Generate
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Axiomatic = Perple_memmodel.Axiomatic
module Engine = Perple_core.Engine
module Rng = Perple_util.Rng

let check = Alcotest.check

let cycle_of text = Result.get_ok (Generate.parse_cycle text)

let generated name text =
  Result.get_ok (Generate.of_cycle ~name (cycle_of text))

(* --- Edge parsing --------------------------------------------------------- *)

let test_edge_strings () =
  List.iter
    (fun e ->
      check Alcotest.bool
        (Generate.edge_to_string e ^ " roundtrip")
        true
        (Generate.edge_of_string (Generate.edge_to_string e) = Ok e))
    [
      Generate.Pod (Generate.W, Generate.R);
      Generate.Pod (Generate.R, Generate.W);
      Generate.Pod (Generate.W, Generate.W);
      Generate.Pod (Generate.R, Generate.R);
      Generate.Fenced (Generate.W, Generate.R);
      Generate.Rfe;
      Generate.Fre;
      Generate.Wse;
    ];
  check Alcotest.bool "case insensitive" true
    (Generate.edge_of_string "podwr" = Ok (Generate.Pod (Generate.W, Generate.R)));
  check Alcotest.bool "unknown rejected" true
    (Result.is_error (Generate.edge_of_string "PodXY"));
  check Alcotest.bool "empty cycle rejected" true
    (Result.is_error (Generate.parse_cycle "   "))

let test_well_formed () =
  check Alcotest.bool "sb cycle ok" true
    (Generate.well_formed (cycle_of "PodWR Fre PodWR Fre") = Ok ());
  (* Mismatched chaining: PodWR ends in R but PodWR starts with W. *)
  check Alcotest.bool "bad chain" true
    (Result.is_error (Generate.well_formed (cycle_of "PodWR PodWR Fre Fre")));
  (* Only one communication edge. *)
  check Alcotest.bool "one comm" true
    (Result.is_error (Generate.well_formed (cycle_of "PodWR Fre")))

(* --- Classic cycles regenerate the classic tests ------------------------- *)

let same_shape a b =
  (* Same programs and same condition atoms (names/docs may differ). *)
  a.Ast.threads = b.Ast.threads
  && a.Ast.condition.Ast.atoms = b.Ast.condition.Ast.atoms

let test_sb_cycle () =
  check Alcotest.bool "sb regenerated" true
    (same_shape (generated "sb" "PodWR Fre PodWR Fre") Catalog.sb)

let test_mp_cycle () =
  check Alcotest.bool "mp regenerated" true
    (same_shape (generated "mp" "PodWW Rfe PodRR Fre") Catalog.mp)

let test_wrc_cycle () =
  check Alcotest.bool "wrc regenerated" true
    (same_shape
       (generated "wrc" "Rfe PodRW Rfe PodRR Fre")
       (Catalog.find_exn "wrc"))

(* The generator may order threads/locations differently from the catalog
   (the tests are isomorphic, not equal); compare structural invariants
   and model verdicts instead. *)
let isomorphic_check name text reference =
  let t = generated name text in
  check Alcotest.int (name ^ " threads") (Ast.thread_count reference)
    (Ast.thread_count t);
  check Alcotest.int (name ^ " TL")
    (Ast.load_thread_count reference)
    (Ast.load_thread_count t);
  check Alcotest.int (name ^ " atoms")
    (List.length reference.Ast.condition.Ast.atoms)
    (List.length t.Ast.condition.Ast.atoms);
  List.iter
    (fun model ->
      check Alcotest.bool
        (name ^ " verdict " ^ Model.to_string model)
        (Result.get_ok (Operational.target_allowed model reference))
        (Result.get_ok (Operational.target_allowed model t)))
    Model.all

let test_iriw_cycle () =
  isomorphic_check "iriw" "Rfe PodRR Fre Rfe PodRR Fre"
    (Catalog.find_exn "iriw")

let test_lb_cycle () =
  isomorphic_check "lb" "PodRW Rfe PodRW Rfe" Catalog.lb

let test_fenced_cycle () =
  let t = generated "amd5" "MFencedWR Fre MFencedWR Fre" in
  check Alcotest.bool "fences present" true
    (Array.exists (fun i -> i = Ast.Mfence) t.Ast.threads.(0));
  check Alcotest.bool "amd5 shape" true
    (same_shape t (Catalog.find_exn "amd5"))

let test_wse_non_convertible () =
  let t = generated "2+2w" "PodWW Wse PodWW Wse" in
  check Alcotest.bool "memory condition" true
    (List.exists
       (function Ast.Loc_eq _ -> true | Ast.Reg_eq _ -> false)
       t.Ast.condition.Ast.atoms);
  check Alcotest.bool "not convertible" true
    (Result.is_error (Perple_core.Convert.convert t))

(* --- Prediction vs checkers ---------------------------------------------- *)

let verdict model test =
  match Outcome.of_condition test with
  | Ok _ -> Result.get_ok (Operational.target_allowed model test)
  | Error _ -> Axiomatic.condition_reachable model test

let check_prediction name cycle =
  match Generate.of_cycle ~name cycle with
  | Error _ -> () (* unrealisable cycles are skipped *)
  | Ok test ->
    List.iter
      (fun model ->
        let got = Generate.predict model cycle in
        if got <> verdict model test then
          Alcotest.failf "%s (%s): %s prediction %b but checker disagrees"
            name
            (String.concat " " (List.map Generate.edge_to_string cycle))
            (Model.to_string model) got)
      Model.all

let test_named_predictions () =
  List.iter
    (fun (name, text) -> check_prediction name (cycle_of text))
    Generate.named_cycles

(* Every edge list of 4 and 5 edges over the 11 edge kinds.  Random
   cycles almost never reach the ones whose communication edges merge
   location classes across a thread boundary. *)
let test_exhaustive_predictions () =
  let edges =
    List.concat_map
      (fun (a, b) -> [ Generate.Pod (a, b); Generate.Fenced (a, b) ])
      Generate.[ (W, W); (W, R); (R, W); (R, R) ]
    @ Generate.[ Rfe; Fre; Wse ]
  in
  let rec lists k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun tl -> List.map (fun e -> e :: tl) edges)
        (lists (k - 1))
  in
  List.iter (check_prediction "cycle") (lists 4 @ lists 5)

let random_prediction_property =
  QCheck.Test.make ~name:"cycle prediction matches checkers" ~count:150
    (QCheck.make
       ~print:(fun cycle ->
         String.concat " " (List.map Generate.edge_to_string cycle))
       (QCheck.Gen.map
          (fun seed ->
            Generate.random_cycle (Rng.create seed) ~max_edges:7)
          QCheck.Gen.(int_bound 1_000_000)))
    (fun cycle ->
      match Generate.of_cycle ~name:"prop" cycle with
      | Error _ -> true
      | Ok test ->
        List.for_all
          (fun model -> verdict model test = Generate.predict model cycle)
          Model.all)

let random_cycles_well_formed =
  QCheck.Test.make ~name:"random cycles are well-formed" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Generate.well_formed
        (Generate.random_cycle (Rng.create seed) ~max_edges:9)
      = Ok ())

(* --- Pipeline integration ------------------------------------------------- *)

let test_generated_through_pipeline () =
  (* A TSO-allowed generated test's target is found by PerpLE; a forbidden
     one's never is. *)
  let allowed = generated "gen-sb" "PodWR Fre PodWR Fre" in
  let report =
    Result.get_ok (Engine.run ~seed:9 ~iterations:4_000 allowed)
  in
  check Alcotest.bool "allowed target found" true
    (Engine.target_count report > 0);
  let forbidden = generated "gen-wrc" "Rfe PodRW Rfe PodRR Fre" in
  let report =
    Result.get_ok (Engine.run ~seed:9 ~iterations:4_000 forbidden)
  in
  check Alcotest.int "forbidden target never" 0 (Engine.target_count report)

let generated_no_false_positives =
  QCheck.Test.make ~name:"generated forbidden targets never fire" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cycle = Generate.random_cycle (Rng.create seed) ~max_edges:6 in
      match Generate.of_cycle ~name:"prop" cycle with
      | Error _ -> true
      | Ok test ->
        if Generate.predict Model.Tso cycle then true
        else begin
          match Engine.run ~seed ~iterations:500 test with
          | Error _ -> true (* Wse cycles are not convertible *)
          | Ok report -> Engine.target_count report = 0
        end)

let suite =
  [
    ( "litmus.generate",
      [
        Alcotest.test_case "edge strings" `Quick test_edge_strings;
        Alcotest.test_case "well-formedness" `Quick test_well_formed;
        Alcotest.test_case "sb cycle" `Quick test_sb_cycle;
        Alcotest.test_case "mp cycle" `Quick test_mp_cycle;
        Alcotest.test_case "wrc cycle" `Quick test_wrc_cycle;
        Alcotest.test_case "iriw cycle" `Quick test_iriw_cycle;
        Alcotest.test_case "lb cycle" `Quick test_lb_cycle;
        Alcotest.test_case "fenced cycle" `Quick test_fenced_cycle;
        Alcotest.test_case "Wse non-convertible" `Quick
          test_wse_non_convertible;
        Alcotest.test_case "named predictions" `Quick test_named_predictions;
        Alcotest.test_case "every 4- and 5-edge cycle's prediction" `Quick
          test_exhaustive_predictions;
        QCheck_alcotest.to_alcotest random_prediction_property;
        QCheck_alcotest.to_alcotest random_cycles_well_formed;
        Alcotest.test_case "pipeline integration" `Quick
          test_generated_through_pipeline;
        QCheck_alcotest.to_alcotest generated_no_false_positives;
      ] );
  ]
