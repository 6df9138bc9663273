(* Authoring a custom litmus test end to end.

   A downstream user brings their own test in litmus7's x86 format.  This
   example parses one from text, validates it, classifies its final
   condition under SC and x86-TSO with both model checkers, converts it to
   perpetual form, runs it, and emits the C/assembly artifacts the paper's
   Converter would produce for real-hardware runs.

   The test is a write-to-read causality variant: can thread 2 see y=1
   (which thread 1 published after reading x=1) and still see x=0?

   Run with: dune exec examples/custom_test.exe *)

module Ast = Perple_litmus.Ast
module Parser = Perple_litmus.Parser
module Printer = Perple_litmus.Printer
module Outcome = Perple_litmus.Outcome
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Axiomatic = Perple_memmodel.Axiomatic
module Convert = Perple_core.Convert
module Codegen = Perple_core.Codegen
module Engine = Perple_core.Engine

let source =
  {|X86 my-wrc
"write-to-read causality, custom"
{ x=0; y=0; }
 P0          | P1          | P2          ;
 MOV [x],$1  | MOV EAX,[x] | MOV EAX,[y] ;
             | MOV [y],$1  | MOV EBX,[x] ;
exists (1:EAX=1 /\ 2:EAX=1 /\ 2:EBX=0)
|}

let () =
  let test =
    match Parser.parse source with
    | Ok test -> test
    | Error e -> Format.kasprintf failwith "parse error: %a" Parser.pp_error e
  in
  (match Ast.validate test with
  | Ok () -> print_endline "parsed and validated:"
  | Error e -> Format.kasprintf failwith "invalid test: %a" Ast.pp_error e);
  print_string (Printer.to_string test);

  (* Classify the target under both models, with both checkers. *)
  List.iter
    (fun model ->
      let operational =
        Result.get_ok (Operational.target_allowed model test)
      in
      let axiomatic = Axiomatic.condition_reachable model test in
      assert (operational = axiomatic);
      Printf.printf "target under %s: %s (checkers agree)\n"
        (Model.to_string model)
        (if operational then "allowed" else "forbidden"))
    [ Model.Sc; Model.Tso ];

  (* Run the perpetual version; the target is forbidden under TSO, so the
     count must stay zero on the correct machine. *)
  let report = Result.get_ok (Engine.run ~seed:3 ~iterations:20_000 test) in
  Printf.printf
    "perpetual run: %d iterations, target observed %d times (expected 0 on \
     correct TSO hardware)\n"
    20_000 (Engine.target_count report);
  assert (Engine.target_count report = 0);

  (* Emit the artifacts the paper's Converter produces. *)
  let conv = report.Engine.conversion in
  match Codegen.all_files conv ~outcomes:[ Result.get_ok (Outcome.of_condition test) ] with
  | Error m -> failwith m
  | Ok files ->
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "perple-my-wrc" in
    Codegen.write_to_dir ~dir files;
    Printf.printf "emitted %d Converter artifacts to %s:\n"
      (List.length files) dir;
    List.iter
      (fun (f : Codegen.file) -> Printf.printf "  %s\n" f.Codegen.filename)
      files
