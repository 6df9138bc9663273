(* Weaker memory models: PerpLE beyond x86-TSO.

   The paper's conclusion notes the approach "can also be applied to
   architectures implementing weaker memory models".  This example does so
   for PSO (partial store order: same-thread stores to different locations
   may take effect out of order, as on SPARC-PSO):

   1. reclassify every suite target under PSO with the model checkers —
      several TSO-forbidden targets (mp, wrc, ...) become allowed;
   2. run those tests with PerpLE on the simulated PSO machine and confirm
      the newly-allowed targets are observed while the still-forbidden ones
      are not;
   3. compare against litmus7-user on the same machine.

   Run with: dune exec examples/pso_exploration.exe *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Config = Perple_sim.Config
module Engine = Perple_core.Engine
module Litmus7 = Perple_harness.Litmus7
module Sync_mode = Perple_harness.Sync_mode
module Rng = Perple_util.Rng

let iterations = 20_000

let () =
  let pso_config = Config.with_model Config.Pso Config.default in
  let reclassified =
    List.filter_map
      (fun (e : Catalog.entry) ->
        let test = e.Catalog.test in
        let tso =
          Result.get_ok (Operational.target_allowed Model.Tso test)
        in
        let pso =
          Result.get_ok (Operational.target_allowed Model.Pso test)
        in
        if pso && not tso then Some test else None)
      Catalog.suite
  in
  Printf.printf
    "Targets forbidden under x86-TSO but allowed under PSO (%d of %d):\n"
    (List.length reclassified)
    (List.length Catalog.suite);
  List.iter (fun t -> Printf.printf "  %s\n" t.Ast.name) reclassified;
  print_newline ();

  Printf.printf
    "%-14s %-18s %-18s %s\n" "test" "perple (PSO mach.)" "litmus7-user"
    "perple on TSO machine (control)";
  List.iter
    (fun test ->
      let perple_pso =
        Engine.target_count
          (Result.get_ok
             (Engine.run ~config:pso_config ~seed:5 ~iterations test))
      in
      let l7 =
        let rng = Rng.create 5 in
        let r =
          Litmus7.run ~config:pso_config ~rng ~test ~mode:Sync_mode.User
            ~iterations ()
        in
        Litmus7.count r ~partial:(Result.get_ok (Outcome.of_condition test))
      in
      let perple_tso =
        Engine.target_count
          (Result.get_ok (Engine.run ~seed:5 ~iterations test))
      in
      Printf.printf "%-14s %-18d %-18d %d\n" test.Ast.name perple_pso l7
        perple_tso;
      assert (perple_tso = 0))
    reclassified;
  print_newline ();

  (* Fenced tests stay forbidden even on the PSO machine. *)
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      let count =
        Engine.target_count
          (Result.get_ok
             (Engine.run ~config:pso_config ~seed:5 ~iterations test))
      in
      Printf.printf "%-14s still forbidden under PSO: %d occurrences\n" name
        count;
      assert (count = 0))
    [ "mp+fences"; "safe022"; "amd5" ];
  print_endline
    "\nSame converter, same counters — only the model summary (Table II) \
     and the machine change: the PerpLE pipeline is model-agnostic, as the \
     paper claims."
