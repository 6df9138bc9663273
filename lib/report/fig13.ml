module Catalog = Perple_litmus.Catalog
module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Convert = Perple_core.Convert
module Outcome_convert = Perple_core.Outcome_convert
module Count = Perple_core.Count
module Perpetual = Perple_harness.Perpetual
module Litmus7 = Perple_harness.Litmus7
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Rng = Perple_util.Rng
module Table = Perple_util.Table

type test_variety = {
  name : string;
  outcome_labels : string list;
  forbidden : bool list;
  per_tool : (string * int array) list;
}

let variety (params : Common.params) test_name =
  let test = Catalog.find_exn test_name in
  let outcomes = Outcome.all test in
  let iterations = params.Common.variety_iterations in
  let reachable = Operational.reachable_outcomes Model.Tso test in
  let forbidden =
    List.map
      (fun o -> not (List.exists (Outcome.equal o) reachable))
      outcomes
  in
  (* PerpLE heuristic with independent per-outcome sampling (the figure's
     caption: N frames per outcome). *)
  let conv = Result.get_ok (Convert.convert test) in
  let rng =
    Rng.create (Common.seed_for params ("fig13/" ^ test_name))
  in
  let run =
    Perpetual.run ~rng ~image:conv.Convert.image
      ~t_reads:conv.Convert.t_reads ~iterations ()
  in
  let converted =
    List.map
      (fun o -> Result.get_ok (Outcome_convert.convert conv o))
      outcomes
  in
  let perple =
    (Count.heuristic_independent conv ~outcomes:converted ~run).Count.counts
  in
  let litmus7_counts =
    List.map
      (fun mode ->
        let tool = Common.Litmus7 mode in
        let rng =
          Rng.create
            (Common.seed_for params (Common.tool_name tool ^ "/" ^ test_name))
        in
        let result = Litmus7.run ~rng ~test ~mode ~iterations () in
        let counts =
          Array.of_list
            (List.map
               (fun o -> Litmus7.count result ~partial:o)
               outcomes)
        in
        (Common.tool_name tool, counts))
      Perple_harness.Sync_mode.all
  in
  {
    name = test_name;
    outcome_labels = List.map Outcome.short_label outcomes;
    forbidden;
    per_tool = ("perple-heur", perple) :: litmus7_counts;
  }

let render_one (v : test_variety) iterations =
  let table =
    Table.create
      ~headers:("outcome" :: "tso" :: List.map fst v.per_tool)
  in
  List.iteri
    (fun i _ -> Table.set_align table (i + 2) Table.Right)
    v.per_tool;
  List.iteri
    (fun i label ->
      Table.add_row table
        (label
         :: (if List.nth v.forbidden i then "F" else "A")
         :: List.map (fun (_, counts) -> string_of_int counts.(i)) v.per_tool))
    v.outcome_labels;
  Printf.sprintf "%s (%d iterations):\n%s" v.name iterations
    (Table.to_string table)

let render params =
  let tests = [ "sb"; "lb"; "podwr001" ] in
  let parts =
    List.map
      (fun name ->
        render_one (variety params name) params.Common.variety_iterations)
      tests
  in
  "Fig 13: outcome variety (PerpLE heuristic samples N frames per outcome)\n"
  ^ String.concat "\n" parts
  ^ "\npaper shape: PerpLE counts dominate litmus7 except possibly \
     timebase; forbidden outcomes (F) are never observed\n"
