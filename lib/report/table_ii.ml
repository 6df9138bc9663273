module Ast = Perple_litmus.Ast
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Axiomatic = Perple_memmodel.Axiomatic
module Table = Perple_util.Table

type row = {
  name : string;
  t : int;
  t_l : int;
  allowed_tso : bool;
  allowed_axiomatic : bool;
  allowed_pso : bool;
  matches_catalog : bool;
  convertible : bool;
}

let rows () =
  List.map
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      let allowed_tso =
        Result.get_ok (Operational.target_allowed Model.Tso test)
      in
      let allowed_axiomatic =
        Axiomatic.condition_reachable Model.Tso test
      in
      let allowed_pso =
        Result.get_ok (Operational.target_allowed Model.Pso test)
      in
      let expected = e.Catalog.classification = Catalog.Allowed in
      {
        name = test.Ast.name;
        t = Ast.thread_count test;
        t_l = Ast.load_thread_count test;
        allowed_tso;
        allowed_axiomatic;
        allowed_pso;
        matches_catalog = allowed_tso = expected && allowed_axiomatic = expected;
        convertible = Result.is_ok (Perple_core.Convert.convert test);
      })
    Catalog.suite

let render () =
  let rows = rows () in
  let table =
    Table.create
      ~headers:
        [ "test"; "[T,TL]"; "x86-TSO"; "axiomatic"; "PSO"; "convertible"; "check" ]
  in
  let emit group_allowed =
    List.iter
      (fun r ->
        if r.allowed_tso = group_allowed then
          Table.add_row table
            [
              r.name;
              Printf.sprintf "[%d,%d]" r.t r.t_l;
              (if r.allowed_tso then "allowed" else "forbidden");
              (if r.allowed_axiomatic then "allowed" else "forbidden");
              (if r.allowed_pso then "allowed" else "forbidden");
              (if r.convertible then "yes" else "no");
              (if r.matches_catalog then "ok" else "MISMATCH");
            ])
      rows
  in
  emit true;
  Table.add_separator table;
  emit false;
  let mismatches = List.length (List.filter (fun r -> not r.matches_catalog) rows) in
  Printf.sprintf
    "Table II: perpetual litmus suite (%d tests; classification recomputed \
     by both checkers)\n%s\nmismatches vs paper's grouping: %d\n"
    (List.length rows) (Table.to_string table) mismatches
