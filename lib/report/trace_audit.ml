module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Convert = Perple_core.Convert
module Trace_check = Perple_core.Trace_check
module Solver = Perple_memmodel.Solver
module Operational = Perple_memmodel.Operational
module Model = Perple_litmus.Model
module Perpetual = Perple_harness.Perpetual
module Rng = Perple_util.Rng
module Table = Perple_util.Table

(* Whole-trace audit: instead of classifying per-iteration outcomes, run
   each machine configuration perpetually and verify the {e entire} trace
   against its specification model with the solver backend.  Clean
   machines must verify on every test; the planted bug configurations
   must be caught (their specification is honest TSO).  This is the
   report-level use of {!Trace_check} — the cross-validation instrument
   the per-iteration outcome view cannot provide, since it never sees
   inter-iteration orderings. *)

let tests = [ "sb"; "mp"; "lb"; "amd5"; "mp+fences"; "n5"; "iriw" ]

let configs =
  [ Config.Sc; Config.Tso; Config.Pso; Config.Tso_store_reorder;
    Config.Tso_fence_ignored ]

type cell = {
  verdict : Solver.verdict;
  caught_expected : bool;  (* a bug config that should eventually trip *)
}

let audit_one (params : Common.params) ~config ~test_name =
  let test = Catalog.find_exn test_name in
  let conv = Result.get_ok (Convert.convert test) in
  let iterations = max 1 (params.Common.variety_iterations / 2) in
  let rng =
    Rng.create
      (Common.seed_for params
         ("trace-audit/" ^ Config.model_name config ^ "/" ^ test_name))
  in
  let run =
    Perpetual.run
      ~config:(Config.with_model config Config.default)
      ~rng ~image:conv.Convert.image ~t_reads:conv.Convert.t_reads
      ~iterations ()
  in
  let model = Trace_check.spec_model config in
  let verdict = Trace_check.verify ~model conv run in
  {
    verdict;
    caught_expected =
      (match config with
      | Config.Tso_store_reorder | Config.Tso_fence_ignored -> true
      | Config.Sc | Config.Tso | Config.Pso -> false);
  }

let render params =
  let table =
    Table.create ~headers:("machine" :: "spec" :: tests)
  in
  let clean_violations = ref 0 in
  let bug_catches = ref 0 in
  List.iter
    (fun config ->
      let cells =
        List.map (fun test_name -> audit_one params ~config ~test_name) tests
      in
      Table.add_row table
        (Config.model_name config
        :: Model.to_string (Trace_check.spec_model config)
        :: List.map
             (fun c ->
               if c.verdict.Solver.consistent then
                 Printf.sprintf "ok/%d" c.verdict.Solver.events
               else begin
                 if c.caught_expected then incr bug_catches
                 else incr clean_violations;
                 "VIOLATION"
               end)
             cells))
    configs;
  Printf.sprintf
    "Trace audit: whole perpetual traces verified by the solver backend\n\
     (cells: ok/<events> or VIOLATION against the specification model)\n%s\n\
     clean machines: %s; planted bugs caught on %d test(s)\n\
     paper shape: clean rows all verify; the bug rows show VIOLATION \
     where their deviation is observable\n"
    (Table.to_string table)
    (if !clean_violations = 0 then "all traces verify"
     else Printf.sprintf "%d UNEXPECTED VIOLATIONS" !clean_violations)
    !bug_catches
