module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Engine = Perple_core.Engine
module Sync_mode = Perple_harness.Sync_mode
module Litmus7 = Perple_harness.Litmus7
module Rng = Perple_util.Rng

type tool = Perple of Engine.counter | Litmus7 of Sync_mode.t

let litmus7_tools = List.map (fun m -> Litmus7 m) Sync_mode.all

(* The report layer reproduces the paper's cost comparisons, so its
   "perple-exh" is the reference odometer: the factorized kernel would
   (deliberately) erase the Algorithm-1-vs-Algorithm-2 runtime gap that
   Fig 10 exists to show.  Counts are byte-identical either way. *)
let tools =
  Perple Engine.Exhaustive_reference :: Perple Engine.Heuristic
  :: litmus7_tools

let tool_name = function
  | Perple (Engine.Exhaustive | Engine.Exhaustive_reference) -> "perple-exh"
  | Perple Engine.Heuristic -> "perple-heur"
  | Litmus7 mode -> "litmus7-" ^ Sync_mode.name mode

type params = {
  seed : int;
  iterations : int;
  exhaustive_cap : int;
  sweep : int list;
  variety_iterations : int;
  skew_iterations : int;
}

let default_params =
  {
    seed = 20200613;
    iterations = 10_000;
    exhaustive_cap = 250_000_000;
    sweep = [ 100; 1_000; 10_000; 100_000; 1_000_000 ];
    variety_iterations = 1_000;
    skew_iterations = 100_000;
  }

let quick_params =
  {
    seed = 20200613;
    iterations = 2_000;
    exhaustive_cap = 4_000_000;
    sweep = [ 100; 1_000; 10_000 ];
    variety_iterations = 1_000;
    skew_iterations = 20_000;
  }

type tool_result = {
  tool : tool;
  iterations_used : int;
  target_count : int;
  virtual_runtime : int;
  detection_rate : float;
}

let target_of test =
  match Outcome.of_condition test with
  | Ok o -> o
  | Error m -> invalid_arg ("Common.target_of: " ^ m)

let seed_for params name =
  (* Stable string hash folded with the base seed. *)
  let h = ref (params.seed land 0x3FFFFFFF) in
  String.iter (fun c -> h := (!h * 131) + Char.code c) name;
  !h land max_int

let run_tool ?config ~params ~iterations ~test tool =
  let seed = seed_for params (tool_name tool ^ "/" ^ test.Ast.name) in
  match tool with
  | Perple counter ->
    let report =
      Result.get_ok
        (Engine.run ?config ~counter ~seed ~iterations
           ~exhaustive_cap:params.exhaustive_cap test)
    in
    let count = Engine.target_count report in
    {
      tool;
      iterations_used = report.Engine.run.Perple_harness.Perpetual.iterations;
      target_count = count;
      virtual_runtime = report.Engine.virtual_runtime;
      detection_rate = Engine.detection_rate report;
    }
  | Litmus7 mode ->
    let rng = Rng.create seed in
    let result = Litmus7.run ?config ~rng ~test ~mode ~iterations () in
    (* Conditions over final memory (non-convertible tests in the 88-test
       campaign) are not tracked by the register histogram; they count as
       zero here — only runtimes of those tests matter to Sec VII-G. *)
    let count =
      match Outcome.of_condition test with
      | Ok target -> Litmus7.count result ~partial:target
      | Error _ -> 0
    in
    {
      tool;
      iterations_used = iterations;
      target_count = count;
      virtual_runtime = result.Litmus7.virtual_runtime;
      detection_rate =
        Engine.rate_per_mround ~targets:count
          ~rounds:result.Litmus7.virtual_runtime;
    }
