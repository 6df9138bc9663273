(* Benchmark executable: regenerates every table and figure of the paper's
   evaluation and measures the computational kernels behind each with
   bechamel.

   Usage:
     dune exec bench/main.exe                 experiment drivers (quick) + micro
     dune exec bench/main.exe -- --full       paper-scale experiment drivers
     dune exec bench/main.exe -- --micro-only micro-benchmarks only
     dune exec bench/main.exe -- --drivers-only
     dune exec bench/main.exe -- --check-counters
                                              factorized-vs-reference counter
                                              agreement over the catalog
                                              (exit 1 on any mismatch)
     dune exec bench/main.exe -- --check-solver [--gen N]
                                              operational/axiomatic/solver
                                              agreement over the catalog and
                                              >= N (default 1000) generated
                                              tests (exit 1 on any mismatch)
     dune exec bench/main.exe -- --json FILE  also emit results as JSON

   The experiment drivers print the same rows/series as the paper's Table II
   and Figs 9-13 plus the Sec VII-D/VII-G summaries; the micro suite holds
   one bechamel Test.make group per table/figure, measuring real wall-clock
   time of that experiment's kernel (most importantly, the exhaustive
   vs. heuristic counter gap of Fig 10, plus the factorized-vs-reference
   exhaustive kernels and the 1-vs-N-domain campaign engine). *)

open Bechamel
open Toolkit
module Catalog = Perple_litmus.Catalog
module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Generate = Perple_litmus.Generate
module Operational = Perple_memmodel.Operational
module Axiomatic = Perple_memmodel.Axiomatic
module Solver = Perple_memmodel.Solver
module Trace_check = Perple_core.Trace_check
module Convert = Perple_core.Convert
module OC = Perple_core.Outcome_convert
module Count = Perple_core.Count
module Engine = Perple_core.Engine
module Skew = Perple_core.Skew
module Perpetual = Perple_harness.Perpetual
module Litmus7 = Perple_harness.Litmus7
module Sync_mode = Perple_harness.Sync_mode
module Rng = Perple_util.Rng
module Report = Perple_report
module Json = Perple_util.Json
module Metrics = Perple_util.Metrics

(* --- Prepared state shared by the micro-benchmarks ----------------------- *)

let sb_conv = lazy (Result.get_ok (Convert.convert Catalog.sb))
let iriw_conv = lazy (Result.get_ok (Convert.convert (Catalog.find_exn "iriw")))
let podwr001_conv = lazy (Result.get_ok (Convert.convert Catalog.podwr001))

let prepared_run iterations =
  lazy
    (let conv = Lazy.force sb_conv in
     Perpetual.run ~rng:(Rng.create 1) ~image:conv.Convert.image
       ~t_reads:conv.Convert.t_reads ~iterations ())

let run_1k = prepared_run 1_000
let run_4k = prepared_run 4_000

(* Solver trace-verification scaling: sb contributes 4 events per
   iteration, so these runs decode to 500-, 2000- and 8000-event
   executions.  sb has one writer thread per location, so all of them
   take the graph-free single-writer path (coherence scan, then chain
   sweep; 0 decisions), which is the point: whole-trace classification at
   sizes the operational enumerator cannot reach. *)
let run_125 = prepared_run 125
let run_500 = prepared_run 500
let run_2k = prepared_run 2_000

let verify_sb run =
  let v =
    Trace_check.verify ~model:Operational.Tso (Lazy.force sb_conv)
      (Lazy.force run)
  in
  assert v.Solver.consistent;
  v

(* The end-to-end verify size: sb at 50k iterations is 200k events; at
   250k iterations, 1M events. *)
let run_50k = prepared_run 50_000
let run_250k = prepared_run 250_000

(* The multi-writer search path: co-iriw's two writers race on x, so the
   CSR graphs are built and the coherence merge runs (re-deriving
   reachability after every append) instead of the single-writer
   path. *)
let co_iriw =
  lazy
    (let conv = Result.get_ok (Convert.convert (Catalog.find_exn "co-iriw")) in
     ( conv,
       Perpetual.run ~rng:(Rng.create 1) ~image:conv.Convert.image
         ~t_reads:conv.Convert.t_reads ~iterations:125 () ))

let verify_co_iriw () =
  let conv, run = Lazy.force co_iriw in
  let v = Trace_check.verify ~model:Operational.Tso conv run in
  assert (v.Solver.consistent && v.Solver.decisions > 0);
  v

let sb_target =
  lazy
    (let conv = Lazy.force sb_conv in
     Result.get_ok
       (OC.convert conv (Result.get_ok (Outcome.of_condition Catalog.sb))))

let sb_all_outcomes =
  lazy
    (let conv = Lazy.force sb_conv in
     List.map
       (fun o -> Result.get_ok (OC.convert conv o))
       (Outcome.all Catalog.sb))

let campaign_runs = 8
let campaign_iterations = 400

(* The jobs sweep: one campaign row per worker count, through the same
   implicit-pool path the CLI's [--jobs] takes (widths beyond the
   machine's core count are capped there — the cap, plus the persistent
   pool, is what makes oversubscribed widths cost nothing instead of the
   historical ~6x slowdown). *)
let campaign_jobs = [ 1; 2; 4; 8 ]
let campaign_name jobs = Printf.sprintf "campaign:sb-8x400-jobs%d" jobs

(* Frame-space size per kernel run, for the frames/sec column of the JSON
   emitter (absent entries report null).  A campaign row's frame space is
   its total machine iterations: runs x iterations. *)
let frames_per_run =
  List.map
    (fun j -> (campaign_name j, campaign_runs * campaign_iterations))
    campaign_jobs
  @ [
    ("fig9:perpetual-run+count-1k", 1_000);
    ("fig10:exhaustive-reference-1k", 1_000_000);
    ("fig10:exhaustive-factorized-1k", 1_000_000);
    ("fig10:exhaustive-reference-4k", 16_000_000);
    ("fig10:exhaustive-factorized-4k", 16_000_000);
    ("fig10:heuristic-count-1k", 1_000);
    ("fig10:heuristic-count-4k", 4_000);
    ("fig11:engine-end-to-end-1k", 1_000);
    ("machine:perpetual-sb-100k", 100_000);
    ("machine:perpetual-iriw-50k", 50_000);
    ("machine:perpetual-podwr001-50k", 50_000);
    ("fig12:skew-measure-4k", 4_000);
    ("fig13:variety-count-1k", 1_000);
    ("overall:litmus7-user-500", 500);
    ("overall:perpetual-500", 500);
    ("solver:verify-trace-500ev", 500);
    ("solver:verify-trace-2kev", 2_000);
    ("solver:verify-trace-8kev", 8_000);
    ("solver:verify-trace-200kev", 200_000);
    ("solver:verify-trace-1Mev", 1_000_000);
    ("solver:verify-trace-co-iriw-125it", 750);
  ]

let campaign ~jobs () =
  Result.get_ok
    (Engine.campaign ~jobs ~runs:campaign_runs ~seed:7
       ~iterations:campaign_iterations Catalog.sb)

(* One Test.make per table/figure of the evaluation. *)
let micro_tests =
  [
    (* Table II: deciding allowed/forbidden with the operational checker. *)
    Test.make ~name:"table2:classify-sb-tso"
      (Staged.stage (fun () ->
           Operational.target_allowed Operational.Tso Catalog.sb));
    (* Fig 9: a perpetual run plus heuristic target counting, 1k iters. *)
    Test.make ~name:"fig9:perpetual-run+count-1k"
      (Staged.stage (fun () ->
           let conv = Lazy.force sb_conv in
           let run =
             Perpetual.run ~rng:(Rng.create 2) ~image:conv.Convert.image
               ~t_reads:conv.Convert.t_reads ~iterations:1_000 ()
           in
           Count.heuristic_auto conv
             ~outcomes:[ Lazy.force sb_target ]
             ~run));
    (* Fig 10: the counting-cost gap — exhaustive N^2 vs heuristic N on an
       identical prepared run, with the naive odometer (the paper's
       Algorithm 1 cost model) and the factorized kernel side by side. *)
    Test.make ~name:"fig10:exhaustive-reference-1k"
      (Staged.stage (fun () ->
           Count.exhaustive_reference (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_1k)));
    Test.make ~name:"fig10:exhaustive-factorized-1k"
      (Staged.stage (fun () ->
           Count.exhaustive (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_1k)));
    Test.make ~name:"fig10:exhaustive-reference-4k"
      (Staged.stage (fun () ->
           Count.exhaustive_reference (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_4k)));
    Test.make ~name:"fig10:exhaustive-factorized-4k"
      (Staged.stage (fun () ->
           Count.exhaustive (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_4k)));
    Test.make ~name:"fig10:heuristic-count-1k"
      (Staged.stage (fun () ->
           Count.heuristic_auto (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_1k)));
    Test.make ~name:"fig10:heuristic-count-4k"
      (Staged.stage (fun () ->
           Count.heuristic_auto (Lazy.force sb_conv)
             ~outcomes:[ Lazy.force sb_target ]
             ~run:(Lazy.force run_4k)));
    (* Fig 11: the full engine end to end (run + conversion + counting). *)
    Test.make ~name:"fig11:engine-end-to-end-1k"
      (Staged.stage (fun () ->
           Engine.run ~seed:3 ~iterations:1_000 Catalog.sb));
    (* The machine alone: one compiled-kernel perpetual run, no counting. *)
    Test.make ~name:"machine:perpetual-sb-100k"
      (Staged.stage (fun () ->
           let conv = Lazy.force sb_conv in
           Perpetual.run ~rng:(Rng.create 5) ~image:conv.Convert.image
             ~t_reads:conv.Convert.t_reads ~iterations:100_000 ()));
    Test.make ~name:"machine:perpetual-iriw-50k"
      (Staged.stage (fun () ->
           let conv = Lazy.force iriw_conv in
           Perpetual.run ~rng:(Rng.create 5) ~image:conv.Convert.image
             ~t_reads:conv.Convert.t_reads ~iterations:50_000 ()));
    Test.make ~name:"machine:perpetual-podwr001-50k"
      (Staged.stage (fun () ->
           let conv = Lazy.force podwr001_conv in
           Perpetual.run ~rng:(Rng.create 5) ~image:conv.Convert.image
             ~t_reads:conv.Convert.t_reads ~iterations:50_000 ()));
    (* Fig 12: skew measurement by value decoding. *)
    Test.make ~name:"fig12:skew-measure-4k"
      (Staged.stage (fun () ->
           Skew.measure (Lazy.force sb_conv) ~run:(Lazy.force run_4k)));
    (* Fig 13: independent per-outcome heuristic counting, all outcomes. *)
    Test.make ~name:"fig13:variety-count-1k"
      (Staged.stage (fun () ->
           Count.heuristic_independent (Lazy.force sb_conv)
             ~outcomes:(Lazy.force sb_all_outcomes)
             ~run:(Lazy.force run_1k)));
  ]
  (* Campaign engine jobs sweep: identical 8x400 SB campaigns across
     worker counts (results are bit-identical; only wall clock may
     differ).  The JSON emitter turns these rows into the
     scaling_efficiency series. *)
  @ List.map
      (fun j -> Test.make ~name:(campaign_name j) (Staged.stage (campaign ~jobs:j)))
      campaign_jobs
  @ [
    (* Sec VII-G: baseline execution cost, litmus7-user vs perpetual. *)
    Test.make ~name:"overall:litmus7-user-500"
      (Staged.stage (fun () ->
           Litmus7.run ~rng:(Rng.create 4) ~test:Catalog.sb
             ~mode:Sync_mode.User ~iterations:500 ()));
    Test.make ~name:"overall:perpetual-500"
      (Staged.stage (fun () ->
           let conv = Lazy.force sb_conv in
           Perpetual.run ~rng:(Rng.create 4) ~image:conv.Convert.image
             ~t_reads:conv.Convert.t_reads ~iterations:500 ()));
    (* Solver backend: per-test classification next to table2's
       operational row, and whole-trace verification scaling. *)
    Test.make ~name:"solver:classify-sb-tso"
      (Staged.stage (fun () -> Solver.target_allowed Operational.Tso Catalog.sb));
    Test.make ~name:"solver:verify-trace-500ev"
      (Staged.stage (fun () -> verify_sb run_125));
    Test.make ~name:"solver:verify-trace-2kev"
      (Staged.stage (fun () -> verify_sb run_500));
    Test.make ~name:"solver:verify-trace-8kev"
      (Staged.stage (fun () -> verify_sb run_2k));
    Test.make ~name:"solver:verify-trace-200kev"
      (Staged.stage (fun () -> verify_sb run_50k));
    Test.make ~name:"solver:verify-trace-1Mev"
      (Staged.stage (fun () -> verify_sb run_250k));
    Test.make ~name:"solver:verify-trace-co-iriw-125it"
      (Staged.stage verify_co_iriw);
  ]

let run_micro () =
  print_endline "== micro-benchmarks (bechamel, wall clock) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"perple" micro_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun label ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        (label, ns) :: acc)
      results []
  in
  let table = Perple_util.Table.create ~headers:[ "kernel"; "time/run" ] in
  Perple_util.Table.set_align table 1 Perple_util.Table.Right;
  let pretty_time ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (label, ns) ->
      Perple_util.Table.add_row table [ label; pretty_time ns ])
    (List.sort compare rows);
  Perple_util.Table.print table;
  let find label = List.assoc_opt ("perple/" ^ label) rows in
  let headline fmt a b =
    match (find a, find b) with
    | Some x, Some y when (not (Float.is_nan x)) && not (Float.is_nan y) ->
      Printf.printf fmt (Perple_util.Table.ratio_cell (x /. y))
    | _ -> ()
  in
  (* The Fig 10 headline in wall-clock terms: Algorithm 1 vs Algorithm 2
     (reference kernels, the paper's comparison)... *)
  headline
    "\nwall-clock counting speedup, heuristic vs exhaustive (sb, N=1k): %s \
     (paper geomean across suite: 305x; grows with N)\n"
    "fig10:exhaustive-reference-1k" "fig10:heuristic-count-1k";
  (* ...and the factorized kernel against the reference odometer. *)
  headline
    "factorized exhaustive kernel vs reference odometer (sb, N=1k): %s\n"
    "fig10:exhaustive-reference-1k" "fig10:exhaustive-factorized-1k";
  headline
    "factorized exhaustive kernel vs reference odometer (sb, N=4k): %s \
     (target: >= 10x)\n"
    "fig10:exhaustive-reference-4k" "fig10:exhaustive-factorized-4k";
  headline
    "campaign wall-clock, 1 domain vs 4 domains (sb, 8x400): %s (1.00x on \
     a single-core host; results bit-identical either way)\n"
    "campaign:sb-8x400-jobs1" "campaign:sb-8x400-jobs4";
  rows

(* --- Factorized-vs-reference agreement over the catalog ------------------ *)

(* Exhaustive run length per test, bounded so the reference odometer stays
   affordable at any T_L. *)
let check_iterations ~tl =
  if tl >= 4 then 12 else if tl = 3 then 40 else if tl = 2 then 300 else 600

let check_counters () =
  print_endline
    "== factorized-vs-reference counter agreement (full catalog) ==";
  let mismatches = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      match Convert.convert test with
      | Error _ -> ()
      | Ok conv ->
        let tl = Array.length conv.Convert.load_threads in
        let iterations = check_iterations ~tl in
        let run =
          Perpetual.run ~rng:(Rng.create 11) ~image:conv.Convert.image
            ~t_reads:conv.Convert.t_reads ~iterations ()
        in
        let outcomes =
          List.filter_map
            (fun o -> Result.to_option (OC.convert conv o))
            (Outcome.all test)
        in
        let pair name (a : Count.result) (b : Count.result) =
          incr checked;
          if a.Count.counts <> b.Count.counts then begin
            incr mismatches;
            Printf.printf "MISMATCH %s/%s: [%s] vs [%s]\n" test.Ast.name name
              (String.concat ";"
                 (List.map string_of_int (Array.to_list a.Count.counts)))
              (String.concat ";"
                 (List.map string_of_int (Array.to_list b.Count.counts)))
          end
        in
        pair "first-match"
          (Count.exhaustive conv ~outcomes ~run)
          (Count.exhaustive_reference conv ~outcomes ~run);
        pair "independent"
          (Count.exhaustive_independent conv ~outcomes ~run)
          (Count.exhaustive_independent_reference conv ~outcomes ~run);
        (match Outcome.of_condition test with
        | Error _ -> ()
        | Ok target ->
          let outcomes = [ Result.get_ok (OC.convert conv target) ] in
          pair "target"
            (Count.exhaustive conv ~outcomes ~run)
            (Count.exhaustive_reference conv ~outcomes ~run)))
    Catalog.suite;
  Printf.printf "%d comparisons, %d mismatches\n" !checked !mismatches;
  !mismatches = 0

(* --- Three-backend agreement: catalog + generated tests ------------------ *)

(* Cross-validates the solver against both established checkers on every
   catalog test and on >= 1000 cycle-generated tests (deterministic Rng,
   no qcheck dependency here).  Any disagreement prints the test in
   litmus format so it can be minimized into a committed regression. *)
let check_solver ?(generated_count = 1_000) () =
  Printf.printf "== three-backend agreement (catalog + >=%d generated) ==\n"
    generated_count;
  let mismatches = ref 0 in
  let checked = ref 0 in
  let same a b =
    let sort = List.sort Outcome.compare in
    let a = sort a and b = sort b in
    List.length a = List.length b && List.for_all2 Outcome.equal a b
  in
  let show outcomes =
    String.concat "; " (List.map Outcome.to_string outcomes)
  in
  let check_test (test : Ast.t) =
    List.iter
      (fun model ->
        incr checked;
        let op = Operational.reachable_outcomes model test in
        let ax = Axiomatic.reachable_outcomes model test in
        let sv = Solver.reachable_outcomes model test in
        let fc_ax = Axiomatic.condition_reachable model test in
        let fc_sv = Solver.final_condition_reachable model test in
        if not (same op ax && same op sv && fc_ax = fc_sv) then begin
          incr mismatches;
          Printf.printf
            "MISMATCH %s under %s:\n  operational: %s\n  axiomatic:   %s\n\
            \  solver:      %s\n  final condition: axiomatic=%b solver=%b\n%s\n"
            test.Ast.name
            (Operational.model_to_string model)
            (show op) (show ax) (show sv) fc_ax fc_sv
            (Perple_litmus.Printer.to_string test)
        end)
      [ Operational.Sc; Operational.Tso; Operational.Pso ]
  in
  List.iter (fun (e : Catalog.entry) -> check_test e.Catalog.test) Catalog.suite;
  List.iter check_test Catalog.non_convertible;
  let rng = Rng.create 97 in
  let generated = ref 0 in
  while !generated < generated_count do
    let cycle = Generate.random_cycle rng ~max_edges:5 in
    match
      Generate.of_cycle ~name:(Printf.sprintf "gen%d" !generated) cycle
    with
    | Error _ -> ()
    | Ok test ->
      incr generated;
      check_test test
  done;
  Printf.printf "%d model/test checks (%d generated tests), %d mismatches\n"
    !checked !generated !mismatches;
  !mismatches = 0

(* --- Per-phase metrics ---------------------------------------------------- *)

(* The bench harness reuses the pipeline's own metrics emitter: a phase
   runs under a fresh ambient sink and its deterministic counter summary
   lands in the emitted JSON, giving BENCH_*.json a per-phase breakdown
   (machine rounds vs counter evaluations vs supervisor activity).  The
   bechamel micro phase is deliberately *not* instrumented — its timings
   are the <5% disabled-overhead baseline. *)
let phase_metrics : (string * Json.t) list ref = ref []

let with_phase_metrics name f =
  let sink = Metrics.create_sink () in
  Metrics.install sink;
  let r = Fun.protect ~finally:Metrics.uninstall f in
  phase_metrics := !phase_metrics @ [ (name, Metrics.to_json sink) ];
  r

(* --- JSON emission -------------------------------------------------------- *)

let json_escape = Json.escape

let json_float f =
  if Float.is_nan f || Float.is_integer f && Float.abs f > 1e15 then "null"
  else Printf.sprintf "%.6g" f

let emit_json ~path ~mode ~micro ~drivers ~counters_agree ~solver_agree =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"perple-bench/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "  \"micro\": [\n";
  let micro = List.sort compare micro in
  let short label =
    match String.index_opt label '/' with
    | Some j -> String.sub label (j + 1) (String.length label - j - 1)
    | None -> label
  in
  (* Speedup of each jobs-sweep row over the jobs1 row of the same
     campaign (jobs1_ns / jobsN_ns): 1.0 is parity, the ideal on an
     unconstrained host is N, and on a host whose core count caps the
     pool the persistent-pool contract keeps it at ~1.0 rather than the
     historical collapse below it.  Null for non-campaign rows. *)
  let jobs1_ns =
    List.fold_left
      (fun acc (label, ns) ->
        if short label = campaign_name 1 then Some ns else acc)
      None micro
  in
  let scaling_efficiency label ns =
    match jobs1_ns with
    | Some base
      when List.exists (fun j -> short label = campaign_name j) campaign_jobs
           && (not (Float.is_nan base))
           && (not (Float.is_nan ns))
           && ns > 0.0 -> json_float (base /. ns)
    | _ -> "null"
  in
  List.iteri
    (fun i (label, ns) ->
      let frames = List.assoc_opt (short label) frames_per_run in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"ns_per_run\": %s, \"frames_per_run\": \
            %s, \"frames_per_sec\": %s, \"scaling_efficiency\": %s}%s\n"
           (json_escape label) (json_float ns)
           (match frames with Some f -> string_of_int f | None -> "null")
           (match frames with
           | Some f when (not (Float.is_nan ns)) && ns > 0.0 ->
             json_float (float_of_int f /. (ns /. 1e9))
           | _ -> "null")
           (scaling_efficiency label ns)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"drivers\": [\n";
  List.iteri
    (fun i (id, lines) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"id\": \"%s\", \"rows\": %d}%s\n"
           (json_escape id) lines
           (if i = List.length drivers - 1 then "" else ",")))
    drivers;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"metrics\": %s,\n"
       (Json.to_string (Json.Obj !phase_metrics)));
  let opt_bool = function
    | Some true -> "true"
    | Some false -> "false"
    | None -> "null"
  in
  Buffer.add_string b
    (Printf.sprintf "  \"counters_agree\": %s,\n" (opt_bool counters_agree));
  Buffer.add_string b
    (Printf.sprintf "  \"solver_agree\": %s\n" (opt_bool solver_agree));
  Buffer.add_string b "}\n";
  (* Atomic replace: an interrupted bench run leaves the previous
     complete results file, never a torn JSON document. *)
  Perple_util.Atomic_file.write ~path (Buffer.contents b);
  Printf.printf "bench results written to %s\n" path

let run_drivers params =
  List.map
    (fun (id, text) ->
      Printf.printf "==== %s ====\n%s\n%!" id text;
      let lines =
        String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
      in
      (id, lines))
    (Report.Experiments.run_all params)

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let micro_only = List.mem "--micro-only" args in
  let drivers_only = List.mem "--drivers-only" args in
  let counters_only = List.mem "--check-counters" args in
  let solver_only = List.mem "--check-solver" args in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let params =
    if full then Report.Common.default_params else Report.Common.quick_params
  in
  let drivers =
    if (not micro_only) && (not counters_only) && not solver_only then
      with_phase_metrics "drivers" (fun () -> run_drivers params)
    else []
  in
  let micro =
    if (not drivers_only) && (not counters_only) && not solver_only then
      run_micro ()
    else []
  in
  let counters_agree =
    if counters_only || (json_path <> None && not solver_only) then
      Some (with_phase_metrics "check_counters" check_counters)
    else None
  in
  let generated_count =
    let rec find = function
      | "--gen" :: n :: _ -> int_of_string n
      | _ :: rest -> find rest
      | [] -> 1_000
    in
    find args
  in
  let solver_agree =
    if solver_only then
      Some
        (with_phase_metrics "check_solver" (fun () ->
             check_solver ~generated_count ()))
    else None
  in
  (* One instrumented reference campaign per emitted file: the per-phase
     breakdown every later perf PR reports against. *)
  if json_path <> None && not solver_only then
    with_phase_metrics "campaign" (fun () -> ignore (campaign ~jobs:1 ()));
  (match json_path with
  | Some path ->
    let mode =
      if solver_only then "check-solver"
      else if counters_only then "check-counters"
      else if micro_only then "micro-only"
      else if drivers_only then "drivers-only"
      else if full then "full"
      else "quick"
    in
    emit_json ~path ~mode ~micro ~drivers ~counters_agree ~solver_agree
  | None -> ());
  match (counters_agree, solver_agree) with
  | Some false, _ | _, Some false -> exit 1
  | _ -> ()
