module Catalog = Perple_litmus.Catalog
module Ast = Perple_litmus.Ast
module Stats = Perple_util.Stats
module Engine = Perple_core.Engine

let allowed_names =
  List.map (fun (e : Catalog.entry) -> e.Catalog.test.Ast.name) Catalog.allowed

type summary = {
  total_tests : int;
  convertible : int;
  baseline_runtime : int;
  mixed_runtime : int;
  campaign_speedup : float;
  mean_detection_improvement : float;
  perple_only : int;
}

let summarize (params : Common.params) =
  let iterations = params.Common.iterations in
  let campaign = Catalog.extended_88 () in
  let results =
    List.map
      (fun (test, convertible) ->
        let user =
          Common.run_tool ~params ~iterations ~test
            (Common.Litmus7 Perple_harness.Sync_mode.User)
        in
        let perple =
          if convertible then
            Some
              (Common.run_tool ~params ~iterations ~test
                 (Common.Perple Engine.Heuristic))
          else None
        in
        (test, convertible, user, perple))
      campaign
  in
  let baseline_runtime =
    List.fold_left
      (fun acc (_, _, user, _) -> acc + user.Common.virtual_runtime)
      0 results
  in
  let mixed_runtime =
    List.fold_left
      (fun acc (_, _, user, perple) ->
        acc
        + (match perple with
          | Some p -> p.Common.virtual_runtime
          | None -> user.Common.virtual_runtime))
      0 results
  in
  let convertible_allowed =
    List.filter
      (fun (test, convertible, _, _) ->
        convertible && List.mem test.Ast.name allowed_names)
      results
  in
  let improvements =
    List.filter_map
      (fun (_, _, user, perple) ->
        match perple with
        | Some p when user.Common.detection_rate > 0.0 ->
          Some (p.Common.detection_rate /. user.Common.detection_rate)
        | Some _ | None -> None)
      convertible_allowed
  in
  let perple_only =
    List.length
      (List.filter
         (fun (_, _, user, perple) ->
           match perple with
           | Some p ->
             user.Common.detection_rate = 0.0
             && p.Common.detection_rate > 0.0
           | None -> false)
         convertible_allowed)
  in
  {
    total_tests = List.length campaign;
    convertible =
      List.length (List.filter (fun (_, c) -> c) campaign);
    baseline_runtime;
    mixed_runtime;
    campaign_speedup =
      float_of_int baseline_runtime /. float_of_int (max 1 mixed_runtime);
    mean_detection_improvement = Stats.mean (Array.of_list improvements);
    perple_only;
  }

let render params =
  let s = summarize params in
  Printf.sprintf
    "Sec VII-G: overall campaign impact, %d iterations per test\n\
     tests: %d total, %d convertible via PerpLE, %d via litmus7 only\n\
     baseline (all litmus7-user) runtime: %d rounds\n\
     mixed (PerpLE for convertible)  runtime: %d rounds\n\
     campaign speedup: %s   (paper: 1.47x)\n\
     mean detection-rate improvement on convertible allowed tests: %s \
     (paper: >20000x), plus %d tests only PerpLE detects\n"
    params.Common.iterations s.total_tests s.convertible
    (s.total_tests - s.convertible)
    s.baseline_runtime s.mixed_runtime
    (Perple_util.Table.ratio_cell s.campaign_speedup)
    (Perple_util.Table.ratio_cell s.mean_detection_improvement)
    s.perple_only
