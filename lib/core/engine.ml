module Outcome = Perple_litmus.Outcome
module Perpetual = Perple_harness.Perpetual
module Supervisor = Perple_harness.Supervisor
module Machine = Perple_sim.Machine
module Rng = Perple_util.Rng
module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event

type counter = Exhaustive | Exhaustive_reference | Heuristic

type report = {
  conversion : Convert.t;
  run : Perpetual.run;
  outcomes : Outcome.t list;
  counts : int array;
  frames_examined : int;
  evaluations : int;
  counter : counter;
  virtual_runtime : int;
  requested_iterations : int;
  degraded : bool;
  salvaged_iterations : int;
  supervision : Supervisor.supervised option;
}

let exhaustive_iterations_cap ~tl ~cap ~requested =
  if tl <= 1 then requested
  else begin
    let fits n =
      let rec pow acc i =
        if i = 0 then acc <= cap
        else if acc > cap / n then false
        else pow (acc * n) (i - 1)
      in
      pow 1 tl
    in
    let rec shrink n = if n <= 1 || fits n then max 1 n else shrink (n / 2) in
    shrink requested
  end

let counter_of_name = function
  | "heur" | "heuristic" -> Some Heuristic
  | "exh" | "exhaustive" -> Some Exhaustive
  | "exh-ref" | "reference" -> Some Exhaustive_reference
  | _ -> None

let counter_name = function
  | Heuristic -> "heuristic"
  | Exhaustive -> "exhaustive"
  | Exhaustive_reference -> "exhaustive-reference"

let counter_short_name = function
  | Heuristic -> "heur"
  | Exhaustive -> "exh"
  | Exhaustive_reference -> "exh-ref"

(* Everything [run] checks before it executes: the body converts and so
   does every outcome of interest.  The test is shared by a campaign's
   runs, so {!convertible} answers for all of them up front. *)
let prepare ?outcomes test =
  match Convert.convert_body test with
  | Error r -> Error r
  | Ok conversion -> (
    let outcomes =
      match outcomes with
      | Some o -> o
      | None -> (
        match Outcome.of_condition test with
        | Ok target -> [ target ]
        | Error _ -> [])
    in
    match outcomes with
    | [] -> Error (Convert.Memory_condition "<condition>")
    | _ ->
      let rec convert_outcomes acc = function
        | [] -> Ok (conversion, outcomes, List.rev acc)
        | o :: rest -> (
          match Outcome_convert.convert conversion o with
          | Ok c -> convert_outcomes (c :: acc) rest
          | Error _ ->
            (* Outcome mentions values/registers conversion cannot express:
               report as a memory-condition-class failure. *)
            Error (Convert.Memory_condition "<outcome>"))
      in
      convert_outcomes [] outcomes)

let convertible ?outcomes test = Result.map ignore (prepare ?outcomes test)

let run ?(config = Perple_sim.Config.default) ?faults ?policy
    ?(counter = Heuristic) ?outcomes ?(exhaustive_cap = 250_000_000)
    ?(stress_threads = 0) ~seed ~iterations test =
  let trace_start = Trace.now () in
  match prepare ?outcomes test with
  | Error r -> Error r
  | Ok (conversion, outcomes, converted) ->
    let config =
      match faults with
      | Some faults -> Perple_sim.Config.with_faults faults config
      | None -> config
    in
    let tl = Array.length conversion.Convert.load_threads in
    let requested_iterations = iterations in
    let iterations =
      match counter with
      | Heuristic -> iterations
      | Exhaustive | Exhaustive_reference ->
        exhaustive_iterations_cap ~tl ~cap:exhaustive_cap
          ~requested:iterations
    in
    let rng = Rng.create seed in
    (* Obtain the run: supervised (watchdog + retry + salvage) when a
       policy is given, a single direct run otherwise.  Either way a
       run cut short by faults is salvaged: counting proceeds over the
       fully retired prefix instead of discarding the run. *)
    let run, supervision =
      match policy with
      | Some policy ->
        let sup =
          Supervisor.run_perpetual ~config ~stress_threads ~policy ~rng
            ~image:conversion.Convert.image
            ~t_reads:conversion.Convert.t_reads ~iterations ()
        in
        let run =
          match sup.Supervisor.run with
          | Some run -> run
          | None ->
            Perpetual.empty ~t_reads:conversion.Convert.t_reads
              ~virtual_runtime:sup.Supervisor.total_rounds
              ~termination:Machine.Watchdog_abort
        in
        (run, Some sup)
      | None ->
        let run =
          Perpetual.run ~config ~stress_threads ~rng
            ~image:conversion.Convert.image
            ~t_reads:conversion.Convert.t_reads ~iterations ()
        in
        (Perpetual.truncate run ~iterations:(Perpetual.retired run), None)
    in
    let degraded = run.Perpetual.iterations < iterations in
    let result =
      if run.Perpetual.iterations = 0 then
        { Count.counts = Array.make (List.length outcomes) 0;
          frames_examined = 0; evaluations = 0 }
      else
        match counter with
        | Exhaustive ->
          Count.exhaustive conversion ~outcomes:converted ~run
        | Exhaustive_reference ->
          Count.exhaustive_reference conversion ~outcomes:converted ~run
        | Heuristic ->
          Count.heuristic_auto conversion ~outcomes:converted ~run
    in
    let run_rounds =
      match supervision with
      | Some sup -> sup.Supervisor.total_rounds
      | None -> run.Perpetual.virtual_runtime
    in
    (match Metrics.active () with
    | Some m ->
      Metrics.add m "engine.runs" 1;
      if degraded then Metrics.add m "engine.degraded_runs" 1;
      Metrics.add m "engine.salvaged_iterations" run.Perpetual.iterations;
      Metrics.add m "engine.virtual_runtime"
        (run_rounds + result.Count.evaluations)
    | None -> ());
    Trace.complete ~name:"engine.run" ~since:trace_start
      ~args:
        [
          ( "test",
            Trace.String conversion.Convert.test.Perple_litmus.Ast.name );
          ("seed", Trace.Int seed);
          ("iterations", Trace.Int iterations);
          ("counter", Trace.String (counter_name counter));
          ("degraded", Trace.Bool degraded);
        ]
      ();
    Ok
      {
        conversion;
        run;
        outcomes;
        counts = result.Count.counts;
        frames_examined = result.Count.frames_examined;
        evaluations = result.Count.evaluations;
        counter;
        virtual_runtime = run_rounds + result.Count.evaluations;
        requested_iterations;
        degraded;
        salvaged_iterations = run.Perpetual.iterations;
        supervision;
      }

type crash = { message : string; backtrace : string }

type entry = {
  run_index : int;
  run_seed : int;
  outcome : (report, crash) result;
  run_metrics : Perple_util.Json.t option;
}

let campaign_seeds ~runs ~seed =
  (* Seeds are pre-split from the campaign RNG *before* dispatch, in run
     order, so the per-run seed sequence — and with it every report — is
     a function of [seed] alone, never of [jobs], domain scheduling, or
     which runs a resume still has to execute.  The derivation (one
     [bits64] draw per run, masked non-negative) matches what the
     sequential supervise loop has always done, keeping fixed-seed
     campaign output stable across versions. *)
  let campaign_rng = Rng.create seed in
  Array.init runs (fun _ ->
      Int64.to_int (Rng.bits64 campaign_rng) land max_int)

let campaign_entries ?config ?faults ?policy ?counter ?outcomes
    ?exhaustive_cap ?stress_threads ?pool ?(jobs = 1)
    ?(skip = fun _ -> false) ?on_entry ~runs ~seed ~iterations test =
  if runs < 0 then invalid_arg "Engine.campaign: negative run count";
  if jobs < 1 then invalid_arg "Engine.campaign: jobs must be >= 1";
  let seeds = campaign_seeds ~runs ~seed in
  let pending =
    Array.of_list
      (List.filter (fun i -> not (skip i)) (List.init runs Fun.id))
  in
  (* The engine right-sizes the worker count itself, from the *full* run
     count — not from how many runs a resume still has to execute — so
     the jobs-clamp note and metric are identical for a clean campaign
     and any resume of it.  The pool then never needs to clamp (which
     would tie the [pool.jobs_clamped] metric to the interruption
     point). *)
  let stable_jobs = min (min jobs (max runs 1)) Pool.max_jobs in
  if stable_jobs < jobs then begin
    Metrics.incr "engine.jobs_clamped";
    Printf.eprintf "perple: campaign: clamped jobs %d -> %d (%s)\n%!" jobs
      stable_jobs
      (if jobs > Pool.max_jobs && stable_jobs = Pool.max_jobs then
         Printf.sprintf "domain limit %d" Pool.max_jobs
       else Printf.sprintf "only %d runs" runs)
  end;
  let pool_jobs = max 1 (min stable_jobs (max 1 (Array.length pending))) in
  let trace_start = Trace.now () in
  let entries : entry option array = Array.make (max runs 1) None in
  let entry_mutex = Mutex.create () in
  (* Per-run capture: when metrics are wanted — or when every retiring
     run is being journaled — each task records into a private scoped
     sink that is merged into the ambient sink afterwards (additions are
     commutative, so the final dump is unchanged) and attached to the
     entry.  A resume replays captured metrics of journaled runs instead
     of re-executing them, keeping the dump byte-identical to an
     uninterrupted campaign. *)
  let capture = Metrics.enabled () || on_entry <> None in
  let around ti thunk =
    let i = pending.(ti) in
    let finish captured result =
      let outcome =
        match result with
        | Ok (Ok report) -> Some (Ok report)
        | Ok (Error _reason) -> None (* conversion error; surfaced below *)
        | Error task_error ->
          Some
            (Error
               {
                 message = Pool.error_message task_error;
                 backtrace = Pool.error_backtrace task_error;
               })
      in
      match outcome with
      | None -> ()
      | Some outcome ->
        let entry =
          { run_index = i; run_seed = seeds.(i); outcome; run_metrics = captured }
        in
        entries.(i) <- Some entry;
        (match on_entry with
        | None -> ()
        | Some f ->
          (* Retiring runs journal from whichever domain finishes first;
             serialize the callback so the caller needs no locking. *)
          Mutex.lock entry_mutex;
          Fun.protect ~finally:(fun () -> Mutex.unlock entry_mutex) (fun () ->
              f entry))
    in
    if not capture then begin
      let result = thunk () in
      finish None result;
      result
    end
    else begin
      let sink = Metrics.create_sink () in
      let result = Metrics.scoped sink thunk in
      (match Metrics.active () with
      | Some ambient -> Metrics.merge ambient sink
      | None -> ());
      finish (Some (Metrics.to_json sink)) result;
      result
    end
  in
  let raw =
    Pool.map_result ?pool ~jobs:pool_jobs ~around (Array.length pending)
      (fun ti ->
        run ?config ?faults ?policy ?counter ?outcomes ?exhaustive_cap
          ?stress_threads ~seed:seeds.(pending.(ti)) ~iterations test)
  in
  Metrics.incr "engine.campaigns";
  Trace.complete ~name:"engine.campaign" ~since:trace_start
    ~args:
      [
        ("runs", Trace.Int runs);
        ("jobs", Trace.Int jobs);
        ("seed", Trace.Int seed);
        ("executed", Trace.Int (Array.length pending));
      ]
    ();
  (* The test is shared, so conversion failures are identical across
     runs: surface the first. *)
  let conversion_error =
    Array.find_map
      (function Ok (Error reason) -> Some reason | _ -> None)
      raw
  in
  match conversion_error with
  | Some reason -> Error reason
  | None -> Ok (if runs = 0 then [||] else entries)

let campaign ?config ?faults ?policy ?counter ?outcomes ?exhaustive_cap
    ?stress_threads ?pool ?jobs ~runs ~seed ~iterations test =
  match
    campaign_entries ?config ?faults ?policy ?counter ?outcomes
      ?exhaustive_cap ?stress_threads ?pool ?jobs ~runs ~seed ~iterations
      test
  with
  | Error _ as e -> e
  | Ok entries ->
    Ok
      (Array.map
         (function
           | Some { outcome = Ok report; _ } -> report
           | Some { outcome = Error crash; run_index; _ } ->
             failwith
               (Printf.sprintf "Engine.campaign: run %d crashed: %s"
                  run_index crash.message)
           | None -> assert false (* no [skip]: every slot is filled *))
         entries)

let target_count report =
  if Array.length report.counts = 0 then 0 else report.counts.(0)

let rate_per_mround ~targets ~rounds =
  if rounds = 0 then 0.0
  else float_of_int targets /. float_of_int rounds *. 1_000_000.0

let detection_rate report =
  rate_per_mround ~targets:(target_count report) ~rounds:report.virtual_runtime
