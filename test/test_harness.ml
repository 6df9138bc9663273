(* Tests for Perple_harness: sync modes, the litmus7-style runner and the
   perpetual runner. *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Machine = Perple_sim.Machine
module Config = Perple_sim.Config
module Sync_mode = Perple_harness.Sync_mode
module Litmus7 = Perple_harness.Litmus7
module Perpetual = Perple_harness.Perpetual
module Convert = Perple_core.Convert
module Rng = Perple_util.Rng
module Stress = Perple_harness.Stress
module Metrics = Perple_util.Metrics
module Json = Perple_util.Json

let check = Alcotest.check

(* --- Sync modes ---------------------------------------------------------- *)

let test_mode_names () =
  check Alcotest.int "five modes" 5 (List.length Sync_mode.all);
  List.iter
    (fun mode ->
      check Alcotest.bool "name roundtrip" true
        (Sync_mode.of_name (Sync_mode.name mode) = Some mode))
    Sync_mode.all;
  check Alcotest.bool "unknown" true (Sync_mode.of_name "magic" = None)

let test_mode_barriers () =
  check Alcotest.bool "none is barrier-free" true
    (Sync_mode.barrier Sync_mode.None_mode = Machine.No_barrier);
  let cost mode =
    match Sync_mode.barrier mode with
    | Machine.Every_iteration { cost; _ } -> cost
    | Machine.No_barrier -> 0
  in
  check Alcotest.bool "pthread most expensive" true
    (cost Sync_mode.Pthread > cost Sync_mode.Timebase);
  check Alcotest.bool "timebase pricier than user" true
    (cost Sync_mode.Timebase > cost Sync_mode.User)

(* --- litmus7 runner ------------------------------------------------------ *)

let run_l7 ?(config = Config.default) ?(mode = Sync_mode.User) ?(seed = 1)
    ?(iterations = 2000) test =
  Litmus7.run ~config ~rng:(Rng.create seed) ~test ~mode ~iterations ()

let test_histogram_total () =
  List.iter
    (fun mode ->
      let result = run_l7 ~mode ~iterations:500 Catalog.sb in
      let total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 result.Litmus7.histogram
      in
      check Alcotest.int
        ("total = iterations in " ^ Sync_mode.name mode)
        500 total)
    Sync_mode.all

let test_histogram_outcomes_legal () =
  (* Every observed outcome must bind every load to a feasible value. *)
  let result = run_l7 ~iterations:1000 Catalog.sb in
  let all = Outcome.all Catalog.sb in
  List.iter
    (fun (o, _) ->
      if not (List.exists (Outcome.equal o) all) then
        Alcotest.failf "illegal outcome %s" (Outcome.to_string o))
    result.Litmus7.histogram

let test_sc_never_relaxed () =
  let config = Config.with_model Config.Sc Config.default in
  let result = run_l7 ~config ~iterations:3000 Catalog.sb in
  let target = Result.get_ok (Outcome.of_condition Catalog.sb) in
  check Alcotest.int "SC never shows sb target" 0
    (Litmus7.count result ~partial:target)

let test_observed () =
  let result = run_l7 ~iterations:2000 Catalog.sb in
  check Alcotest.bool "some outcomes observed" true
    (List.length (Litmus7.observed result) >= 2)

let test_runtime_ordering () =
  let runtime mode =
    (run_l7 ~mode ~iterations:300 Catalog.sb).Litmus7.virtual_runtime
  in
  let user = runtime Sync_mode.User in
  let none = runtime Sync_mode.None_mode in
  let pthread = runtime Sync_mode.Pthread in
  let timebase = runtime Sync_mode.Timebase in
  check Alcotest.bool "user > none" true (user > none);
  check Alcotest.bool "timebase > user" true (timebase > user);
  check Alcotest.bool "pthread > timebase" true (pthread > timebase)

let test_litmus7_determinism () =
  let a = run_l7 ~seed:33 Catalog.sb in
  let b = run_l7 ~seed:33 Catalog.sb in
  check Alcotest.bool "same histogram" true
    (a.Litmus7.histogram = b.Litmus7.histogram)

let test_truncated_runtime_charges_retired_only () =
  (* Regression: virtual_runtime charged [iteration_overhead * iterations]
     even when faults cut the run short, inflating the litmus7 baseline in
     exactly the degraded runs PerpLE is compared against.  The overhead
     must track *retired* iterations. *)
  let config =
    Config.with_faults
      [ { Perple_sim.Fault.kind = Perple_sim.Fault.Hang; probability = 1.0 } ]
      Config.default
  in
  let iterations = 2_000 in
  let result = run_l7 ~config ~seed:9 ~iterations Catalog.sb in
  check Alcotest.bool "run truncated" true
    (result.Litmus7.retired < iterations);
  check Alcotest.int "overhead charged per retired iteration"
    (result.Litmus7.machine.Machine.rounds
    + (Sync_mode.iteration_overhead * result.Litmus7.retired))
    result.Litmus7.virtual_runtime;
  check Alcotest.bool "strictly below the full-request charge" true
    (result.Litmus7.virtual_runtime
    < result.Litmus7.machine.Machine.rounds
      + (Sync_mode.iteration_overhead * iterations))

let test_store_only_thread () =
  (* mp's thread 0 performs no loads; the histogram still has one outcome
     per iteration, over thread 1's two registers. *)
  let result = run_l7 ~iterations:400 Catalog.mp in
  List.iter
    (fun (o, _) -> check Alcotest.int "two bindings" 2 (List.length o))
    result.Litmus7.histogram

(* --- Perpetual runner ---------------------------------------------------- *)

let sb_conv = Result.get_ok (Convert.convert Catalog.sb)

let run_perp ?(seed = 1) ?(iterations = 1000) conv =
  Perpetual.run ~rng:(Rng.create seed) ~image:conv.Convert.image
    ~t_reads:conv.Convert.t_reads ~iterations ()

let test_buf_sizes () =
  let run = run_perp ~iterations:500 sb_conv in
  check Alcotest.int "thread 0 buf" 500 (Array.length run.Perpetual.bufs.(0));
  check Alcotest.int "thread 1 buf" 500 (Array.length run.Perpetual.bufs.(1))

let test_buf_sizes_multi_load () =
  let conv = Result.get_ok (Convert.convert (Catalog.find_exn "iwp23b")) in
  let run = run_perp ~iterations:300 conv in
  check Alcotest.int "r_t * N" 600 (Array.length run.Perpetual.bufs.(0))

let test_store_only_buf_empty () =
  let conv = Result.get_ok (Convert.convert Catalog.mp) in
  let run = run_perp ~iterations:200 conv in
  check Alcotest.int "store-only thread has no buf" 0
    (Array.length run.Perpetual.bufs.(0));
  check Alcotest.int "load thread buf" 400
    (Array.length run.Perpetual.bufs.(1))

(* Every value in a perpetual run's bufs decodes: it is the initial value
   or a member of some store's arithmetic sequence with iteration < N.
   This is the uniqueness property that makes perpetual tests analysable
   (paper, Sec III-B). *)
let test_buf_values_decode () =
  List.iter
    (fun name ->
      let conv = Result.get_ok (Convert.convert (Catalog.find_exn name)) in
      let run = run_perp ~iterations:400 conv in
      let loads = Outcome.loads conv.Convert.test in
      List.iter
        (fun (thread, reg, location) ->
          let slot = Option.get (Convert.slot_of_register conv ~thread ~reg) in
          let reads = conv.Convert.t_reads.(thread) in
          let loc_id =
            Perple_sim.Program.location_id conv.Convert.image location
          in
          for i = 0 to run.Perpetual.iterations - 1 do
            let value = run.Perpetual.bufs.(thread).((reads * i) + slot) in
            match Convert.decode conv ~loc_id ~value with
            | Some Convert.Initial -> ()
            | Some (Convert.Member { iteration; _ }) ->
              if iteration >= run.Perpetual.iterations then
                Alcotest.failf "%s: decoded iteration %d out of range" name
                  iteration
            | None ->
              Alcotest.failf "%s: value %d does not decode" name value
          done)
        loads)
    [ "sb"; "rfi013"; "co-iriw"; "podwr001"; "mp" ]

let test_perpetual_runtime_overhead () =
  let run = run_perp ~iterations:500 sb_conv in
  check Alcotest.bool "runtime includes bookkeeping" true
    (run.Perpetual.virtual_runtime
    >= run.Perpetual.machine.Machine.rounds
       + (Perpetual.iteration_overhead * 500))

let test_stress_extend () =
  let module Stress = Perple_harness.Stress in
  let image = Perple_sim.Program.compile_litmus Catalog.sb in
  let extended = Stress.extend_image image ~threads:3 in
  check Alcotest.int "threads added" 5
    (Array.length extended.Perple_sim.Program.programs);
  check Alcotest.int "locations added" 5
    (Array.length extended.Perple_sim.Program.location_names);
  check Alcotest.bool "unchanged when zero" true
    (Stress.extend_image image ~threads:0 == image);
  (* Scratch locations never collide with test locations. *)
  Array.iteri
    (fun i name ->
      if i >= 2 then
        check Alcotest.bool "scratch prefix" true
          (String.length name > String.length Stress.scratch_prefix
           && String.sub name 0 (String.length Stress.scratch_prefix)
              = Stress.scratch_prefix))
    extended.Perple_sim.Program.location_names

let test_stress_perpetual () =
  (* Stressed runs complete, keep buf sizes, and every buf value still
     decodes (stress threads never touch test locations). *)
  let run =
    Perpetual.run ~stress_threads:4 ~rng:(Rng.create 5)
      ~image:sb_conv.Convert.image ~t_reads:sb_conv.Convert.t_reads
      ~iterations:500 ()
  in
  check Alcotest.int "buf size" 500 (Array.length run.Perpetual.bufs.(0));
  Array.iter
    (fun buf ->
      Array.iter
        (fun value ->
          let x = Perple_sim.Program.location_id sb_conv.Convert.image "x" in
          let y = Perple_sim.Program.location_id sb_conv.Convert.image "y" in
          let decodes loc =
            Convert.decode sb_conv ~loc_id:loc ~value <> None
          in
          if not (decodes x || decodes y) then
            Alcotest.failf "stressed buf value %d does not decode" value)
        buf)
    run.Perpetual.bufs

let test_stress_litmus7 () =
  let result =
    Litmus7.run ~stress_threads:3 ~rng:(Rng.create 6) ~test:Catalog.sb
      ~mode:Sync_mode.User ~iterations:300 ()
  in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 result.Litmus7.histogram
  in
  check Alcotest.int "histogram still complete" 300 total

let test_trace_recording () =
  let module Trace = Perple_harness.Trace in
  let trace, run =
    Trace.trace_perpetual ~rng:(Rng.create 3) ~image:sb_conv.Convert.image
      ~t_reads:sb_conv.Convert.t_reads ~iterations:50 ()
  in
  check Alcotest.int "run completed" 50 run.Perpetual.iterations;
  (* Every machine event lands in the trace: 2 threads x 50 iterations x 2
     instructions, plus one drain per store, plus whatever jitter stalls
     and barrier releases the schedule produced. *)
  let m = run.Perpetual.machine in
  check Alcotest.int "execs recorded" 200 m.Machine.instructions;
  check Alcotest.int "drains recorded" 100 m.Machine.drains;
  check Alcotest.int "all events recorded"
    (m.Machine.instructions + m.Machine.drains + m.Machine.stalls
   + m.Machine.barriers)
    (Trace.length trace);
  (* Rounds are non-decreasing. *)
  let rounds =
    List.map (fun (e : Trace.entry) -> e.Trace.round) (Trace.entries trace)
  in
  check Alcotest.bool "rounds monotone" true
    (List.sort compare rounds = rounds);
  (* Exec and Drain counts match machine stats. *)
  let execs, drains =
    List.fold_left
      (fun (e, d) (entry : Trace.entry) ->
        match entry.Trace.event with
        | Machine.Exec _ -> (e + 1, d)
        | Machine.Drain _ -> (e, d + 1)
        | Machine.Barrier_release | Machine.Stall _ -> (e, d))
      (0, 0) (Trace.entries trace)
  in
  check Alcotest.int "execs" run.Perpetual.machine.Machine.instructions execs;
  check Alcotest.int "drains" run.Perpetual.machine.Machine.drains drains

let test_trace_limit () =
  let module Trace = Perple_harness.Trace in
  let trace, _ =
    Trace.trace_perpetual ~limit:10 ~rng:(Rng.create 3)
      ~image:sb_conv.Convert.image ~t_reads:sb_conv.Convert.t_reads
      ~iterations:100 ()
  in
  check Alcotest.int "capped" 10 (Trace.length trace)

let test_trace_render () =
  let module Trace = Perple_harness.Trace in
  let trace, _ =
    Trace.trace_perpetual ~limit:20 ~rng:(Rng.create 3)
      ~image:sb_conv.Convert.image ~t_reads:sb_conv.Convert.t_reads
      ~iterations:10 ()
  in
  let text =
    Trace.render
      ~location_names:sb_conv.Convert.image.Perple_sim.Program.location_names
      trace
  in
  check Alcotest.bool "mentions exec" true
    (String.length text > 0
    && String.split_on_char '\n' text
       |> List.exists (fun l ->
              String.length l > 0
              && String.index_opt l 'x' <> None))

let test_trace_observation_only () =
  (* Tracing must not change the schedule: same seed, same bufs. *)
  let module Trace = Perple_harness.Trace in
  let plain =
    Perpetual.run ~rng:(Rng.create 9) ~image:sb_conv.Convert.image
      ~t_reads:sb_conv.Convert.t_reads ~iterations:200 ()
  in
  let _, traced =
    Trace.trace_perpetual ~rng:(Rng.create 9) ~image:sb_conv.Convert.image
      ~t_reads:sb_conv.Convert.t_reads ~iterations:200 ()
  in
  check Alcotest.bool "identical bufs" true
    (plain.Perpetual.bufs = traced.Perpetual.bufs)

let test_t_reads_mismatch () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Perpetual.run: t_reads arity mismatch") (fun () ->
      ignore
        (Perpetual.run ~rng:(Rng.create 1) ~image:sb_conv.Convert.image
           ~t_reads:[| 1 |] ~iterations:10 ()))

(* --- The compiled perpetual kernel against its oracle -------------------- *)

(* [Machine.run_perpetual] must be [Machine.run] plus Perpetual's
   per-iteration register copy, run by run: the same stats (every field),
   the same bufs and the same metrics dump.  The oracle side forces the
   general path with a no-op [on_iteration_end] hook.  Persistency tests
   are left out: the kernel does not take them. *)

(* A test image with the register counts Perpetual records. *)
type kernel_image = {
  name : string;
  image : Perple_sim.Program.image;
  t_reads : int array;
}

(* Converted images use one shared cell per location; the litmus7-style
   images of [Program.compile_litmus] give every iteration its own cell,
   which is the kernel's [cells = iterations] path. *)
let converted_image test =
  match Convert.convert test with
  | Ok conv ->
    Some { name = test.Ast.name; image = conv.Convert.image;
           t_reads = conv.Convert.t_reads }
  | Error _ -> None

let indexed_image test =
  let image = Perple_sim.Program.compile_litmus test in
  {
    name = test.Ast.name ^ "/indexed";
    image;
    t_reads =
      Array.map
        (fun (t : Perple_sim.Program.thread) -> t.Perple_sim.Program.reg_count)
        image.Perple_sim.Program.programs;
  }

let kernel_images =
  lazy
    (Array.of_list
       (List.concat_map
          (fun name ->
            let test = Catalog.find_exn name in
            List.filter
              (fun k -> not (Perple_sim.Program.uses_persistency k.image))
              (Option.to_list (converted_image test) @ [ indexed_image test ]))
          Catalog.all_names))

type kernel_case = {
  kimage : kernel_image;
  stress : int;
  iterations : int;
  config : Config.t;
  seed : int;
}

let print_kernel_case c =
  Printf.sprintf
    "%s stress=%d n=%d model=%s jitter=%b drain=%g progress=%g capacity=%d \
     seed=%d"
    c.kimage.name c.stress c.iterations
    (Config.model_name c.config.Config.model)
    (c.config.Config.jitter_chance > 0.0)
    c.config.Config.drain_chance c.config.Config.progress_chance
    c.config.Config.buffer_capacity c.seed

let kernel_case_gen =
  let open QCheck.Gen in
  let images = Lazy.force kernel_images in
  let* kimage = oneofa images in
  let* stress = int_bound 3 in
  let* iterations = int_range 1 3000 in
  let* model =
    oneofl
      [ Config.Sc; Config.Tso; Config.Pso; Config.Tso_store_reorder;
        Config.Tso_fence_ignored ]
  in
  let* jitter = bool in
  let* drain_chance = oneofl [ 0.05; 0.55; 1.0 ] in
  let* progress_chance = oneofl [ 0.3; 0.9; 1.0 ] in
  let* buffer_capacity = oneofl [ 1; 2; 8 ] in
  let+ seed = int_bound 1_000_000 in
  let config =
    { Config.default with
      Config.model; drain_chance; progress_chance; buffer_capacity }
  in
  let config = if jitter then config else Config.no_jitter config in
  { kimage; stress; iterations; config; seed }

let with_metrics f =
  let sink = Metrics.create_sink () in
  let r = Metrics.scoped sink f in
  (r, Json.to_string (Metrics.to_json sink))

let oracle_run c =
  with_metrics (fun () ->
      let run =
        Perpetual.run ~config:c.config ~stress_threads:c.stress
          ~rng:(Rng.create c.seed) ~image:c.kimage.image
          ~t_reads:c.kimage.t_reads ~iterations:c.iterations
          ~on_iteration_end:(fun ~thread:_ ~iteration:_ ~regs:_ -> ())
          ()
      in
      (run.Perpetual.machine, run.Perpetual.bufs))

let kernel_run c =
  with_metrics (fun () ->
      let t_reads = c.kimage.t_reads in
      let bufs = Array.map (fun r -> Array.make (r * c.iterations) 0) t_reads in
      let stats =
        Machine.run_perpetual ~config:c.config ~rng:(Rng.create c.seed)
          ~image:(Stress.extend_image c.kimage.image ~threads:c.stress)
          ~iterations:c.iterations ~t_reads ~bufs
      in
      (stats, bufs))

let kernel_agrees c =
  let (o_stats, o_bufs), o_metrics = oracle_run c in
  let (k_stats, k_bufs), k_metrics = kernel_run c in
  if o_stats <> k_stats then Error "stats differ"
  else if o_bufs <> k_bufs then Error "bufs differ"
  else if o_metrics <> k_metrics then
    Error (Printf.sprintf "metrics differ:\n%s\n%s" o_metrics k_metrics)
  else Ok ()

let kernel_oracle_property =
  QCheck.Test.make ~name:"perpetual kernel = Machine.run + register copy"
    ~count:300
    (QCheck.make ~print:print_kernel_case kernel_case_gen)
    (fun c ->
      match kernel_agrees c with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Store forwarding on both addressings: tests whose loads read the
   thread's own buffered stores, under TSO with a deep, slowly draining
   buffer so that forwarding is the common case. *)
let test_kernel_forwarding () =
  let config =
    { Config.default with Config.buffer_capacity = 8; drain_chance = 0.05 }
  in
  List.iter
    (fun name ->
      let test = Catalog.find_exn name in
      List.iter
        (fun kimage ->
          let c = { kimage; stress = 1; iterations = 2000; config; seed = 3 } in
          match kernel_agrees c with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" kimage.name msg)
        (Option.to_list (converted_image test) @ [ indexed_image test ]))
    [ "rfi013"; "n5"; "amd10" ]

let sb_kernel_case config ~iterations =
  {
    kimage = Option.get (converted_image Catalog.sb);
    stress = 0;
    iterations;
    config;
    seed = 1;
  }

let test_kernel_invalid_iterations () =
  let c = sb_kernel_case Config.default ~iterations:0 in
  let expected = Invalid_argument "Machine.run: iterations must be > 0" in
  Alcotest.check_raises "Machine.run" expected (fun () ->
      ignore (oracle_run c));
  Alcotest.check_raises "kernel" expected (fun () -> ignore (kernel_run c))

exception Timed_out

(* [f ()] under a [seconds] alarm that raises [Timed_out], so a run the
   livelock detector misses fails the test instead of hanging it. *)
let within ~seconds f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

(* Both paths give up after 2M rounds without a retired instruction or
   a drain, with the same livelock failure. *)
let check_livelock config =
  let c = sb_kernel_case config ~iterations:10 in
  let failure f =
    match within ~seconds:30 f with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  let oracle = failure (fun () -> oracle_run c) in
  check Alcotest.bool "Machine.run reports a livelock" true
    (match oracle with
    | Some msg -> String.starts_with ~prefix:"Machine.run: livelock" msg
    | None -> false);
  check Alcotest.(option string) "same failure" oracle
    (failure (fun () -> kernel_run c))

(* With no progress and no drains nothing ever happens. *)
let test_kernel_livelock () =
  check_livelock
    { Config.default with Config.progress_chance = 0.0; drain_chance = 0.0 }

(* A store stalled on a full buffer is not progress: with a one-entry
   buffer that never drains, each thread retires its first store and
   then retries the next one forever. *)
let test_kernel_livelock_full_buffer () =
  check_livelock
    { Config.default with Config.drain_chance = 0.0; buffer_capacity = 1 }

let suite =
  [
    ( "harness.sync_mode",
      [
        Alcotest.test_case "names" `Quick test_mode_names;
        Alcotest.test_case "barrier parameters" `Quick test_mode_barriers;
      ] );
    ( "harness.litmus7",
      [
        Alcotest.test_case "histogram total" `Quick test_histogram_total;
        Alcotest.test_case "outcomes legal" `Quick
          test_histogram_outcomes_legal;
        Alcotest.test_case "SC never relaxed" `Quick test_sc_never_relaxed;
        Alcotest.test_case "observed" `Quick test_observed;
        Alcotest.test_case "runtime ordering" `Quick test_runtime_ordering;
        Alcotest.test_case "determinism" `Quick test_litmus7_determinism;
        Alcotest.test_case "store-only thread" `Quick test_store_only_thread;
        Alcotest.test_case "truncated runtime charges retired only" `Quick
          test_truncated_runtime_charges_retired_only;
      ] );
    ( "harness.perpetual",
      [
        Alcotest.test_case "buf sizes" `Quick test_buf_sizes;
        Alcotest.test_case "buf sizes multi-load" `Quick
          test_buf_sizes_multi_load;
        Alcotest.test_case "store-only buf" `Quick test_store_only_buf_empty;
        Alcotest.test_case "buf values decode" `Quick test_buf_values_decode;
        Alcotest.test_case "runtime overhead" `Quick
          test_perpetual_runtime_overhead;
        Alcotest.test_case "t_reads mismatch" `Quick test_t_reads_mismatch;
        Alcotest.test_case "stress extend" `Quick test_stress_extend;
        Alcotest.test_case "stress perpetual" `Quick test_stress_perpetual;
        Alcotest.test_case "stress litmus7" `Quick test_stress_litmus7;
        Alcotest.test_case "trace recording" `Quick test_trace_recording;
        Alcotest.test_case "trace limit" `Quick test_trace_limit;
        Alcotest.test_case "trace render" `Quick test_trace_render;
        Alcotest.test_case "trace observation only" `Quick
          test_trace_observation_only;
        QCheck_alcotest.to_alcotest kernel_oracle_property;
        Alcotest.test_case "kernel invalid iterations" `Quick
          test_kernel_invalid_iterations;
        Alcotest.test_case "kernel forwarding" `Quick test_kernel_forwarding;
        Alcotest.test_case "kernel livelock" `Quick test_kernel_livelock;
        Alcotest.test_case "kernel livelock, full buffer" `Quick
          test_kernel_livelock_full_buffer;
      ] );
  ]
