(* e2e.exe — end-to-end campaign benchmark.

   Drives the built perple binary through one workload (`perple run`, a
   `perple serve --jobs 2` daemon, or a `serve --coordinator` fleet with
   two `perple worker` processes), checks every output against an
   in-process reference, and prints every metric by name and unit; the
   last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.

   Usage (from the repository root, after `dune build`; it measures
   _build/default/bin/perple.exe):
     e2e.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
             [--workdir DIR] [--out FILE]
     e2e.exe --smoke [--workload NAME] [--seed N]

   --trace 0 measures the end-to-end metrics, times at the reference
   host's speed (see [e2e_metrics]).  --trace 1 instead runs the
   in-process traced census and prints the per-layer table (see Census);
   the result line must carry every per-layer metric, so the census covers
   all four workloads whatever --workload names.  --smoke runs every
   workload (or just --workload) at 1/20 size with the same oracle.  Exit
   status 1 means an output disagreed with the reference. *)

open Inputs
module P = Paths
module Stats = Perple_util.Stats

exception Watchdog

(* --- generic measurement ------------------------------------------------------ *)

(* Latencies of each kind of operation. *)
type measured = {
  setup : float list;
  fresh : float list;
  replay : float list;
  bulk : (campaign * float list) list;  (** One list per bulk campaign. *)
  calibration : float list;
}

(* How one workload reaches the system: the operation kinds, each
   returning a latency or [None] on failure.  [start] is the first cold
   start, whose service (if any) serves the run; every further
   [cold_start] is torn down at once. *)
type path = {
  start : unit -> float option;
  cold_start : unit -> float option;
  fresh_op : int -> float option;
  replay_op : int -> float option;  (** Replays fresh op [j]. *)
  bulk_op : round:int -> campaign -> float option;
  bulk_mix : campaign list;
  finish : unit -> unit;
}

(* A `perple run` whose stdout must also equal that of the first run with
   the same [key], i.e. the same inputs. *)
let repeatable ctx seen ~key ~check argv =
  match P.perple_run ctx ?same_as:(Hashtbl.find_opt seen key) ~check argv with
  | Some (dt, stdout) ->
    if not (Hashtbl.mem seen key) then Hashtbl.replace seen key stdout;
    Some dt
  | None -> None

(* Small `perple run` campaigns, journaled so a replay can resume them: a
   resume of a complete journal executes nothing.  Returns the fresh op
   (run [i] into a new journal) and the replay op (resume journal [j]). *)
let journaled_smalls ctx ~seed =
  let smalls = Array.init distinct_small (small ~seed) in
  let refs = Array.map reference smalls in
  let seen = Hashtbl.create 16 in
  let journal i = P.path ctx (Printf.sprintf "fresh-%d.journal" i) in
  let small_run i extra =
    let k = i mod distinct_small in
    repeatable ctx seen ~key:k ~check:(P.campaign_matches refs.(k))
      (P.run_argv ctx smalls.(k) ([ "--journal"; journal i ] @ extra))
  in
  ( (fun i ->
      P.remove (journal i);
      small_run i []),
    fun j -> small_run j [ "--resume" ] )

(* `perple run` campaigns. *)
let cli_path ctx ~seed ~plan =
  let fresh_op, replay_op = journaled_smalls ctx ~seed in
  let cold = { test = "sb"; iterations = 1; runs = 2; seed = derive seed "cold" 0 } in
  let cold_ref = reference cold in
  let mix = mix ~seed ~shrink:plan.shrink in
  let mix_refs = List.map (fun c -> (c, reference c)) mix in
  let seen = Hashtbl.create 4 in
  let cold_start () =
    Option.map fst
      (P.perple_run ctx ~check:(P.campaign_matches cold_ref) (P.run_argv ctx cold []))
  in
  {
    start = cold_start;
    cold_start;
    fresh_op;
    replay_op;
    bulk_op =
      (fun ~round:_ c ->
        repeatable ctx seen ~key:c.test ~check:(P.campaign_matches (List.assq c mix_refs))
          (P.run_argv ctx c []));
    bulk_mix = mix;
    finish = ignore;
  }

(* `perple run --verify-trace` single runs.  Verification is single-run
   only and journals need campaigns, so replays resume journals of small
   unverified campaigns written once before the timed phases: the result
   line must carry every end-to-end metric, replay_p50_ms included. *)
let verify_path ctx ~seed ~plan =
  let write_journal, replay_op = journaled_smalls ctx ~seed in
  let vsmalls = Array.init distinct_small (verify_small ~seed) in
  let vrefs = Array.map reference_single vsmalls in
  let cold = { test = "sb"; iterations = 1; runs = 1; seed = derive seed "cold" 0 } in
  let cold_ref = reference_single cold in
  let round_mix round = verify_mix ~seed ~shrink:plan.shrink ~round in
  let seen = Hashtbl.create 16 in
  let verified ~key c expected =
    repeatable ctx seen ~key ~check:(P.verified_matches expected)
      (P.run_argv ctx c [ "--verify-trace" ])
  in
  let journaled = min distinct_small (plan.fresh / 4) in
  for k = 0 to journaled - 1 do
    ignore (write_journal k)
  done;
  let cold_start () = verified ~key:`Cold cold cold_ref in
  {
    start = cold_start;
    cold_start;
    fresh_op =
      (fun i ->
        let k = i mod distinct_small in
        verified ~key:(`Small k) vsmalls.(k) vrefs.(k));
    replay_op = (fun j -> replay_op (j mod journaled));
    bulk_op =
      (fun ~round c ->
        let c = List.find (fun r -> r.test = c.test) (round_mix round) in
        verified ~key:(`Bulk (c.test, round)) c (reference_single c));
    bulk_mix = round_mix 1;
    finish = ignore;
  }

(* The daemon, or the coordinator with two workers.  Every cold start is a
   fresh daemon timed from spawn to its first completed 1-iteration
   campaign; for the fleet that campaign must have leased one shard to
   each worker, so both are live.  The first instance serves the run. *)
let service_path ctx ~coordinator ~seed ~plan =
  let smalls = Array.init distinct_small (small ~seed) in
  let lines = Array.map (fun c -> P.record_lines (reference c)) smalls in
  let warm_lines = P.record_lines (reference (P.warm_campaign ~coordinator ~seed)) in
  let mix = mix ~seed ~shrink:plan.shrink in
  let mix_lines = List.map (fun c -> (c, P.record_lines (reference c))) mix in
  let live = ref None and starts = ref 0 in
  let service () =
    match !live with Some s -> s | None -> failwith "no live daemon"
  in
  let cold_start ~keep () =
    incr starts;
    let t0 = Unix.gettimeofday () in
    match
      P.start_live ctx ~coordinator ~tag:(Printf.sprintf "cold-%d" !starts) ~warm_lines ~seed
    with
    | None -> None
    | Some s ->
      let dt = Unix.gettimeofday () -. t0 in
      if keep then live := Some s else P.stop_service ctx s;
      Some dt
  in
  {
    start = cold_start ~keep:true;
    cold_start = cold_start ~keep:false;
    fresh_op =
      (fun i ->
        let k = i mod distinct_small in
        P.submit ctx (service ()) ~id:(Printf.sprintf "fresh-%d" i) smalls.(k)
          ~expected:lines.(k));
    replay_op =
      (fun j ->
        let k = j mod distinct_small in
        P.submit ctx (service ()) ~id:(Printf.sprintf "fresh-%d" j) smalls.(k)
          ~expected:lines.(k));
    bulk_op =
      (fun ~round c ->
        P.submit ctx (service ())
          ~id:(Printf.sprintf "bulk-%d-%s" round c.test)
          c ~expected:(List.assq c mix_lines));
    bulk_mix = mix;
    finish = (fun () -> Option.iter (P.stop_service ctx) !live);
  }

(* --- host speed ------------------------------------------------------------------ *)

(* The reference host speed: a calibration kernel takes this long on the
   2-vCPU host the bounds were set on. *)
let calibration_reference = 0.016

(* A fixed compute kernel sharing no code with perple, run in its own
   process; its time tracks how fast the shared host runs right now. *)
let calibration_kernel () =
  let table = Array.make 131072 0 in
  let x = ref 88172645463325252 in
  for i = 0 to 3_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 131071 in
    table.(j) <- table.(j) + i
  done;
  ignore (Sys.opaque_identity table)

let calibrate ctx =
  let t0 = Unix.gettimeofday () in
  ignore (Proc.reap (Proc.spawn ~log:ctx.P.log [| Sys.executable_name; "--calibrate" |]));
  Unix.gettimeofday () -. t0

type event = Calibrate | Cold | Fresh of int | Replay of int | Bulk of int * campaign

(* Every kind of operation spread evenly over the run, so a slow patch on
   a shared host touches all metrics alike instead of shifting a whole
   phase.  A replay of fresh op [4r] follows fresh op [4r + 3]. *)
let schedule plan mix =
  let at n i = (float_of_int i +. 0.5) /. float_of_int n in
  let bulk =
    List.concat (List.init plan.rounds (fun r -> List.map (fun c -> Bulk (r + 1, c)) mix))
  in
  let placed =
    List.init (plan.cold_starts - 1) (fun k -> (at (plan.cold_starts - 1) k, 0, Cold))
    @ List.init plan.fresh (fun i -> (at plan.fresh i, 1, Fresh i))
    @ List.init (plan.fresh / 4) (fun r ->
          (at plan.fresh ((4 * r) + 3), 2, Replay (4 * r)))
    @ List.mapi (fun b e -> (at (List.length bulk) b, 3, e)) bulk
    @ List.init plan.calibrations (fun k -> (at plan.calibrations k, 4, Calibrate))
  in
  List.map
    (fun (_, _, e) -> e)
    (List.stable_sort (fun (p, k, _) (q, l, _) -> compare (p, k) (q, l)) placed)

let measure ctx path plan =
  let setup = ref [] and fresh = ref [] and replay = ref [] and calibration = ref [] in
  let bulk = List.map (fun c -> (c, ref [])) path.bulk_mix in
  let timed into op = Option.iter (fun dt -> into := dt :: !into) (op ()) in
  Fun.protect ~finally:path.finish @@ fun () ->
  timed setup path.start;
  if !setup <> [] then
    List.iter
      (function
        | Calibrate -> calibration := calibrate ctx :: !calibration
        | Cold -> timed setup path.cold_start
        | Fresh i -> timed fresh (fun () -> path.fresh_op i)
        | Replay j -> timed replay (fun () -> path.replay_op j)
        | Bulk (round, c) -> timed (List.assq c bulk) (fun () -> path.bulk_op ~round c))
      (schedule plan path.bulk_mix);
  { setup = !setup; fresh = !fresh; replay = !replay;
    bulk = List.map (fun (c, l) -> (c, !l)) bulk; calibration = !calibration }

let path_for ctx w ~seed ~plan =
  match w with
  | Cli -> cli_path ctx ~seed ~plan
  | Verify -> verify_path ctx ~seed ~plan
  | Daemon -> service_path ctx ~coordinator:false ~seed ~plan
  | Fleet -> service_path ctx ~coordinator:true ~seed ~plan

(* --- output ------------------------------------------------------------------- *)

(* The host's speed relative to the reference, from the run's calibration
   median. *)
let host_speed r = calibration_reference /. Stats.median (Array.of_list r.calibration)

(* Every time is reported at the reference host's speed: measured × [k],
   the run's host speed, one factor for every time whatever it is spent
   on.  A shared host runs whole minutes up to 25% faster or slower; the
   factor takes that drift out of times spent computing, and adds the
   noise of [k] to times spent waiting (the daemon's timer-bound
   submits).  Since it does not depend on what the code under test does,
   two runs measured at the same host speed, as in an alternating pair,
   keep exactly their measured ratio.

   iters_per_s is one bulk round's iterations over the sum of each bulk
   campaign's median latency: a slow patch moves a median less than a
   total. *)
let e2e_metrics ctx r =
  let k = host_speed r in
  let at p l = k *. Stats.percentile (Array.of_list l) p in
  let round_iterations = List.fold_left (fun n (c, _) -> n + (c.iterations * c.runs)) 0 r.bulk in
  let round_seconds = List.fold_left (fun s (_, l) -> s +. at 50. l) 0. r.bulk in
  Census.
    [
      m "setup_s" "s" (at 50. r.setup);
      m "iters_per_s" "1/s" (float_of_int round_iterations /. round_seconds);
      m "submit_p50_ms" "ms" (1000. *. at 50. r.fresh);
      m "submit_p95_ms" "ms" (1000. *. at 95. r.fresh);
      m "replay_p50_ms" "ms" (1000. *. at 50. r.replay);
      m "peak_rss_mb" "MB" (float_of_int ctx.P.peak_kb /. 1024.);
    ]

(* The fields of the result line, with every digit of every value. *)
let result_fields ~correct ~attempted ~failed metrics =
  Printf.sprintf "\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Census.metric) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
          metrics))

let print_table ~title metrics =
  Printf.printf "# %s\n" title;
  List.iter
    (fun (m : Census.metric) -> Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit_)
    metrics

(* --- directories --------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Files this benchmark wrote under [d] on an earlier run (journals,
   sockets, logs); [d] holds nothing else. *)
let reset_dir d =
  mkdir_p d;
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)

(* --- main ------------------------------------------------------------------------ *)

let new_ctx ~perple ~workdir name =
  let dir = Filename.concat workdir name in
  reset_dir dir;
  { P.perple; dir; log = Filename.concat dir "stderr.log"; attempted = 0; failed = 0;
    peak_kb = 0; errors = [] }

let run_e2e ctx ~seed ~plan w =
  let m = measure ctx (path_for ctx w ~seed ~plan) plan in
  let complete =
    List.for_all (( <> ) []) ([ m.setup; m.fresh; m.replay ] @ List.map snd m.bulk)
    && m.calibration <> []
  in
  if not complete then begin
    P.failure ctx "%s: a phase produced no successful operation" (name_of w);
    ([], None)
  end
  else begin
    let k = host_speed m in
    Printf.printf "# host speed %.3f of the reference\n" k;
    (e2e_metrics ctx m, Some k)
  end

(* A metric that is not a finite number (a census pass that failed) would
   make the result line invalid JSON: it is a failure instead. *)
let finite ctx metrics =
  List.filter
    (fun (m : Census.metric) ->
      Float.is_finite m.value
      || (P.failure ctx "metric %s is not a finite number" m.name;
          false))
    metrics

let () =
  (* A spinner child (see [start_spinners]): loop until killed. *)
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--spin" then
    while true do
      ()
    done;
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then begin
    calibration_kernel ();
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref nominal_seconds in
  let trace = ref 0 and smoke = ref false and out = ref "" in
  let workdir = ref "_build/bench-e2e" in
  let usage = "e2e.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cli-campaign|daemon|fleet-campaign|verify-trace");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured time the operation counts are sized for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer census (1)");
      ("--smoke", Arg.Set smoke, " every workload at 1/20 size");
      ("--workdir", Arg.Set_string workdir, "DIR journals, sockets and logs");
      ("--out", Arg.Set_string out, "FILE also append the result line to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    match (List.assoc_opt !workload workloads, !smoke) with
    | Some w, _ -> [ w ]
    | None, true when !workload = "" -> List.map snd workloads
    | None, _ ->
      prerr_endline ("e2e: unknown --workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  (* The binary this checkout built (bench_e2e/run.sh builds both). *)
  let perple = Filename.concat (Sys.getcwd ()) "_build/default/bin/perple.exe" in
  if not (Sys.file_exists perple) then begin
    prerr_endline ("e2e: no perple binary at " ^ perple);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit Proc.kill_all;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Watchdog));
  ignore (Unix.alarm (if !smoke then 60 else 170));
  (* With --out, the result line also goes to FILE, tagged for compare.exe
     with the workload, the seed, the mode and the host speed. *)
  let emit ~workload ~host_speed fields =
    print_endline ("{" ^ fields ^ "}");
    if !out <> "" then
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 !out (fun oc ->
          Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, %s%s}\n" workload
            !seed !trace
            (Option.fold ~none:"" ~some:(Printf.sprintf "\"host_speed\": %.17g, ") host_speed)
            fields)
  in
  Printf.printf "# workdir %s on %s\n%!" !workdir (Proc.fs_type !workdir);
  let run_one name measure =
    let ctx = new_ctx ~perple ~workdir:!workdir name in
    Proc.start_spinners ~log:ctx.P.log;
    let metrics, host_speed = Fun.protect ~finally:Proc.stop_spinners (fun () -> measure ctx) in
    let metrics = finite ctx metrics in
    List.iter (fun e -> Printf.printf "! %s\n" e) (List.rev ctx.P.errors);
    print_table
      ~title:(Printf.sprintf "%s seed %d: %d operations, %d failed" name !seed ctx.P.attempted
                ctx.P.failed)
      metrics;
    let correct = ctx.P.failed = 0 in
    emit ~workload:name ~host_speed
      (result_fields ~correct ~attempted:ctx.P.attempted ~failed:ctx.P.failed metrics);
    correct
  in
  match
    if !trace = 1 then
      (* The census always covers all four workloads: each per-layer metric
         comes from the workload that exercises its layer. *)
      [ run_one "census" (fun ctx -> (Census.run ctx ~seed:!seed, None)) ]
    else
      List.map
        (fun w ->
          let plan = plan ~smoke:!smoke ~seconds:!seconds w in
          run_one (name_of w) (fun ctx -> run_e2e ctx ~seed:!seed ~plan w))
        chosen
  with
  | oks -> exit (if List.for_all Fun.id oks then 0 else 1)
  | exception Watchdog ->
    prerr_endline "e2e: watchdog: the run exceeded its time limit";
    exit 3
