(* The traced per-layer census (--trace 1).

   Each workload's first-round inputs (bulk campaigns cut to 8 runs; pre-
   split seeds are prefix-stable, so they are the first 8 runs of the
   timed campaigns) run in this process at jobs 1, so spans nest on one
   thread.  Spans come from the program (engine.*, pool.task, machine.run,
   count.*, service.scheduler.step) and from this file, around calls into
   each layer's public functions.  The service layers run as the sans-IO
   Server/Client/Worker pump the coordinator tests use, over a real
   on-disk journal.  The same inputs also go once through the built
   binary, whose outputs must equal the traced ones.  Every per-layer
   metric is taken from the workload whose end-to-end number it should
   move (README.md has the table). *)

open Inputs
module P = Paths
module L = Bench_e2e.Layer_table
module Trace = Perple_util.Trace_event
module Metrics = Perple_util.Metrics
module Framed = Perple_util.Framed
module Journal = Perple_util.Journal
module Stats = Perple_util.Stats
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Trace_check = Perple_core.Trace_check
module Solver = Perple_memmodel.Solver
module Wire = Perple_service.Wire
module Scheduler = Perple_service.Scheduler
module Coordinator = Perple_service.Coordinator
module Server = Perple_service.Server
module Client = Perple_service.Client
module Worker = Perple_service.Worker

let now = Unix.gettimeofday
let root = "bench.root"
let span = Trace.span
let sum = List.fold_left ( +. ) 0.
let median l = Stats.median (Array.of_list l)

exception Census_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Census_failure m)) fmt

(* --- copies ----------------------------------------------------------------------- *)

(* One copy of a workload's census inputs: its own harness (scheduler,
   journal, server) and items, run untraced or with its own sinks. *)
type ('h, 'a) copy = {
  traced : bool;
  harness : 'h;
  items : (unit -> 'a) array;
  close : unit -> unit;
  tsink : Trace.sink;
  msink : Metrics.sink;
  times : float array;  (** Per-item wall time. *)
  mutable results : 'a list;  (** Reversed. *)
}

let copy ~traced ?(close = ignore) harness items =
  let items = Array.of_list items in
  { traced; harness; items; close; tsink = Trace.create_sink (); msink = Metrics.create_sink ();
    times = Array.make (Array.length items) 0.; results = [] }

(* Run the copies item by item — item 0 of every copy, then item 1, ... —
   so drift on a shared host hits all copies alike; each item runs inside
   its own root span, and [prepare] runs untimed before each.  Every copy
   counts into its own metrics sink, so tracing is the only difference
   between an untraced and a traced copy. *)
let interleave ?(prepare = ignore) copies =
  Fun.protect ~finally:(fun () -> List.iter (fun c -> c.close ()) copies) @@ fun () ->
  let n = Array.length (List.hd copies).items in
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        prepare ();
        Metrics.install c.msink;
        if c.traced then Trace.install c.tsink;
        let t0 = now () in
        let r =
          Fun.protect
            ~finally:(fun () ->
              Trace.uninstall ();
              Metrics.uninstall ())
            (fun () -> span root c.items.(i))
        in
        c.times.(i) <- now () -. t0;
        c.results <- r :: c.results)
      copies
  done

let results c = List.rev c.results

(* service.session spans a connection's whole life, not work: dropped. *)
let table c =
  match L.spans_of_chrome (Trace.to_json c.tsink) with
  | Ok spans -> L.fold ~root (List.filter (fun s -> s.L.name <> "service.session") spans)
  | Error m -> fail "trace: %s" m

(* Per item, the faster of two copies. *)
let best a b = Array.to_list (Array.map2 Float.min a.times b.times)

(* Two untraced and two traced copies, U T U T.  The first traced copy's
   spans make the table; tracing must change no result. *)
type ('h, 'a) measured = {
  untraced : ('h, 'a) copy;  (** The first untraced copy. *)
  traced : ('h, 'a) copy;  (** The first traced copy: its table and counts. *)
  untraced_s : float list;  (** Per item, best of the untraced copies. *)
  traced_s : float list;  (** Per item, best of the traced copies. *)
  table : L.t;
}

let measure what ?prepare ?(extra = []) make =
  let u1 = make ~traced:false and t1 = make ~traced:true in
  let u2 = make ~traced:false and t2 = make ~traced:true in
  interleave ?prepare ([ u1; t1; u2; t2 ] @ extra);
  let r = results t1 in
  if List.exists (fun c -> results c <> r) [ u1; u2; t2 ] then
    fail "%s: tracing changed the results" what;
  { untraced = u1; traced = t1; untraced_s = best u1 u2; traced_s = best t1 t2; table = table t1 }

(* --- metrics ------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let self_s t names = sum (List.map (L.self t) names) /. 1e6

let share t names = sum (List.map (L.self t) names) /. t.L.root_us

let prefixed t prefix =
  List.filter_map
    (fun (name, _) -> if P.starts_with prefix name then Some name else None)
    t.L.self_us

(* Per workload: traced wall, the bench root's own share, the cost of
   tracing (the median over items, robust to one item's stall), and exact
   counts that repeat run to run. *)
let per_workload w r =
  let q = name_of w ^ "." in
  let count name = float_of_int (Metrics.counter r.traced.msink name) in
  let slowdown = median (List.map2 ( /. ) r.traced_s r.untraced_s) in
  [
    m (q ^ "traced_wall_s") "s" (Array.fold_left ( +. ) 0. r.traced.times);
    m (q ^ "unattributed_share") "fraction" (r.table.L.unattributed_us /. r.table.L.root_us);
    m (q ^ "tracing_overhead_pct") "%" (100. *. (slowdown -. 1.));
    m (q ^ "machine.rounds") "count" (count "machine.rounds");
    m (q ^ "count.evaluations") "count" (count "count.evaluations");
    m (q ^ "engine.runs") "count" (count "engine.runs");
  ]

let engine_spans = [ "engine.run"; "engine.campaign"; "pool.task" ]

let cut_mix ~seed = List.map (fun c -> { c with runs = min 8 c.runs }) (mix ~seed ~shrink:1)

let iterations cs = float_of_int (List.fold_left (fun n c -> n + (c.iterations * c.runs)) 0 cs)

(* --- cli-campaign: Engine -> Machine -> Count -> Ledger ----------------------- *)

(* A campaign exactly as `perple run --runs R` drives it, with this bench's
   span around the per-run ledger serialization. *)
let campaign_item c () =
  let out = Array.make c.runs None in
  match
    Engine.campaign_entries ~config ~counter:Engine.Heuristic ~jobs:1
      ~on_entry:(fun e ->
        out.(e.Engine.run_index) <-
          Some
            (span "ledger" (fun () ->
                 let s = Ledger.of_entry e in
                 (s, Ledger.record_line s))))
      ~runs:c.runs ~seed:c.seed ~iterations:c.iterations (test_of c)
  with
  | Error r -> fail "%s: %s" c.test (Format.asprintf "%a" Perple_core.Convert.pp_reason r)
  | Ok _ -> Array.map Option.get out

let cli ctx ~seed =
  let cs = Array.to_list (Array.init distinct_small (small ~seed)) @ cut_mix ~seed in
  let r = measure "cli" (fun ~traced -> copy ~traced () (List.map campaign_item cs)) in
  List.iter2
    (fun c runs ->
      ignore
        (P.perple_run ctx ~check:(P.campaign_matches (Array.map fst runs)) (P.run_argv ctx c [])))
    cs (results r.traced);
  let t = r.table in
  let counters = prefixed t "count." in
  let iters = iterations cs in
  let lines = List.concat_map (fun runs -> Array.to_list (Array.map snd runs)) (results r.traced) in
  [
    m "machine.self_s" "s" (self_s t [ "machine.run" ]);
    m "machine.share" "fraction" (share t [ "machine.run" ]);
    m "machine.ns_per_iter" "ns" (1e3 *. L.self t "machine.run" /. iters);
    m "count.self_s" "s" (self_s t counters);
    m "count.share" "fraction" (share t counters);
    m "count.ns_per_iter" "ns" (1e3 *. sum (List.map (L.self t) counters) /. iters);
    m "ledger.self_s" "s" (self_s t [ "ledger" ]);
    m "ledger.bytes_per_run" "B"
      (float_of_int (List.fold_left (fun n l -> n + String.length l) 0 lines)
      /. float_of_int (List.length lines));
  ]
  @ per_workload Cli r

(* --- the sans-IO service pump -------------------------------------------------- *)

(* One simulated worker process: its machine and its server connection. *)
type sim = {
  w : Worker.t;
  conn : int;
  cache : (string, Scheduler.resolved) Hashtbl.t;
  mutable lease_at : float option;  (** When the current lease was flushed. *)
  mutable run_at_lease : float;  (** [run_index_s] at that moment. *)
}

type harness = {
  server : Server.t;
  scheduler : Scheduler.t;
  journal : string option;
  mutable tick : int;
  sims : sim list;
  mutable wire : string list;  (** Client-connection chunks, both directions. *)
  mutable ingest_s : float;
  mutable run_index_s : float;
  mutable lease_overheads : float list;
}

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let shard_last ~runs index =
  min (runs - 1) ((index / P.shard_runs * P.shard_runs) + P.shard_runs - 1)

(* One worker turn: deliver what the coordinator wrote, execute at most one
   leased run, and hand the worker's frames to the coordinator. *)
let step_sim h s ~tick =
  let leases = Worker.leases_taken s.w in
  let t_flush = now () in
  let bytes = span "server.flush" (fun () -> Server.flush h.server ~conn:s.conn) in
  span "worker" (fun () -> if bytes <> "" then Worker.input s.w ~now:tick bytes);
  if Worker.leases_taken s.w > leases then begin
    s.lease_at <- Some t_flush;
    s.run_at_lease <- h.run_index_s
  end;
  let finished =
    match Worker.task s.w with
    | None -> false
    | Some tk ->
      let spec = tk.Worker.spec in
      let record, dt =
        timed (fun () ->
            span "worker.run_index" (fun () ->
                let resolved =
                  match Hashtbl.find_opt s.cache tk.Worker.digest with
                  | Some r -> r
                  | None -> (
                    match Scheduler.resolve_spec spec with
                    | Ok r ->
                      Hashtbl.replace s.cache tk.Worker.digest r;
                      r
                    | Error m -> fail "worker: %s" m)
                in
                match Worker.run_index ~resolved ~spec ~index:tk.Worker.index with
                | Ok line -> line
                | Error m -> fail "worker: %s" m))
      in
      h.run_index_s <- h.run_index_s +. dt;
      span "worker" (fun () -> Worker.task_done s.w ~now:tick ~record);
      tk.Worker.index = shard_last ~runs:spec.Wire.runs tk.Worker.index
  in
  let out =
    span "worker" (fun () ->
        Worker.tick s.w ~now:tick;
        Framed.take_all (Worker.output s.w))
  in
  if out <> "" then begin
    let (), dt =
      timed (fun () ->
          span "coordinator.ingest" (fun () -> Server.input h.server ~conn:s.conn ~now:tick out))
    in
    h.ingest_s <- h.ingest_s +. dt
  end;
  match (finished, s.lease_at) with
  | true, Some at ->
    (* Lease flush to ingested result, less the runs executed meanwhile
       (by either worker: they take turns on this one thread). *)
    h.lease_overheads <- (now () -. at -. (h.run_index_s -. s.run_at_lease)) :: h.lease_overheads;
    s.lease_at <- None
  | _ -> ()

let make_harness ~journal ~workers =
  Option.iter P.remove journal;
  let scheduler =
    match Scheduler.create ~jobs:1 ~journal () with Ok s -> s | Error m -> fail "scheduler: %s" m
  in
  let coordinator =
    if workers = 0 then None
    else
      match
        Coordinator.create
          ~config:{ Coordinator.default_config with shard_runs = P.shard_runs }
          ~scheduler ()
      with
      | Ok co -> Some co
      | Error m -> fail "coordinator: %s" m
  in
  let server = Server.create ?coordinator ~scheduler () in
  let sims =
    List.init workers (fun i ->
        { w = Worker.create ~name:(Printf.sprintf "w%d" i) ~now:0 ();
          conn = Server.connect server ~now:0; cache = Hashtbl.create 4; lease_at = None;
          run_at_lease = 0. })
  in
  let h =
    { server; scheduler; journal; tick = 0; sims; wire = []; ingest_s = 0.; run_index_s = 0.;
      lease_overheads = [] }
  in
  (* Handshakes first: a coordinator with no worker joined would execute
     campaigns itself. *)
  Option.iter
    (fun co ->
      while Coordinator.worker_count co < workers do
        h.tick <- h.tick + 1;
        if h.tick > 1000 then fail "workers never joined";
        List.iter (fun s -> step_sim h s ~tick:h.tick) sims;
        Server.tick server ~now:h.tick
      done)
    coordinator;
  h

(* One closed-loop campaign over a fresh client connection. *)
let submit_item h ~id c () =
  let conn = Server.connect h.server ~now:h.tick in
  let client = Client.create ~spec:(P.wire_spec ~id c) ~now:h.tick () in
  let send () =
    let bytes = span "client" (fun () -> Framed.take_all (Client.output client)) in
    if bytes <> "" then begin
      h.wire <- bytes :: h.wire;
      span "server.input" (fun () -> Server.input h.server ~conn ~now:h.tick bytes)
    end
  in
  let deadline = h.tick + 1_000_000 in
  let rec loop () =
    h.tick <- h.tick + 1;
    send ();
    List.iter (fun s -> step_sim h s ~tick:h.tick) h.sims;
    span "server.tick" (fun () -> Server.tick h.server ~now:h.tick);
    let bytes = span "server.flush" (fun () -> Server.flush h.server ~conn) in
    if bytes <> "" then h.wire <- bytes :: h.wire;
    span "client" (fun () ->
        if bytes <> "" then Client.input client ~now:h.tick bytes;
        Client.tick client ~now:h.tick);
    match Client.status client with
    | Client.Pending -> if h.tick > deadline then fail "%s never completed" id else loop ()
    | Client.Failed m -> fail "%s: %s" id m
    | Client.Done o ->
      send ();
      ignore (Server.flush h.server ~conn);
      o.Client.records
  in
  loop ()

let service_copy ~journal ~workers ops ~traced =
  let h = make_harness ~journal ~workers in
  copy ~traced ~close:(fun () -> Scheduler.close h.scheduler) h
    (List.map (fun (id, c) -> submit_item h ~id c) ops)

(* Fresh small campaigns with a replay after every fourth, then the cut
   bulk mix — the e2e order, at census size. *)
type op = { id : string; c : campaign; fresh : bool; small : bool }

let service_ops ~seed ~fresh =
  let smalls = Array.init distinct_small (small ~seed) in
  let ops = ref [] in
  for i = 0 to fresh - 1 do
    ops := { id = Printf.sprintf "fresh-%d" i; c = smalls.(i mod distinct_small); fresh = true;
             small = true } :: !ops;
    if (i + 1) mod 4 = 0 then begin
      let j = i - 3 in
      ops := { id = Printf.sprintf "fresh-%d" j; c = smalls.(j mod distinct_small);
               fresh = false; small = true } :: !ops
    end
  done;
  List.rev !ops
  @ List.map (fun c -> { id = "bulk-1-" ^ c.test; c; fresh = true; small = false }) (cut_mix ~seed)

let id_campaigns ops = List.map (fun op -> (op.id, op.c)) ops

(* The same ops through the built binary; returns its journal and the fresh
   small-campaign latencies, or [None] if the service never came up. *)
let through_binary ctx ~coordinator ~seed ~tag ops records =
  let warm_lines = P.record_lines (reference (P.warm_campaign ~coordinator ~seed)) in
  match P.start_live ctx ~coordinator ~tag ~warm_lines ~seed with
  | None -> None
  | Some s ->
    Fun.protect ~finally:(fun () -> P.stop_service ctx s) @@ fun () ->
    let lat =
      List.concat
        (List.map2
           (fun op expected ->
             match P.submit ctx s ~id:op.id op.c ~expected with
             | Some dt when op.fresh && op.small -> [ dt ]
             | _ -> [])
           ops records)
    in
    Some (s.P.journal, lat)

let fresh_small ops times =
  List.concat (List.map2 (fun op t -> if op.fresh && op.small then [ t ] else []) ops times)

(* Wire.decode over the captured client streams, repeated for a stable
   figure; every captured chunk is a whole number of frames. *)
let decode_stats chunks =
  let frames = ref 0 and bytes = List.fold_left (fun n s -> n + String.length s) 0 chunks in
  let decode_all () =
    List.iter
      (fun s ->
        let rec go pos =
          if pos < String.length s then
            match Wire.decode ~pos s with
            | Wire.Frame (_, n) ->
              incr frames;
              go (pos + n)
            | Wire.Need_more | Wire.Corrupt _ -> fail "wire: captured stream does not decode"
        in
        go 0)
      chunks
  in
  decode_all ();
  let per_pass = !frames in
  let reps = ref 0 and elapsed = ref 0. in
  while !elapsed < 0.05 do
    let (), dt = timed decode_all in
    elapsed := !elapsed +. dt;
    incr reps
  done;
  (per_pass, bytes, 1e9 *. !elapsed /. float_of_int (!reps * bytes))

(* --- daemon: Session / Wire / Server / Scheduler / Journal --------------------- *)

let daemon ctx ~seed =
  let ops = service_ops ~seed ~fresh:24 in
  let journals = ref 0 in
  let make ~journal ~traced =
    incr journals;
    let journal =
      if journal then Some (P.path ctx (Printf.sprintf "census-daemon-%d.journal" !journals))
      else None
    in
    service_copy ~journal ~workers:0 (id_campaigns ops) ~traced
  in
  (* Two unjournaled copies ride along: their difference to the journaled
     ones is the journal's cost. *)
  let bare = [ make ~journal:false ~traced:false; make ~journal:false ~traced:false ] in
  let r = measure "daemon" ~extra:bare (make ~journal:true) in
  if List.exists (fun c -> results c <> results r.traced) bare then
    fail "daemon: journaling changed the records";
  let h = r.traced.harness in
  let e2e_p50 =
    match through_binary ctx ~coordinator:false ~seed ~tag:"census-daemon" ops (results r.traced) with
    | Some (_, lat) -> 1e3 *. median lat
    | None -> nan
  in
  let t = r.table in
  let fresh = List.length (List.filter (fun op -> op.fresh) ops) in
  let journal = Option.get h.journal in
  let records =
    match Journal.load journal with
    | Ok j -> List.length j.Journal.records - 1
    | Error msg -> fail "journal: %s" msg
  in
  let journal_bytes = (Unix.stat journal).Unix.st_size in
  let frames, bytes, ns_per_byte = decode_stats h.wire in
  let submits = float_of_int (List.length ops) in
  let inproc = fresh_small ops r.untraced_s in
  let journal_ms =
    match bare with
    | [ a; b ] -> 1e3 *. median (List.map2 ( -. ) inproc (fresh_small ops (best a b)))
    | _ -> assert false
  in
  [
    m "engine.self_s" "s" (self_s t engine_spans);
    m "engine.share" "fraction" (share t engine_spans);
    m "server.input_s" "s" (self_s t [ "server.input" ]);
    m "server.tick_self_s" "s" (self_s t [ "server.tick" ]);
    m "server.flush_s" "s" (self_s t [ "server.flush" ]);
    m "client.self_s" "s" (self_s t [ "client" ]);
    m "wire.frames_per_campaign" "count" (float_of_int frames /. submits);
    m "wire.bytes_per_campaign" "B" (float_of_int bytes /. submits);
    m "wire.decode_ns_per_byte" "ns" ns_per_byte;
    m "scheduler.step_self_s" "s" (self_s t [ "service.scheduler.step" ]);
    m "journal.ms_per_campaign" "ms" journal_ms;
    m "journal.appends_per_campaign" "count" (float_of_int records /. float_of_int fresh);
    m "journal.bytes_per_campaign" "B" (float_of_int journal_bytes /. float_of_int fresh);
    m "driver_wait_ms" "ms" (e2e_p50 -. (1e3 *. median inproc));
  ]
  @ per_workload Daemon r

(* --- fleet-campaign: Coordinator / leases / Worker ------------------------------ *)

let fleet ctx ~seed =
  let ops = List.filter (fun op -> op.fresh) (service_ops ~seed ~fresh:distinct_small) in
  let copies = ref 0 in
  let r =
    measure "fleet" (fun ~traced ->
        incr copies;
        let journal = P.path ctx (Printf.sprintf "census-fleet-%d.journal" !copies) in
        service_copy ~journal:(Some journal) ~workers:2 (id_campaigns ops) ~traced)
  in
  let leases, revokes =
    match through_binary ctx ~coordinator:true ~seed ~tag:"census-fleet" ops (results r.traced) with
    | None -> (nan, nan)
    | Some (journal, _) ->
      let count kind =
        List.fold_left
          (fun n op -> n + List.length (P.journal_records ~campaign:op.id journal kind))
          0 ops
      in
      (float_of_int (count "lease"), float_of_int (count "revoke"))
  in
  let shards =
    List.fold_left (fun n op -> n + ((op.c.runs + P.shard_runs - 1) / P.shard_runs)) 0 ops
  in
  let h = r.traced.harness in
  let wall = Array.fold_left ( +. ) 0. r.traced.times in
  [
    m "worker.run_index_s" "s" h.run_index_s;
    m "worker.run_index_share" "fraction" (h.run_index_s /. wall);
    m "coordinator.ingest_ms_per_shard" "ms" (1e3 *. h.ingest_s /. float_of_int shards);
    m "lease.overhead_ms" "ms" (1e3 *. median r.untraced.harness.lease_overheads);
    m "coordinator.leases" "count" leases;
    m "coordinator.revokes" "count" revokes;
  ]
  @ per_workload Fleet r

(* --- verify-trace: Trace_check / Solver ---------------------------------------- *)

(* Peak heap growth over [f], sampled at the end of every major cycle. *)
let heap_growth_words f =
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let peak = ref base in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  sample ();
  (r, !peak - base)

let verify ctx ~seed =
  let cs = verify_mix ~seed ~shrink:1 ~round:1 in
  let model = Trace_check.spec_model Perple_sim.Config.Tso in
  let words = ref 0 in
  let item c () =
    match Engine.run ~config ~seed:c.seed ~iterations:c.iterations (test_of c) with
    | Error _ -> fail "verify: %s does not convert" c.test
    | Ok report ->
      let v, grown =
        heap_growth_words (fun () ->
            let trace =
              span "trace_check" (fun () ->
                  Trace_check.trace_of_run report.Engine.conversion report.Engine.run)
            in
            span "solver" (fun () -> Solver.classify_trace model trace))
      in
      words := max !words grown;
      if not v.Solver.consistent then fail "verify: %s trace is inconsistent" c.test;
      ((report.Engine.run.Perple_harness.Perpetual.iterations, Engine.target_count report),
       v.Solver.events)
  in
  (* Compacting first makes each item's heap growth its own. *)
  let r =
    measure "verify" ~prepare:Gc.compact (fun ~traced -> copy ~traced () (List.map item cs))
  in
  List.iter2
    (fun c (expected, _) ->
      ignore
        (P.perple_run ctx ~check:(P.verified_matches expected)
           (P.run_argv ctx c [ "--verify-trace" ])))
    cs (results r.traced);
  let t = r.table in
  let events = float_of_int (List.fold_left (fun n (_, e) -> n + e) 0 (results r.traced)) in
  [
    m "trace_check.self_s" "s" (self_s t [ "trace_check" ]);
    m "trace_check.ns_per_event" "ns" (1e3 *. L.self t "trace_check" /. events);
    m "solver.self_s" "s" (self_s t [ "solver" ]);
    m "solver.ns_per_event" "ns" (1e3 *. L.self t "solver" /. events);
    m "verify.heap_mb" "MB" (float_of_int (!words * (Sys.word_size / 8)) /. 1048576.);
  ]
  @ per_workload Verify r

(* Every per-layer metric; a census failure is reported through [ctx]. *)
let run ctx ~seed =
  List.concat_map
    (fun (w, f) ->
      ctx.P.attempted <- ctx.P.attempted + 1;
      match f ctx ~seed with
      | metrics -> metrics
      | exception Census_failure msg ->
        P.failure ctx "census %s: %s" (name_of w) msg;
        [])
    [ (Cli, cli); (Daemon, daemon); (Fleet, fleet); (Verify, verify) ]
