(* Multi-node coordination: lease lifecycle, zombie discipline, crash
   resume, fairness, rate limiting, progress streaming — and the
   seeded multi-worker chaos schedules demanded by the distribution
   tentpole: workers die mid-shard, stall past their deadline, deliver
   then die, and reconnect as zombies, yet every schedule classifies,
   no journal is damaged, and the merged ledger stays byte-identical
   to a single-node run whenever no shard was abandoned. *)

module Framed = Perple_util.Framed
module Journal = Perple_util.Journal
module Wire = Perple_service.Wire
module Session = Perple_service.Session
module Scheduler = Perple_service.Scheduler
module Coordinator = Perple_service.Coordinator
module Worker = Perple_service.Worker
module Server = Perple_service.Server
module Client = Perple_service.Client
module Chaos = Perple_service.Chaos

let check = Alcotest.check

let scratch =
  Filename.concat (Filename.get_temp_dir_name ()) "perple-coordinator-test"

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let in_scratch name = Filename.concat scratch name

let spec ?(campaign = "multi") ?(test = "podwr000") ?(iterations = 60)
    ?(seed = 7) ?(runs = 6) ?(counter = "heur") ?(model = "tso") () =
  { Wire.campaign; test; iterations; seed; runs; counter; model }

let fast_session =
  { Session.default_config with heartbeat_every = 50; liveness_timeout = 2_000 }

let fast_client = { Client.heartbeat_every = 50; liveness_timeout = 2_000 }
let fast_worker = { Worker.heartbeat_every = 40; liveness_timeout = 2_000 }

let lease_ticks = 120

let co_config ?(shard_runs = 2) ?(max_attempts = 4) () =
  { Coordinator.shard_runs; lease_ticks; max_attempts; retry_delay = 10;
    retry_backoff = 2.0 }

(* The single-node truth a distributed execution must reproduce. *)
let reference_records sp =
  let sched = Result.get_ok (Scheduler.create ~jobs:1 ~journal:None ()) in
  (match Scheduler.submit sched sp with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "reference submit failed: %s" m);
  let guard = ref 0 in
  while Scheduler.pending sched do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "reference failed to converge";
    ignore (Scheduler.step sched)
  done;
  let records =
    List.init sp.Wire.runs (fun index ->
        Option.get (Scheduler.record sched ~campaign:sp.Wire.campaign ~index))
  in
  let metrics =
    Option.get (Scheduler.metrics_payload sched ~campaign:sp.Wire.campaign)
  in
  Scheduler.close sched;
  (records, metrics)

let execute_task cache (tk : Worker.task) =
  let resolved =
    match Hashtbl.find_opt cache tk.Worker.digest with
    | Some r -> Ok r
    | None -> (
      match Scheduler.resolve_spec tk.Worker.spec with
      | Ok r ->
        Hashtbl.replace cache tk.Worker.digest r;
        Ok r
      | Error _ as e -> e)
  in
  match resolved with
  | Error m -> Error m
  | Ok r ->
    Worker.run_index ~resolved:r ~spec:tk.Worker.spec ~index:tk.Worker.index

(* --- simulated worker processes ---------------------------------------------- *)

(* A worker process under chaos.  [Stalled] is a wedged process: no
   reads, no writes, no execution.  [Partitioned] is a zombie in the
   making: it keeps computing but nothing crosses the wire in either
   direction — when the partition lifts it floods the coordinator with
   stale renewals and an old-epoch result.  [Dead] lost its process
   (unsent bytes discarded) and respawns on a fresh connection. *)
type wstate = Up | Stalled of int | Partitioned of int | Dead of int

type sim = {
  sw_name : string;
  plan : Chaos.plan;
  cache : (string, Scheduler.resolved) Hashtbl.t;
  shard_runs : int;
  mutable conn : int;
  mutable w : Worker.t option;
  mutable st : wstate;
  mutable seen_leases : int;
  mutable die_after : int option;  (** Task completions until sudden death. *)
  mutable die_on_flush : bool;  (** Deliver the shard result, then die. *)
}

let make_sim ~seed ~profile ~name ~shard_runs =
  {
    sw_name = name;
    plan = Chaos.plan ~seed profile;
    cache = Hashtbl.create 4;
    shard_runs;
    conn = -1;
    w = None;
    st = Dead 0;
    seen_leases = 0;
    die_after = None;
    die_on_flush = false;
  }

let kill_sim server sim ~now ~respawn_at =
  (match sim.w with
  | Some w -> ignore (Framed.take_all (Worker.output w))
  | None -> ());
  if sim.conn >= 0 then Server.eof server ~conn:sim.conn ~now;
  sim.w <- None;
  sim.st <- Dead respawn_at;
  sim.die_after <- None;
  sim.die_on_flush <- false

let flush_worker server sim ~now w =
  let bytes = Framed.take_all (Worker.output w) in
  if bytes <> "" then Server.input server ~conn:sim.conn ~now bytes

let apply_fault sim ~now = function
  | Chaos.Die_mid_shard ->
    sim.die_after <- Some (1 + Chaos.draw_point sim.plan ~max:sim.shard_runs)
  | Chaos.Stall_past_deadline -> sim.st <- Stalled (now + (2 * lease_ticks) + 7)
  | Chaos.Result_then_die -> sim.die_on_flush <- true
  | Chaos.Reconnect_as_zombie ->
    sim.st <- Partitioned (now + (2 * lease_ticks) + 11)

let step_sim server sim ~now =
  (match sim.st with
  | Dead until when now >= until ->
    sim.conn <- Server.connect server ~now;
    sim.w <-
      Some (Worker.create ~config:fast_worker ~name:sim.sw_name ~now ());
    sim.st <- Up;
    sim.seen_leases <- 0
  | Stalled until when now >= until -> sim.st <- Up
  | Partitioned until when now >= until -> sim.st <- Up
  | _ -> ());
  match sim.w with
  | None -> ()
  | Some w -> (
    let offline () =
      match sim.st with Stalled _ | Partitioned _ -> true | _ -> false
    in
    (* Inbound: what the coordinator wrote for us, unless offline. *)
    if not (offline ()) then begin
      let bytes = Server.flush server ~conn:sim.conn in
      if bytes <> "" then Worker.input w ~now bytes
    end;
    (* New leases draw their fault verdict, one per acceptance. *)
    let taken = Worker.leases_taken w in
    if taken > sim.seen_leases then begin
      for _ = sim.seen_leases + 1 to taken do
        match Chaos.draw_fault sim.plan with
        | Some f -> apply_fault sim ~now f
        | None -> ()
      done;
      sim.seen_leases <- taken
    end;
    (* Execute at most one leased run per tick.  State is re-read here:
       a fault drawn above (stall, partition) takes effect this tick. *)
    let executing =
      match sim.st with Up | Partitioned _ -> true | _ -> false
    in
    let died = ref false in
    (if executing then
       match Worker.task w with
       | None -> ()
       | Some tk ->
         (match execute_task sim.cache tk with
         | Ok record -> Worker.task_done w ~now ~record
         | Error m -> Worker.task_failed w ~reason:m);
         (match sim.die_after with
         | Some n when n <= 1 ->
           (* Sudden death: queued bytes (renewals, maybe the result)
              are lost with the process. *)
           kill_sim server sim ~now ~respawn_at:(now + 60);
           died := true
         | Some n -> sim.die_after <- Some (n - 1)
         | None -> ());
         if (not !died) && sim.die_on_flush && Worker.task w = None then begin
           (* The shard result is on the wire, then the process dies. *)
           flush_worker server sim ~now w;
           kill_sim server sim ~now ~respawn_at:(now + 60);
           died := true
         end);
    if not !died then begin
      Worker.tick w ~now;
      if not (offline ()) then flush_worker server sim ~now w;
      match Worker.status w with
      | Worker.Stopped _ -> kill_sim server sim ~now ~respawn_at:(now + 60)
      | Worker.Running -> ()
    end)

(* --- one multi-worker schedule ----------------------------------------------- *)

let schedule_budget = 30_000

exception Settled

(* Drive a coordinator server, [workers] chaotic workers and one
   client to a terminal client status over virtual time.  Returns the
   client status plus the total faults the plan injected. *)
let run_schedule ~seed ~workers ~profile ~max_attempts ~sp sched =
  let config = co_config ~max_attempts () in
  let co =
    match Coordinator.create ~config ~scheduler:sched () with
    | Ok co -> co
    | Error m -> Alcotest.failf "coordinator resume rejected: %s" m
  in
  let server =
    Server.create ~session_config:fast_session ~coordinator:co ~scheduler:sched
      ()
  in
  let sims =
    List.init workers (fun i ->
        make_sim
          ~seed:((seed * 97) + (i * 131) + 1)
          ~profile
          ~name:(Printf.sprintf "w%d" i)
          ~shard_runs:config.Coordinator.shard_runs)
  in
  let conn = Server.connect server ~now:0 in
  let client = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (try
     for now = 0 to schedule_budget do
       let cbytes = Framed.take_all (Client.output client) in
       if cbytes <> "" then Server.input server ~conn ~now cbytes;
       let sbytes = Server.flush server ~conn in
       if sbytes <> "" then Client.input client ~now sbytes;
       List.iter (fun sim -> step_sim server sim ~now) sims;
       Server.tick server ~now;
       Client.tick client ~now;
       if Client.status client <> Client.Pending then raise Settled
     done
   with Settled -> ());
  let faults = List.fold_left (fun n s -> n + Chaos.planned_faults s.plan) 0 sims in
  (Client.status client, faults)

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let abandoned records =
  List.exists (fun line -> contains_sub line "unrecoverable") records

(* >= 500 seeded multi-worker failure schedules across worker counts
   1..4.  Every one must classify (zero hangs), leave an undamaged
   journal, complete every run slot, and — whenever no shard was
   abandoned — stream bytes identical to the single-node reference. *)
let test_multiworker_chaos_schedules () =
  with_scratch @@ fun () ->
  let references = Hashtbl.create 16 in
  let reference sp =
    match Hashtbl.find_opt references sp.Wire.seed with
    | Some r -> r
    | None ->
      let r = reference_records sp in
      Hashtbl.replace references sp.Wire.seed r;
      r
  in
  let identical = ref 0 and degraded = ref 0 and faulted = ref 0 in
  for seed = 0 to 499 do
    let path = in_scratch "multi.journal" in
    if Sys.file_exists path then Sys.remove path;
    let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
    let sp = spec ~runs:6 ~iterations:50 ~seed:(seed land 0xF) () in
    let workers = 1 + (seed mod 4) in
    let status, faults =
      run_schedule ~seed ~workers ~profile:Chaos.rough_workers ~max_attempts:4
        ~sp sched
    in
    if faults > 0 then incr faulted;
    (match status with
    | Client.Pending ->
      Alcotest.failf "schedule %d (%d workers) HUNG after %d ticks" seed
        workers schedule_budget
    | Client.Failed m ->
      Alcotest.failf "schedule %d (%d workers) failed the client: %s" seed
        workers m
    | Client.Done outcome ->
      check Alcotest.int
        (Printf.sprintf "schedule %d streams every run slot" seed)
        sp.Wire.runs
        (List.length outcome.Client.records);
      let ref_records, ref_metrics = reference sp in
      if abandoned outcome.Client.records then incr degraded
      else begin
        if outcome.Client.records <> ref_records then
          Alcotest.failf
            "schedule %d (%d workers): no shard abandoned, records differ"
            seed workers;
        if outcome.Client.metrics <> ref_metrics then
          Alcotest.failf
            "schedule %d (%d workers): no shard abandoned, metrics differ"
            seed workers;
        incr identical
      end);
    Scheduler.close sched;
    match Journal.load path with
    | Error m -> Alcotest.failf "schedule %d corrupted the journal: %s" seed m
    | Ok r ->
      if r.Journal.dropped_bytes <> 0 then
        Alcotest.failf "schedule %d left %d damaged journal bytes" seed
          r.Journal.dropped_bytes
  done;
  if !identical = 0 then
    Alcotest.fail "no schedule survived byte-identically: merge is broken";
  if !faulted < 100 then
    Alcotest.failf "only %d/500 schedules drew faults: chaos is not reaching \
                    the workers"
      !faulted

(* Satellite: merged ledger and metrics byte-identical across worker
   counts {1, 2, 4} x seeded failure schedules.  With an effectively
   unbounded retry budget no shard can be abandoned, so every worker
   count must converge to the reference bytes. *)
let worker_count_equivalence_property =
  QCheck.Test.make ~name:"merged output identical across 1/2/4 workers"
    ~count:12
    (QCheck.make QCheck.Gen.(0 -- 10_000))
    (fun seed ->
      let sp = spec ~runs:6 ~iterations:50 ~seed:(seed land 0xF) () in
      let ref_records, ref_metrics = reference_records sp in
      List.for_all
        (fun workers ->
          let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
          let status, _ =
            run_schedule ~seed ~workers ~profile:Chaos.rough_workers
              ~max_attempts:1_000 ~sp sched
          in
          let ok =
            match status with
            | Client.Done outcome ->
              outcome.Client.records = ref_records
              && outcome.Client.metrics = ref_metrics
            | Client.Failed _ | Client.Pending -> false
          in
          Scheduler.close sched;
          ok)
        [ 1; 2; 4 ])

(* --- directed lease-machine tests -------------------------------------------- *)

let make_co ?(shard_runs = 2) ?(max_attempts = 4) ?journal ~sp () =
  let sched = Result.get_ok (Scheduler.create ~journal ()) in
  (match Scheduler.submit sched sp with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit failed: %s" m);
  let co =
    Result.get_ok
      (Coordinator.create ~config:(co_config ~shard_runs ~max_attempts ())
         ~scheduler:sched ())
  in
  (sched, co)

type lease_view = { lv_shard : int; lv_epoch : int; lv_lo : int; lv_hi : int }

let lease_of_commands cmds ~worker =
  List.find_map
    (fun { Coordinator.target; frame } ->
      match frame with
      | Wire.Lease { shard; epoch; lo; hi; _ } when target = worker ->
        Some { lv_shard = shard; lv_epoch = epoch; lv_lo = lo; lv_hi = hi }
      | _ -> None)
    cmds

let shard_lines ~sp ~lo ~hi =
  let resolved = Result.get_ok (Scheduler.resolve_spec sp) in
  List.init (hi - lo) (fun k ->
      let index = lo + k in
      (index, Result.get_ok (Worker.run_index ~resolved ~spec:sp ~index)))

(* A revoked lease's late result must be discarded by epoch, and the
   reassigned epoch's result must land — byte-identically. *)
let test_zombie_epoch_rejection () =
  let sp = spec ~campaign:"zombie" ~runs:4 () in
  let sched, co = make_co ~sp () in
  Coordinator.add_worker co ~id:1 ~name:"a";
  Coordinator.add_worker co ~id:2 ~name:"b";
  let cmds = Coordinator.tick co ~now:0 in
  let l1 = Option.get (lease_of_commands cmds ~worker:1) in
  let l2 = Option.get (lease_of_commands cmds ~worker:2) in
  check Alcotest.bool "both shards leased, epoch 1" true
    (l1.lv_epoch = 1 && l2.lv_epoch = 1
    && l1.lv_shard <> l2.lv_shard);
  (* Worker 2 stays warm; worker 1 goes silent past its deadline. *)
  ignore
    (Coordinator.renew co ~worker:2 ~campaign:"zombie" ~shard:l2.lv_shard
       ~epoch:1 ~now:50);
  let cmds = Coordinator.tick co ~now:(lease_ticks + 1) in
  check Alcotest.bool "expired lease is revoked" true
    (List.exists
       (fun { Coordinator.target; frame } ->
         target = 1
         && match frame with
            | Wire.Revoke { shard; _ } -> shard = l1.lv_shard
            | _ -> false)
       cmds);
  (* Worker 1's late (zombie) result under the dead epoch: discarded. *)
  let lines = shard_lines ~sp ~lo:l1.lv_lo ~hi:l1.lv_hi in
  let cmds =
    Coordinator.shard_result co ~worker:1 ~campaign:"zombie"
      ~shard:l1.lv_shard ~epoch:1 ~records:lines ~now:(lease_ticks + 2)
  in
  check Alcotest.bool "zombie result is discarded without commands" true
    (cmds = []);
  check Alcotest.bool "zombie result wrote nothing" true
    (Scheduler.record sched ~campaign:"zombie" ~index:l1.lv_lo = None);
  (* The shard reassigns under a strictly greater epoch (worker 1 spoke
     again, so it is warm; its stale traffic thawed it). *)
  let cmds = Coordinator.tick co ~now:(lease_ticks + 40) in
  let l1' = Option.get (lease_of_commands cmds ~worker:1) in
  check Alcotest.int "reassigned shard" l1.lv_shard l1'.lv_shard;
  check Alcotest.bool "epoch is strictly greater" true (l1'.lv_epoch > 1);
  (* The live epoch's result lands. *)
  ignore
    (Coordinator.shard_result co ~worker:1 ~campaign:"zombie"
       ~shard:l1'.lv_shard ~epoch:l1'.lv_epoch ~records:lines
       ~now:(lease_ticks + 41));
  check Alcotest.bool "live result recorded" true
    (Scheduler.record sched ~campaign:"zombie" ~index:l1.lv_lo <> None);
  (* A duplicate of the same result is idempotent. *)
  let before = Scheduler.completed sched ~campaign:"zombie" in
  ignore
    (Coordinator.shard_result co ~worker:1 ~campaign:"zombie"
       ~shard:l1'.lv_shard ~epoch:l1'.lv_epoch ~records:lines
       ~now:(lease_ticks + 42));
  check Alcotest.int "duplicate result is idempotent" before
    (Scheduler.completed sched ~campaign:"zombie");
  Scheduler.close sched

(* Bounded retries: a shard that keeps faulting is abandoned after
   max_attempts leases, its runs journaled as classified Unrecoverable
   records — the campaign completes, never hangs. *)
let test_bounded_retries_abandon () =
  let sp = spec ~campaign:"doomed" ~runs:2 () in
  let sched, co = make_co ~shard_runs:2 ~max_attempts:2 ~sp () in
  Coordinator.add_worker co ~id:1 ~name:"a";
  let now = ref 0 in
  let attempts = ref 0 in
  while
    Scheduler.record sched ~campaign:"doomed" ~index:0 = None && !attempts < 50
  do
    incr attempts;
    let cmds = Coordinator.tick co ~now:!now in
    (match lease_of_commands cmds ~worker:1 with
    | Some l ->
      ignore
        (Coordinator.shard_failed co ~worker:1 ~campaign:"doomed"
           ~shard:l.lv_shard ~epoch:l.lv_epoch ~reason:"synthetic fault"
           ~now:!now)
    | None -> ());
    now := !now + 37
  done;
  check Alcotest.bool "abandonment happened within the retry budget" true
    (!attempts <= 10);
  List.iter
    (fun index ->
      match Scheduler.record sched ~campaign:"doomed" ~index with
      | None -> Alcotest.failf "run %d missing after abandonment" index
      | Some line ->
        check Alcotest.bool
          (Printf.sprintf "run %d is a classified unrecoverable record" index)
          true
          (contains_sub line "unrecoverable" && contains_sub line "crashed"))
    [ 0; 1 ];
  check Alcotest.bool "abandoned campaign still completes" true
    (Scheduler.is_complete sched ~campaign:"doomed");
  check Alcotest.bool "metrics still render" true
    (Scheduler.metrics_payload sched ~campaign:"doomed" <> None);
  Scheduler.close sched

(* Kill -9 the coordinator and resume over the same journal: epochs
   stay monotonic, so a pre-crash worker's result is a zombie to the
   resumed coordinator. *)
let test_coordinator_kill_resume_epochs () =
  with_scratch @@ fun () ->
  let path = in_scratch "resume.journal" in
  let sp = spec ~campaign:"resume" ~runs:4 () in
  let sched1, co1 = make_co ~journal:path ~sp () in
  Coordinator.add_worker co1 ~id:1 ~name:"a";
  let cmds = Coordinator.tick co1 ~now:0 in
  let l1 = Option.get (lease_of_commands cmds ~worker:1) in
  check Alcotest.int "first lease epoch" 1 l1.lv_epoch;
  (* kill -9: nothing drains, the journal is all that survives. *)
  Scheduler.abandon sched1;
  let sched2 = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
  let co2 =
    Result.get_ok
      (Coordinator.create ~config:(co_config ()) ~scheduler:sched2 ())
  in
  Coordinator.add_worker co2 ~id:7 ~name:"b";
  let cmds = Coordinator.tick co2 ~now:0 in
  let l2 = Option.get (lease_of_commands cmds ~worker:7) in
  check Alcotest.int "resumed lease covers the same shard" l1.lv_shard
    l2.lv_shard;
  check Alcotest.bool "resumed epoch strictly exceeds the journaled grant" true
    (l2.lv_epoch > l1.lv_epoch);
  (* The pre-crash worker's result under the old epoch is now a zombie. *)
  let lines = shard_lines ~sp ~lo:l1.lv_lo ~hi:l1.lv_hi in
  ignore
    (Coordinator.shard_result co2 ~worker:7 ~campaign:"resume"
       ~shard:l1.lv_shard ~epoch:l1.lv_epoch ~records:lines ~now:1);
  check Alcotest.bool "old-epoch result discarded after resume" true
    (Scheduler.record sched2 ~campaign:"resume" ~index:l1.lv_lo = None);
  (* The live lease completes normally. *)
  ignore
    (Coordinator.shard_result co2 ~worker:7 ~campaign:"resume"
       ~shard:l2.lv_shard ~epoch:l2.lv_epoch ~records:lines ~now:2);
  check Alcotest.bool "live result lands after resume" true
    (Scheduler.record sched2 ~campaign:"resume" ~index:l1.lv_lo <> None);
  Scheduler.close sched2

(* A worker EOF mid-lease releases the shard to the next worker. *)
let test_disconnect_reassigns () =
  let sp = spec ~campaign:"dc" ~runs:2 () in
  let sched, co = make_co ~sp () in
  Coordinator.add_worker co ~id:1 ~name:"a";
  let cmds = Coordinator.tick co ~now:0 in
  let l = Option.get (lease_of_commands cmds ~worker:1) in
  Coordinator.remove_worker co ~id:1 ~now:5;
  check Alcotest.int "worker gone" 0 (Coordinator.worker_count co);
  Coordinator.add_worker co ~id:2 ~name:"b";
  (* The shard backs off briefly after the failed lease, then regrants. *)
  let cmds = Coordinator.tick co ~now:60 in
  let l' = Option.get (lease_of_commands cmds ~worker:2) in
  check Alcotest.int "same shard reassigned" l.lv_shard l'.lv_shard;
  check Alcotest.bool "fresh epoch on reassignment" true
    (l'.lv_epoch > l.lv_epoch);
  Scheduler.close sched

(* --- event-driven turns -------------------------------------------------------- *)

(* [Server.runnable] is what lets the select loop poll with a zero
   timeout, so it must hold exactly when a tick would run a local batch:
   true for pending work on a plain daemon or a worker-less coordinator,
   false once draining or while a connected worker holds the lease —
   otherwise the daemon would busy-loop waiting on its fleet. *)
let test_runnable_predicate () =
  let sp = spec ~campaign:"turns" ~runs:6 () in
  let done_ sched = Scheduler.completed sched ~campaign:"turns" in
  let idle_tick what server sched ~now =
    check Alcotest.bool (what ^ ": not runnable") false (Server.runnable server);
    let before = done_ sched in
    Server.tick server ~now;
    check Alcotest.int (what ^ ": tick executes nothing") before (done_ sched)
  in
  (* A plain daemon with pending work, then drained. *)
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  ignore (Result.get_ok (Scheduler.submit sched sp));
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  check Alcotest.bool "plain daemon with pending work is runnable" true
    (Server.runnable server);
  Server.drain server ~now:0;
  idle_tick "draining daemon" server sched ~now:1;
  Scheduler.close sched;
  (* A coordinator with no workers degrades to local execution. *)
  let sched, co = make_co ~sp () in
  let server =
    Server.create ~session_config:fast_session ~coordinator:co ~scheduler:sched
      ()
  in
  check Alcotest.bool "worker-less coordinator is runnable" true
    (Server.runnable server);
  Server.tick server ~now:0;
  check Alcotest.bool "worker-less coordinator executes locally" true
    (done_ sched > 0);
  (* A worker joins and takes a lease: the pending work is the fleet's. *)
  let conn = Server.connect server ~now:1 in
  let w = Worker.create ~config:fast_worker ~name:"w" ~now:1 () in
  Server.input server ~conn ~now:1 (Framed.take_all (Worker.output w));
  Server.tick server ~now:2;
  Worker.input w ~now:2 (Server.flush server ~conn);
  let _, leased, _ = Coordinator.shard_counts co ~campaign:"turns" in
  check Alcotest.int "the worker holds a lease" 1 leased;
  check Alcotest.bool "work is still pending" true (Scheduler.pending sched);
  check Alcotest.bool "the worker accepted it" true (Worker.task w <> None);
  idle_tick "coordinator with a leasing worker" server sched ~now:3;
  Scheduler.close sched

(* --- fairness ----------------------------------------------------------------- *)

(* Satellite: the scheduler interleaves runnable campaigns round-robin
   instead of draining the oldest first. *)
let test_scheduler_round_robin_fairness () =
  let sched = Result.get_ok (Scheduler.create ~jobs:1 ~journal:None ()) in
  List.iter
    (fun c ->
      match Scheduler.submit sched (spec ~campaign:c ~runs:2 ~iterations:40 ()) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "submit %s failed: %s" c m)
    [ "aaa"; "bbb"; "ccc" ];
  let order = ref [] in
  while Scheduler.pending sched do
    match Scheduler.step sched with
    | Some (campaign, _) -> order := campaign :: !order
    | None -> ()
  done;
  let order = List.rev !order in
  check Alcotest.int "six batches for six runs" 6 (List.length order);
  (* Strict rotation: no campaign starves behind an earlier one. *)
  check
    Alcotest.(list string)
    "campaigns interleave round-robin"
    [ "aaa"; "bbb"; "ccc"; "aaa"; "bbb"; "ccc" ]
    order;
  Scheduler.close sched

(* Coordinator lease assignment interleaves campaigns the same way. *)
let test_coordinator_lease_fairness () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  List.iter
    (fun c ->
      ignore
        (Result.get_ok
           (Scheduler.submit sched (spec ~campaign:c ~runs:4 ~iterations:40 ()))))
    [ "camp-a"; "camp-b" ];
  let co =
    Result.get_ok
      (Coordinator.create ~config:(co_config ()) ~scheduler:sched ())
  in
  Coordinator.add_worker co ~id:1 ~name:"a";
  Coordinator.add_worker co ~id:2 ~name:"b";
  let cmds = Coordinator.tick co ~now:0 in
  let campaigns =
    List.filter_map
      (fun { Coordinator.frame; _ } ->
        match frame with
        | Wire.Lease { campaign; _ } -> Some campaign
        | _ -> None)
      cmds
    |> List.sort_uniq compare
  in
  check
    Alcotest.(list string)
    "two workers serve two campaigns, not one" [ "camp-a"; "camp-b" ] campaigns;
  Scheduler.close sched

(* --- rate limiting ------------------------------------------------------------ *)

let hello = Wire.Hello { version = Wire.protocol_version; peer = "tester" }

let session_frames s =
  let buf = Session.output s in
  let rec go acc =
    match Wire.next_frame buf with
    | `Frame f -> go (f :: acc)
    | `Need_more -> List.rev acc
    | `Corrupt m -> Alcotest.failf "session wrote corrupt bytes: %s" m
  in
  go []

(* Satellite: per-connection token bucket on submits.  Over-budget
   submits are declined with a Busy frame carrying retry-after; the
   session survives and the bucket refills. *)
let test_submit_rate_limit () =
  let config =
    { Session.default_config with submit_burst = 2; submit_refill_every = 100 }
  in
  let s = Session.create ~config ~id:0 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  let submit now campaign =
    Session.feed s ~now (Wire.encode (Wire.Submit (spec ~campaign ())))
  in
  check Alcotest.int "first submit passes" 1 (List.length (submit 1 "a"));
  check Alcotest.int "second submit passes" 1 (List.length (submit 2 "b"));
  ignore (session_frames s);
  (* Bucket empty: declined, not quarantined. *)
  let events = submit 3 "c" in
  check Alcotest.int "throttled submit surfaces no event" 0
    (List.length events);
  (match session_frames s with
  | [ Wire.Busy { retry_after } ] ->
    check Alcotest.bool "retry-after is positive" true (retry_after > 0)
  | fs -> Alcotest.failf "expected one Busy frame, got %d frames" (List.length fs));
  check Alcotest.bool "session survives throttling" true (Session.active s);
  (* After a refill interval the bucket grants again. *)
  ignore (Session.tick s ~now:150);
  ignore (session_frames s);
  check Alcotest.int "refilled submit passes" 1 (List.length (submit 151 "d"));
  ignore (Session.feed s ~now:152 (Wire.encode Wire.Drain));
  check Alcotest.bool "clean drain still works" true
    (Session.terminal s = Some Session.Completed)

(* The client classifies Busy as retryable and honours the hint. *)
let test_client_busy_classification () =
  let client = Client.create ~config:fast_client ~spec:(spec ()) ~now:0 () in
  Client.input client ~now:0
    (Wire.encode (Wire.Hello { version = Wire.protocol_version; peer = "d" }));
  Client.input client ~now:1 (Wire.encode (Wire.Busy { retry_after = 123 }));
  (match Client.status client with
  | Client.Failed m ->
    check Alcotest.bool "busy verdicts carry the reason" true
      (contains_sub m "busy");
    check Alcotest.bool "busy verdicts are retryable" true (Client.retryable m)
  | _ -> Alcotest.fail "Busy must fail the attempt");
  check Alcotest.bool "worker frames fail a client connection" true
    (let c = Client.create ~config:fast_client ~spec:(spec ()) ~now:0 () in
     Client.input c ~now:0
       (Wire.encode (Wire.Hello { version = Wire.protocol_version; peer = "d" }));
     Client.input c ~now:1
       (Wire.encode
          (Wire.Lease_renew { campaign = "x"; shard = 0; epoch = 1; sent_at = 0 }));
     match Client.status c with Client.Failed _ -> true | _ -> false)

(* --- progress streaming ------------------------------------------------------- *)

(* Satellite: a follower sees monotonic progress updates ending at
   completion, against a plain daemon (shard counts zero). *)
let test_progress_stream () =
  let sp = spec ~campaign:"follow" ~runs:3 ~iterations:50 () in
  let sched = Result.get_ok (Scheduler.create ~jobs:1 ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conn = Server.connect server ~now:0 in
  let seen = ref [] in
  let client =
    Client.create ~config:fast_client
      ~on_progress:(fun p -> seen := p :: !seen)
      ~spec:sp ~now:0 ()
  in
  (try
     for now = 0 to 10_000 do
       let cbytes = Framed.take_all (Client.output client) in
       if cbytes <> "" then Server.input server ~conn ~now cbytes;
       let sbytes = Server.flush server ~conn in
       if sbytes <> "" then Client.input client ~now sbytes;
       Server.tick server ~now;
       Client.tick client ~now;
       if Client.status client <> Client.Pending then raise Settled
     done
   with Settled -> ());
  (match Client.status client with
  | Client.Done _ -> ()
  | _ -> Alcotest.fail "followed campaign must complete");
  let updates = List.rev !seen in
  check Alcotest.bool "at least one progress update" true (updates <> []);
  let rec monotonic = function
    | a :: (b :: _ as rest) ->
      a.Client.runs_done <= b.Client.runs_done && monotonic rest
    | _ -> true
  in
  check Alcotest.bool "runs_done is monotonic" true (monotonic updates);
  let last = List.nth updates (List.length updates - 1) in
  check Alcotest.int "final update covers every run" sp.Wire.runs
    last.Client.runs_done;
  check Alcotest.int "total is the campaign size" sp.Wire.runs
    last.Client.runs_total;
  Scheduler.close sched

(* Worker protocol discipline: client-stream frames stop the machine. *)
let test_worker_protocol_discipline () =
  let w = Worker.create ~config:fast_worker ~now:0 () in
  Worker.input w ~now:0
    (Wire.encode (Wire.Hello { version = Wire.protocol_version; peer = "d" }));
  check Alcotest.bool "worker active after hello" true
    (Worker.status w = Worker.Running);
  Worker.input w ~now:1
    (Wire.encode (Wire.Run_record { campaign = "c"; index = 0; record = "r" }));
  (match Worker.status w with
  | Worker.Stopped reason ->
    check Alcotest.bool "protocol stop is classified" true
      (contains_sub reason "protocol")
  | Worker.Running -> Alcotest.fail "client frame must stop a worker");
  (* Version skew stops the machine before any lease. *)
  let w = Worker.create ~config:fast_worker ~now:0 () in
  Worker.input w ~now:0
    (Wire.encode (Wire.Hello { version = Wire.protocol_version + 1; peer = "d" }));
  match Worker.status w with
  | Worker.Stopped reason ->
    check Alcotest.bool "version skew is classified" true
      (contains_sub reason "version")
  | Worker.Running -> Alcotest.fail "version skew must stop the worker"

(* --- suite -------------------------------------------------------------------- *)

let suite =
  [
    ( "coordinator.lease",
      [
        Alcotest.test_case "zombie epoch rejection" `Quick
          test_zombie_epoch_rejection;
        Alcotest.test_case "bounded retries abandon classified" `Quick
          test_bounded_retries_abandon;
        Alcotest.test_case "kill -9 resume keeps epochs monotonic" `Quick
          test_coordinator_kill_resume_epochs;
        Alcotest.test_case "disconnect reassigns the shard" `Quick
          test_disconnect_reassigns;
        Alcotest.test_case "runnable predicate never spins on a fleet" `Quick
          test_runnable_predicate;
      ] );
    ( "coordinator.fairness",
      [
        Alcotest.test_case "scheduler round-robin" `Quick
          test_scheduler_round_robin_fairness;
        Alcotest.test_case "lease assignment interleaves campaigns" `Quick
          test_coordinator_lease_fairness;
      ] );
    ( "coordinator.ratelimit",
      [
        Alcotest.test_case "submit token bucket" `Quick test_submit_rate_limit;
        Alcotest.test_case "client busy classification" `Quick
          test_client_busy_classification;
      ] );
    ( "coordinator.progress",
      [
        Alcotest.test_case "follower sees monotonic progress" `Quick
          test_progress_stream;
        Alcotest.test_case "worker protocol discipline" `Quick
          test_worker_protocol_discipline;
      ] );
    ( "coordinator.chaos",
      [
        Alcotest.test_case "500 seeded multi-worker schedules" `Slow
          test_multiworker_chaos_schedules;
        QCheck_alcotest.to_alcotest worker_count_equivalence_property;
      ] );
  ]
