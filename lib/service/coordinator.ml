(* Lease-based sharding of campaigns: the one planner for remote workers
   and the daemon's own pool.

   Sans-IO, like Session: the server core feeds it worker events and a
   clock, and reads back (worker, frame) commands to deliver.  All
   shard/lease state is derived from the scheduler's journal — lease
   grants, revocations and abandoned shards are journaled as "extras"
   (see Scheduler), so a kill -9'd coordinator resumes with monotonic
   lease epochs and byte-identical output.

   The safety argument, in one place:

   - Run records are keyed by (campaign, index) and validated against
     the campaign's pre-split seeds, so the merged ledger is independent
     of which worker computed a run, in which order, or how many times.
   - A lease carries an epoch, monotonic per shard across coordinator
     restarts (epochs are journaled with each grant).  A result or
     renewal whose (campaign, shard, epoch) does not match the live
     lease is stale — a zombie whose lease was revoked — and is
     discarded idempotently.
   - A shard whose lease dies (deadline missed, worker disconnected,
     fault reported, malformed result) is reassigned with backed-off
     retries; after [max_attempts] failures its remaining runs are
     journaled as classified [Unrecoverable] records so the campaign
     still completes — graceful degradation, never a hang. *)

module Json = Perple_util.Json
module Metrics = Perple_util.Metrics
module Ledger = Perple_core.Ledger
module Supervisor = Perple_harness.Supervisor

type config = {
  shard_runs : int;
  lease_ticks : int;
  max_attempts : int;
  retry_delay : int;
  retry_backoff : float;
}

let default_config =
  { shard_runs = 4; lease_ticks = 10_000; max_attempts = 5; retry_delay = 100;
    retry_backoff = 2.0 }

type lease = { l_worker : int; l_epoch : int; mutable l_deadline : int }

type shard_state = Unassigned | Leased of lease | Done | Dead

type shard = {
  s_index : int;
  s_lo : int;
  s_hi : int;  (** Run-index range [lo, hi). *)
  mutable s_state : shard_state;
  mutable s_epoch : int;  (** Highest epoch ever granted. *)
  mutable s_attempts : int;  (** Failed leases so far. *)
  mutable s_eligible_at : int;  (** Reassignment backoff deadline. *)
  mutable s_delay : int;  (** Next backoff delay. *)
}

type campaign = { c_id : string; c_shards : shard array }

type t = {
  config : config;
  scheduler : Scheduler.t;
  campaigns : (string, campaign) Hashtbl.t;
  workers : (int, string) Hashtbl.t;  (** Connection id -> worker name. *)
  busy : (int, string * int) Hashtbl.t;  (** Worker -> its lease. *)
  cooling : (int, int) Hashtbl.t;
      (** Workers that missed a deadline: no new lease until they show
          protocol traffic again (or the cooldown passes), so a wedged
          worker does not burn one shard attempt per lease period. *)
  mutable order : campaign array;  (** [campaigns] in submit order. *)
  mutable rr : int;  (** Round-robin cursor into [order]. *)
}

type command = { target : int; frame : Wire.frame }

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let revoke ~target ~campaign ~shard ~epoch ~reason =
  { target; frame = Wire.Revoke { campaign; shard; epoch; reason } }

let missing t id sh =
  List.filter
    (fun i -> Scheduler.record t.scheduler ~campaign:id ~index:i = None)
    (List.init (sh.s_hi - sh.s_lo) (fun k -> sh.s_lo + k))

(* --- journal records -------------------------------------------------------- *)

(* A shard index means other runs under another shard size, so records
   also carry the run range, checked on resume. *)
let shard_fields ~campaign sh =
  [
    ("campaign", Json.String campaign);
    ("shard", Json.Int sh.s_index);
    ("lo", Json.Int sh.s_lo);
    ("hi", Json.Int sh.s_hi);
  ]

let lease_record ~campaign sh ~epoch ~worker =
  Json.Obj
    ((("kind", Json.String "lease") :: shard_fields ~campaign sh)
    @ [ ("epoch", Json.Int epoch); ("worker", Json.String worker) ])

let revoke_record ~campaign sh ~epoch ~reason =
  Json.Obj
    ((("kind", Json.String "revoke") :: shard_fields ~campaign sh)
    @ [ ("epoch", Json.Int epoch); ("reason", Json.String reason) ])

let dead_record ~campaign sh ~reason =
  Json.Obj
    ((("kind", Json.String "shard-dead") :: shard_fields ~campaign sh)
    @ [ ("reason", Json.String reason) ])

let str_field = Json.string_field ~record:"coordinator journal record"
let int_field = Json.int_field ~record:"coordinator journal record"

(* --- dead shards ------------------------------------------------------------ *)

(* The classified record for a run whose shard was abandoned.  Built
   from (index, seed, reason) alone so the bytes are identical whether
   written when the shard died or re-derived from the "shard-dead"
   journal record after a coordinator crash between the marker and the
   cruns. *)
let unrecoverable_entry ~index ~seed ~reason =
  {
    Ledger.index;
    seed;
    crashed = Some { Ledger.c_message = reason; c_backtrace = "" };
    iterations = 0;
    requested_iterations = 0;
    frames_examined = 0;
    evaluations = 0;
    virtual_runtime = 0;
    counts = [||];
    degraded = false;
    salvaged_iterations = 0;
    supervision =
      Some
        {
          Ledger.s_outcome = Supervisor.outcome_name Supervisor.Unrecoverable;
          s_total_rounds = 0;
          s_lost = true;
          s_attempts = [];
        };
    metrics = None;
  }

let complete_dead t camp sh ~reason =
  sh.s_state <- Dead;
  match Scheduler.spec_of t.scheduler ~campaign:camp.c_id with
  | None -> ()
  | Some (_, r) ->
    for i = sh.s_lo to sh.s_hi - 1 do
      if Scheduler.record t.scheduler ~campaign:camp.c_id ~index:i = None then begin
        let entry =
          unrecoverable_entry ~index:i ~seed:r.Scheduler.r_seeds.(i) ~reason
        in
        match
          Scheduler.record_external t.scheduler ~campaign:camp.c_id
            ~line:(Ledger.record_line entry)
        with
        | Ok _ -> Metrics.incr "coordinator.runs_abandoned"
        | Error _ -> () (* cannot happen: built from the campaign's own seed *)
      end
    done

let kill_shard t camp sh ~reason =
  Metrics.incr "coordinator.shards_abandoned";
  Scheduler.append_extra t.scheduler
    (dead_record ~campaign:camp.c_id sh ~reason);
  complete_dead t camp sh ~reason

(* --- lease lifecycle -------------------------------------------------------- *)

let backoff_policy config =
  {
    Supervisor.watchdog_rounds = max_int;
    min_retired = 1;
    max_retries = config.max_attempts;
    backoff = config.retry_backoff;
  }

let unlease t sh =
  match sh.s_state with
  | Leased l ->
    Hashtbl.remove t.busy l.l_worker;
    sh.s_state <- Unassigned
  | _ -> ()

(* A lease ended without a usable result: journal the revocation, back
   off the shard, and abandon it once the retry budget is spent. *)
let release t camp sh ~now ~epoch ~reason =
  unlease t sh;
  Scheduler.append_extra t.scheduler
    (revoke_record ~campaign:camp.c_id sh ~epoch ~reason);
  Metrics.incr "coordinator.leases_revoked";
  sh.s_attempts <- sh.s_attempts + 1;
  sh.s_eligible_at <- now + sh.s_delay;
  sh.s_delay <- Supervisor.backed_off (backoff_policy t.config) sh.s_delay;
  if sh.s_attempts >= t.config.max_attempts then
    kill_shard t camp sh
      ~reason:
        (Printf.sprintf "unrecoverable: shard %d abandoned after %d leases (%s)"
           sh.s_index sh.s_attempts reason)

(* A revocation that is nobody's fault (cancelled campaign): free the
   lease without charging the shard's retry budget. *)
let revoke_blameless t camp sh ~epoch ~reason =
  unlease t sh;
  Scheduler.append_extra t.scheduler
    (revoke_record ~campaign:camp.c_id sh ~epoch ~reason);
  Metrics.incr "coordinator.leases_revoked"

(* --- campaign discovery ----------------------------------------------------- *)

let shards_for t id =
  match Scheduler.runs t.scheduler ~campaign:id with
  | None -> [||]
  | Some total ->
    let per = t.config.shard_runs in
    let count = (total + per - 1) / per in
    Array.init count (fun k ->
        let lo = k * per in
        let hi = min total ((k + 1) * per) in
        let missing = ref false in
        for i = lo to hi - 1 do
          if Scheduler.record t.scheduler ~campaign:id ~index:i = None then
            missing := true
        done;
        {
          s_index = k;
          s_lo = lo;
          s_hi = hi;
          s_state = (if !missing then Unassigned else Done);
          s_epoch = 0;
          s_attempts = 0;
          s_eligible_at = 0;
          s_delay = t.config.retry_delay;
        })

(* Campaigns are only ever appended, so the ids past [order]'s length
   are the new ones.  Costs a walk of the id list per call. *)
let sync_campaigns t =
  let ids = Scheduler.campaign_ids t.scheduler in
  let known = Array.length t.order in
  if List.length ids > known then
    let fresh =
      List.filteri (fun i _ -> i >= known) ids
      |> List.map (fun id ->
             let camp = { c_id = id; c_shards = shards_for t id } in
             Hashtbl.replace t.campaigns id camp;
             camp)
    in
    t.order <- Array.append t.order (Array.of_list fresh)

let find_shard t campaign shard =
  match Hashtbl.find_opt t.campaigns campaign with
  | None -> None
  | Some camp ->
    if shard < 0 || shard >= Array.length camp.c_shards then None
    else Some (camp, camp.c_shards.(shard))

(* --- construction / resume -------------------------------------------------- *)

(* The shard a journal record names, if this table has it with the same
   range.  Records from before ranges were journaled are taken by index. *)
let journaled_shard t kind j =
  let ( let* ) = Result.bind in
  let* campaign = str_field "campaign" j in
  let* shard = int_field "shard" j in
  let range = (Json.member "lo" j, Json.member "hi" j) in
  match find_shard t campaign shard with
  | Some (camp, sh)
    when range = (None, None)
         || range = (Some (Json.Int sh.s_lo), Some (Json.Int sh.s_hi)) ->
    Ok (camp, sh)
  | _ ->
    fail
      "journal: %s for shard %s/%d does not match this daemon's %d-run \
       shards (resume with the --coordinator --shard-runs the journal was \
       written with; a plain serve uses %d)"
      kind campaign shard t.config.shard_runs default_config.shard_runs

let apply_extra t j =
  let ( let* ) = Result.bind in
  match Ledger.kind j with
  | Some "lease" ->
    let* _, sh = journaled_shard t "lease" j in
    let* epoch = int_field "epoch" j in
    sh.s_epoch <- max sh.s_epoch epoch;
    Ok ()
  | Some "revoke" ->
    let* _, sh = journaled_shard t "revoke" j in
    let* epoch = int_field "epoch" j in
    sh.s_epoch <- max sh.s_epoch epoch;
    sh.s_attempts <- sh.s_attempts + 1;
    sh.s_delay <- Supervisor.backed_off (backoff_policy t.config) sh.s_delay;
    Ok ()
  | Some "shard-dead" ->
    let* camp, sh = journaled_shard t "shard-dead" j in
    let* reason = str_field "reason" j in
    (* Re-derive any missing Unrecoverable records: a crash between the
       shard-dead marker and its cruns must not strand the campaign. *)
    complete_dead t camp sh ~reason;
    Ok ()
  | Some k -> fail "journal: unexpected coordinator record %S" k
  | None -> fail "journal: coordinator record without a kind"

let create ?(config = default_config) ~scheduler () =
  if config.shard_runs < 1 then
    invalid_arg "Coordinator.create: shard_runs must be >= 1";
  if config.lease_ticks < 1 then
    invalid_arg "Coordinator.create: lease_ticks must be >= 1";
  if config.max_attempts < 1 then
    invalid_arg "Coordinator.create: max_attempts must be >= 1";
  let t =
    {
      config;
      scheduler;
      campaigns = Hashtbl.create 8;
      workers = Hashtbl.create 8;
      busy = Hashtbl.create 8;
      cooling = Hashtbl.create 8;
      order = [||];
      rr = 0;
    }
  in
  sync_campaigns t;
  let rec apply = function
    | [] -> Ok t
    | j :: rest -> (
      match apply_extra t j with Error _ as e -> e | Ok () -> apply rest)
  in
  apply (Scheduler.extras scheduler)

(* --- workers ---------------------------------------------------------------- *)

let add_worker t ~id ~name =
  Hashtbl.replace t.workers id name;
  Metrics.incr "coordinator.workers_joined"

let remove_worker t ~id ~now =
  if Hashtbl.mem t.workers id then begin
    Hashtbl.remove t.workers id;
    Hashtbl.remove t.cooling id;
    match Hashtbl.find_opt t.busy id with
    | None -> ()
    | Some (cid, sidx) -> (
      Hashtbl.remove t.busy id;
      match find_shard t cid sidx with
      | Some (camp, sh) -> (
        match sh.s_state with
        | Leased l when l.l_worker = id ->
          release t camp sh ~now ~epoch:l.l_epoch ~reason:"worker disconnected"
        | _ -> ())
      | None -> ())
  end

let worker_count t = Hashtbl.length t.workers

(* Any protocol traffic from a worker proves it is alive again. *)
let thaw t worker = Hashtbl.remove t.cooling worker

(* --- worker events ---------------------------------------------------------- *)

let stale_lease ~target ~campaign ~shard ~epoch =
  [ revoke ~target ~campaign ~shard ~epoch ~reason:"stale lease" ]

let renew t ~worker ~campaign ~shard ~epoch ~now =
  thaw t worker;
  match find_shard t campaign shard with
  | Some (_, sh) -> (
    match sh.s_state with
    | Leased l when l.l_worker = worker && l.l_epoch = epoch ->
      l.l_deadline <- now + t.config.lease_ticks;
      []
    | _ ->
      Metrics.incr "coordinator.stale_renewals";
      stale_lease ~target:worker ~campaign ~shard ~epoch)
  | None ->
    Metrics.incr "coordinator.stale_renewals";
    stale_lease ~target:worker ~campaign ~shard ~epoch

let shard_result t ~worker ~campaign ~shard ~epoch ~records ~now =
  thaw t worker;
  match find_shard t campaign shard with
  | None ->
    Metrics.incr "coordinator.zombie_results_discarded";
    []
  | Some (camp, sh) -> (
    match sh.s_state with
    | Leased l when l.l_worker = worker && l.l_epoch = epoch ->
      let reject reason =
        Metrics.incr "coordinator.bad_results";
        release t camp sh ~now ~epoch ~reason;
        [ revoke ~target:worker ~campaign ~shard ~epoch ~reason ]
      in
      let expected = List.init (sh.s_hi - sh.s_lo) (fun k -> sh.s_lo + k) in
      if List.map fst records <> expected then
        reject "malformed shard result: wrong run indices"
      else begin
        let rec ingest = function
          | [] ->
            Hashtbl.remove t.busy worker;
            sh.s_state <- Done;
            Metrics.incr "coordinator.shards_completed";
            []
          | (_, line) :: rest -> (
            match Scheduler.record_external t.scheduler ~campaign ~line with
            | Ok _ -> ingest rest
            | Error m -> reject (Printf.sprintf "bad shard result: %s" m))
        in
        ingest records
      end
    | _ ->
      (* A result for a lease that is no longer live: the worker is a
         zombie (its lease was revoked and possibly re-assigned) or the
         frame is a duplicate.  Either way the records are already
         covered — by the replacement lease or by the Done shard — so
         the result is discarded without side effects. *)
      Metrics.incr "coordinator.zombie_results_discarded";
      [])

let shard_failed t ~worker ~campaign ~shard ~epoch ~reason ~now =
  thaw t worker;
  match find_shard t campaign shard with
  | None ->
    Metrics.incr "coordinator.stale_faults";
    []
  | Some (camp, sh) -> (
    match sh.s_state with
    | Leased l when l.l_worker = worker && l.l_epoch = epoch ->
      Metrics.incr "coordinator.shard_faults";
      Hashtbl.remove t.busy worker;
      release t camp sh ~now ~epoch
        ~reason:(Printf.sprintf "worker fault: %s" reason);
      []
    | _ ->
      Metrics.incr "coordinator.stale_faults";
      [])

(* --- clock ------------------------------------------------------------------ *)

let campaign_runnable t id =
  (not (Scheduler.is_cancelled t.scheduler ~campaign:id))
  && Scheduler.failed t.scheduler ~campaign:id = None
  && not (Scheduler.is_complete t.scheduler ~campaign:id)

let eligible ~now sh = sh.s_state = Unassigned && sh.s_eligible_at <= now

(* The one planning rule, for lease grants and local claims alike: the
   first eligible shard of the first runnable campaign at or after the
   round-robin cursor, and the cursor's next position.  Visits every
   shard of every campaign, finished ones included. *)
let next_shard t ~now =
  let n = Array.length t.order in
  let rec scan off =
    if off >= n then None
    else
      let idx = (t.rr + off) mod n in
      let camp = t.order.(idx) in
      match Array.find_opt (eligible ~now) camp.c_shards with
      | Some sh when campaign_runnable t camp.c_id ->
        Some ((idx + 1) mod n, camp, sh)
      | _ -> scan (off + 1)
  in
  scan 0

let grant t camp sh ~worker ~now =
  let epoch = sh.s_epoch + 1 in
  sh.s_epoch <- epoch;
  sh.s_state <-
    Leased { l_worker = worker; l_epoch = epoch; l_deadline = now + t.config.lease_ticks };
  Hashtbl.replace t.busy worker (camp.c_id, sh.s_index);
  let name = Option.value (Hashtbl.find_opt t.workers worker) ~default:"?" in
  Scheduler.append_extra t.scheduler
    (lease_record ~campaign:camp.c_id sh ~epoch ~worker:name);
  Metrics.incr "coordinator.leases_granted";
  match Scheduler.spec_of t.scheduler ~campaign:camp.c_id with
  | Some (spec, r) ->
    Some
      {
        target = worker;
        frame =
          Wire.Lease
            {
              campaign = camp.c_id;
              digest = r.Scheduler.r_digest;
              shard = sh.s_index;
              epoch;
              lo = sh.s_lo;
              hi = sh.s_hi;
              lease_ticks = t.config.lease_ticks;
              spec;
            };
      }
  | None -> None (* cannot happen: the campaign came from the scheduler *)

let tick t ~now =
  sync_campaigns t;
  let commands = ref [] in
  let push c = commands := c :: !commands in
  (* Expiry and cancellation, in deterministic campaign order.  Only a
     leased shard can expire or be revoked, and every lease is in
     [busy]: with no lease out the walk is skipped. *)
  if Hashtbl.length t.busy > 0 then
    Array.iter
      (fun camp ->
        let id = camp.c_id in
        let cancelled = Scheduler.is_cancelled t.scheduler ~campaign:id in
        Array.iter
          (fun sh ->
            match sh.s_state with
            | Leased l when cancelled ->
              push
                (revoke ~target:l.l_worker ~campaign:id ~shard:sh.s_index
                   ~epoch:l.l_epoch ~reason:"campaign cancelled");
              revoke_blameless t camp sh ~epoch:l.l_epoch
                ~reason:"campaign cancelled"
            | Leased l when l.l_deadline <= now ->
              Metrics.incr "coordinator.deadlines_missed";
              (* The worker stays connected but has proven slow: no new
                 lease until it speaks again. *)
              Hashtbl.replace t.cooling l.l_worker (now + t.config.lease_ticks);
              push
                (revoke ~target:l.l_worker ~campaign:id ~shard:sh.s_index
                   ~epoch:l.l_epoch ~reason:"lease deadline missed");
              release t camp sh ~now ~epoch:l.l_epoch
                ~reason:"lease deadline missed"
            | _ -> ())
          camp.c_shards)
      t.order;
  (* Assignment: idle, warm workers in id order; campaigns round-robin. *)
  let idle =
    Hashtbl.fold
      (fun id _ acc ->
        if Hashtbl.mem t.busy id then acc
        else
          match Hashtbl.find_opt t.cooling id with
          | Some until when until > now -> acc
          | _ ->
            Hashtbl.remove t.cooling id;
            id :: acc)
      t.workers []
    |> List.sort compare
  in
  let assign worker =
    match next_shard t ~now with
    | None -> ()
    | Some (next, camp, sh) ->
      t.rr <- next;
      Option.iter push (grant t camp sh ~worker ~now)
  in
  List.iter assign idle;
  List.rev !commands

(* --- local execution ---------------------------------------------------------- *)

let claimable t ~now =
  sync_campaigns t;
  next_shard t ~now <> None

(* A local claim ends inside this call, so it needs no lease and no
   epoch: its shards are held as [Done], and any the engine left unfilled
   (a failed campaign) go back to [Unassigned]. *)
let run_local t ~now =
  sync_campaigns t;
  match next_shard t ~now with
  | None -> None
  | Some (next, camp, first) ->
    t.rr <- next;
    let rec gather sh claimed indices =
      sh.s_state <- Done;
      let indices = indices @ missing t camp.c_id sh in
      match Array.find_opt (eligible ~now) camp.c_shards with
      | Some more when List.length indices < Scheduler.jobs t.scheduler ->
        gather more (sh :: claimed) indices
      | _ -> (sh :: claimed, indices)
    in
    let claimed, indices = gather first [] [] in
    Scheduler.execute t.scheduler ~campaign:camp.c_id ~indices;
    List.iter
      (fun sh -> if missing t camp.c_id sh <> [] then sh.s_state <- Unassigned)
      claimed;
    Some camp.c_id

(* --- queries ---------------------------------------------------------------- *)

let shard_counts t ~campaign =
  match Hashtbl.find_opt t.campaigns campaign with
  | None -> (0, 0, 0)
  | Some camp ->
    Array.fold_left
      (fun (d, l, f) sh ->
        match sh.s_state with
        | Done -> (d + 1, l, f)
        | Leased _ -> (d, l + 1, f)
        | Dead -> (d, l, f + 1)
        | Unassigned -> (d, l, f))
      (0, 0, 0) camp.c_shards
