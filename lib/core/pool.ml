(* A deterministic work pool on stdlib domains, with persistent workers.

   Tasks are indexed [0, n); results land in slot [i] regardless of which
   domain ran task [i], so the result array is a pure function of the task
   function — the domain count only changes wall-clock time.  Determinism
   of the *work itself* is the caller's contract: a task must not draw
   from shared mutable state (the engine pre-splits one RNG per task
   before dispatch, see {!Engine.campaign}).

   Workers are spawned once and reused: historically every [map] spawned
   [jobs - 1] fresh domains and joined them before returning, which on a
   busy or single-core host made a 4-way campaign several times {e
   slower} than the sequential loop (domain spawn/join dominated the
   400-iteration runs it dispatched).  A pool now keeps its domains
   parked on a condition variable between batches; dispatch is one
   broadcast plus chunked index claiming off a single atomic counter. *)

module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event

let available_domains () = Domain.recommended_domain_count ()

(* The OCaml runtime supports a bounded number of live domains; stay well
   inside it whatever the caller asks for. *)
let max_jobs = 64

type task_error = { exn : exn; backtrace : Printexc.raw_backtrace }

let error_message e = Printexc.to_string e.exn
let error_backtrace e = Printexc.raw_backtrace_to_string e.backtrace

(* A batch is type-erased to a claim thunk: the closure owns the typed
   results array, workers only pump [claim] until the index space is
   exhausted.  [participants] caps how many workers join in, so a wide
   pool can still honour a narrow [~jobs] request. *)
type batch = { claim : unit -> bool; participants : int }

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when a batch is published or on stop *)
  donec : Condition.t;  (* signalled when the last participant retires *)
  mutable workers : unit Domain.t array;
  mutable worker_ids : Domain.id array;
  mutable batch : batch option;
  mutable generation : int;  (* bumped per published batch *)
  mutable active : int;  (* participants still inside the current batch *)
  mutable stop : bool;
  mutable warned_clamp : bool;  (* stderr clamp note: once per pool *)
}

(* Worker [i]: park until a fresh generation appears, claim chunks until
   the batch is dry, retire, park again.  Parked workers sit in
   [Condition.wait] (a blocking section), so an idle pool costs neither
   CPU nor GC latency. *)
let worker_loop t i () =
  let seen = ref 0 in
  Mutex.lock t.mutex;
  while not t.stop do
    if t.generation = !seen then Condition.wait t.work t.mutex
    else begin
      seen := t.generation;
      match t.batch with
      | Some b when i < b.participants ->
        Mutex.unlock t.mutex;
        while b.claim () do () done;
        Mutex.lock t.mutex;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.broadcast t.donec
      | Some _ | None -> ()
    end
  done;
  Mutex.unlock t.mutex

let spawn_worker t i = Domain.spawn (worker_loop t i)

let clamp_pool_jobs jobs = max 1 (min jobs max_jobs)

let create ?jobs () =
  let jobs =
    match jobs with Some j -> clamp_pool_jobs j | None -> available_domains ()
  in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      workers = [||];
      worker_ids = [||];
      batch = None;
      generation = 0;
      active = 0;
      stop = false;
      warned_clamp = false;
    }
  in
  (* No metric tick here: pool creation depends on [jobs], and the
     metrics dump must stay byte-identical across --jobs. *)
  let workers = Array.init (jobs - 1) (fun i -> spawn_worker t i) in
  t.workers <- workers;
  t.worker_ids <- Array.map Domain.get_id workers;
  t

let size t = Array.length t.workers + 1

(* Grow (never shrink) to serve a wider [~jobs] request on a reused
   pool.  Only called between batches, from the submitting domain. *)
let ensure_size t jobs =
  let jobs = clamp_pool_jobs jobs in
  let have = size t in
  if jobs > have then begin
    let fresh =
      Array.init (jobs - have) (fun k -> spawn_worker t (have - 1 + k))
    in
    t.workers <- Array.append t.workers fresh;
    t.worker_ids <-
      Array.append t.worker_ids (Array.map Domain.get_id fresh)
  end

let shutdown t =
  let workers =
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      [||]
    end
    else begin
      t.stop <- true;
      Condition.broadcast t.work;
      let w = t.workers in
      t.workers <- [||];
      t.worker_ids <- [||];
      Mutex.unlock t.mutex;
      w
    end
  in
  Array.iter Domain.join workers

(* The process-wide shared pool backing plain [map ~jobs] calls: created
   on first parallel dispatch, grown to the widest request seen, joined
   at exit.  Access is serialized by [shared_mutex]; the pool itself runs
   one batch at a time (see [run_batch]). *)
let shared : t option ref = ref None
let shared_mutex = Mutex.create ()

let shared_pool ~jobs =
  Mutex.lock shared_mutex;
  let pool =
    match !shared with
    | Some p ->
      ensure_size p jobs;
      p
    | None ->
      let p = create ~jobs () in
      shared := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock shared_mutex;
  pool

(* Both clamps used to be silent; a campaign asking for 128 workers ran
   on 64 with no trace of the difference.  Each clamp ticks
   [pool.jobs_clamped]; the stderr note is emitted once per pool (a
   reused pool would otherwise repeat it every [map]). *)
let clamp_jobs ?pool ~jobs ~n () =
  let effective = min (min jobs n) max_jobs in
  if effective < jobs then begin
    Metrics.incr "pool.jobs_clamped";
    let warn =
      match pool with
      | None -> true
      | Some p ->
        if p.warned_clamp then false
        else begin
          p.warned_clamp <- true;
          true
        end
    in
    if warn then
      Printf.eprintf "perple: pool: clamped jobs %d -> %d (%s)\n%!" jobs
        effective
        (if jobs > max_jobs && effective = max_jobs then
           Printf.sprintf "domain limit %d" max_jobs
         else Printf.sprintf "only %d tasks" n)
  end;
  effective

(* Observability wrapper around one task: a "pool.task" span whose [tid]
   is the executing domain (per-domain utilization is read straight off
   the trace timeline) plus a scheduling-independent task counter.

   The enabled check runs per task, in the worker, {e inside} any
   [around] wrapper: an engine per-run capture scope
   ({!Perple_util.Metrics.scoped}) must see the [pool.tasks] tick even
   when no ambient sink is installed, or a journaled run's metrics would
   depend on whether --metrics was passed.  Without an [around] wrapper
   no scope can appear mid-batch, so the check is hoisted to dispatch
   time and disarmed instrumentation costs nothing per task. *)
let observed_task f i =
  if not (Trace.enabled () || Metrics.enabled ()) then f i
  else begin
    let t0 = Trace.now () in
    let r = f i in
    Metrics.incr "pool.tasks";
    Trace.complete ~name:"pool.task" ~since:t0
      ~args:[ ("index", Trace.Int i) ]
      ();
    r
  end

exception Missing_result

(* Chunk size: large enough to amortize the atomic claim and any
   cross-domain cache traffic, small enough that a straggler chunk
   cannot serialize the tail of the batch. *)
let chunk_size ~n ~jobs = max 1 (n / (jobs * 8))

(* Run one batch on [pool], caller participating.  The pool admits one
   batch at a time; publishing while one is in flight is a programming
   error (pools are not concurrency-safe across submitters). *)
let run_batch pool ~jobs ~n task =
  let missing = { exn = Missing_result; backtrace = Printexc.get_callstack 0 } in
  let results = Array.make n (Error missing) in
  let self = Domain.self () in
  if Array.exists (fun id -> id = self) pool.worker_ids then
    (* A task submitting to its own pool would deadlock waiting for
       itself; run the nested batch inline instead. *)
    for i = 0 to n - 1 do
      results.(i) <- task i
    done
  else begin
    let next = Atomic.make 0 in
    let chunk = chunk_size ~n ~jobs in
    let claim () =
      let start = Atomic.fetch_and_add next chunk in
      if start >= n then false
      else begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          results.(i) <- task i
        done;
        true
      end
    in
    let participants = min (jobs - 1) (Array.length pool.workers) in
    Mutex.lock pool.mutex;
    if pool.batch <> None then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool: concurrent map on the same pool"
    end;
    pool.batch <- Some { claim; participants };
    pool.active <- participants;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    while claim () do () done;
    Mutex.lock pool.mutex;
    while pool.active > 0 do
      Condition.wait pool.donec pool.mutex
    done;
    pool.batch <- None;
    Mutex.unlock pool.mutex
  end;
  Array.iter
    (function
      | Error { exn = Missing_result; _ } ->
        invalid_arg "Pool.map_result: missing result"
      | _ -> ())
    results;
  results

let map_result ?pool ?jobs ?around n f =
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> j
    | None, Some p -> size p
    | None, None -> 1
  in
  if jobs < 1 then invalid_arg "Pool.map_result: jobs must be >= 1";
  if n < 0 then invalid_arg "Pool.map_result: negative task count";
  if n = 0 then [||]
  else begin
    let jobs = clamp_jobs ?pool ~jobs ~n () in
    let f =
      match around with
      | Some _ ->
        (* A per-task scope may enable instrumentation mid-task: keep the
           enabled check inside the task. *)
        observed_task f
      | None ->
        if Trace.enabled () || Metrics.enabled () then observed_task f else f
    in
    (* Capture failures per task instead of poisoning the pool: a raising
       task yields [Error] in its own slot (exception plus backtrace) and
       every sibling still runs to completion. *)
    let protected i =
      match f i with
      | v -> Ok v
      | exception exn ->
        let backtrace = Printexc.get_raw_backtrace () in
        Metrics.incr "pool.task_errors";
        Error { exn; backtrace }
    in
    let task =
      match around with
      | None -> protected
      | Some wrap -> fun i -> wrap i (fun () -> protected i)
    in
    (* Without an explicit pool, cap dispatch width at the hardware's
       domain count: extra domains beyond physical cores cannot speed up
       CPU-bound tasks but tax every minor GC with a per-domain
       stop-the-world handshake (measured ~6x on allocating workloads).
       Silent and invisible in results — [jobs] only ever decides which
       domain runs a task, never what the task computes.  An explicit
       [?pool] is honoured at its created width (the oversubscription
       escape hatch, e.g. for IO-bound tasks or dispatch-path tests). *)
    let dispatch_jobs =
      match pool with
      | Some _ -> jobs
      | None -> min jobs (available_domains ())
    in
    if dispatch_jobs <= 1 then Array.init n task
    else begin
      let pool =
        match pool with
        | Some p -> p
        | None -> shared_pool ~jobs:dispatch_jobs
      in
      run_batch pool ~jobs:dispatch_jobs ~n task
    end
  end

let map ?pool ?jobs n f =
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Pool.map: jobs must be >= 1"
  | Some _ | None -> ());
  if n < 0 then invalid_arg "Pool.map: negative task count";
  let results = map_result ?pool ?jobs n f in
  (* Re-raise the lowest-index failure — a deterministic choice, where
     the old first-failure-wins race both picked a scheduling-dependent
     winner and silently dropped every later failure. *)
  Array.iter
    (function
      | Ok _ -> ()
      | Error e -> Printexc.raise_with_backtrace e.exn e.backtrace)
    results;
  Array.map (function Ok v -> v | Error _ -> assert false) results
