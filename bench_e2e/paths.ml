(* The system under test, driven through its three real entry points —
   `perple run` processes, a `perple serve` daemon, and a `serve
   --coordinator` fleet with `perple worker` processes — with every output
   checked against the in-process reference.  Each operation returns its
   latency in seconds, or [None] when it failed (counted in [ctx]). *)

module Ledger = Perple_core.Ledger
module Client = Perple_service.Client
module Wire = Perple_service.Wire
module Journal = Perple_util.Journal
module Json = Perple_util.Json
open Inputs

type ctx = {
  perple : string;
  dir : string;  (** Per-workload directory for journals and sockets. *)
  log : string;  (** Where children's stderr goes. *)
  mutable attempted : int;
  mutable failed : int;
  mutable peak_kb : int;
  mutable errors : string list;  (** First failures, newest first. *)
}

let op_timeout = 120.

let failure ctx fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.failed <- ctx.failed + 1;
      if List.length ctx.errors < 8 then ctx.errors <- msg :: ctx.errors)
    fmt

let note_peak ctx kb = ctx.peak_kb <- max ctx.peak_kb kb

let path ctx name = Filename.concat ctx.dir name

let remove p = if Sys.file_exists p then Sys.remove p

(* --- output parsing ---------------------------------------------------------- *)

let tokens line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let rec int_after key = function
  | k :: v :: _ when k = key -> int_of_string_opt v
  | _ :: tl -> int_after key tl
  | [] -> None

let rec int_before key = function
  | v :: k :: _ when k = key -> int_of_string_opt v
  | _ :: tl -> int_before key tl
  | [] -> None

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let lines s = String.split_on_char '\n' s

(* `perple run --runs R`: one "run" line per run, in index order. *)
let campaign_matches (expected : Ledger.t array) stdout =
  let runs = List.filter (starts_with "run ") (lines stdout) in
  List.length runs = Array.length expected
  && List.for_all2
       (fun line (e : Ledger.t) ->
         let t = tokens line in
         int_after "iterations" t = Some e.Ledger.iterations
         && int_after "frames" t = Some e.Ledger.frames_examined
         && int_after "runtime" t = Some e.Ledger.virtual_runtime
         && int_after "target" t = Some (Ledger.target_count e))
       runs (Array.to_list expected)

(* `perple run T --verify-trace`: the header's iteration count, the target
   count on the first outcome line, and a consistent verdict. *)
let verified_matches (iterations, target) stdout =
  match lines stdout with
  | header :: outcome :: rest ->
    int_before "iterations," (tokens header) = Some iterations
    && (match List.rev (tokens outcome) with
       | last :: _ -> int_of_string_opt last = Some target
       | [] -> false)
    && List.exists
         (fun l ->
           starts_with "trace verification against" l
           && List.mem "consistent" (tokens l))
         rest
  | _ -> false

(* --- `perple run` ------------------------------------------------------------- *)

let run_argv ctx c extra =
  Array.of_list
    ([ ctx.perple; "run"; c.test; "-n"; string_of_int c.iterations; "--seed";
       string_of_int c.seed ]
    @ (if c.runs > 1 then [ "--runs"; string_of_int c.runs; "--jobs"; "2" ] else [])
    @ extra)

(* One `perple run`: exit 0 and [check stdout], and, when [same_as] holds
   the stdout of an earlier run of the same inputs, byte-identical to it. *)
let perple_run ctx ?same_as ~check argv =
  ctx.attempted <- ctx.attempted + 1;
  let cap = Proc.run ~timeout:op_timeout ~log:ctx.log argv in
  note_peak ctx cap.Proc.peak_kb;
  let what = String.concat " " (List.tl (Array.to_list argv)) in
  match cap.Proc.status with
  | None ->
    failure ctx "%s: timed out after %.0f s" what op_timeout;
    None
  | Some (Unix.WEXITED 0) ->
    if not (check cap.Proc.stdout) then begin
      failure ctx "%s: output disagrees with the in-process reference" what;
      None
    end
    else begin
      match same_as with
      | Some first when first <> cap.Proc.stdout ->
        failure ctx "%s: output differs from the first run of the same inputs" what;
        None
      | _ -> Some (cap.Proc.seconds, cap.Proc.stdout)
    end
  | Some (Unix.WEXITED n) ->
    failure ctx "%s: exit %d" what n;
    None
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    failure ctx "%s: killed by signal %d" what n;
    None

(* --- daemon and fleet ------------------------------------------------------- *)

type service = {
  pid : int;
  socket : string;
  journal : string;
  workers : int list;
}

let worker_names = [ "w0"; "w1" ]

let shard_runs = 4

let start_service ctx ~coordinator ~tag =
  let socket = path ctx (tag ^ ".sock") and journal = path ctx (tag ^ ".journal") in
  remove socket;
  remove journal;
  let argv =
    [ ctx.perple; "serve"; "--socket"; socket; "--jobs"; "2"; "--journal"; journal ]
    @ if coordinator then [ "--coordinator"; "--shard-runs"; string_of_int shard_runs ] else []
  in
  let pid = Proc.spawn ~log:ctx.log (Array.of_list argv) in
  match Proc.await_file ~pid ~timeout:10. socket with
  | Error m ->
    Proc.terminate pid;
    Error m
  | Ok () ->
    let workers =
      if not coordinator then []
      else
        List.map
          (fun name ->
            Proc.spawn ~log:ctx.log
              [| ctx.perple; "worker"; "--socket"; socket; "--name"; name |])
          worker_names
    in
    Ok { pid; socket; journal; workers }

(* Peak RSS is read before SIGTERM; workers stop first so none of them
   enters a reconnect loop against a vanished coordinator. *)
let stop_service ctx s =
  List.iter (fun pid -> Option.iter (note_peak ctx) (Proc.hwm_kb pid)) (s.pid :: s.workers);
  List.iter (fun pid -> Proc.terminate pid) s.workers;
  Proc.terminate s.pid

let wire_spec ~id c =
  { Wire.campaign = id; test = c.test; iterations = c.iterations; seed = c.seed;
    runs = c.runs; counter = "heur"; model = "tso" }

(* One closed-loop submit over a fresh connection; the streamed records must
   equal the reference record lines. *)
let submit ctx s ~id c ~(expected : string list) =
  ctx.attempted <- ctx.attempted + 1;
  let t0 = Unix.gettimeofday () in
  let result = Client.submit_blocking ~socket:s.socket ~attempts:3 ~spec:(wire_spec ~id c) () in
  let dt = Unix.gettimeofday () -. t0 in
  match result with
  | Error m ->
    failure ctx "submit %s: %s" id m;
    None
  | Ok o when o.Client.records <> expected ->
    failure ctx "submit %s: records disagree with the in-process reference" id;
    None
  | Ok _ -> Some dt

let record_lines refs = Array.to_list (Array.map Ledger.record_line refs)

(* Journal records of one kind, optionally for one campaign. *)
let journal_records ?campaign journal kind =
  match Journal.load journal with
  | Error _ -> []
  | Ok r ->
    List.filter
      (fun j ->
        Ledger.kind j = Some kind
        && match campaign with
           | None -> true
           | Some c -> Json.member "campaign" j = Some (Json.String c))
      r.Journal.records

let leased_workers journal ~campaign =
  List.filter_map
    (fun j -> match Json.member "worker" j with Some (Json.String w) -> Some w | _ -> None)
    (journal_records ~campaign journal "lease")

(* A started service is live once it completed a 1-iteration campaign; a
   fleet's must have leased one shard to each worker, so both are up. *)
let warm_campaign ~coordinator ~seed =
  { test = "sb"; iterations = 1; runs = (if coordinator then 2 * shard_runs else 2);
    seed = derive seed "cold" 0 }

let start_live ctx ~coordinator ~tag ~warm_lines ~seed =
  let warm = warm_campaign ~coordinator ~seed in
  match start_service ctx ~coordinator ~tag with
  | Error m ->
    failure ctx "start %s: %s" tag m;
    None
  | Ok s ->
    let rec warm_up k =
      k < 50
      &&
      let id = Printf.sprintf "warm-%d" k in
      match submit ctx s ~id warm ~expected:warm_lines with
      | None -> false
      | Some _ ->
        (not coordinator)
        || List.for_all (fun w -> List.mem w (leased_workers s.journal ~campaign:id)) worker_names
        || warm_up (k + 1)
    in
    if warm_up 0 then Some s
    else begin
      failure ctx "start %s: no warm-up campaign reached every worker" tag;
      stop_service ctx s;
      None
    end
