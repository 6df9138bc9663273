(* Deterministic counters and histograms for the pipeline.

   Like {!Trace_event}, a single ambient sink is installed per command
   (`--metrics FILE`); every instrumented layer adds to it.  Unlike the
   trace, the metrics summary is part of the *deterministic* surface:
   every recorded value is an integer count derived from the (seeded)
   computation itself — never from the wall clock — and addition is
   commutative, so the dump is bit-identical however pool domains
   interleave and for any --jobs N.  Names are sorted at dump time to make
   that byte-identity independent of first-touch order too. *)

type sink = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Stats.Histogram.t) Hashtbl.t;
  mutex : Mutex.t;
}

let ambient : sink option ref = ref None

(* Per-domain override stack.  [scoped] pushes a private sink for one
   task's dynamic extent so a campaign can capture that run's counters
   in isolation (for journaling) while sibling runs on other domains
   keep recording into their own scopes.  The global ambient sink stays
   the fallback, so installing a sink before spawning domains still
   covers every domain, as before. *)
let scope_stack : sink list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let create_sink () =
  {
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    mutex = Mutex.create ();
  }

let install sink = ambient := Some sink
let uninstall () = ambient := None

let active () =
  match !(Domain.DLS.get scope_stack) with
  | sink :: _ -> Some sink
  | [] -> !ambient

let enabled () = active () <> None

let scoped sink f =
  let stack = Domain.DLS.get scope_stack in
  stack := sink :: !stack;
  Fun.protect
    ~finally:(fun () ->
      match !stack with _ :: rest -> stack := rest | [] -> ())
    f

let add sink name by =
  Mutex.lock sink.mutex;
  (match Hashtbl.find_opt sink.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add sink.counters name (ref by));
  Mutex.unlock sink.mutex

let observe_many sink name value count =
  Mutex.lock sink.mutex;
  let h =
    match Hashtbl.find_opt sink.histograms name with
    | Some h -> h
    | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.add sink.histograms name h;
      h
  in
  Stats.Histogram.add_many h value count;
  Mutex.unlock sink.mutex

let observe sink name value = observe_many sink name value 1

let incr ?(by = 1) name =
  match active () with None -> () | Some sink -> add sink name by

let record ?(value = 0) name =
  match active () with None -> () | Some sink -> observe sink name value

let counter sink name =
  match Hashtbl.find_opt sink.counters name with Some r -> !r | None -> 0

let sorted_bindings tbl value =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])

let json_of_histogram h =
  let lo, hi =
    match Stats.Histogram.range h with Some r -> r | None -> (0, 0)
  in
  let sum =
    List.fold_left
      (fun acc (v, c) -> acc + (v * c))
      0 (Stats.Histogram.bindings h)
  in
  Json.Obj
    [
      ("count", Json.Int (Stats.Histogram.total h));
      ("sum", Json.Int sum);
      ("min", Json.Int lo);
      ("max", Json.Int hi);
      ( "buckets",
        Json.Obj
          (List.map
             (fun (v, c) -> (string_of_int v, Json.Int c))
             (Stats.Histogram.bindings h)) );
    ]

let to_json sink =
  Mutex.lock sink.mutex;
  let counters = sorted_bindings sink.counters (fun r -> Json.Int !r) in
  let histograms = sorted_bindings sink.histograms json_of_histogram in
  Mutex.unlock sink.mutex;
  Json.Obj
    [
      ("schema", Json.String "perple-metrics/1");
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj histograms);
    ]

let write sink ~path = Json.write_file ~path (to_json sink)

(* --- Merging --------------------------------------------------------------- *)

(* Addition is commutative, so merging per-run capture sinks into the
   ambient sink in completion order yields the same totals as recording
   into the ambient sink directly — the bit-identical-for-any-jobs dump
   contract survives per-run capture. *)
let merge dst src =
  Mutex.lock src.mutex;
  let counters =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) src.counters []
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc -> (name, Stats.Histogram.bindings h) :: acc)
      src.histograms []
  in
  Mutex.unlock src.mutex;
  List.iter (fun (name, v) -> add dst name v) counters;
  List.iter
    (fun (name, bindings) ->
      List.iter (fun (v, c) -> observe_many dst name v c) bindings)
    histograms

(* Replay a {!to_json} dump (e.g. a journaled per-run capture) into a
   live sink.  Strict: anything structurally unexpected is an error, so
   a corrupt journal record cannot silently skew a resumed campaign's
   metrics. *)
let merge_json sink json =
  let ( let* ) = Result.bind in
  let obj_member name v =
    match Json.member name v with
    | Some (Json.Obj fields) -> Stdlib.Ok fields
    | Some _ | None ->
      Stdlib.Error (Printf.sprintf "metrics record: %S is not an object" name)
  in
  let each f l = Result.map ignore (Json.map_result f l) in
  let* counters = obj_member "counters" json in
  let* histograms = obj_member "histograms" json in
  let* () =
    each
      (function
        | name, Json.Int v ->
          add sink name v;
          Stdlib.Ok ()
        | name, _ ->
          Stdlib.Error
            (Printf.sprintf "metrics record: counter %S is not an int" name))
      counters
  in
  each
    (fun (name, h) ->
      let* buckets = obj_member "buckets" h in
      each
        (function
          | value, Json.Int c -> (
            match int_of_string_opt value with
            | Some v when c >= 0 ->
              observe_many sink name v c;
              Stdlib.Ok ()
            | _ ->
              Stdlib.Error
                (Printf.sprintf "metrics record: bad bucket in %S" name))
          | _, _ ->
            Stdlib.Error
              (Printf.sprintf "metrics record: bad bucket count in %S" name))
        buckets)
    histograms
