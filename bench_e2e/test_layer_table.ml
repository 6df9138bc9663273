(* Layer-table fold on synthetic traces: nesting, multiple threads,
   clamping, and the invariant the per-layer table rests on — self times
   plus unattributed time sum to the root. *)

module L = Bench_e2e.Layer_table
module Json = Perple_util.Json

let span ?(tid = 1) name ts dur = { L.name; tid; ts; dur }

let near a b = Float.abs (a -. b) < 1e-9

let expect what cond = if not cond then failwith ("layer table: " ^ what)

let sums_to_root (t : L.t) =
  near (t.L.unattributed_us +. List.fold_left (fun acc (_, v) -> acc +. v) 0. t.L.self_us) t.L.root_us

let nested () =
  (* root [0,100] { a [10,50] { b [20,30] }, c [60,90] } recorded in
     completion order, as Trace_event does. *)
  let t =
    L.fold ~root:"root"
      [ span "b" 20. 10.; span "a" 10. 40.; span "c" 60. 30.; span "root" 0. 100. ]
  in
  expect "root" (near t.L.root_us 100.);
  expect "unattributed" (near t.L.unattributed_us 30.);
  expect "a" (near (L.self t "a") 30.);
  expect "b" (near (L.self t "b") 10.);
  expect "c" (near (L.self t "c") 30.);
  expect "nested sum" (sums_to_root t)

let multi_tid () =
  (* Two threads with their own roots; a span on thread 2 never counts as
     a child of thread 1's spans even though the intervals overlap. *)
  let t =
    L.fold ~root:"root"
      [
        span ~tid:1 "work" 5. 20.; span ~tid:2 "work" 0. 50.;
        span ~tid:1 "root" 0. 40.; span ~tid:2 "root" 0. 60.;
        span ~tid:3 "stray" 0. 10.;
      ]
  in
  expect "roots add" (near t.L.root_us 100.);
  expect "work" (near (L.self t "work") 70.);
  expect "unattributed" (near t.L.unattributed_us 30.);
  expect "outside roots ignored" (L.self t "stray" = 0.);
  expect "multi-tid sum" (sums_to_root t)

let clamping () =
  (* A negative duration counts as zero; a child outliving its parent is
     cut at the parent's end; equal-interval spans nest outer-last. *)
  let t =
    L.fold ~root:"root"
      [
        span "neg" 5. (-3.); span "late" 80. 40.; span "inner" 10. 10.;
        span "outer" 10. 10.; span "root" 0. 100.;
      ]
  in
  expect "negative" (L.self t "neg" = 0.);
  expect "late clamped" (near (L.self t "late") 20.);
  expect "inner" (near (L.self t "inner") 10.);
  expect "outer" (near (L.self t "outer") 0.);
  expect "clamped sum" (sums_to_root t)

let chrome () =
  let doc =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              Json.Obj
                [ ("name", Json.String "x"); ("ph", Json.String "X");
                  ("ts", Json.Float 1.5); ("dur", Json.Int 2); ("tid", Json.Int 4) ];
              Json.Obj
                [ ("name", Json.String "mark"); ("ph", Json.String "i");
                  ("ts", Json.Float 2.) ];
            ] );
      ]
  in
  (match L.spans_of_chrome doc with
  | Ok [ s ] -> expect "parsed" (s.L.name = "x" && s.L.tid = 4 && near s.L.dur 2.)
  | Ok _ -> failwith "layer table: expected exactly one complete span"
  | Error m -> failwith m);
  expect "garbage rejected" (Result.is_error (L.spans_of_chrome (Json.List [])))

let () =
  nested ();
  multi_tid ();
  clamping ();
  chrome ()
