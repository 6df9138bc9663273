(* Tests for outcome conversion and the two counters: Fig 6 / Fig 8 golden
   conditions for sb, hand-built buf-array scenarios with known frame
   verdicts, pin semantics for mp, exact-rf semantics for n5, and the key
   soundness properties (heuristic subset of exhaustive; no false
   positives for x86-TSO-forbidden targets). *)

module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Convert = Perple_core.Convert
module OC = Perple_core.Outcome_convert
module Count = Perple_core.Count
module Engine = Perple_core.Engine
module Perpetual = Perple_harness.Perpetual
module Config = Perple_sim.Config
module Operational = Perple_memmodel.Operational
module Rng = Perple_util.Rng

let check = Alcotest.check

let conv_of name = Result.get_ok (Convert.convert (Catalog.find_exn name))

let converted conv o = Result.get_ok (OC.convert conv o)

let all_converted name =
  let conv = conv_of name in
  let test = conv.Convert.test in
  (conv, List.map (fun o -> (o, converted conv o)) (Outcome.all test))

(* --- Fig 6 / Fig 8 golden conditions for sb ------------------------------ *)

let test_sb_fig6_conditions () =
  let conv, outcomes = all_converted "sb" in
  let describe label =
    let _, c =
      List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
    in
    OC.describe conv c
  in
  (* Fig 6 bottom row, with <= m written as < m + 1. *)
  check Alcotest.string "p_out_0" "buf0[n] < m + 1 && buf1[m] < n + 1"
    (describe "00");
  check Alcotest.string "p_out_1" "buf1[m] >= n + 1 && buf0[n] < m + 1"
    (describe "01");
  check Alcotest.string "p_out_2" "buf0[n] >= m + 1 && buf1[m] < n + 1"
    (describe "10");
  check Alcotest.string "p_out_3" "buf0[n] >= m + 1 && buf1[m] >= n + 1"
    (describe "11")

let test_sb_fig8_heuristics () =
  let conv, outcomes = all_converted "sb" in
  let plan_text label =
    let _, c =
      List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
    in
    OC.describe_heuristic conv c (OC.heuristic_plan conv c)
  in
  (* Fig 8: h0/h1 substitute m := buf0[n] (iter + 1); h2/h3 use the rf
     equality m := iter(buf0[n]). *)
  check Alcotest.bool "h0 derives from fr" true
    (String.length (plan_text "00") > 0
    && String.sub (plan_text "00") 0 38
       = "n := loop index; m := iter(buf0[n]) + ");
  check Alcotest.bool "h2 derives from rf" true
    (String.sub (plan_text "10") 0 35 = "n := loop index; m := iter(buf0[n])")

let test_more_golden_conditions () =
  let describe name label =
    let conv, outcomes = all_converted name in
    let _, c =
      List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
    in
    OC.describe conv c
  in
  let heuristic_text name label =
    let conv, outcomes = all_converted name in
    let _, c =
      List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
    in
    OC.describe_heuristic conv c (OC.heuristic_plan conv c)
  in
  (* mp's target: the y-read pins thread 0's iteration; the x-read must be
     older than that pinned instance. *)
  check Alcotest.string "mp target"
    "buf1[2*n+0] in seq(i + 1) defining pin0 && buf1[2*n+1] < pin0 + 1"
    (describe "mp" "10");
  (* podwr001's target derives the three frame variables in a chain, the
     paper's T_L = 3 linear heuristic. *)
  check Alcotest.string "podwr001 chain"
    "n := loop index; m := iter(buf0[n]) + 1; p := iter(buf1[m]) + 1 |- \
     buf0[n] < m + 1 && buf1[m] < p + 1 && buf2[p] < n + 1"
    (heuristic_text "podwr001" "000");
  (* rfi013: k_x = 2 and the own-store bound 2*m + 2 on thread 1's read. *)
  check Alcotest.string "rfi013 own bound"
    "buf0[n] < m + 1 && buf1[m] < 2*n + 1 && buf1[m] < 2*m + 2"
    (describe "rfi013" "00");
  (* n5's non-target outcomes expect the initial value after an own store:
     unsatisfiable on coherent hardware. *)
  check Alcotest.string "n5 unsatisfiable"
    "false (reads older than a po-earlier own store)"
    (describe "n5" "00")

(* Heuristic plan structure across the suite: targets whose conditions
   chain through frame-thread stores derive every frame variable; the
   iriw family (readers never written to) falls back to the diagonal. *)
let test_suite_plan_shapes () =
  let diagonal_expected =
    [ "co-iriw"; "iriw"; "safe012"; "safe018"; "safe027"; "wrc" ]
  in
  List.iter
    (fun (e : Catalog.entry) ->
      let test = e.Catalog.test in
      let conv = conv_of test.Ast.name in
      let target =
        converted conv (Result.get_ok (Outcome.of_condition test))
      in
      let plan = OC.heuristic_plan conv target in
      let has_diagonal =
        List.exists
          (fun (_, d) -> d = OC.Diagonal)
          plan.OC.order
      in
      let expected = List.mem test.Ast.name diagonal_expected in
      if has_diagonal <> expected then
        Alcotest.failf "%s: diagonal fallback %b, expected %b" test.Ast.name
          has_diagonal expected;
      (* Plans cover every frame variable exactly once. *)
      let tl = Array.length conv.Convert.load_threads in
      let covered = List.map fst plan.OC.order in
      if List.sort compare covered <> List.init tl Fun.id then
        Alcotest.failf "%s: plan does not cover the frame" test.Ast.name)
    Catalog.suite

(* --- Hand-built frames --------------------------------------------------- *)

(* Hand-picked buf contents for sb: thread 0 loads y (sequence m+1);
   thread 1 loads x (sequence n+1). *)
let eval_sb label ~frame buf0 buf1 =
  let conv, outcomes = all_converted "sb" in
  let _, c =
    List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
  in
  OC.eval conv c ~bufs:[| buf0; buf1 |] ~frame

let test_sb_eval_frames () =
  (* Scenario: both threads read 0 in iteration 0 (true store buffering),
     then read each other's iteration-0 stores in iteration 1. *)
  let buf0 = [| 0; 1; 2 |] (* y values seen by thread 0 *) in
  let buf1 = [| 0; 1; 2 |] (* x values seen by thread 1 *) in
  check Alcotest.bool "frame (0,0) shows 00" true
    (eval_sb "00" ~frame:[| 0; 0 |] buf0 buf1);
  check Alcotest.bool "frame (0,0) not 11" false
    (eval_sb "11" ~frame:[| 0; 0 |] buf0 buf1);
  (* Frame (1,1): buf0[1] = 1 = iteration 0's store of thread 1, which is
     older than frame iteration 1 -> condition 0 for thread 0's read. *)
  check Alcotest.bool "frame (1,1) shows 00" true
    (eval_sb "00" ~frame:[| 1; 1 |] buf0 buf1);
  (* Frame (0,1): buf0[0] = 0 < 1+1, buf1[1] = 1 >= 0+1 -> outcome 01. *)
  check Alcotest.bool "frame (0,1) shows 01" true
    (eval_sb "01" ~frame:[| 0; 1 |] buf0 buf1);
  check Alcotest.bool "frame (0,1) not 00" false
    (eval_sb "00" ~frame:[| 0; 1 |] buf0 buf1)

let test_sb_eval_11 () =
  (* Mutual visibility: both read the other's frame-iteration store. *)
  let buf0 = [| 1 |] and buf1 = [| 1 |] in
  check Alcotest.bool "frame (0,0) shows 11" true
    (eval_sb "11" ~frame:[| 0; 0 |] buf0 buf1)

(* --- Pins (mp, T_L < T) -------------------------------------------------- *)

let test_mp_pins () =
  let conv, outcomes = all_converted "mp" in
  let eval label ~frame bufs =
    let _, c =
      List.find (fun (o, _) -> Outcome.short_label o = label) outcomes
    in
    OC.eval conv c ~bufs ~frame
  in
  (* mp: thread 1 loads y then x; thread 0 stores x then y, both seq n+1.
     buf1 = [y; x] per iteration.  Reading y = 5 pins thread 0 at
     iteration 4; the violation 10 requires x older than iteration 4. *)
  let bufs_violation = [| [||]; [| 5; 3 |] |] in
  check Alcotest.bool "stale x after fresh y = violation" true
    (eval "10" ~frame:[| 0 |] bufs_violation);
  (* Reading x = 5 (same iteration 4) is the legal outcome 11. *)
  let bufs_legal = [| [||]; [| 5; 5 |] |] in
  check Alcotest.bool "fresh x after fresh y = 11" true
    (eval "11" ~frame:[| 0 |] bufs_legal);
  check Alcotest.bool "no violation for legal bufs" false
    (eval "10" ~frame:[| 0 |] bufs_legal);
  (* Reads from two different iterations of the store-only thread do not
     count as outcome 11: pin consistency requires one store instance per
     non-frame thread (conservative, and required for co-iriw soundness). *)
  let bufs_later = [| [||]; [| 5; 9 |] |] in
  check Alcotest.bool "split-instance 11 not counted" false
    (eval "11" ~frame:[| 0 |] bufs_later);
  check Alcotest.bool "split-instance 10 not counted" false
    (eval "10" ~frame:[| 0 |] bufs_later)

(* --- Exact rf (n5, own-store coherence) ---------------------------------- *)

let test_n5_exact_rf () =
  let conv = conv_of "n5" in
  let target = Result.get_ok (Outcome.of_condition (Catalog.find_exn "n5")) in
  let c = converted conv target in
  Array.iter
    (fun (rf : OC.rf_cond) ->
      check Alcotest.bool "rf is exact" true rf.OC.exact)
    c.OC.rf;
  (* n5: k_x = 2; thread 0 stores 2n+1, thread 1 stores 2m+2.  In frame
     (3, 3): thread 0 reading thread 1's iteration-3 value (2*3+2 = 8) and
     vice versa (2*3+1 = 7) is the coherence violation. *)
  let bufs = [| [| 0; 0; 0; 8 |]; [| 0; 0; 0; 7 |] |] in
  check Alcotest.bool "exact frame detected" true
    (OC.eval conv c ~bufs ~frame:[| 3; 3 |]);
  (* Reading a *later* instance (iteration 4: 2*4+2 = 10) is not the
     frame's violation; the >= semantics would have wrongly matched. *)
  let bufs_later = [| [| 0; 0; 0; 10 |]; [| 0; 0; 0; 7 |] |] in
  check Alcotest.bool "later instance rejected" false
    (OC.eval conv c ~bufs:bufs_later ~frame:[| 3; 3 |])

let test_sb_rf_not_exact () =
  let _conv, outcomes = all_converted "sb" in
  let _, c =
    List.find (fun (o, _) -> Outcome.short_label o = "11") outcomes
  in
  Array.iter
    (fun (rf : OC.rf_cond) ->
      check Alcotest.bool "sb rf inexact" false rf.OC.exact)
    c.OC.rf

(* --- Counters ------------------------------------------------------------ *)

let real_run ?(iterations = 400) ?(seed = 5) name =
  let conv = conv_of name in
  let run =
    Perpetual.run ~rng:(Rng.create seed) ~image:conv.Convert.image
      ~t_reads:conv.Convert.t_reads ~iterations ()
  in
  (conv, run)

let test_frames_exhaustive () =
  check Alcotest.int "N^2" 160_000 (Count.frames_exhaustive ~tl:2 ~iterations:400);
  check Alcotest.int "N^0" 1 (Count.frames_exhaustive ~tl:0 ~iterations:400);
  Alcotest.check_raises "overflow"
    (Invalid_argument "Count.frames_exhaustive: overflow") (fun () ->
      ignore (Count.frames_exhaustive ~tl:4 ~iterations:1_000_000))

let test_first_match_partition () =
  (* Algorithm 1 counts at most one outcome per frame, so with ALL
     outcomes of interest the counts partition the frame space. *)
  let conv, run = real_run "sb" in
  let outcomes =
    List.map (converted conv) (Outcome.all conv.Convert.test)
  in
  let result = Count.exhaustive conv ~outcomes ~run in
  let total = Array.fold_left ( + ) 0 result.Count.counts in
  check Alcotest.int "counts fill all frames" result.Count.frames_examined
    total

let test_heuristic_counts_bounded () =
  let conv, run = real_run "sb" in
  let outcomes =
    List.map (converted conv) (Outcome.all conv.Convert.test)
  in
  let result = Count.heuristic_auto conv ~outcomes ~run in
  let total = Array.fold_left ( + ) 0 result.Count.counts in
  check Alcotest.bool "at most one hit per n" true
    (total <= run.Perpetual.iterations);
  check Alcotest.int "frames examined = N" run.Perpetual.iterations
    result.Count.frames_examined

let test_heuristic_subset_of_exhaustive () =
  (* Independent counting: each heuristic hit is a distinct frame that the
     exhaustive predicate accepts, so per-outcome heuristic counts are
     bounded by exhaustive counts. *)
  List.iter
    (fun name ->
      let conv, run = real_run ~iterations:250 name in
      let outcomes =
        List.map (converted conv) (Outcome.all conv.Convert.test)
      in
      let exh = Count.exhaustive_independent conv ~outcomes ~run in
      let heur = Count.heuristic_independent conv ~outcomes ~run in
      Array.iteri
        (fun i h ->
          if h > exh.Count.counts.(i) then
            Alcotest.failf "%s outcome %d: heuristic %d > exhaustive %d" name
              i h exh.Count.counts.(i))
        heur.Count.counts)
    [ "sb"; "lb"; "rfi013"; "iwp23b"; "n1" ]

(* The compiled evaluator behind [Count.heuristic] against the readable
   reference [OC.eval_heuristic], iteration by iteration, for every
   outcome of every convertible catalog test, on a correct and on a
   store-reordering machine.  The suite has stores with [k = 1] (the
   decoder's division-free case) and with [k > 1]. *)
let test_compiled_heuristic_matches_reference () =
  let ks = ref [] and total_hits = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      let conv = conv_of e.Catalog.test.Ast.name in
      List.iter
        (fun (s : Convert.store) -> ks := s.Convert.k :: !ks)
        conv.Convert.stores;
      List.iter
        (fun model ->
          let config = Config.with_model model Config.default in
          let run =
            Perpetual.run ~config ~rng:(Rng.create 13) ~image:conv.Convert.image
              ~t_reads:conv.Convert.t_reads ~iterations:300 ()
          in
          let bufs = run.Perpetual.bufs and n = run.Perpetual.iterations in
          List.iter
            (fun o ->
              match OC.convert conv o with
              | Error _ -> ()
              | Ok t ->
                let plan = OC.heuristic_plan conv t in
                let compiled = OC.compile_heuristic conv t plan in
                let hits = ref 0 in
                for i = 0 to n - 1 do
                  let reference =
                    OC.eval_heuristic conv t plan ~bufs ~iterations:n ~n:i
                  in
                  if reference then incr hits;
                  if
                    OC.eval_compiled compiled ~bufs ~iterations:n ~n:i
                    <> reference
                  then
                    Alcotest.failf
                      "%s %s iteration %d: compiled %b, reference %b"
                      e.Catalog.test.Ast.name (Outcome.short_label o) i
                      (not reference) reference
                done;
                total_hits := !total_hits + !hits;
                check Alcotest.int
                  (e.Catalog.test.Ast.name ^ " " ^ Outcome.short_label o)
                  !hits
                  (Count.heuristic conv ~outcomes:[ (t, plan) ] ~run)
                    .Count.counts.(0))
            (Outcome.all conv.Convert.test))
        [ Config.Tso; Config.Tso_store_reorder ])
    Catalog.suite;
  check Alcotest.bool "some iterations hit" true (!total_hits > 0);
  check Alcotest.bool "k = 1 stores" true (List.mem 1 !ks);
  check Alcotest.bool "k > 1 stores" true (List.exists (fun k -> k > 1) !ks)

let test_derived_frames_valid () =
  (* Every frame the heuristic derives is in range and satisfies the full
     perpetual predicate when counted. *)
  let conv, run = real_run "sb" in
  let target = converted conv (Result.get_ok (Outcome.of_condition conv.Convert.test)) in
  let plan = OC.heuristic_plan conv target in
  let n = run.Perpetual.iterations in
  for i = 0 to n - 1 do
    match
      OC.derived_frame conv target plan ~bufs:run.Perpetual.bufs
        ~iterations:n ~n:i
    with
    | None -> ()
    | Some frame ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then Alcotest.fail "derived frame out of range")
        frame;
      let hit = OC.eval conv target ~bufs:run.Perpetual.bufs ~frame in
      let heur_hit =
        OC.eval_heuristic conv target plan ~bufs:run.Perpetual.bufs
          ~iterations:n ~n:i
      in
      check Alcotest.bool "heuristic = eval on derived frame" hit heur_hit
  done

let test_no_false_positives_suite () =
  (* Integration: on the correct TSO machine, no forbidden target is ever
     counted, by either counter (paper, Sec VII-A). *)
  List.iter
    (fun (e : Catalog.entry) ->
      let name = e.Catalog.test.Ast.name in
      let conv, run = real_run ~iterations:300 ~seed:11 name in
      let target =
        converted conv (Result.get_ok (Outcome.of_condition e.Catalog.test))
      in
      let exh = Count.exhaustive conv ~outcomes:[ target ] ~run in
      let heur = Count.heuristic_auto conv ~outcomes:[ target ] ~run in
      check Alcotest.int (name ^ " exhaustive") 0 exh.Count.counts.(0);
      check Alcotest.int (name ^ " heuristic") 0 heur.Count.counts.(0))
    Catalog.forbidden

let test_allowed_targets_found () =
  (* And every allowed target is exposed (paper: PerpLE exposes the target
     of every allowed test). *)
  List.iter
    (fun (e : Catalog.entry) ->
      let name = e.Catalog.test.Ast.name in
      let conv, run = real_run ~iterations:2_000 ~seed:13 name in
      let target =
        converted conv (Result.get_ok (Outcome.of_condition e.Catalog.test))
      in
      let heur = Count.heuristic_auto conv ~outcomes:[ target ] ~run in
      if heur.Count.counts.(0) = 0 then
        Alcotest.failf "%s: allowed target not found in 2k iterations" name)
    Catalog.allowed

let no_false_positive_property =
  (* For random convertible tests: outcomes that x86-TSO forbids are never
     counted on the faithful TSO machine. *)
  QCheck.Test.make ~name:"no false positives on random tests" ~count:30
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:2 ())
    (fun test ->
      match Convert.convert_body test with
      | Error _ -> true (* not convertible; nothing to check *)
      | Ok conv ->
        let reachable =
          Operational.reachable_outcomes Operational.Tso test
        in
        let forbidden =
          List.filter
            (fun o -> not (List.exists (Outcome.equal o) reachable))
            (Outcome.all test)
        in
        let convertible_forbidden =
          List.filter_map
            (fun o -> Result.to_option (OC.convert conv o))
            forbidden
        in
        (* Cap the outcome set: exhaustive counting is O(N^TL * outcomes). *)
        let convertible_forbidden =
          List.filteri (fun i _ -> i < 10) convertible_forbidden
        in
        convertible_forbidden = []
        ||
        let run =
          Perpetual.run ~rng:(Rng.create 21) ~image:conv.Convert.image
            ~t_reads:conv.Convert.t_reads ~iterations:80 ()
        in
        let result =
          Count.exhaustive_independent conv ~outcomes:convertible_forbidden
            ~run
        in
        Array.for_all (fun c -> c = 0) result.Count.counts)

(* --- Factorized kernel agreement ------------------------------------------ *)

let test_heuristic_independent_units () =
  (* Unit contract: [frames_examined] is run length in frames for every
     counter; the per-outcome work is reported via [evaluations]. *)
  let conv, run = real_run "sb" in
  let outcomes = List.map (converted conv) (Outcome.all conv.Convert.test) in
  let r = Count.heuristic_independent conv ~outcomes ~run in
  check Alcotest.int "frames = N" run.Perpetual.iterations
    r.Count.frames_examined;
  check Alcotest.int "evaluations = N * outcomes"
    (run.Perpetual.iterations * List.length outcomes)
    r.Count.evaluations

let test_mutual_exclusivity_dispatch () =
  (* sb's four outcomes differ in frame-bound store sequences: provably
     exclusive, so first-match counting may factorize. *)
  let conv, outcomes = all_converted "sb" in
  check Alcotest.bool "sb outcome set exclusive" true
    (Count.mutually_exclusive conv (List.map snd outcomes));
  (* mp's bindings decode through a pinned store-only thread, which is
     never an exclusivity witness (pin-mediated rf and fr can hold for
     two outcomes on one frame): multi-outcome first-match falls back. *)
  let conv_mp, outcomes_mp = all_converted "mp" in
  check Alcotest.bool "mp outcome set not provably exclusive" false
    (Count.mutually_exclusive conv_mp (List.map snd outcomes_mp));
  check Alcotest.bool "singleton always exclusive" true
    (Count.mutually_exclusive conv_mp [ snd (List.hd outcomes_mp) ])

(* Byte-identical counts from the factorized kernels and the reference
   odometers, on arbitrary convertible programs.  Run length shrinks with
   T_L so the reference stays affordable. *)
let check_factorized_agreement ?(seed = 17) test =
  match Convert.convert_body test with
  | Error _ -> true (* not convertible; nothing to compare *)
  | Ok conv ->
    let tl = Array.length conv.Convert.load_threads in
    let iterations = if tl >= 3 then 16 else if tl = 2 then 64 else 256 in
    let run =
      Perpetual.run ~rng:(Rng.create seed) ~image:conv.Convert.image
        ~t_reads:conv.Convert.t_reads ~iterations ()
    in
    let outcomes =
      List.filteri
        (fun i _ -> i < 12)
        (List.filter_map
           (fun o -> Result.to_option (OC.convert conv o))
           (Outcome.all test))
    in
    outcomes = []
    || ((Count.exhaustive conv ~outcomes ~run).Count.counts
        = (Count.exhaustive_reference conv ~outcomes ~run).Count.counts
       && (Count.exhaustive_independent conv ~outcomes ~run).Count.counts
          = (Count.exhaustive_independent_reference conv ~outcomes ~run)
              .Count.counts)

let factorized_agrees_random =
  QCheck.Test.make ~name:"factorized = reference (random tests)" ~count:600
    (Gen.arbitrary_test ~max_threads:3 ~max_instrs:3 ())
    check_factorized_agreement

let factorized_agrees_cycles =
  QCheck.Test.make ~name:"factorized = reference (generated cycles)"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cycle =
        Perple_litmus.Generate.random_cycle (Rng.create seed) ~max_edges:7
      in
      match Perple_litmus.Generate.of_cycle ~name:"prop" cycle with
      | Error _ -> true
      | Ok test -> check_factorized_agreement ~seed test)

(* --- Engine -------------------------------------------------------------- *)

let test_engine_cap () =
  check Alcotest.int "tl=1 uncapped" 100_000
    (Engine.exhaustive_iterations_cap ~tl:1 ~cap:1000 ~requested:100_000);
  check Alcotest.bool "tl=2 capped" true
    (Engine.exhaustive_iterations_cap ~tl:2 ~cap:1_000_000 ~requested:10_000
    <= 1_000);
  check Alcotest.int "fits already" 100
    (Engine.exhaustive_iterations_cap ~tl:2 ~cap:1_000_000 ~requested:100)

let test_engine_end_to_end () =
  let report =
    Result.get_ok (Engine.run ~seed:3 ~iterations:1_000 Catalog.sb)
  in
  check Alcotest.bool "target found" true (Engine.target_count report > 0);
  check Alcotest.bool "rate positive" true (Engine.detection_rate report > 0.0);
  check Alcotest.int "frames = N" 1_000 report.Engine.frames_examined

let test_engine_rejects_non_convertible () =
  let t = List.hd Catalog.non_convertible in
  check Alcotest.bool "rejected" true
    (Result.is_error (Engine.run ~seed:1 ~iterations:100 t))

let test_engine_deterministic () =
  let run () =
    (Result.get_ok (Engine.run ~seed:77 ~iterations:500 Catalog.sb)).Engine.counts
  in
  check (Alcotest.array Alcotest.int) "same counts" (run ()) (run ())

(* The heuristic counter evaluates without allocating per iteration: its
   minor-heap traffic over a 20k-iteration run is a per-call constant
   (compiling the plan, the result record), not a per-iteration cost. *)
let test_heuristic_allocation_free () =
  List.iter
    (fun name ->
      let conv = conv_of name in
      let target =
        converted conv
          (Result.get_ok (Outcome.of_condition conv.Convert.test))
      in
      let run =
        Perpetual.run ~rng:(Rng.create 9) ~image:conv.Convert.image
          ~t_reads:conv.Convert.t_reads ~iterations:20_000 ()
      in
      let count () = Count.heuristic_auto conv ~outcomes:[ target ] ~run in
      ignore (count ());
      let before = Gc.minor_words () in
      let result = count () in
      let words = Gc.minor_words () -. before in
      check Alcotest.int (name ^ " frames") 20_000 result.Count.frames_examined;
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f minor words for 20k iterations" name words)
        true (words < 2_000.))
    [ "sb"; "iriw"; "podwr001" ]

let suite =
  [
    ( "core.outcome_convert",
      [
        Alcotest.test_case "sb Fig 6 conditions" `Quick
          test_sb_fig6_conditions;
        Alcotest.test_case "sb Fig 8 heuristics" `Quick
          test_sb_fig8_heuristics;
        Alcotest.test_case "more golden conditions" `Quick
          test_more_golden_conditions;
        Alcotest.test_case "suite plan shapes" `Quick test_suite_plan_shapes;
        Alcotest.test_case "sb frames" `Quick test_sb_eval_frames;
        Alcotest.test_case "sb 11 frame" `Quick test_sb_eval_11;
        Alcotest.test_case "mp pins" `Quick test_mp_pins;
        Alcotest.test_case "n5 exact rf" `Quick test_n5_exact_rf;
        Alcotest.test_case "sb rf inexact" `Quick test_sb_rf_not_exact;
      ] );
    ( "core.count",
      [
        Alcotest.test_case "frames_exhaustive" `Quick test_frames_exhaustive;
        Alcotest.test_case "first-match partition" `Quick
          test_first_match_partition;
        Alcotest.test_case "heuristic bounded" `Quick
          test_heuristic_counts_bounded;
        Alcotest.test_case "heuristic subset of exhaustive" `Quick
          test_heuristic_subset_of_exhaustive;
        Alcotest.test_case "derived frames valid" `Quick
          test_derived_frames_valid;
        Alcotest.test_case "compiled heuristic = reference" `Quick
          test_compiled_heuristic_matches_reference;
        Alcotest.test_case "no false positives (suite)" `Slow
          test_no_false_positives_suite;
        Alcotest.test_case "allowed targets found" `Slow
          test_allowed_targets_found;
        QCheck_alcotest.to_alcotest no_false_positive_property;
        Alcotest.test_case "heuristic_independent units" `Quick
          test_heuristic_independent_units;
        Alcotest.test_case "mutual-exclusivity dispatch" `Quick
          test_mutual_exclusivity_dispatch;
        Alcotest.test_case "heuristic allocation-free" `Quick
          test_heuristic_allocation_free;
        QCheck_alcotest.to_alcotest factorized_agrees_random;
        QCheck_alcotest.to_alcotest factorized_agrees_cycles;
      ] );
    ( "core.engine",
      [
        Alcotest.test_case "exhaustive cap" `Quick test_engine_cap;
        Alcotest.test_case "end to end" `Quick test_engine_end_to_end;
        Alcotest.test_case "non-convertible rejected" `Quick
          test_engine_rejects_non_convertible;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
      ] );
  ]
